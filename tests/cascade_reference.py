"""The block-parity reconciliation that `postprocess.cascade` is checked
against, cut point for cut point.

Every parity is read off the key as it stands, one numpy reduction per
query, and each shuffle reads its random keys one bit at a time, charging
every bit read to (shared, ec_permutation). The leak is the column
elimination of `rank_reference.leak_rank_reference` over the disclosed
segments, not the package's certificate.
"""

from __future__ import annotations

import numpy as np

from blockqkd.postprocess import (
    CASCADE_BLOCK_FACTOR,
    CASCADE_PASSES,
    MIN_KEY_LENGTH,
    QBER_FLOOR,
    ReconciliationResult,
)
from blockqkd.randomness import BitSource
from rank_reference import leak_rank_reference


def _parity(key: np.ndarray, idx: np.ndarray) -> int:
    return int(np.bitwise_xor.reduce(key[idx]))


def _radix_order(words: list[int], more) -> tuple[list[int], int]:
    """The indices in the order of their keys `words`, read bit by bit from
    the top, and the bits read: every group of two or more indices whose
    keys agree so far splits on its next bit, 0s first, charging one bit per
    member. Groups still whole after a word's 64 bits read one more word
    per member, all such members at once: `more(members)` returns the
    words of the given indices, listed in increasing order."""
    keys = list(words)
    groups, charge, bit = [list(range(len(keys)))], 0, 63
    while any(len(group) > 1 for group in groups):
        if bit < 0:
            tied = sorted(i for group in groups if len(group) > 1 for i in group)
            for i, word in zip(tied, more(tied)):
                keys[i] = word
            bit = 63
        split = []
        for group in groups:
            if len(group) > 1:
                charge += len(group)
                zeros = [i for i in group if not keys[i] >> bit & 1]
                ones = [i for i in group if keys[i] >> bit & 1]
                split.extend(part for part in (zeros, ones) if part)
            else:
                split.append(group)
        groups, bit = split, bit - 1
    return [group[0] for group in groups], charge


def _words(source: BitSource, count: int) -> list[int]:
    """The 64-bit words of one getrandbits(64 count) value, lowest first."""
    raw = source._rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    return [int.from_bytes(raw[i : i + 8], "little") for i in range(0, len(raw), 8)]


def _permutation(n: int, source: BitSource) -> np.ndarray:
    """A shuffle by lazy radix partition of n random 64-bit keys, charging
    (shared, ec_permutation) every bit it reads; n < 2 reads nothing."""
    if n < 2:
        return np.arange(n)
    order, charge = _radix_order(_words(source, n), lambda tied: _words(source, len(tied)))
    source.ledger.record("shared", "ec_permutation", charge)
    return np.array(order, dtype=np.int64)


def cascade_reference(
    alice_key: np.ndarray,
    bob_key: np.ndarray,
    qber_estimate: float,
    source: BitSource,
    block_factor: float = CASCADE_BLOCK_FACTOR,
) -> tuple[ReconciliationResult, dict[tuple[int, int, int], int]]:
    """postprocess.cascade as first written, also returning the segments it
    disclosed with Alice's parities.

    Estimates below 0.01 are floored (a zero estimate would ask for
    unbounded blocks); estimates at or above 0.5 are outside the protocol's
    working range and rejected. Pass-1 blocks hold round(block_factor/qber)
    bits, clamped to [4, key length]; each later pass applies a fresh
    ledgered permutation and doubles the block length.
    """
    alice = np.asarray(alice_key, dtype=np.uint8)
    working = np.asarray(bob_key, dtype=np.uint8).copy()
    n = len(alice)
    if n != len(working):
        raise ValueError("keys must have equal length")
    if n < MIN_KEY_LENGTH:
        raise ValueError(f"reconciliation needs at least {MIN_KEY_LENGTH} bits")
    q = max(float(qber_estimate), QBER_FLOOR)
    if q >= 0.5:
        raise ValueError("QBER estimate must be below 0.5")
    first_block = min(max(round(block_factor / q), 4), n)

    # Pass p reads the key in orders[p] and cuts it into blocks of sizes[p].
    orders: list[np.ndarray] = []
    sizes: list[int] = []
    block_of: list[np.ndarray] = []
    queue: list[tuple[int, int]] = []
    # Alice's parities, once disclosed, are remembered by both parties and
    # never change, so a segment is disclosed at most once; keyed by
    # (pass, start, stop) over the pass's order.
    told: dict[tuple[int, int, int], int] = {}

    def alice_parity(p: int, start: int, stop: int) -> int:
        key = (p, start, stop)
        if key not in told:
            told[key] = _parity(alice, orders[p][start:stop])
        return told[key]

    def bounds(p: int, b: int) -> tuple[int, int]:
        start = b * sizes[p]
        return start, min(start + sizes[p], n)

    def mismatched(p: int, b: int) -> bool:
        start, stop = bounds(p, b)
        return alice_parity(p, start, stop) != _parity(working, orders[p][start:stop])

    def search(p: int, b: int) -> int:
        # Binary search over a block with an odd number of errors: compare
        # the left half's parities and recurse into the differing half. The
        # right half never needs disclosure (parent XOR left), so a fresh
        # segment costs exactly one parity per halving step.
        order = orders[p]
        lo, hi = bounds(p, b)
        while hi - lo > 1:
            mid = lo + (hi - lo + 1) // 2
            if alice_parity(p, lo, mid) != _parity(working, order[lo:mid]):
                hi = mid
            else:
                lo = mid
        return int(order[lo])

    def drain() -> None:
        while queue:
            p, b = queue.pop()
            if not mismatched(p, b):
                continue
            error = search(p, b)
            working[error] ^= 1
            for p2 in range(len(orders)):
                b2 = int(block_of[p2][error])
                if mismatched(p2, b2):
                    queue.append((p2, b2))

    for p in range(CASCADE_PASSES):
        order = np.arange(n) if p == 0 else _permutation(n, source)
        size = min(first_block << p, n)
        orders.append(order)
        sizes.append(size)
        owner = np.empty(n, dtype=np.int64)
        owner[order] = np.arange(n) // size
        block_of.append(owner)
        # mismatched() discloses each block's top-level parity here, once.
        queue.extend((p, b) for b in range(-(-n // size)) if mismatched(p, b))
        drain()

    residual = int(np.count_nonzero(alice != working))
    result = ReconciliationResult(
        corrected_key=working,
        disclosed_parities=leak_rank_reference(orders, told),
        passes=CASCADE_PASSES,
        residual_mismatches=residual,
    )
    return result, told

