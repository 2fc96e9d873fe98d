"""Classical post-processing: parity reconciliation and hash compression.

Reconciliation is the interactive block-parity protocol: pass 1 splits the
key into blocks of about 1.5/QBER bits, later passes shuffle with a fresh
ledgered permutation and double the block length, and every mismatched
block is binary-searched at a cost of one disclosed parity per halving.
Fixing a bit flips the parity of the blocks that contain it in every other
pass, which re-queues them; those follow-up searches are what lets one
disclosed error correct several. Both parties remember every parity already
exchanged, so a re-searched block only pays for segments never disclosed
before. A segment's parity is the XOR of two prefix parities in its pass's
order: Alice's, and Bob's as his key stood when the pass was built, with
the bits he has flipped since kept as sorted ranks and counted by bisection.

The leak is the GF(2) rank of the disclosed parity vectors, not their
count. Parities are linear in the key, so the eavesdropper learns exactly
their span: a parity that is a sum of earlier ones tells nothing new. Each
pass's top-level parities, for instance, sum to the whole-key parity, so
every pass after the first discloses at least one dependent parity. A
linear map of rank r takes at most 2^r values, so H_min(X|E,C) >=
H_min(X|E) - r: charging the rank is sound, and it never charges more than
counting parities would, since r is at most their number. The rank is
taken once reconciliation ends, from the segments each pass disclosed
(_leak_rank), through a numpy spanning forest over the atoms of the first
two passes and the rank of the few columns left over. The first-block
factor 1.5 replaces the original protocol's 0.73 (see Martinez-Mateo et
al., arXiv:1407.3257, on Cascade's leak and block schedule). On synthetic
keys (scripts/cascade_schedule.py, seeds apart from every test's), among
factors 0.73-2.2, its mean rank relative to L·h(QBER) is the lowest on
600- and 1000-bit keys at QBER 0.05 and 0.10, and averaged over 4704- to
20000-bit keys at QBER 0.02-0.15 it is within 0.002 of the lowest (1.8's).
Larger first blocks leave more short keys with errors after the four
passes: of 800 such keys, 1.5 leaves 11 with errors, 1.8 16 and 0.73 one.

Compression multiplies the reconciled key by a random Toeplitz matrix: a
(key + output - 1)-bit seed defines rows that slide along it one bit at a
time. Output length is the key length minus everything an eavesdropper
may know: disclosed parities, the attack-model information estimate, and
a safety margin. All output bits come from one float64 FFT convolution of
the seed with the reversed key, in O(L log L) (Tang et al. 2019 do the
same at scale; Hayashi & Tsurumaru, arXiv:1311.5322, on Toeplitz
hashing). The transform is the next power of two at or above the seed
length, since wrap-around lands only outside the output window. Each
window sum is an integer of at most L, and the float64 error stays many
orders below 1/2 (about 1e-10 at L = 10^6), so rounding recovers it
exactly; a residual of 0.25 or more raises instead of returning a key.

Every random draw (permutations, hash seed) is charged to the session
ledger, continued through the report's live source.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, insort
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .infotheory import RateReport
from .protocol import SessionReport
from .randomness import BitSource

CASCADE_PASSES = 4
CASCADE_BLOCK_FACTOR = 1.5
QBER_FLOOR = 0.01
MIN_KEY_LENGTH = 64
DEFAULT_SAFETY_MARGIN = 32


@dataclass(frozen=True)
class ReconciliationResult:
    """corrected_key is Bob's key after correction; disclosed_parities is
    the number of linearly independent parities disclosed (the GF(2) rank
    of their index vectors), which is what the eavesdropper learns;
    residual_mismatches counts remaining disagreements with Alice
    (knowable here because the simulator holds both keys; a deployment
    would exchange a hash)."""

    corrected_key: np.ndarray
    disclosed_parities: int
    passes: int
    residual_mismatches: int


@dataclass(frozen=True)
class AmplificationResult:
    final_key: np.ndarray
    input_length: int
    output_length: int
    seed_bits_consumed: int


@dataclass(frozen=True)
class PipelineResult:
    """Final key plus the stage results and the reason the run ended.

    reason is 'ok' for a nonempty key, else one of 'not_distillable',
    'qber_too_high', 'key_too_short', 'reconciliation_failed',
    'key_exhausted'.
    """

    final_key: np.ndarray
    reconciliation: ReconciliationResult | None
    amplification: AmplificationResult | None
    eve_info_bits: float
    reason: str
    # wall seconds per stage; informational, never serialized
    timings: dict[str, float] = field(default_factory=dict, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.reason == "ok"


class ParitySpan:
    """Incremental GF(2) echelon basis of parity vectors packed into ints.

    Each basis vector is stored under its leading bit, and no two share
    one. add() cancels the new vector's leading bit against the basis
    vector stored there until the leading bit is free (independent: the
    vector joins the basis) or nothing is left (dependent: it is a sum of
    earlier vectors).
    """

    def __init__(self) -> None:
        self._basis: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._basis)

    def add(self, vector: int) -> bool:
        """Reduce `vector` against the basis; True if it was independent."""
        while vector:
            lead = vector.bit_length() - 1
            pivot = self._basis.get(lead)
            if pivot is None:
                self._basis[lead] = vector
                return True
            vector ^= pivot
        return False


def _prefix_parities(bits: np.ndarray) -> bytes:
    """Byte k is the parity of bits[:k], for k = 0 .. len(bits)."""
    return b"\0" + np.bitwise_xor.accumulate(bits).tobytes()


def _atoms(
    orders: list[np.ndarray], segments: Iterable[tuple[int, int, int]]
) -> tuple[list[np.ndarray], list[int]]:
    """Each pass's atom index for every position, and its atom count: the
    segment ends of pass p, with 0 and n, cut orders[p] into atoms."""
    n = len(orders[0])
    told = np.fromiter(chain.from_iterable(segments), dtype=np.int64).reshape(-1, 3)
    atom_of, counts = [], []
    for p, order in enumerate(orders):
        cut = np.zeros(n + 1, dtype=np.int32)
        cut[told[told[:, 0] == p, 1:]] = 1  # pass p's segment ends
        cut[0] = 0  # 0 opens the first atom and n closes the last
        ids = np.empty(n, dtype=np.int32)
        ids[order] = np.cumsum(cut[:n])  # the cuts in (0, rank]
        atom_of.append(ids)
        counts.append(int(cut[:n].sum()) + 1)
    return atom_of, counts


def _forest(
    ends_u: np.ndarray, ends_v: np.ndarray, nodes: int, labels: np.ndarray
) -> tuple[int, np.ndarray]:
    """A spanning forest of the edges (ends_u[x], ends_v[x]), edge x
    labelled by the row labels[x] of uint64 words. Returns how many edges
    joined two trees, and each node's potential: the XOR of the labels on
    its tree path to its root.

    Each round hangs every root with an edge to a smaller root (a larger
    one, in alternate rounds, so that a root with many neighbours does not
    take a round each) under one such root through one such edge; pointer
    jumping then flattens every tree, XORing potentials on the way.
    """
    root = np.arange(nodes, dtype=np.int32)
    potential = np.zeros((nodes, labels.shape[1]), dtype=np.uint64)
    edges = np.arange(len(ends_u), dtype=np.int32)
    joins, upward = 0, False
    while True:
        ru, rv = root[ends_u[edges]], root[ends_v[edges]]
        live = ru != rv
        if not live.any():
            return joins, potential
        edges, ru, rv = edges[live], ru[live], rv[live]
        child, into = np.maximum(ru, rv), np.minimum(ru, rv)
        if upward:
            child, into = into, child
        upward = not upward
        pick = np.full(nodes, -1, dtype=np.int32)
        pick[child] = np.arange(len(child), dtype=np.int32)  # one edge per hanging root
        pick = pick[pick >= 0]
        x = edges[pick]
        potential[child[pick]] = potential[ends_u[x]] ^ potential[ends_v[x]] ^ labels[x]
        root[child[pick]] = into[pick]
        joins += len(pick)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            potential ^= potential[root]
            root = up


def _leak_rank(orders: list[np.ndarray], segments: Iterable[tuple[int, int, int]]) -> int:
    """GF(2) rank of the parities of orders[p][start:stop] over all
    (p, start, stop) in segments, computed without n-bit vectors.

    If every cut point of a pass is joined to 0 by a chain of its segments,
    as in cascade (each pass discloses all its blocks, and each search
    segment starts at a point already cut), the pass's parities span
    exactly its atoms' indicator vectors; otherwise that span is larger and
    the result an upper bound. Every position lies in one atom per pass, so
    the rank is that of the atoms-by-positions incidence matrix.

    Passes 0 and 1 hold most atoms. Their atoms are the nodes of a graph
    whose edges are the positions, each labelled with the bits of the
    later-pass atoms that contain it. The edges that join two trees count
    the rank of passes 0 and 1 alone. An edge's residual, its label XOR
    both ends' potentials, is the XOR of the labels around the cycle it
    closes (zero on tree edges), and a set of later-pass atoms lies in the
    span of passes 0 and 1 exactly when it meets every such cycle evenly.
    So the later passes add the rank of the residuals, taken over its few
    columns rather than its n rows.
    """
    atom_of, counts = _atoms(orders, segments)
    if len(orders) == 1:
        return counts[0]
    n, shift, total = len(orders[0]), 0, sum(counts[2:])
    labels = np.zeros((n, -(-total // 64)), dtype=np.uint64)
    for ids, count in zip(atom_of[2:], counts[2:]):
        bit = ids + shift  # atom j of this pass is bit shift + j of an edge's label
        labels[np.arange(n), bit >> 6] |= np.uint64(1) << (bit & 63).astype(np.uint64)
        shift += count
    ends_u, ends_v = atom_of[0], atom_of[1] + counts[0]
    joins, potential = _forest(ends_u, ends_v, counts[0] + counts[1], labels)
    span = ParitySpan()
    for k in range(labels.shape[1]):
        residual = labels[:, k] ^ potential[ends_u, k] ^ potential[ends_v, k]
        # row j of the transposed bytes holds bits 8j..8j+7 of every edge
        rows = np.ascontiguousarray(residual.view(np.uint8).reshape(n, 8).T)
        live = total - 64 * k  # label bits past this are zero in every edge
        for b in range(min(live, 8)):
            for column in np.packbits((rows[: (live - b + 7) // 8] >> b) & 1, axis=1):
                span.add(int.from_bytes(column.tobytes(), "big"))
    return joins + span.rank


def cascade(
    alice_key: np.ndarray,
    bob_key: np.ndarray,
    qber_estimate: float,
    source: BitSource,
    block_factor: float = CASCADE_BLOCK_FACTOR,
) -> ReconciliationResult:
    """Correct bob_key toward alice_key, counting the independent parities
    it discloses.

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

    # Pass p reads the key in orders[p], ranks[p][i] being position i's
    # index there, and cuts it into blocks of sizes[p].
    orders: list[np.ndarray] = []
    ranks: list[np.ndarray] = []
    sizes: list[int] = []
    # Prefix parities in pass order, index k covering the first k bits:
    # Alice's, and Bob's as his key stood when the pass was built; fixed[p]
    # holds the sorted ranks in pass p of the bits he has flipped since.
    alice_prefix: list[bytes] = []
    bob_prefix: list[bytes] = []
    fixed: list[list[int]] = []
    queue: list[tuple[int, int]] = []
    # Alice's parities, once disclosed, are remembered by both parties and
    # never change, so a segment is disclosed at most once; keyed by
    # (pass, start, stop) over the pass's order.
    told: dict[tuple[int, int, int], int] = {}

    def differs(p: int, start: int, stop: int) -> bool:
        """Compare the parities of orders[p][start:stop], disclosing Alice's."""
        key = (p, start, stop)
        if key not in told:
            told[key] = alice_prefix[p][start] ^ alice_prefix[p][stop]
        flips = bisect_left(fixed[p], stop) - bisect_left(fixed[p], start)
        return told[key] != bob_prefix[p][start] ^ bob_prefix[p][stop] ^ (flips & 1)

    def bounds(p: int, b: int) -> tuple[int, int]:
        start = b * sizes[p]
        return start, min(start + sizes[p], n)

    def mismatched(p: int, b: int) -> bool:
        return differs(p, *bounds(p, b))

    def search(p: int, b: int) -> int:
        # Binary search over a block with an odd number of errors: compare
        # the left half's parities and recurse into the differing half. The
        # right half never needs disclosure (parent XOR left), so a fresh
        # segment costs exactly one parity per halving step.
        lo, hi = bounds(p, b)
        while hi - lo > 1:
            mid = lo + (hi - lo + 1) // 2
            if differs(p, lo, mid):
                hi = mid
            else:
                lo = mid
        return int(orders[p][lo])

    def drain() -> None:
        while queue:
            p, b = queue.pop()
            if not mismatched(p, b):
                continue
            error = search(p, b)
            working[error] ^= 1
            for p2 in range(len(orders)):
                rank = int(ranks[p2][error])
                insort(fixed[p2], rank)
                if mismatched(p2, rank // sizes[p2]):
                    queue.append((p2, rank // sizes[p2]))

    for p in range(CASCADE_PASSES):
        if p == 0:
            order = np.arange(n, dtype=np.int32)
        else:
            order = np.array(source.shuffled("shared", "ec_permutation", n), dtype=np.int32)
        rank = np.empty(n, dtype=np.int32)
        rank[order] = np.arange(n, dtype=np.int32)
        orders.append(order)
        ranks.append(rank)
        sizes.append(min(first_block << p, n))
        alice_prefix.append(_prefix_parities(alice[order]))
        bob_prefix.append(_prefix_parities(working[order]))
        fixed.append([])
        # mismatched() discloses each block's top-level parity here, once.
        queue.extend((p, b) for b in range(-(-n // sizes[p])) if mismatched(p, b))
        drain()

    residual = int(np.count_nonzero(alice != working))
    return ReconciliationResult(
        corrected_key=working,
        disclosed_parities=_leak_rank(orders, told),
        passes=CASCADE_PASSES,
        residual_mismatches=residual,
    )


def _window_sums(seed: np.ndarray, key: np.ndarray) -> np.ndarray:
    """sum(key AND seed[j : j + len(key)]) for j = 0 .. len(seed) - len(key).

    A float64 real FFT convolution of the seed with the reversed key, on
    the next power of two >= len(seed): wrap-around adds only to outputs
    below len(key) - 1 or past len(seed) - 1, outside the window read here.
    Each sum is an integer of at most len(key); a residual of 0.25 from
    rint would mean rounding may have picked the wrong one, so it raises.
    """
    length = len(key)
    size = 1 << (len(seed) - 1).bit_length()
    spectrum = np.fft.rfft(seed, size) * np.fft.rfft(key[::-1], size)
    sums = np.fft.irfft(spectrum, size)[length - 1 : len(seed)]
    rounded = np.rint(sums)
    if np.any(np.abs(sums - rounded) >= 0.25):
        raise ArithmeticError("FFT window sums are not within 0.25 of integers")
    return rounded.astype(np.int64)


def toeplitz_pa(
    key: np.ndarray,
    leaked_bits: int,
    eve_info_bits: float,
    safety_margin: int,
    source: BitSource,
) -> AmplificationResult:
    """Compress `key` with a seeded Toeplitz hash.

    Output length is max(0, len - leaked_bits - ceil(eve_info_bits) -
    safety_margin). The (len + output - 1)-bit seed is charged to pa_seed;
    output bit j is the parity of key AND seed[j : j + len], taken from
    FFT window sums that are rounded exactly or raise (_window_sums). A
    zero-length output applies no hash and draws no seed. A negative leak,
    credit or margin would lengthen the key past its budget and is
    rejected.
    """
    key = np.asarray(key, dtype=np.uint8)
    length = len(key)
    if length == 0:
        raise ValueError("key must be nonempty")
    if leaked_bits < 0 or eve_info_bits < 0 or safety_margin < 0:
        raise ValueError("leaked_bits, eve_info_bits and safety_margin must be >= 0")
    target = length - int(leaked_bits) - math.ceil(eve_info_bits) - int(safety_margin)
    out_len = max(0, target)
    if out_len == 0:
        return AmplificationResult(
            final_key=np.zeros(0, dtype=np.uint8),
            input_length=length,
            output_length=0,
            seed_bits_consumed=0,
        )
    seed_bits = length + out_len - 1
    seed = source.draw_bits("shared", "pa_seed", seed_bits)
    final = (_window_sums(seed, key) & 1).astype(np.uint8)
    return AmplificationResult(
        final_key=final,
        input_length=length,
        output_length=out_len,
        seed_bits_consumed=seed_bits,
    )


def pipeline(
    report: SessionReport,
    rates: RateReport,
    safety_margin: int = DEFAULT_SAFETY_MARGIN,
) -> PipelineResult:
    """Estimation disclosures out, reconciliation, then compression.

    Eve's credited information is min(i_ea, i_eb) bits per sifted symbol
    times the undisclosed key length. The final key is nonempty only when
    the rate report says a key is distillable, the session disclosed an
    estimation sample, reconciliation ends with zero residual mismatches,
    and the length budget stays positive.
    """
    if safety_margin < 0:
        raise ValueError("safety_margin must be >= 0")
    if report.sifted_bits == 0:
        raise ValueError("session produced an empty sifted key")
    if report.source is None:
        raise ValueError("report carries no randomness source to continue")
    empty = np.zeros(0, dtype=np.uint8)
    disclosed = np.asarray(report.disclosed_indices, dtype=np.int64)
    alice = np.delete(report.alice_key, disclosed)
    bob = np.delete(report.bob_key, disclosed)
    eve_info = min(rates.i_ea, rates.i_eb) * len(alice)
    if not rates.distillable:
        return PipelineResult(empty, None, None, eve_info, "not_distillable")
    if max(report.qber_estimated, QBER_FLOOR) >= 0.5:
        return PipelineResult(empty, None, None, eve_info, "qber_too_high")
    if len(alice) < MIN_KEY_LENGTH or not len(disclosed):  # no sample, no estimate
        return PipelineResult(empty, None, None, eve_info, "key_too_short")
    started = time.perf_counter()
    rec = cascade(alice, bob, report.qber_estimated, report.source)
    cascade_time = time.perf_counter() - started
    if rec.residual_mismatches:
        return PipelineResult(
            empty, rec, None, eve_info, "reconciliation_failed",
            timings={"cascade": cascade_time},
        )
    started = time.perf_counter()
    amp = toeplitz_pa(
        rec.corrected_key, rec.disclosed_parities, eve_info, safety_margin, report.source
    )
    timings = {"cascade": cascade_time, "toeplitz_pa": time.perf_counter() - started}
    reason = "ok" if amp.output_length else "key_exhausted"
    return PipelineResult(amp.final_key, rec, amp, eve_info, reason, timings=timings)
