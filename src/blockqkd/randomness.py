"""Randomness for a session: counter-addressed streams behind a bit ledger.

Every random bit a party consumes is charged to a (party, stage) ledger
entry, so randomness consumption is an exact measured quantity rather than
an estimate. A session draws from one keyed Philox stream per kind of draw
(Salmon, Moraes, Dror & Shaw, SC 2011): `stream_words` reads a stream's raw
64-bit words and `stream_bits` its bits, each addressed by its position, so
every draw of a session is an array operation. A Bernoulli(p) trial reads
one word (`knuth_yao`). Post-processing draws from :class:`BitSource`, a
seeded Mersenne Twister. Both of its samplers sort n random 64-bit keys
(`_trie_order`) and charge, in one ledger record, the bits a lazy reader
of the keys reads, top bit first (Knuth & Yao, 1976):

- ``shuffled(n)`` is the keys' order, charged what it takes to order them
  all: each key's depth in their trie.
- ``sampled(n, k)`` is the k smallest keys' indices, charged what it takes
  to split them from the rest: 2n bits expected for 0 < k < n.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

PARTIES = ("alice", "bob", "eve", "shared")
STAGES = (
    "alice_basis",
    "alice_bits",
    "bob_basis",
    "bob_measurement",
    "sampling",
    "ec_permutation",
    "pa_seed",
    "attack",
)

DETERMINISTIC_EPS = 1e-12


@dataclass
class RandomnessLedger:
    """Bit counts per (party, stage). Counts never decrease within a session."""

    counts: dict[tuple[str, str], int] = field(default_factory=dict)

    def record(self, party: str, stage: str, bits: int) -> None:
        if party not in PARTIES:
            raise ValueError(f"unknown party {party!r}")
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        if bits < 0:
            raise ValueError("bit count must be non-negative")
        key = (party, stage)
        self.counts[key] = self.counts.get(key, 0) + bits

    def get(self, party: str, stage: str) -> int:
        return self.counts.get((party, stage), 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> dict[str, int]:
        """Stage totals in fixed stage order, for serialization."""
        totals = dict.fromkeys(STAGES, 0)
        for (_, stage), bits in self.counts.items():
            totals[stage] += bits
        return totals


class BitSource:
    """Seeded deterministic generator wrapped in a RandomnessLedger.

    The underlying generator is ``random.Random(seed)`` (Mersenne Twister),
    whose bit stream is stable across platforms and Python versions. Replaying
    the same seed and draw sequence reproduces both the bits and the ledger.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.ledger = RandomnessLedger()

    def draw_bits(self, party: str, stage: str, count: int) -> np.ndarray:
        """Draw `count` bits as uint8, charging the ledger by exactly
        `count`: bit i is bit count-1-i of one getrandbits(count) value, so
        its first drawn bit is its top bit."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.ledger.record(party, stage, count)
        step = -(-count // 8)
        raw = self._rng.getrandbits(count).to_bytes(step, "big")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[8 * step - count :]

    def sampled(self, party: str, stage: str, n: int, k: int) -> np.ndarray:
        """k distinct indices of range(n), uniform: those of the k smallest of
        n random keys, drawn as `shuffled` draws them, in key order. One record
        charges the bits a lazy reader reads to split them from the rest: per
        key, one more than its longest common prefix with the nearest key
        across the cut. k = 0 or k = n draws nothing and returns range(k).
        Unless 0 <= k <= n <= 2**32, raises ValueError before anything is
        drawn."""
        if not 0 <= k <= n <= 1 << 32:
            raise ValueError(f"need 0 <= k <= n <= 2**32, not n={n}, k={k}")
        if k in (0, n):
            return np.arange(k)
        order, common = self._order(n)
        below = np.minimum.accumulate(common[k - 1 :: -1])  # key k-1, k-2, ... to key k
        above = np.minimum.accumulate(common[k - 1 :])  # key k, k+1, ... to key k-1
        self.ledger.record(party, stage, n + int(below.sum()) + int(above.sum()))
        return order[:k]

    def shuffled(self, party: str, stage: str, n: int) -> np.ndarray:
        """A uniform permutation of range(n): the order of n random 64-bit keys,
        the words of one getrandbits(64 n) value from the bottom, tied keys each
        reading a word more in index order. One record charges the bits a lazy
        reader reads to order them: per key, one more than its longest common
        prefix with a sorted neighbour. n < 2 draws nothing."""
        if n < 2:
            return np.arange(n)
        order, common = self._order(n)
        ends = int(common[0]) + int(common[-1])  # the ends' keys have one neighbour each
        self.ledger.record(party, stage, n + ends + int(np.maximum(common[:-1], common[1:]).sum()))
        return order

    def _order(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return _trie_order(self._words(n), lambda tied: self._words(int(tied.sum())))

    def _words(self, n: int) -> np.ndarray:
        return np.frombuffer(self._rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u8")


def stream_words(seed: int, kind: str, count: int, plane: int = 0) -> np.ndarray:
    """The first `count` raw 64-bit words of plane `plane` of a session's
    stream of one kind: numpy's Philox4x64-10 keyed by the 128-bit blake2b
    digest of "{seed}/{kind}" (little-endian), its counter starting at
    plane * 2^64. Word i is the (i mod 4)-th output of the counter block
    plane * 2^64 + i // 4 + 1, so planes never overlap."""
    digest = hashlib.blake2b(f"{seed}/{kind}".encode(), digest_size=16).digest()
    generator = np.random.Philox(key=int.from_bytes(digest, "little"), counter=plane << 64)
    return generator.random_raw(count)


def stream_bits(seed: int, kind: str, count: int) -> np.ndarray:
    """The first `count` bits of a stream (plane 0) as uint8: bit k is bit
    k mod 64 of word k // 64, lowest first."""
    words = stream_words(seed, kind, -(-count // 64)).astype("<u8")
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:count]


def _bit_length(words: np.ndarray) -> np.ndarray:
    """Each uint64's bit length, read from the exponents of its two 32-bit
    halves, which float64 holds exactly."""
    high = np.frexp((words >> np.uint64(32)).astype(np.float64))[1]
    low = np.frexp((words & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(high > 0, high + 32, low)


def _trie_order(words: np.ndarray, more) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the keys `words`, and each sorted neighbour
    pair's longest common prefix. Tied keys read on: `more(mask)` returns
    the next words of the indices under `mask`, until no two keys tie."""
    levels, order = [words], np.argsort(words)
    while True:
        common, same = 0, True  # per sorted neighbour pair
        for level in levels:
            keys = level[order]
            differ = keys[1:] ^ keys[:-1]
            common = common + np.where(same, 64 - _bit_length(differ), 0)
            same = same & (differ == 0)
        if not same.any():
            return order, common
        tied = np.zeros(len(words), dtype=bool)
        tied[order[1:][same]] = tied[order[:-1][same]] = True
        levels.append(np.zeros_like(words))
        levels[-1][tied] = more(tied)
        order = np.lexsort(levels[::-1])


def _digits(p: np.ndarray):
    """p's binary digits after the point as two uint64 words (the first 64
    digits, top digit first, then the next 64), how many digits it has (to
    its last 1) and the outcome of a trial that matches them all: 0, since
    the uniform then equals p. A p within 1e-12 of 0 or 1 has no digits,
    and its outcome is 0 or 1. A p of at least 1e-12 has its first 1 by
    digit 40 and its last by digit 92, so two words hold every digit."""
    p = np.asarray(p, dtype=np.float64)
    last = p > 1.0 - DETERMINISTIC_EPS
    fixed = last | (p < DETERMINISTIC_EPS)
    p = np.where(fixed, 0.5, p)
    scaled = np.ldexp(p, 64)
    high = np.floor(scaled)
    low = np.ldexp(scaled - high, 64)
    mantissa, exponent = np.frexp(p)  # p = significand * 2^(exponent - 53)
    significand = np.ldexp(mantissa, 53).astype(np.int64)
    zeros = np.frexp((significand & -significand).astype(np.float64))[1] - 1  # trailing
    length = np.where(fixed, 0, 53 - exponent - zeros)
    return high.astype(np.uint64), low.astype(np.uint64), length, last


def knuth_yao(p, words: np.ndarray, second) -> tuple[np.ndarray, np.ndarray]:
    """Bernoulli(p) trials, one per word of `words` (p a float or one per
    word): (outcomes as uint8, bits charged). A trial compares fair digits,
    the word's from its top bit, with p's binary digits and stops at the
    first that differs, whose digit of p is the outcome (Knuth & Yao, 1976):
    the uniform they spell is below p exactly when that digit of p is 1.
    The bits charged are the digits compared, that position plus one, or
    all of p's digits when none differs. A trial whose word matches all of
    p's first 64 digits, when p has more, reads on into the next word:
    `second(mask)` returns the next words of the trials under `mask`. A p
    within 1e-12 of 0 or 1 draws nothing."""
    high, low, length, last = (np.broadcast_to(a, words.shape) for a in _digits(p))
    depth = 64 - _bit_length(words ^ high)  # digits matched
    more = (depth == 64) & (length > 64)
    if more.any():
        depth[more] += 64 - _bit_length(second(more) ^ low[more])
    shift = ((63 - depth) % 64).astype(np.uint64)
    digit = (np.where(depth < 64, high, low) >> shift & np.uint64(1)).astype(np.uint8)
    outcome = np.where(depth < length, digit, last).astype(np.uint8)
    return outcome, np.minimum(depth + 1, length)


@dataclass(frozen=True)
class ConsumptionReport:
    """Randomness consumption of one session, grouped for ratio comparisons.

    quantum_phase_alice counts the bits Alice needs before any qubit leaves
    her lab (basis choices plus data bits); quantum_phase_bob counts Bob's
    basis choices. Born-rule sampling (bob_measurement) is simulation
    machinery, not protocol randomness, and is excluded from both.
    """

    raw_qubits: int
    quantum_phase_alice: int
    quantum_phase_bob: int

    @classmethod
    def from_ledger(cls, ledger: RandomnessLedger, raw_qubits: int) -> "ConsumptionReport":
        stages = ledger.as_dict()
        return cls(raw_qubits, stages["alice_basis"] + stages["alice_bits"], stages["bob_basis"])


@dataclass(frozen=True)
class ConsumptionRatios:
    """Exact per-phase ratios between two consumption reports."""

    quantum_phase_alice: Fraction
    quantum_phase_bob: Fraction


def consumption_ratio(
    report: ConsumptionReport, baseline: ConsumptionReport
) -> ConsumptionRatios:
    """Ratios of `report` over `baseline`, as exact rationals. Both reports
    must describe sessions with the same raw-qubit count."""
    if report.raw_qubits != baseline.raw_qubits:
        raise ValueError(
            f"raw-qubit counts differ: {report.raw_qubits} vs {baseline.raw_qubits}"
        )
    return ConsumptionRatios(
        Fraction(report.quantum_phase_alice, baseline.quantum_phase_alice),
        Fraction(report.quantum_phase_bob, baseline.quantum_phase_bob),
    )
