"""Single randomness source for a session: a seeded PRNG behind a bit ledger.

Every random bit a party consumes is drawn through :class:`BitSource` and
charged to a (party, stage) ledger entry, so randomness consumption is an
exact measured quantity rather than an estimate. Sampling primitives are
bit-exact:

- A uniform value below a bound b draws ceil(log2 b) bits and rejects
  out-of-range values, re-drawing until accepted; every drawn bit is
  counted, rejected or not. A bound of 1 draws nothing.
- ``sampled(n, k)`` draws k distinct indices of range(n) on those draws:
  the first k steps of a Fisher-Yates shuffle from the bottom, each index
  drawn and swapped in one loop, charged in one ledger record.
- ``shuffled(items)`` is a copy of a list permuted by the Fisher-Yates
  shuffle from the top on the same draws, also one loop and one ledger
  record; the caller's list is left unchanged.
- ``bernoulli(p)`` compares fair digits, drawn one at a time, with p's
  binary digits (``bernoulli_digits``) and stops at the first that differs,
  which decides the outcome (Knuth & Yao, 1976); the bits go to the ledger
  in one record. A deterministic branch (p within 1e-12 of 0 or 1)
  consumes no bits; p = 1/2 consumes exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import random

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

    def stage_total(self, stage: str) -> int:
        return sum(v for (_, s), v in self.counts.items() if s == stage)

    def total(self) -> int:
        return sum(self.counts.values())

    def copy(self) -> "RandomnessLedger":
        return RandomnessLedger(dict(self.counts))

    def as_dict(self) -> dict[str, int]:
        """Stage totals in fixed stage order, for serialization."""
        return {stage: self.stage_total(stage) for stage in STAGES}


class BitSource:
    """Seeded deterministic generator wrapped in a RandomnessLedger.

    The underlying generator is ``random.Random(seed)`` (Mersenne Twister),
    whose bit stream is stable across platforms and Python versions. Replaying
    the same seed and draw sequence reproduces both the bits and the ledger.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.seed = seed
        self.ledger = RandomnessLedger()

    def draw_bits(self, party: str, stage: str, count: int) -> np.ndarray:
        """Draw `count` bits, charging the ledger by exactly `count`."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.ledger.record(party, stage, count)
        return unpack_bits([self._rng.getrandbits(count)], count)[0]

    def sampled(self, party: str, stage: str, n: int, k: int) -> list[int]:
        """k distinct indices of range(n), uniform, in draw order: the first
        k steps of a Fisher-Yates shuffle from the bottom, index i swapping
        with i + r for r uniform below n - i, drawn and swapped in one loop.
        Only displaced entries are stored, so memory is O(k) whatever n.
        Every bit drawn goes to the ledger in one record (none when no bit
        was drawn). Unless 0 <= k <= n <= 2**32, raises ValueError before
        anything is drawn.
        """
        if not 0 <= k <= n <= 1 << 32:
            raise ValueError(f"need 0 <= k <= n <= 2**32, not n={n}, k={k}")
        getrandbits, moved, sample, drawn, start = self._rng.getrandbits, {}, [], 0, 0
        for width in range(max(n - 1, 0).bit_length(), -1, -1):  # the steps of each width
            stop = min(k, n - (1 << width >> 1))  # steps whose bound - 1 has `width` bits
            attempts = stop - start
            for i in range(start, stop):
                while (r := getrandbits(width)) >= n - i:
                    attempts += 1
                j = i + r
                sample.append(moved.get(j, j))
                moved[j] = moved.get(i, i)
            drawn += width * attempts
            start = stop
        if drawn:
            self.ledger.record(party, stage, drawn)
        return sample

    def shuffled(self, party: str, stage: str, items: list) -> list:
        """A uniformly permuted copy of `items`, which is left as it is:
        Fisher-Yates from the top, index i swapping with a uniform value
        below i + 1, drawn and swapped in one loop. The draws depend on
        len(items) alone, so one list can serve every shuffle of a length.
        Every bit drawn goes to the ledger in one record (none when no bit
        was drawn)."""
        getrandbits, perm, drawn = self._rng.getrandbits, list(items), 0
        n = len(perm)
        for width in range((n - 1).bit_length(), 0, -1):  # the indices of each width
            run = range(min(n - 1, (1 << width) - 1), (1 << (width - 1)) - 1, -1)
            attempts = len(run)
            for i in run:
                while (j := getrandbits(width)) > i:
                    attempts += 1
                perm[i], perm[j] = perm[j], perm[i]
            drawn += width * attempts
        if drawn:
            self.ledger.record(party, stage, drawn)
        return perm

    def bernoulli(self, party: str, stage: str, p: float) -> int:
        """Return 1 with probability p, consuming the minimum number of bits.

        Draws fair digits against p's binary digits until one differs
        (`bernoulli_draw`). The digits drawn go to the ledger in one record.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        outcome, drawn = bernoulli_draw(self._rng.getrandbits, *bernoulli_digits(p))
        if drawn:
            self.ledger.record(party, stage, drawn)
        return outcome

    def unledgered(self):
        """The generator's ``getrandbits``, for a caller that charges every
        bit it draws to ``self.ledger`` itself."""
        return self._rng.getrandbits


_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")  # "0"/"1" to digit bytes


def bernoulli_digits(p: float) -> tuple[bytes, int]:
    """p's binary digits after the point, up to its last 1-digit, and the
    outcome of a draw that matches them all: 0, since the drawn X then
    equals p. A deterministic p (within 1e-12 of 0 or 1) has no digits,
    and its outcome is 0 or 1."""
    if p < DETERMINISTIC_EPS:
        return b"", 0
    if p > 1.0 - DETERMINISTIC_EPS:
        return b"", 1
    num, den = p.as_integer_ratio()  # den = 2**width, num odd
    width = den.bit_length() - 1
    return format(num, f"0{width}b").encode().translate(_DIGIT_BYTES), 0


def bernoulli_draw(getrandbits, digits: bytes, outcome: int) -> tuple[int, int]:
    """One exact Bernoulli(p) trial on ``getrandbits(1)`` digits, given
    ``bernoulli_digits(p)``: (outcome, digits drawn). The uniform X whose
    digits are drawn is below p exactly when its first digit that differs
    from p's is a 0 where p has a 1, so that digit of p is the outcome."""
    for drawn, digit in enumerate(digits, 1):
        if getrandbits(1) != digit:
            return digit, drawn
    return outcome, len(digits)


def unpack_bits(values, n: int) -> np.ndarray:
    """(len(values), n) uint8 bits of n-bit ints, position i from bit n-1-i:
    a getrandbits(n) value's first drawn bit is its top bit. Values of at
    most 64 bits are read as one big-endian uint64 array."""
    if n <= 64:
        words = np.array(values, dtype=">u8").view(np.uint8)
        return np.unpackbits(words).reshape(-1, 64)[:, 64 - n :]
    step = -(-n // 8)
    raw = b"".join(v.to_bytes(step, "big") for v in values)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8)).reshape(len(values), 8 * step)
    return bits[:, 8 * step - n :]


@dataclass(frozen=True)
class ConsumptionReport:
    """Randomness consumption of one session, grouped for ratio comparisons.

    quantum_phase_alice covers the bits Alice needs before any qubit leaves
    her lab (basis choices plus data bits); quantum_phase_bob covers Bob's
    basis choices. Born-rule sampling (bob_measurement) is simulation
    machinery, not protocol randomness, and is excluded from both.
    """

    raw_qubits: int
    stage_bits: dict[str, int]

    @classmethod
    def from_ledger(cls, ledger: RandomnessLedger, raw_qubits: int) -> "ConsumptionReport":
        return cls(raw_qubits=raw_qubits, stage_bits=ledger.as_dict())

    @property
    def quantum_phase_alice(self) -> int:
        return self.stage_bits["alice_basis"] + self.stage_bits["alice_bits"]

    @property
    def quantum_phase_bob(self) -> int:
        return self.stage_bits["bob_basis"]

    @property
    def quantum_phase_total(self) -> int:
        return self.quantum_phase_alice + self.quantum_phase_bob


@dataclass(frozen=True)
class ConsumptionRatios:
    """Exact per-stage and per-phase ratios between two consumption reports."""

    stage_ratios: dict[str, Fraction | None]
    quantum_phase_alice: Fraction
    quantum_phase_bob: Fraction
    quantum_phase_total: Fraction


def consumption_ratio(
    report: ConsumptionReport, baseline: ConsumptionReport
) -> ConsumptionRatios:
    """Ratios of `report` over `baseline`, as exact rationals.

    Both reports must describe sessions with the same raw-qubit count;
    a stage the baseline never drew from gets ratio None.
    """
    if report.raw_qubits != baseline.raw_qubits:
        raise ValueError(
            f"raw-qubit counts differ: {report.raw_qubits} vs {baseline.raw_qubits}"
        )
    stage_ratios: dict[str, Fraction | None] = {}
    for stage in STAGES:
        denom = baseline.stage_bits[stage]
        num = report.stage_bits[stage]
        stage_ratios[stage] = Fraction(num, denom) if denom else None
    return ConsumptionRatios(
        stage_ratios=stage_ratios,
        quantum_phase_alice=Fraction(
            report.quantum_phase_alice, baseline.quantum_phase_alice
        ),
        quantum_phase_bob=Fraction(report.quantum_phase_bob, baseline.quantum_phase_bob),
        quantum_phase_total=Fraction(
            report.quantum_phase_total, baseline.quantum_phase_total
        ),
    )
