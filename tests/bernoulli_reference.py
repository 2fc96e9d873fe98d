"""The scalar Knuth–Yao trial that `randomness.knuth_yao` is checked
against, word for word, and the ledgered sampler the register references
draw their outcomes with.

- `bernoulli_digits(p)` is p's binary digits as a byte string, and
  `bernoulli_draw` one trial on them, a fair digit at a time.
- `bernoulli(source, party, stage, p)` is one trial on a BitSource's
  generator, its digits charged to (party, stage) in one record; with
  ``functools.partial(bernoulli, source, party, stage)`` it is the
  `bernoulli(p)` sampler of `measurement_reference.measure`.
"""

from __future__ import annotations

from blockqkd.randomness import DETERMINISTIC_EPS

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


def bernoulli(source, party: str, stage: str, p: float) -> int:
    """Return 1 with probability p from `source`'s generator, consuming the
    minimum number of bits: fair digits against p's binary digits until one
    differs (`bernoulli_draw`). The digits drawn go to the ledger in one
    record."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    outcome, drawn = bernoulli_draw(source._rng.getrandbits, *bernoulli_digits(p))
    if drawn:
        source.ledger.record(party, stage, drawn)
    return outcome
