"""The amplitude-row loop that run_session's bit-mask blocks are checked
against, draw for draw, and the bit loop that their table-driven deposit
of drawn bits is checked against.

A block no attack has entangled is an (n, 2) array of BB84 amplitude
rows, one per qubit (`bb84_rows`). Measuring it, flipping it in the
channel and intercept-resend act row by row. Every draw goes through a
ledgered BitSource (`draw_bits`, `bernoulli`) under the party and stage
given, in the order a session draws them.
"""

from __future__ import annotations

import numpy as np

from blockqkd.quantum import _BB84_AMPS, HADAMARD, Basis
from blockqkd.randomness import DETERMINISTIC_EPS


def _basis_values(bases, n: int) -> np.ndarray:
    """One Basis for every row, or one basis value per row."""
    return np.broadcast_to(bases.value if isinstance(bases, Basis) else np.asarray(bases), n)


def measure_rows(rows, bases, source, party, stage) -> tuple[np.ndarray, np.ndarray]:
    """Measure each row-qubit in its basis: (outcomes, post rows).

    Rows are BB84 states, so every outcome is certain or fair. Certain rows
    draw nothing; the fair ones take one draw_bits(count), in index order.
    """
    values = _basis_values(bases, len(rows))
    work = rows.copy()
    work[values == 1] = work[values == 1] @ HADAMARD
    p1 = np.abs(work[:, 1]) ** 2
    outcomes = (p1 > 0.5).astype(np.uint8)
    fair = np.abs(p1 - 0.5) < DETERMINISTIC_EPS
    count = int(np.count_nonzero(fair))
    if count:
        outcomes[fair] = source.draw_bits(party, stage, count)
    return outcomes, _BB84_AMPS[values, outcomes].copy()


def flip_rows(rows, mask, bases) -> np.ndarray:
    """Bit-flip each masked row in its own preparation basis: Pauli X on a
    Z row swaps its amplitudes, Pauli Z on an X row negates the second."""
    values = _basis_values(bases, len(rows))
    out = rows.copy()
    z_flip = mask & (values == 0)
    x_flip = mask & (values == 1)
    out[z_flip] = out[z_flip][:, ::-1]
    out[x_flip] = out[x_flip] * np.array([1.0, -1.0])
    return out


def intercept_resend(rows, prep_bases, spec, source):
    """Eve's measure-and-resend on a product block, charged to (eve, attack).

    Each qubit is attacked with probability spec.fraction; Eve's basis is
    one bit per attacked qubit, or one for the block at per_block
    granularity. Attacked rows leave re-prepared in her basis with her
    outcome. Returns (rows, preparation bases, attacked mask, Eve's bits).
    """
    attacked = np.array([bool(source.bernoulli("eve", "attack", spec.fraction)) for _ in rows])
    eve_bits = np.zeros(len(rows), dtype=np.uint8)
    if not attacked.any():
        return rows, prep_bases, attacked, eve_bits
    count = int(attacked.sum())
    width = 1 if spec.granularity == "per_block" else count
    eve_bases = np.resize(source.draw_bits("eve", "attack", width), count)
    outcomes, resent = measure_rows(rows[attacked], eve_bases, source, "eve", "attack")
    eve_bits[attacked] = outcomes
    rows, prep_bases = rows.copy(), prep_bases.copy()
    rows[attacked] = resent
    prep_bases[attacked] = eve_bases
    return rows, prep_bases, attacked, eve_bits


def deposit_reference(value: int, mask: int) -> int:
    """The low bits of `value` at the set bits of `mask`, lowest first, one
    bit at a time; a low run of ones keeps the bits in place."""
    if mask & (mask + 1) == 0:
        return value & mask
    out = 0
    while mask:
        low = mask & -mask
        if value & 1:
            out |= low
        value >>= 1
        mask ^= low
    return out
