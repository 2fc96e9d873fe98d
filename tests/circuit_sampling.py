"""Monte Carlo sampling of circuits, the statistical check on the exact
enumeration oracle.

`sample_circuit` runs all shots at once through real projective
measurements: amplitudes of shape (shots, 2^n), one uniform per shot per
measurement, each shot collapsed onto its own outcome. It shares only the
circuit's gate semantics with `enumerate_outcomes`, never its branch
weights.
"""

from __future__ import annotations

import random

import numpy as np

from blockqkd.quantum import HADAMARD, Basis, UnitarySpec
from blockqkd.randomness import DETERMINISTIC_EPS
from circuit_oracle import Apply, Circuit, Measure, _apply_op, _initial_state

_HADAMARD = UnitarySpec.from_matrix(HADAMARD)


class RandomCoin:
    """Uniforms from a plain PRNG; for Monte Carlo checks, not ledgered."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def uniforms(self, count: int) -> np.ndarray:
        return np.array([self._rng.random() for _ in range(count)])


def sample_circuit(circuit: Circuit, shots: int, coin: RandomCoin) -> list[tuple]:
    """Sample the circuit `shots` times; one outcome tuple per shot.

    A measured probability within 1e-12 of 0 or 1 is snapped, as
    `outcome_probability` snaps it, so a certain outcome never comes out
    the other way.
    """
    n = circuit.num_qubits
    amps = np.tile(_initial_state(circuit), (shots, 1))
    outcomes = []
    for op in circuit.ops:
        if not isinstance(op, Measure):
            amps = _apply_op(amps.T, op, n).T
            continue
        if op.basis is Basis.X:
            amps = _apply_op(amps.T, Apply(_HADAMARD, (op.qubit,)), n).T
        moved = np.moveaxis(amps.reshape([shots] + [2] * n), op.qubit + 1, 1)
        moved = moved.reshape(shots, 2, -1)
        p1 = np.sum(np.abs(moved[:, 1]) ** 2, axis=1)
        p1[p1 < DETERMINISTIC_EPS] = 0.0
        p1[p1 > 1.0 - DETERMINISTIC_EPS] = 1.0
        outcome = (coin.uniforms(shots) < p1).astype(np.int64)
        keep = np.arange(2)[None, :] == outcome[:, None]
        prob = np.where(outcome == 1, p1, 1.0 - p1)
        projected = moved * keep[:, :, None] / np.sqrt(prob)[:, None, None]
        projected = projected.reshape([shots, 2] + [2] * (n - 1))
        amps = np.moveaxis(projected, 1, op.qubit + 1).reshape(shots, -1)
        if op.basis is Basis.X:
            amps = _apply_op(amps.T, Apply(_HADAMARD, (op.qubit,)), n).T
        outcomes.append(outcome)
    if not outcomes:
        return [()] * shots
    return [tuple(row) for row in np.stack(outcomes, axis=1).tolist()]
