"""Register objects for the references that evolve one state at a time.

- `StateVector` is a checked, normalized pure state of up to
  MAX_REGISTER_QUBITS qubits.
- `apply_unitary` applies a unitary to chosen qubits of one.
- `prepare_singlet` is the package's `SINGLET` amplitudes as a two-qubit
  `StateVector`, read at each call.

The package itself keeps every register as an amplitude array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from blockqkd.quantum import MAX_REGISTER_QUBITS, SINGLET, UnitarySpec, _apply_matrix

TRACE_TOL = 1e-10  # |norm^2 - 1| of a state


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of `num_qubits` qubits.

    Treat as immutable: operations return new values and never write to
    `amplitudes` in place.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if self.num_qubits > MAX_REGISTER_QUBITS:
            raise ValueError(f"registers are capped at {MAX_REGISTER_QUBITS} qubits")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= TRACE_TOL:
            raise ValueError(f"state norm^2 is {norm_sq}, not 1")
        object.__setattr__(self, "amplitudes", amps)


def prepare_singlet() -> StateVector:
    """Two-qubit singlet (|01> - |10>)/sqrt(2)."""
    return StateVector(2, SINGLET.copy())


def apply_unitary(
    state: StateVector, u: UnitarySpec, targets: Sequence[int]
) -> StateVector:
    """Apply `u` to the ordered `targets`, identity on the rest."""
    targets = tuple(targets)
    n = state.num_qubits
    if len(set(targets)) != len(targets):
        raise ValueError("target qubits must be distinct")
    if any(not 0 <= t < n for t in targets):
        raise IndexError(f"targets {targets} out of range for {n} qubits")
    if u.dimension != 2 ** len(targets):
        raise ValueError(
            f"unitary dimension {u.dimension} does not match {len(targets)} targets"
        )
    return StateVector(n, _apply_matrix(state.amplitudes, u.entries, targets, n))
