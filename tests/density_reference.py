"""Density matrices and outcome projection, for the references that read a
register branch by branch.

- `DensityMatrix` is a checked Hermitian, unit-trace, positive-semidefinite
  matrix.
- `project` conditions a register on a chosen measurement outcome without
  sampling, through `measurement_reference`'s `outcome_probability` and
  `collapse`.
- `reduced_density` is the partial trace onto a set of qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from blockqkd.quantum import BRANCH_CUTOFF, Basis
from measurement_reference import collapse, outcome_probability
from register_reference import TRACE_TOL, StateVector

HERMITIAN_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on `num_qubits`."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        dim = 2**self.num_qubits
        rho = np.asarray(self.entries, dtype=complex)
        if rho.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {rho.shape}")
        if not np.max(np.abs(rho - rho.conj().T)) <= HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian")
        if not abs(np.trace(rho).real - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace is {np.trace(rho)}, not 1")
        if not np.min(np.linalg.eigvalsh(rho)) >= EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", rho)


def project(
    state: StateVector, qubit_index: int, basis: Basis, outcome: int
) -> tuple[float, StateVector | None]:
    """Condition on a chosen measurement outcome without sampling.

    Returns (branch probability, normalized post state); the post state is
    None when the branch probability is below the numerical cutoff.
    """
    _, moved = outcome_probability(state, qubit_index, basis)
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    prob = float(np.sum(np.abs(moved[outcome]) ** 2))
    if prob <= BRANCH_CUTOFF:
        return 0.0, None
    return prob, collapse(moved, qubit_index, basis, outcome, prob)


def reduced_density(state: StateVector, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace keeping `keep` (row/column index ordered by ascending
    qubit index)."""
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("keep set must be nonempty")
    n = state.num_qubits
    if any(not 0 <= q < n for q in kept):
        raise IndexError(f"keep set {kept} out of range for {n} qubits")
    traced = [q for q in range(n) if q not in kept]
    psi = state.amplitudes.reshape([2] * n)
    if traced:
        rho = np.tensordot(psi, psi.conj(), axes=(traced, traced))
    else:
        rho = np.tensordot(psi, psi.conj(), axes=0)
    dim = 2 ** len(kept)
    return DensityMatrix(len(kept), rho.reshape(dim, dim))
