"""Dense amplitude arrays for small qubit registers: BB84 rows, unitaries
on chosen qubits, and the singlet.

Conventions, fixed across the package:

- Qubit 0 is the most significant bit of the amplitude index, so
  ``amplitudes.reshape([2] * n)`` puts qubit k on axis k.
- Amplitudes are dense complex128 arrays. The only register with a size
  cap is the singlet-built one, at MAX_REGISTER_QUBITS = 12 qubits
  (`attacks.check_reduction_size`).
- Global phase is never compared directly: state equivalence goes through
  density matrices or outcome distributions.
- Measurement probabilities within 1e-12 of 0, 1/2 or 1 are snapped to
  that value (`protocol._outcome_tables`), so a certain outcome consumes
  no randomness and an even one costs a single fair bit; any other outcome
  is drawn against p's binary digits, one fair bit each until one differs
  (`randomness.knuth_yao`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

MAX_REGISTER_QUBITS = 12

UNITARY_TOL = 1e-10
# Branches thinner than this are numerically extinct and are not explored.
BRANCH_CUTOFF = 1e-15

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class Basis(Enum):
    """The two conjugate encoding bases: Z eigenstates and their uniform
    superpositions."""

    Z = 0
    X = 1


@dataclass(frozen=True, eq=False)
class UnitarySpec:
    """Unitary matrix on a power-of-2 dimension, checked at construction.

    Two specs are equal when their dimensions and entries are.
    """

    dimension: int
    entries: np.ndarray

    def __post_init__(self):
        if self.dimension < 2 or self.dimension & (self.dimension - 1):
            raise ValueError(f"dimension {self.dimension} is not a power of 2 >= 2")
        u = np.asarray(self.entries, dtype=complex)
        if u.shape != (self.dimension, self.dimension):
            raise ValueError(f"expected shape {(self.dimension, self.dimension)}")
        deviation = np.max(np.abs(u @ u.conj().T - np.eye(self.dimension)))
        if not deviation <= UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (max |UU+ - I| = {deviation:.3e})")
        object.__setattr__(self, "entries", u)

    def __eq__(self, other):
        if not isinstance(other, UnitarySpec):
            return NotImplemented
        return self.dimension == other.dimension and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        # + 0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.dimension, (self.entries + 0).tobytes()))

    @property
    def num_qubits(self) -> int:
        return self.dimension.bit_length() - 1

    @classmethod
    def from_matrix(cls, matrix) -> "UnitarySpec":
        if isinstance(matrix, UnitarySpec):
            return matrix
        array = np.asarray(matrix, dtype=complex)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {array.shape}")
        return cls(array.shape[0], array)


# 1-qubit amplitude pairs of the four BB84 states, indexed [basis][bit].
_BB84_AMPS = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]],
    ],
    dtype=complex,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _SQRT_HALF
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
# The two-qubit singlet (|01> - |10>)/sqrt(2).
SINGLET = np.array([0.0, _SQRT_HALF, -_SQRT_HALF, 0.0], dtype=complex)


def embed(num_qubits: int, u: UnitarySpec, targets: Sequence[int]) -> UnitarySpec:
    """Full 2^num_qubits matrix acting as `u` on `targets`, identity elsewhere."""
    targets = tuple(targets)
    if len(set(targets)) != len(targets) or not all(0 <= t < num_qubits for t in targets):
        raise ValueError(f"targets {targets} are not distinct qubits of range({num_qubits})")
    dim = 2**num_qubits
    if u.dimension != 2 ** len(targets):
        raise ValueError("unitary dimension does not match targets")
    identity = np.eye(dim, dtype=complex)
    return UnitarySpec(dim, _apply_matrix(identity, u.entries, targets, num_qubits))


def _apply_matrix(
    amps: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...], n: int
) -> np.ndarray:
    """`matrix` on `targets` of a state, or of each column of a
    (2^n, k) array of states."""
    t = len(targets)
    psi = amps.reshape([2] * n + [-1])
    op = matrix.reshape([2] * (2 * t))
    psi = np.tensordot(op, psi, axes=(list(range(t, 2 * t)), list(targets)))
    return np.moveaxis(psi, range(t), targets).reshape(amps.shape)


def random_unitary(num_qubits: int, seed: int) -> UnitarySpec:
    """Haar-distributed unitary from seeded Gaussian orthogonalization."""
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return UnitarySpec(dim, q * phases)


# --- product-state blocks -------------------------------------------------
#
# A block as Alice prepares it is a product of 1-qubit BB84 states, written
# as an (n, 2) amplitude array, one row per qubit, until an attack entangles
# it into a register (attacks.entangle_patterns).


def bb84_rows(bits: np.ndarray, bases) -> np.ndarray:
    """(n, 2) amplitudes for per-qubit BB84 preparations, in one Basis or
    an array of basis values (0 for Z, 1 for X), one per bit."""
    bits = np.asarray(bits, dtype=np.int64)
    values = bases.value if isinstance(bases, Basis) else np.asarray(bases, dtype=np.int64)
    return _BB84_AMPS[values, bits].copy()
