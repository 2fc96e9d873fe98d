"""Exact enumeration oracle for small circuits.

A `Circuit` is a straight-line program of preparations, unitaries and
measurements over a fixed register. `enumerate_outcomes` walks every
measurement branch with its Born weight, so the joint distribution of the
outcomes it returns involves no sampling: it is the reference the sampled
and fast paths are checked against. `mixture` combines such distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from blockqkd.infotheory import JointDistribution
from blockqkd.quantum import (
    HADAMARD,
    MAX_REGISTER_QUBITS,
    Basis,
    UnitarySpec,
    _apply_matrix,
)
from density_reference import project
from register_reference import StateVector

_SQRT_HALF = 1.0 / math.sqrt(2.0)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

# Unitaries taking |0> to each BB84 state, for in-circuit preparation.
_PREP_UNITARIES = {
    (Basis.Z, 0): np.eye(2, dtype=complex),
    (Basis.Z, 1): PAULI_X,
    (Basis.X, 0): HADAMARD,
    (Basis.X, 1): HADAMARD @ PAULI_X,
}

# Takes |00> to the singlet (|01> - |10>)/sqrt(2); remaining columns complete
# it to a unitary.
_SINGLET_PREP = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [_SQRT_HALF, 0.0, _SQRT_HALF, 0.0],
        [-_SQRT_HALF, 0.0, _SQRT_HALF, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class Prep:
    """Set `qubit` (assumed fresh in |0>) to the BB84 state (bit, basis)."""

    qubit: int
    bit: int
    basis: Basis


@dataclass(frozen=True)
class PrepSinglet:
    """Set the fresh pair (qubit_a, qubit_b) to the singlet."""

    qubit_a: int
    qubit_b: int


@dataclass(frozen=True)
class Apply:
    u: UnitarySpec
    targets: tuple[int, ...]


@dataclass(frozen=True)
class Measure:
    qubit: int
    basis: Basis
    label: str | None = None


@dataclass(frozen=True)
class Circuit:
    """Straight-line program over a fixed register, starting from |0...0>."""

    num_qubits: int
    ops: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))

    def measurement_labels(self) -> tuple[str, ...]:
        labels = []
        for i, op in enumerate(o for o in self.ops if isinstance(o, Measure)):
            labels.append(op.label if op.label is not None else f"m{i}")
        return tuple(labels)


def _initial_state(circuit: Circuit) -> np.ndarray:
    amps = np.zeros(2**circuit.num_qubits, dtype=complex)
    amps[0] = 1.0
    return amps


def _apply_op(amps: np.ndarray, op, n: int) -> np.ndarray:
    """A non-measuring op on a state, or on each column of a (2^n, k)
    array of states."""
    if isinstance(op, Prep):
        return _apply_matrix(amps, _PREP_UNITARIES[(op.basis, op.bit)], (op.qubit,), n)
    if isinstance(op, PrepSinglet):
        return _apply_matrix(amps, _SINGLET_PREP, (op.qubit_a, op.qubit_b), n)
    if isinstance(op, Apply):
        if op.u.dimension != 2 ** len(op.targets):
            raise ValueError("unitary dimension does not match targets")
        return _apply_matrix(amps, op.u.entries, tuple(op.targets), n)
    raise TypeError(f"not a unitary circuit op: {op!r}")


def enumerate_outcomes(circuit: Circuit) -> JointDistribution:
    """Exact joint distribution of all measurement outcomes.

    Walks every measurement branch with its Born weight; no sampling is
    involved. Probabilities sum to 1 within 1e-10.
    """
    n = circuit.num_qubits
    if n > MAX_REGISTER_QUBITS:
        raise ValueError(f"registers are capped at {MAX_REGISTER_QUBITS} qubits")
    table: dict[tuple, float] = {}

    def walk(amps: np.ndarray, op_index: int, outcomes: tuple, weight: float) -> None:
        for i in range(op_index, len(circuit.ops)):
            op = circuit.ops[i]
            if not isinstance(op, Measure):
                amps = _apply_op(amps, op, n)
                continue
            state = StateVector(n, amps)
            for outcome in (0, 1):
                prob, branch = project(state, op.qubit, op.basis, outcome)
                if branch is not None:
                    walk(branch.amplitudes, i + 1, outcomes + (outcome,), weight * prob)
            return
        table[outcomes] = table.get(outcomes, 0.0) + weight

    walk(_initial_state(circuit), 0, (), 1.0)
    return JointDistribution(circuit.measurement_labels(), table)


def mixture(components: Iterable[tuple[float, JointDistribution]]) -> JointDistribution:
    """Convex combination of distributions over the same variables."""
    components = list(components)
    variables = components[0][1].variables
    table: dict[tuple, float] = {}
    for weight, dist in components:
        if dist.variables != variables:
            raise ValueError("mixture components must share variables")
        for outcome, p in dist.probabilities.items():
            table[outcome] = table.get(outcome, 0.0) + weight * p
    return JointDistribution(variables, table)
