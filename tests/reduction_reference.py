"""The branch-by-branch reduction check that `attacks.verify_reduction` is
checked against, the singlet-built register it reads (`singlet_simulation`,
an `EntangledBlock`), and `entangle_block`, the real block it compares
with, built from the block's amplitude rows by `rows_to_state`, with the
register helpers `tensor` and `permute_qubits`.

`singlet_simulation` assembles its register from `register_reference`'s
`StateVector`s with `tensor`, `permute_qubits` and `apply_unitary`, so
the check shares no register construction with `verify_reduction`, which
builds its register with `attacks._singlet_register`. Each kept-outcome
branch of the register is reached by a chain of `project` calls, one per
kept half, its weight the product of their probabilities; the forwarded
block + ancillas are read off it with `reduced_density` and compared with
the density matrix of the real block that `entangle_block` attacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Sequence

import numpy as np

from blockqkd.attacks import REDUCTION_TOL, EquivalenceReport
from blockqkd.quantum import _BB84_AMPS, Basis, UnitarySpec, bb84_rows
from density_reference import project, reduced_density
from register_reference import StateVector, apply_unitary, prepare_singlet


def prepare_bb84(bit: int, basis: Basis) -> StateVector:
    """Single-qubit BB84 encoding of `bit` in `basis`."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    return StateVector(1, _BB84_AMPS[basis.value, bit].copy())


def tensor(*states: StateVector) -> StateVector:
    """Tensor product, qubits ordered left to right."""
    amps = reduce(np.kron, (s.amplitudes for s in states))
    return StateVector(sum(s.num_qubits for s in states), amps)


def permute_qubits(state: StateVector, destinations: Sequence[int]) -> StateVector:
    """Relabel qubits: current qubit i becomes qubit destinations[i]."""
    n = state.num_qubits
    if sorted(destinations) != list(range(n)):
        raise ValueError("destinations must be a permutation of all qubit indices")
    psi = state.amplitudes.reshape([2] * n)
    return StateVector(n, np.moveaxis(psi, range(n), destinations).reshape(-1))


def rows_to_state(rows: np.ndarray) -> StateVector:
    """Promote an (n, 2) product block to a full register state."""
    return StateVector(len(rows), reduce(np.kron, list(rows)))


def entangle_block(rows: np.ndarray, u: UnitarySpec, num_ancillas: int) -> StateVector:
    """The block's qubits, then `num_ancillas` ancillas in |0>, after `u`
    on all of them."""
    state = rows_to_state(rows)
    if num_ancillas:
        ancillas = np.zeros(2**num_ancillas, dtype=complex)
        ancillas[0] = 1.0
        state = tensor(state, StateVector(num_ancillas, ancillas))
    return apply_unitary(state, u, range(state.num_qubits))


@dataclass
class EntangledBlock:
    """Block qubits 0..n-1, then Eve's kept qubits, then her ancillas, in
    one register.

    In the singlet-built block of singlet_simulation, Alice's real qubit
    sits at alice_slot, every other block slot holds one singlet half, and
    kept_slots hold Eve's partner halves in the same order as
    partner_slots.
    """

    state: StateVector
    num_block_qubits: int
    alice_slot: int
    partner_slots: tuple[int, ...]
    kept_slots: tuple[int, ...]
    ancilla_slots: tuple[int, ...]

    @property
    def block_slots(self) -> tuple[int, ...]:
        return tuple(range(self.num_block_qubits))


def singlet_simulation(
    alice_qubit: StateVector,
    n: int,
    u: UnitarySpec,
    num_ancillas: int,
    alice_slot: int = 0,
) -> EntangledBlock:
    """Build Eve's stand-in for an n-qubit block and attack it with `u`.

    The register holds Alice's one real qubit at alice_slot, one singlet
    half in every other simulated slot, Eve's kept partner halves, and
    num_ancillas fresh ancillas. `u` (on the n simulated qubits plus the
    ancillas) is applied; the kept halves stay untouched, which is what
    lets Eve defer measuring them until the basis announcement.
    """
    if alice_qubit.num_qubits != 1:
        raise ValueError("alice_qubit must be a single qubit")
    if n < 1:
        raise ValueError("block size must be >= 1")
    if not 0 <= alice_slot < n:
        raise ValueError(f"alice_slot must lie in [0, {n})")
    m = num_ancillas
    if u.dimension != 2 ** (n + m):
        raise ValueError(
            f"unitary dimension {u.dimension} does not match n={n}, m={m}"
        )
    partner_slots = tuple(s for s in range(n) if s != alice_slot)
    kept_slots = tuple(range(n, 2 * n - 1))
    ancilla_slots = tuple(range(2 * n - 1, 2 * n - 1 + m))
    # Tensored as [alice, (partner, kept) per singlet, ancillas], then each
    # qubit relabelled to its slot.
    parts = [alice_qubit] + [prepare_singlet()] * (n - 1)
    if m:
        ancillas = np.zeros(2**m, dtype=complex)
        ancillas[0] = 1.0
        parts.append(StateVector(m, ancillas))
    pairs = [slot for pair in zip(partner_slots, kept_slots) for slot in pair]
    state = permute_qubits(tensor(*parts), (alice_slot, *pairs, *ancilla_slots))
    return EntangledBlock(
        state=apply_unitary(state, u, (*range(n), *ancilla_slots)),
        num_block_qubits=n,
        alice_slot=alice_slot,
        partner_slots=partner_slots,
        kept_slots=kept_slots,
        ancilla_slots=ancilla_slots,
    )


def verify_reduction_reference(u, n: int, m: int) -> EquivalenceReport:
    """verify_reduction's report for `u` on n block qubits and m ancillas,
    one projected branch at a time."""
    u = UnitarySpec.from_matrix(u)
    expected_weight = 2.0 ** -(n - 1)
    max_dev = 0.0
    max_weight_dev = 0.0
    cases = 0
    branches = 0
    for basis, alice_bit, alice_slot in product((Basis.Z, Basis.X), (0, 1), range(n)):
        cases += 1
        sim = singlet_simulation(prepare_bb84(alice_bit, basis), n, u, m, alice_slot=alice_slot)
        eval_slots = list(sim.block_slots) + list(sim.ancilla_slots)
        for pattern in product((0, 1), repeat=n - 1):
            branches += 1
            weight = 1.0
            state = sim.state
            for q, outcome in zip(sim.kept_slots, pattern):
                prob, state = project(state, q, basis, outcome)
                weight *= prob
                if state is None:
                    break
            max_weight_dev = max(max_weight_dev, abs(weight - expected_weight))
            if state is None:
                max_dev = math.inf
                continue
            rho_sim = reduced_density(state, eval_slots).entries
            bits = np.empty(n, dtype=np.int64)
            bits[alice_slot] = alice_bit
            for slot, outcome in zip(sim.partner_slots, pattern):
                bits[slot] = 1 - outcome
            real = entangle_block(bb84_rows(bits, basis), u, m).amplitudes
            rho_real = np.outer(real, real.conj())
            max_dev = max(max_dev, float(np.max(np.abs(rho_sim - rho_real))))
    return EquivalenceReport(
        passed=max_dev < REDUCTION_TOL and max_weight_dev < REDUCTION_TOL,
        max_deviation=max_dev,
        max_weight_deviation=max_weight_dev,
        cases_checked=cases,
        branches_checked=branches,
    )
