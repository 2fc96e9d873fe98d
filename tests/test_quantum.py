import functools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockqkd.quantum import (
    CNOT,
    HADAMARD,
    MAX_REGISTER_QUBITS,
    Basis,
    UnitarySpec,
    _apply_matrix,
    bb84_rows,
    embed,
    random_unitary,
)
from bernoulli_reference import bernoulli
from blockqkd.randomness import BitSource
from circuit_oracle import (
    PAULI_X,
    SWAP,
    Apply,
    Circuit,
    Measure,
    Prep,
    PrepSinglet,
    enumerate_outcomes,
)
from circuit_sampling import RandomCoin, sample_circuit
from density_reference import DensityMatrix, project, reduced_density
from measurement_reference import measure
from reduction_reference import permute_qubits, prepare_bb84, rows_to_state, tensor
from register_reference import StateVector, apply_unitary, prepare_singlet
from row_reference import flip_rows, measure_rows

S = 1.0 / math.sqrt(2.0)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class RefuseCoin:
    """Fails the test if any randomness is consumed, as a Bernoulli
    sampler or as a source."""

    def __call__(self, p):
        raise AssertionError("coin consulted for a deterministic measurement")

    def draw_bits(self, party, stage, count):
        raise AssertionError("coin consulted for a deterministic measurement")


def fair_coin(seed=0):
    """A source and its Bernoulli sampler charged to (bob, bob_measurement)."""
    source = BitSource(seed)
    return source, functools.partial(bernoulli, source, "bob", "bob_measurement")


# --- state preparation ----------------------------------------------------


def test_bb84_amplitudes_exact():
    assert np.array_equal(prepare_bb84(0, Basis.Z).amplitudes, [1, 0])
    assert np.array_equal(prepare_bb84(1, Basis.Z).amplitudes, [0, 1])
    assert np.array_equal(prepare_bb84(0, Basis.X).amplitudes, [S, S])
    assert np.array_equal(prepare_bb84(1, Basis.X).amplitudes, [S, -S])


def test_bb84_rejects_bad_bit():
    with pytest.raises(ValueError):
        prepare_bb84(2, Basis.Z)


def test_singlet_amplitudes_exact():
    assert np.array_equal(prepare_singlet().amplitudes, [0, S, -S, 0])


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))
    # NaN compares false with everything, so the checks must not pass it
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 1.0]))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.5j], [0.5j, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[np.nan, 0.0], [0.0, 0.5]]))
    valid = DensityMatrix(1, np.eye(2) / 2)
    assert np.allclose(valid.entries, np.eye(2) / 2)


# --- measurement ----------------------------------------------------------


def test_measure_eigenstate_consumes_nothing():
    outcome, post = measure(prepare_bb84(0, Basis.Z), 0, Basis.Z, RefuseCoin())
    assert outcome == 0
    assert np.array_equal(post.amplitudes, [1, 0])
    outcome, _ = measure(prepare_bb84(1, Basis.X), 0, Basis.X, RefuseCoin())
    assert outcome == 1


def test_measure_mismatched_basis_costs_one_fair_bit():
    source, coin = fair_coin(3)
    outcome, post = measure(prepare_bb84(0, Basis.X), 0, Basis.Z, coin)
    assert outcome in (0, 1)
    assert source.ledger.total() == 1
    expected = [1, 0] if outcome == 0 else [0, 1]
    assert np.allclose(post.amplitudes, expected)


def test_remeasurement_is_free_and_stable():
    source, coin = fair_coin(5)
    state = prepare_bb84(0, Basis.X)
    first, post = measure(state, 0, Basis.Z, coin)
    second, _ = measure(post, 0, Basis.Z, RefuseCoin())
    assert second == first
    assert source.ledger.total() == 1


def test_singlet_sequential_z_measurements_anticorrelate():
    for seed in range(8):
        _, coin = fair_coin(seed)
        a, post = measure(prepare_singlet(), 0, Basis.Z, coin)
        b, _ = measure(post, 1, Basis.Z, RefuseCoin())
        assert b == 1 - a


def test_singlet_sequential_x_measurements_anticorrelate():
    for seed in range(8):
        _, coin = fair_coin(seed)
        a, post = measure(prepare_singlet(), 0, Basis.X, coin)
        b, _ = measure(post, 1, Basis.X, RefuseCoin())
        assert b == 1 - a


def test_measure_index_bounds():
    with pytest.raises(IndexError):
        measure(prepare_singlet(), 2, Basis.Z, RefuseCoin())


def test_project_uniform_branch():
    prob, post = project(prepare_bb84(0, Basis.X), 0, Basis.Z, 0)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(post.amplitudes, [1, 0])


def test_project_impossible_branch():
    prob, post = project(prepare_bb84(0, Basis.Z), 0, Basis.Z, 1)
    assert prob == 0.0
    assert post is None


def test_project_branches_sum_to_one():
    state = apply_unitary(
        tensor(prepare_bb84(0, Basis.Z), prepare_bb84(0, Basis.Z)),
        random_unitary(2, seed=7),
        (0, 1),
    )
    for basis in (Basis.Z, Basis.X):
        total = sum(project(state, 0, basis, o)[0] for o in (0, 1))
        assert total == pytest.approx(1.0, abs=1e-12)


# --- unitaries ------------------------------------------------------------


def test_identity_leaves_state():
    state = prepare_singlet()
    out = apply_unitary(state, UnitarySpec.from_matrix(np.eye(4)), (0, 1))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_hadamard_turns_z0_into_x0():
    out = apply_unitary(prepare_bb84(0, Basis.Z), UnitarySpec.from_matrix(HADAMARD), (0,))
    assert np.allclose(out.amplitudes, prepare_bb84(0, Basis.X).amplitudes)


def test_swap_on_singlet_is_global_phase():
    singlet = prepare_singlet()
    swapped = apply_unitary(singlet, UnitarySpec.from_matrix(SWAP), (0, 1))
    assert np.allclose(swapped.amplitudes, -singlet.amplitudes)
    for keep in ((0,), (1,), (0, 1)):
        assert np.allclose(
            reduced_density(swapped, keep).entries,
            reduced_density(singlet, keep).entries,
        )


def test_embed_places_gate_on_targets():
    # CNOT with control on qubit 0 (MSB) and target on qubit 2 of three.
    u = embed(3, UnitarySpec.from_matrix(CNOT), (0, 2))
    amps = np.zeros(8)
    amps[0b100] = 1.0
    out = u.entries @ amps
    expected = np.zeros(8)
    expected[0b101] = 1.0
    assert np.allclose(out, expected)
    # untouched when the control is 0
    amps = np.zeros(8)
    amps[0b010] = 1.0
    assert np.allclose(u.entries @ amps, amps)


@pytest.mark.parametrize(
    "gate, targets",
    [(CNOT, (0, -3)), (CNOT, (0, 0)), (HADAMARD, (3,))],
    ids=["negative", "repeated", "out_of_range"],
)
def test_embed_rejects_bad_targets(gate, targets):
    # A negative target would otherwise pass as a numpy axis index.
    with pytest.raises(ValueError, match=re.escape(f"targets {targets} are not")):
        embed(3, UnitarySpec.from_matrix(gate), targets)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_embed_matches_column_by_column(seed):
    # embed applies the gate to all identity columns at once; each column
    # must equal the gate applied to that basis vector alone, bit for bit.
    u = random_unitary(2, seed)
    for targets in ((0, 2), (2, 0), (1, 3)):
        full = embed(4, u, targets)
        for col in range(16):
            basis_vec = np.zeros(16, dtype=complex)
            basis_vec[col] = 1.0
            column = _apply_matrix(basis_vec, u.entries, targets, 4)
            assert np.array_equal(full.entries[:, col], column)


def test_unitary_spec_rejects_non_unitary():
    with pytest.raises(ValueError):
        UnitarySpec.from_matrix(np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        UnitarySpec(3, np.eye(3))
    with pytest.raises(ValueError):
        UnitarySpec.from_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_permute_qubits_moves_amplitudes():
    state = tensor(prepare_bb84(1, Basis.Z), prepare_bb84(0, Basis.Z))
    swapped = permute_qubits(state, (1, 0))
    assert np.allclose(
        swapped.amplitudes,
        tensor(prepare_bb84(0, Basis.Z), prepare_bb84(1, Basis.Z)).amplitudes,
    )


def test_permute_roundtrip():
    state = apply_unitary(
        tensor(prepare_bb84(0, Basis.X), prepare_singlet()),
        random_unitary(3, seed=21),
        (0, 1, 2),
    )
    forward = (2, 0, 1)
    inverse = tuple(np.argsort(forward))
    back = permute_qubits(permute_qubits(state, forward), inverse)
    assert np.allclose(back.amplitudes, state.amplitudes)


def test_tensor_and_register_cap():
    pair = tensor(prepare_bb84(0, Basis.Z), prepare_bb84(1, Basis.X))
    assert pair.num_qubits == 2
    assert np.allclose(pair.amplitudes, np.kron([1, 0], [S, -S]))
    too_many = [prepare_bb84(0, Basis.Z)] * (MAX_REGISTER_QUBITS + 1)
    with pytest.raises(ValueError):
        tensor(*too_many)


def test_reduced_density_examples():
    half_identity = np.eye(2) / 2
    assert np.allclose(reduced_density(prepare_singlet(), (0,)).entries, half_identity)
    assert np.allclose(reduced_density(prepare_singlet(), (1,)).entries, half_identity)

    product = tensor(prepare_bb84(0, Basis.Z), prepare_bb84(1, Basis.Z))
    assert np.allclose(
        reduced_density(product, (0,)).entries, [[1, 0], [0, 0]]
    )

    full = reduced_density(product, (0, 1)).entries
    psi = product.amplitudes
    assert np.allclose(full, np.outer(psi, psi.conj()))


def test_random_unitary_is_unitary_and_deterministic():
    u = random_unitary(3, seed=11)
    assert u.num_qubits == 3
    assert np.allclose(u.entries @ u.entries.conj().T, np.eye(8), atol=1e-12)
    again = random_unitary(3, seed=11)
    assert np.array_equal(u.entries, again.entries)
    other = random_unitary(3, seed=12)
    assert not np.allclose(u.entries, other.entries)


# --- circuit enumeration and sampling --------------------------------------


def test_enumerate_z_eigenstate():
    circuit = Circuit(1, [Prep(0, 0, Basis.Z), Measure(0, Basis.Z)])
    dist = enumerate_outcomes(circuit)
    assert dist.prob((0,)) == pytest.approx(1.0, abs=1e-12)


def test_enumerate_singlet_both_z():
    circuit = Circuit(
        2, [PrepSinglet(0, 1), Measure(0, Basis.Z), Measure(1, Basis.Z)]
    )
    dist = enumerate_outcomes(circuit)
    assert dist.prob((0, 1)) == pytest.approx(0.5, abs=1e-12)
    assert dist.prob((1, 0)) == pytest.approx(0.5, abs=1e-12)
    assert dist.prob((0, 0)) == 0.0
    assert dist.prob((1, 1)) == 0.0


def test_enumerate_singlet_both_x():
    circuit = Circuit(
        2, [PrepSinglet(0, 1), Measure(0, Basis.X), Measure(1, Basis.X)]
    )
    dist = enumerate_outcomes(circuit)
    assert dist.prob((0, 1)) + dist.prob((1, 0)) == pytest.approx(1.0, abs=1e-12)


def test_enumerate_x_prep_measured_z_is_uniform():
    circuit = Circuit(1, [Prep(0, 0, Basis.X), Measure(0, Basis.Z)])
    dist = enumerate_outcomes(circuit)
    assert dist.prob((0,)) == pytest.approx(0.5, abs=1e-12)
    assert dist.prob((1,)) == pytest.approx(0.5, abs=1e-12)


def test_enumerate_repeated_measurement_agrees():
    circuit = Circuit(
        1, [Prep(0, 0, Basis.X), Measure(0, Basis.Z), Measure(0, Basis.Z)]
    )
    dist = enumerate_outcomes(circuit)
    for first, second in dist.probabilities:
        assert second == first


def test_enumeration_completeness_over_corpus():
    corpus = [
        Circuit(1, [Prep(0, 1, Basis.X), Measure(0, Basis.Z)]),
        Circuit(2, [PrepSinglet(0, 1), Measure(0, Basis.X), Measure(1, Basis.Z)]),
        Circuit(
            2,
            [
                Prep(0, 0, Basis.Z),
                Prep(1, 0, Basis.Z),
                Apply(random_unitary(2, seed=31), (0, 1)),
                Measure(0, Basis.X),
                Measure(1, Basis.X),
            ],
        ),
        Circuit(
            3,
            [
                PrepSinglet(0, 1),
                Prep(2, 1, Basis.X),
                Apply(random_unitary(2, seed=32), (1, 2)),
                Measure(0, Basis.Z),
                Measure(1, Basis.X),
                Measure(2, Basis.Z),
            ],
        ),
    ]
    for circuit in corpus:
        total = sum(enumerate_outcomes(circuit).probabilities.values())
        assert total == pytest.approx(1.0, abs=1e-10)


def test_enumerate_rejects_oversized_register():
    circuit = Circuit(MAX_REGISTER_QUBITS + 1, [Measure(0, Basis.Z)])
    with pytest.raises(ValueError):
        enumerate_outcomes(circuit)


def test_measurement_labels():
    circuit = Circuit(
        2,
        [
            PrepSinglet(0, 1),
            Measure(0, Basis.Z, label="alice"),
            Measure(1, Basis.Z),
        ],
    )
    assert enumerate_outcomes(circuit).variables == ("alice", "m1")


def test_sampling_matches_enumeration_singlet():
    circuit = Circuit(
        2, [PrepSinglet(0, 1), Measure(0, Basis.Z), Measure(1, Basis.Z)]
    )
    shots = 100000
    samples = sample_circuit(circuit, shots, RandomCoin(random.Random(2024)))
    assert all(b == 1 - a for a, b in samples)
    count01 = sum(1 for s in samples if s == (0, 1))
    sigma = math.sqrt(shots * 0.25)
    assert abs(count01 - shots / 2) <= 3 * sigma


def test_sampling_matches_enumeration_random_states():
    # 1-qubit states from seeded unitaries, both bases, 5 sigma.
    shots = 5000
    rng = random.Random(77)
    for seed in (1, 2, 3):
        u = random_unitary(1, seed=seed)
        for basis in (Basis.Z, Basis.X):
            circuit = Circuit(1, [Apply(u, (0,)), Measure(0, basis)])
            expected = enumerate_outcomes(circuit).prob((1,))
            hits = sum(
                s == (1,) for s in sample_circuit(circuit, shots, RandomCoin(rng))
            )
            sigma = math.sqrt(shots * expected * (1 - expected))
            assert abs(hits - shots * expected) <= 5 * sigma + 1


# --- product rows and the row reference -----------------------------------


def test_bb84_rows_match_single_preparations():
    bits = np.array([0, 1, 0, 1])
    bases = np.array([0, 0, 1, 1])
    rows = bb84_rows(bits, bases)
    for i in range(4):
        assert np.array_equal(rows[i], prepare_bb84(int(bits[i]), Basis(bases[i])).amplitudes)
    assert np.array_equal(bb84_rows(bits, Basis.X), bb84_rows(bits, np.ones(4, dtype=int)))


def test_measure_rows_matched_basis_is_free_and_exact():
    source = BitSource(1)
    bits = np.array([0, 1, 1, 0, 1])
    rows = bb84_rows(bits, Basis.X)
    outcomes, post = measure_rows(rows, Basis.X, source, "bob", "bob_measurement")
    assert np.array_equal(outcomes, bits)
    assert source.ledger.total() == 0
    assert np.array_equal(post, rows)


def test_measure_rows_mismatched_basis_costs_n_bits():
    source = BitSource(2)
    bits = np.zeros(64, dtype=np.int64)
    rows = bb84_rows(bits, Basis.X)
    outcomes, post = measure_rows(rows, Basis.Z, source, "bob", "bob_measurement")
    assert source.ledger.total() == 64
    # collapsed rows are exact Z eigenstates
    for i, outcome in enumerate(outcomes):
        assert np.array_equal(post[i], prepare_bb84(int(outcome), Basis.Z).amplitudes)
    # roughly balanced
    assert 10 <= outcomes.sum() <= 54


def test_measure_rows_agrees_with_register_measure_statistics():
    bits = np.array([0, 0])
    rows = bb84_rows(bits, Basis.X)
    counts = {0: 0, 1: 0}
    trials = 4000
    source = BitSource(3)
    for _ in range(trials):
        outcomes, _ = measure_rows(rows, Basis.Z, source, "bob", "bob_measurement")
        counts[int(outcomes[0])] += 1
    sigma = math.sqrt(trials * 0.25)
    assert abs(counts[1] - trials / 2) <= 5 * sigma


def test_flip_rows_is_basis_local_bit_flip():
    bits = np.array([0, 1, 0, 1])
    bases = np.array([0, 0, 1, 1])
    rows = bb84_rows(bits, bases)
    flipped = flip_rows(rows, np.array([True, True, True, True]), bases)
    outcomes, _ = measure_rows(flipped, bases, RefuseCoin(), "bob", "bob_measurement")
    assert np.array_equal(outcomes, 1 - bits)


def test_flip_rows_equals_pauli_action():
    bits = np.array([0, 1])
    for basis, pauli in ((Basis.Z, PAULI_X), (Basis.X, PAULI_Z)):
        rows = bb84_rows(bits, basis)
        flipped = flip_rows(rows, np.array([True, True]), basis)
        assert np.allclose(flipped, rows @ pauli.T)


def test_flip_rows_respects_mask_and_involution():
    bits = np.array([0, 1, 1])
    rows = bb84_rows(bits, Basis.Z)
    mask = np.array([True, False, True])
    once = flip_rows(rows, mask, Basis.Z)
    assert np.array_equal(once[1], rows[1])
    twice = flip_rows(once, mask, Basis.Z)
    assert np.allclose(twice, rows)


def test_rows_to_state_is_tensor_product():
    bits = np.array([1, 0])
    bases = np.array([0, 1])
    state = rows_to_state(bb84_rows(bits, bases))
    direct = tensor(prepare_bb84(1, Basis.Z), prepare_bb84(0, Basis.X))
    assert np.allclose(state.amplitudes, direct.amplitudes)


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=8),
    st.lists(st.integers(0, 1), min_size=8, max_size=8),
    st.integers(0, 1),
)
@settings(max_examples=60)
def test_rows_measurement_collapse_is_projective(bits, bases_bits, meas_basis):
    bits = np.asarray(bits)
    bases = np.asarray(bases_bits[: len(bits)])
    rows = bb84_rows(bits, bases)
    source = BitSource(9)
    outcomes, post = measure_rows(rows, Basis(meas_basis), source, "bob", "bob_measurement")
    again, post2 = measure_rows(post, Basis(meas_basis), RefuseCoin(), "bob", "bob_measurement")
    assert np.array_equal(again, outcomes)
    assert np.array_equal(post2, post)
