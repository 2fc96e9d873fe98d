import functools
import math
from itertools import product
from unittest import mock

import numpy as np
import pytest

from blockqkd import attacks
from blockqkd.attacks import (
    BlockAttackSpec,
    CorpusCase,
    check_reduction_size,
    cnot_entangler,
    entangle_patterns,
    load_unitary,
    reduction_corpus,
    save_unitary,
    verify_reduction,
)
from blockqkd.protocol import ProtocolConfig, run_session
from blockqkd.quantum import (
    Basis,
    UnitarySpec,
    bb84_rows,
    random_unitary,
)
from bernoulli_reference import bernoulli
from blockqkd.randomness import BitSource
from circuit_oracle import Circuit, Measure, PrepSinglet, enumerate_outcomes
from density_reference import project, reduced_density
from measurement_reference import delayed_measurement, eve_tuples, measure
from reduction_reference import (
    entangle_block,
    prepare_bb84,
    rows_to_state,
    singlet_simulation,
    tensor,
    verify_reduction_reference,
)
import register_reference
from register_reference import StateVector

IDENTITY4 = UnitarySpec.from_matrix(np.eye(4))


def refuse_coin(p):
    raise AssertionError("randomness consumed where none is needed")


def attack_coin(seed=0):
    source = BitSource(seed)
    return source, functools.partial(bernoulli, source, "eve", "attack")


# --- attack descriptors -------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        BlockAttackSpec.intercept(1.5, "per_qubit")
    with pytest.raises(ValueError):
        BlockAttackSpec.intercept(0.5, "per_banana")
    with pytest.raises(ValueError):
        BlockAttackSpec.unitary(IDENTITY4, 3, 0)  # dimension mismatch
    # The cap is checked before the dimension, so a small unitary reaches it.
    with pytest.raises(ValueError, match="capped at 10 qubits"):
        BlockAttackSpec.unitary(IDENTITY4, 9, 2)  # past cap


def test_spec_labels():
    assert BlockAttackSpec.none().label == "none"
    assert BlockAttackSpec.intercept(1.0, "per_qubit").label == "intercept_resend(p=1,per_qubit)"
    assert "unitary_block" in BlockAttackSpec.unitary(IDENTITY4, 2, 0).label


# --- intercept-resend -------------------------------------------------------


def intercept_session(fraction, granularity, seed, n=4, num_blocks=250):
    """A per_block session under intercept-resend with every basis forced
    to X, so every block is kept and Eve's symbols cover every raw qubit in
    order: '?' where she stayed out, else (her bit, whether her basis was
    Alice's)."""
    config = ProtocolConfig(n, num_blocks, "per_block", seed=seed)
    attack = BlockAttackSpec.intercept(fraction, granularity)
    report = run_session(config, attack, force_shared_basis=Basis.X)
    assert report.sifted_bits == report.raw_qubits
    return report


def test_intercept_zero_fraction_is_transparent():
    config = ProtocolConfig(4, 100, "per_block", 0.05, seed=1)
    clean = run_session(config)
    report = run_session(config, BlockAttackSpec.intercept(0.0, "per_qubit"))
    assert np.array_equal(report.alice_key, clean.alice_key)
    assert np.array_equal(report.bob_key, clean.bob_key)
    assert set(eve_tuples(report)) == {"?"}
    assert report.ledger.get("eve", "attack") == 0
    assert report.ledger.counts == clean.ledger.counts


def test_intercept_full_reprepares_in_eve_basis():
    report = intercept_session(1.0, "per_qubit", seed=2, n=8)
    mismatched = sum(1 for _, matched in eve_tuples(report) if not matched)
    assert 0 < mismatched < report.raw_qubits
    # selection at p=1 is free, one basis bit per qubit, one fair bit per
    # basis mismatch
    assert report.ledger.get("eve", "attack") == report.raw_qubits + mismatched
    # Bob measures in Alice's basis: the qubits Eve resent in the other
    # basis are exactly the ones whose outcome he draws
    assert report.ledger.get("bob", "bob_measurement") == mismatched


def test_intercept_per_block_uses_one_basis():
    report = intercept_session(1.0, "per_block", seed=3, n=16, num_blocks=40)
    matched = np.array([m for _, m in eve_tuples(report)]).reshape(40, 16)
    assert (matched == matched[:, :1]).all()
    assert matched[:, 0].any() and not matched[:, 0].all()
    # one basis bit per block, one fair bit per qubit of a mismatched block
    mismatched = int(np.count_nonzero(~matched))
    assert report.ledger.get("eve", "attack") == 40 + mismatched


def test_intercept_matched_basis_reads_exactly():
    # Eve measuring in the preparation basis learns the bit and leaves the
    # state untouched.
    report = intercept_session(1.0, "per_qubit", seed=4)
    matched = 0
    for (eve_bit, match), alice, bob in zip(eve_tuples(report), report.alice_key, report.bob_key):
        if match:
            matched += 1
            assert eve_bit == alice == bob
    assert matched > 0


def test_intercept_partial_fraction_marks_subset():
    report = intercept_session(0.25, "per_qubit", seed=5, num_blocks=500)
    hits = sum(1 for symbol in eve_tuples(report) if symbol != "?")
    sigma = math.sqrt(2000 * 0.25 * 0.75)
    assert abs(hits - 500) <= 5 * sigma


def test_intercept_rejects_delayed():
    with pytest.raises(ValueError):
        BlockAttackSpec(
            variant="intercept_resend",
            fraction=1.0,
            granularity="per_qubit",
            u=None,
            num_block_qubits=0,
            num_ancillas=0,
            delayed=True,
        )


# --- unitary block attacks --------------------------------------------------


def test_unitary_identity_keeps_block_state():
    rows = bb84_rows(np.array([1, 0]), Basis.Z)
    # the ancilla joins in |0>, after the block's qubits
    entangled = entangle_block(rows, cnot_entangler(), 1)
    assert entangled.num_qubits == 3
    assert entangled.amplitudes[0b101] == pytest.approx(1.0, abs=1e-12)
    rows = bb84_rows(np.array([0, 1]), np.array([0, 1]))
    kept = entangle_block(rows, IDENTITY4, 0)
    assert np.allclose(kept.amplitudes, rows_to_state(rows).amplitudes)


def test_unitary_immediate_measures_now():
    # Z-basis blocks of two qubits, one ancilla measured before the block
    # goes on: Eve's symbol holds whether her guessed basis was Alice's
    # and the one ancilla bit, and she draws at least the guess per block
    config = ProtocolConfig(2, 20, "per_block", seed=7)
    attack = BlockAttackSpec.unitary(cnot_entangler(), 2, 1, delayed=False)
    report = run_session(config, attack, force_shared_basis=Basis.Z)
    assert report.sifted_bits == report.raw_qubits
    assert len(report.eve_symbols) == report.sifted_bits
    for guessed_right, ancilla_bits in eve_tuples(report):
        assert isinstance(guessed_right, bool)
        assert len(ancilla_bits) == 1
    assert report.ledger.get("eve", "attack") >= config.num_blocks


# --- singlet simulation -----------------------------------------------------


def test_simulation_identity_slots_and_marginals():
    alice = prepare_bb84(1, Basis.X)
    register = singlet_simulation(alice, 2, IDENTITY4, 0)
    assert register.state.num_qubits == 3
    assert register.alice_slot == 0
    assert register.partner_slots == (1,)
    assert register.kept_slots == (2,)
    rho_alice = reduced_density(register.state, (0,)).entries
    psi = alice.amplitudes
    assert np.allclose(rho_alice, np.outer(psi, psi.conj()), atol=1e-12)
    # untouched singlet halves are maximally mixed
    for slot in (1, 2):
        assert np.allclose(
            reduced_density(register.state, (slot,)).entries, np.eye(2) / 2
        )


def test_simulation_three_block_marginal_is_product():
    alice = prepare_bb84(0, Basis.X)
    register = singlet_simulation(alice, 3, UnitarySpec.from_matrix(np.eye(8)), 0)
    rho = reduced_density(register.state, register.block_slots).entries
    psi = alice.amplitudes
    expected = np.kron(np.outer(psi, psi.conj()), np.kron(np.eye(2) / 2, np.eye(2) / 2))
    assert np.allclose(rho, expected, atol=1e-12)


def test_simulation_respects_alice_slot():
    alice = prepare_bb84(1, Basis.Z)
    register = singlet_simulation(alice, 3, UnitarySpec.from_matrix(np.eye(8)), 0, alice_slot=1)
    rho = reduced_density(register.state, register.block_slots).entries
    psi = alice.amplitudes
    expected = np.kron(np.eye(2) / 2, np.kron(np.outer(psi, psi.conj()), np.eye(2) / 2))
    assert np.allclose(rho, expected, atol=1e-12)
    assert register.alice_slot == 1
    assert register.partner_slots == (0, 2)


def test_simulation_validates():
    with pytest.raises(ValueError):
        singlet_simulation(prepare_singlet_like(), 2, IDENTITY4, 0)
    with pytest.raises(ValueError):
        singlet_simulation(prepare_bb84(0, Basis.Z), 2, IDENTITY4, 1)  # dim mismatch
    with pytest.raises(ValueError):
        singlet_simulation(prepare_bb84(0, Basis.Z), 2, IDENTITY4, 0, alice_slot=2)


def prepare_singlet_like() -> StateVector:
    return tensor(prepare_bb84(0, Basis.Z), prepare_bb84(0, Basis.Z))


# --- delayed measurement ----------------------------------------------------


def _collapsed_register(basis: Basis, partner_outcome: int):
    register = singlet_simulation(prepare_bb84(0, basis), 2, IDENTITY4, 0)
    prob, post = project(register.state, register.partner_slots[0], basis, partner_outcome)
    assert prob == pytest.approx(0.5, abs=1e-12)
    register.state = post
    return register


@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
@pytest.mark.parametrize("partner_outcome", [0, 1])
def test_delayed_record_complements_partner(basis, partner_outcome):
    register = _collapsed_register(basis, partner_outcome)
    slot_bits, ancilla_bits = delayed_measurement(register, basis, refuse_coin)
    assert ancilla_bits.size == 0
    assert slot_bits.tolist() == [partner_outcome]


def test_delayed_measurement_only_once():
    source, coin = attack_coin(8)
    register = singlet_simulation(prepare_bb84(0, Basis.Z), 2, IDENTITY4, 0)
    delayed_measurement(register, Basis.Z, coin)
    with pytest.raises(RuntimeError):
        delayed_measurement(register, Basis.Z, coin)


def test_identity_attack_eve_matches_bob_exactly():
    # Noiseless n=2 with the do-nothing block unitary: after Bob measures
    # in the announced basis, Eve's recorded bit for every simulated slot
    # equals Bob's outcome there.
    for bit, basis, seed in product((0, 1), (Basis.Z, Basis.X), range(4)):
        register = singlet_simulation(prepare_bb84(bit, basis), 2, IDENTITY4, 0)
        source, coin = attack_coin(seed)
        state = register.state
        bob = {}
        for slot in register.block_slots:
            outcome, state = measure(state, slot, basis, coin)
            bob[slot] = outcome
        assert bob[register.alice_slot] == bit
        register.state = state
        slot_bits, _ = delayed_measurement(register, basis, refuse_coin)
        assert slot_bits.tolist() == [bob[register.partner_slots[0]]]


def test_delayed_commutes_with_bob():
    # Measuring the kept half before or after the partner gives the same
    # joint distribution.
    eve_first = Circuit(
        2, [PrepSinglet(0, 1), Measure(0, Basis.Z, "eve"), Measure(1, Basis.Z, "bob")]
    )
    bob_first = Circuit(
        2, [PrepSinglet(0, 1), Measure(1, Basis.Z, "bob"), Measure(0, Basis.Z, "eve")]
    )
    d1 = enumerate_outcomes(eve_first)
    d2 = enumerate_outcomes(bob_first)
    for eve, bob in product((0, 1), repeat=2):
        assert d1.prob((eve, bob)) == pytest.approx(d2.prob((bob, eve)), abs=1e-12)


# --- reduction verification --------------------------------------------------


def test_verify_identity_n2():
    report = verify_reduction(np.eye(4), 2, 0)
    assert report.passed
    assert report.max_deviation < 1e-12
    assert report.max_weight_deviation < 1e-12
    # 2 bases x 2 bits x 2 slots, each with 2^(n-1) = 2 kept patterns
    assert report.cases_checked == 8
    assert report.branches_checked == 16
    assert report.tolerance == 1e-9


def test_verify_cnot_entangler():
    report = verify_reduction(cnot_entangler(), 2, 1)
    assert report.passed
    assert report.max_deviation < 1e-9


def test_verify_random_cases():
    for n, m, seed in ((2, 1, 41), (3, 0, 42)):
        u = random_unitary(n + m, seed=seed)
        report = verify_reduction(u, n, m)
        assert report.passed, f"n={n} m={m} deviated by {report.max_deviation}"


@pytest.mark.parametrize(
    "case",
    reduction_corpus()
    + [
        CorpusCase(f"random(n={n},m={m})", random_unitary(n + m, seed=60 + n + m), n, m)
        # (6, 1) and (3, 6) fill the 12-qubit register cap
        for n, m in ((1, 0), (1, 2), (2, 0), (4, 1), (5, 0), (6, 1), (3, 6))
    ],
    ids=lambda case: case.name,
)
def test_verify_matches_branch_by_branch_reference(case):
    report = verify_reduction(case.u, case.n, case.m)
    reference = verify_reduction_reference(case.u, case.n, case.m)
    assert report.passed and reference.passed
    assert report.cases_checked == reference.cases_checked
    assert report.branches_checked == reference.branches_checked
    assert report.max_deviation == pytest.approx(reference.max_deviation, abs=1e-12)
    assert report.max_weight_deviation == pytest.approx(
        reference.max_weight_deviation, abs=1e-12
    )


@pytest.mark.parametrize(
    "case",
    reduction_corpus(random_count=18, block_sizes=(1, 2, 3), ancillas=(0, 1, 2)),
    ids=lambda case: case.name,
)
def test_singlet_register_matches_the_reference_simulation(case):
    # Every (n, m) cell with its identity and two Haar unitaries, plus the
    # CNOT entangler: column c of _singlet_register is the register that
    # singlet_simulation builds for Alice's input c, at every slot.
    alice = bb84_rows([0, 1, 0, 1], [0, 0, 1, 1]).T
    inputs = [(0, Basis.Z), (1, Basis.Z), (0, Basis.X), (1, Basis.X)]
    for alice_slot in range(case.n):
        register = attacks._singlet_register(alice, case.n, case.u, case.m, alice_slot)
        for column, (bit, basis) in zip(register.T, inputs):
            sim = singlet_simulation(prepare_bb84(bit, basis), case.n, case.u, case.m, alice_slot)
            assert np.max(np.abs(column - sim.state.amplitudes)) <= 1e-12


@pytest.mark.parametrize("n, m", list(product(range(1, 5), range(3))))
def test_entangled_patterns_are_the_sessions_blocks(n, m):
    # Column p is the register that entangle_block builds from p's bits.
    u = random_unitary(n + m, seed=70 + 3 * n + m)
    for basis in (Basis.Z, Basis.X):
        columns = entangle_patterns(u, n, m, basis)
        assert columns.shape == (2 ** (n + m), 2**n)
        for p, bits in enumerate(product((0, 1), repeat=n)):
            block = entangle_block(bb84_rows(np.array(bits), basis), u, m).amplitudes
            assert np.max(np.abs(columns[:, p] - block)) < 1e-14


def test_verify_fails_on_a_triplet_register():
    # With (|01> + |10>)/sqrt(2) for the singlet, the kept halves agree
    # with their partners in X instead of disagreeing: both checks must
    # fail. Each reads the singlet where it builds its register.
    triplet = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)
    with mock.patch.object(attacks, "SINGLET", triplet), mock.patch.object(
        register_reference, "SINGLET", triplet
    ):
        report = verify_reduction(cnot_entangler(), 2, 1)
        reference = verify_reduction_reference(cnot_entangler(), 2, 1)
    assert not report.passed and not reference.passed
    assert report.max_deviation == pytest.approx(0.5, abs=1e-12)
    assert reference.max_deviation == pytest.approx(0.5, abs=1e-12)


def test_verify_preconditions():
    with pytest.raises(ValueError):
        verify_reduction(np.eye(2**7), 7, 0)
    with pytest.raises(ValueError):
        verify_reduction(np.eye(2**11), 3, 8)
    with pytest.raises(ValueError):
        verify_reduction(np.diag([1.0, 2.0, 1.0, 1.0]), 2, 0)  # not unitary


def test_corpus_contents():
    cases = reduction_corpus(random_count=6)
    names = [case.name for case in cases]
    assert len(names) == len(set(names))
    assert sum(1 for n in names if n.startswith("identity")) == 6
    assert sum(1 for n in names if n.startswith("cnot")) == 1
    assert sum(1 for n in names if n.startswith("random")) == 6
    for case in cases:
        assert case.n in (2, 3)
        assert case.n + case.m <= 8


def test_corpus_rejects_negative_random_count():
    with pytest.raises(ValueError):
        reduction_corpus(random_count=-1)
    assert len(reduction_corpus(random_count=0, block_sizes=(2,), ancillas=(0,))) == 1


def test_corpus_rejects_negative_seed():
    for random_count in (0, 3):  # before any case is built, drawn or not
        with pytest.raises(ValueError, match="seed must be >= 0"):
            reduction_corpus(random_count=random_count, seed=-5)
    assert len(reduction_corpus(random_count=1, seed=0, block_sizes=(2,), ancillas=(0,))) == 2


def test_corpus_rejects_unverifiable_sizes():
    # reduction_corpus holds its grid to verify_reduction's size rule
    with pytest.raises(ValueError):
        reduction_corpus(block_sizes=(7,))
    with pytest.raises(ValueError):
        reduction_corpus(block_sizes=(2, 3), ancillas=(0, 8))
    with pytest.raises(ValueError):
        reduction_corpus(block_sizes=(2,), ancillas=(-1,))


def test_reduction_size_rule_is_the_register_cap():
    # The singlet-built register holds 2n - 1 + m qubits, capped at 12.
    for n, m in ((1, 0), (2, 0), (3, 6), (6, 1), (4, 5)):
        check_reduction_size(n, m)
    for n, m in ((0, 0), (2, -1), (6, 2), (7, 0)):
        with pytest.raises(ValueError):
            check_reduction_size(n, m)


def test_verify_past_the_old_size_range():
    for n, m, seed in ((4, 1, 43), (5, 2, 44)):
        report = verify_reduction(random_unitary(n + m, seed=seed), n, m)
        assert report.passed, f"n={n} m={m} deviated by {report.max_deviation}"
        assert report.cases_checked == 4 * n
        assert report.branches_checked == 4 * n * 2 ** (n - 1)


# --- unitary file format ------------------------------------------------------


def test_unitary_roundtrip(tmp_path):
    path = tmp_path / "u.txt"
    u = random_unitary(2, seed=50)
    save_unitary(path, u)
    loaded = load_unitary(path)
    assert np.array_equal(loaded.entries, u.entries)
    first = path.read_text().splitlines()[0]
    assert first == "dim 4"


def test_unitary_specs_compare_and_hash_by_value(tmp_path):
    path = tmp_path / "cnot.txt"
    save_unitary(path, cnot_entangler())
    first, second = load_unitary(path), load_unitary(path)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    attacks = [BlockAttackSpec.unitary(u, 2, 1) for u in (first, second)]
    assert attacks[0] == attacks[1]
    assert hash(attacks[0]) == hash(attacks[1])
    assert attacks[0] != BlockAttackSpec.unitary(first, 2, 1, delayed=False)
    assert first != UnitarySpec.from_matrix(np.eye(8))
    # -0.0 and 0.0 are equal entries, so the specs and their hashes agree
    signed = UnitarySpec(2, np.array([[1.0, -0.0], [0.0, 1.0]]))
    unsigned = UnitarySpec(2, np.eye(2))
    assert signed.entries.tobytes() != unsigned.entries.tobytes()
    assert signed == unsigned
    assert hash(signed) == hash(unsigned)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4\n1,0 0,0 0,0 0,0\n")
    with pytest.raises(ValueError):
        load_unitary(path)


def test_load_rejects_wrong_shape(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dim 2\n1.0,0.0 0.0,0.0\n")
    with pytest.raises(ValueError):
        load_unitary(path)


def test_load_rejects_nan_entry(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("dim 2\nnan,0 0.0,0.0\n0.0,0.0 1.0,0.0\n")
    with pytest.raises(ValueError, match="not unitary"):
        load_unitary(path)


def test_load_rejects_non_unitary(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dim 2\n1.0,0.0 0.0,0.0\n0.0,0.0 0.5,0.0\n")
    with pytest.raises(ValueError):
        load_unitary(path)
