import dataclasses
import functools
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockqkd import protocol
from blockqkd.attacks import BlockAttackSpec, cnot_entangler
from blockqkd.infotheory import ck_rate, mutual_information
from blockqkd.protocol import (
    ProtocolConfig,
    _channel_flips,
    _joint_counts,
    estimate_qber,
    run_session,
    empirical_rates,
)
from blockqkd.quantum import (
    HADAMARD,
    Basis,
    UnitarySpec,
    bb84_rows,
    embed,
    random_unitary,
)
from blockqkd.randomness import BitSource
from circuit_oracle import Apply, Circuit, Measure, Prep, enumerate_outcomes
from measurement_reference import (
    collapse,
    empirical_joint,
    eve_tuples,
    measure,
    outcome_probability,
)
from reduction_reference import entangle_block
from register_reference import apply_unitary
from row_reference import EVE, AddressedDraws, flip_rows, intercept_resend, measure_rows

X_GATE = UnitarySpec(2, np.array([[0, 1], [1, 0]], dtype=complex))
Z_GATE = UnitarySpec(2, np.array([[1, 0], [0, -1]], dtype=complex))
FLIP_GATES = {Basis.Z: X_GATE, Basis.X: Z_GATE}


def intercept_qber_oracle(p: float, c: float) -> float:
    """Exact sifted error rate under intercept fraction p and flip prob c.

    Built by enumerating the one-qubit circuit for each (Eve basis, flip)
    branch; never assumes a closed form. Symmetric in Alice's bit and
    basis, so one preparation suffices.
    """
    err_attacked = 0.0
    for eve_basis in (Basis.Z, Basis.X):
        for flipped, weight in ((0, 1.0 - c), (1, c)):
            ops: list = [Prep(0, 0, Basis.Z), Measure(0, eve_basis, "eve")]
            if flipped:
                ops.append(Apply(FLIP_GATES[eve_basis], (0,)))
            ops.append(Measure(0, Basis.Z, "bob"))
            dist = enumerate_outcomes(Circuit(1, ops))
            err = dist.marginal(("bob",)).prob((1,))
            err_attacked += 0.5 * weight * err
    return p * err_attacked + (1.0 - p) * c


# --- configuration ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(block_size=0, num_blocks=10)
    with pytest.raises(ValueError):
        ProtocolConfig(block_size=4, num_blocks=0)
    with pytest.raises(ValueError):
        ProtocolConfig(block_size=4, num_blocks=10, mode="per_photon")
    with pytest.raises(ValueError):
        ProtocolConfig(block_size=4, num_blocks=10, channel_flip_prob=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(block_size=4, num_blocks=10, sample_fraction=0.0)
    # random.Random(-5) is random.Random(5): a negative seed would alias
    with pytest.raises(ValueError, match="seed"):
        ProtocolConfig(block_size=4, num_blocks=200, seed=-5)
    assert ProtocolConfig(block_size=4, num_blocks=10, seed=0).seed == 0
    assert ProtocolConfig(block_size=4, num_blocks=10).raw_qubits == 40


# --- preparation --------------------------------------------------------------


def draw_bases(config, source, party, forced=None):
    """One party's basis values for a block, as run_session draws them: one
    bit repeated n times (per_block) or n bits, then replaced by `forced`."""
    n = config.block_size
    width = 1 if config.mode == "per_block" else n
    bases = np.resize(source.draw_bits(party, f"{party}_basis", width), n).astype(np.int64)
    if forced is not None:
        bases[:] = forced
    return bases


def alice_prepare_block(config, source, forced=None):
    """Alice's bases, bits and amplitude rows for one block."""
    bases = draw_bases(config, source, "alice", forced)
    bits = source.draw_bits("alice", "alice_bits", config.block_size)
    return bases, bits, bb84_rows(bits, bases)


def bob_measure_block(rows, config, source, forced=None):
    """Bob's bases and his outcomes on a product block."""
    bases = draw_bases(config, source, "bob", forced)
    outcomes, _ = measure_rows(rows, bases, source, "bob", "bob_measurement")
    return bases, outcomes


def alice_charges(report):
    return report.ledger.get("alice", "alice_basis"), report.ledger.get("alice", "alice_bits")


def test_prepare_ledger_per_block():
    source = BitSource(1)
    config = ProtocolConfig(block_size=4, num_blocks=1, mode="per_block")
    bases, bits, rows = alice_prepare_block(config, source)
    assert source.ledger.get("alice", "alice_basis") == 1
    assert source.ledger.get("alice", "alice_bits") == 4
    assert len(set(bases.tolist())) == 1
    assert rows.shape == (4, 2)
    assert alice_charges(run_session(config)) == (1, 4)


def test_prepare_ledger_per_qubit():
    source = BitSource(2)
    config = ProtocolConfig(block_size=4, num_blocks=1, mode="per_qubit")
    alice_prepare_block(config, source)
    assert source.ledger.get("alice", "alice_basis") == 4
    assert source.ledger.get("alice", "alice_bits") == 4
    assert alice_charges(run_session(config)) == (4, 4)


@pytest.mark.parametrize("mode", ["per_block", "per_qubit"])
def test_prepare_ledger_single_qubit_modes_coincide(mode):
    source = BitSource(3)
    config = ProtocolConfig(block_size=1, num_blocks=1, mode=mode)
    alice_prepare_block(config, source)
    assert source.ledger.get("alice", "alice_basis") == 1
    assert source.ledger.get("alice", "alice_bits") == 1
    assert alice_charges(run_session(config)) == (1, 1)


# --- measurement --------------------------------------------------------------


def test_measure_ledger_per_block():
    source = BitSource(4)
    config = ProtocolConfig(block_size=8, num_blocks=1, mode="per_block")
    _, _, block = alice_prepare_block(config, source)
    before = source.ledger.get("bob", "bob_basis")
    bob_measure_block(block, config, source)
    assert source.ledger.get("bob", "bob_basis") - before == 1
    assert run_session(config).ledger.get("bob", "bob_basis") == 1


def test_matched_basis_reads_alice_bits_exactly():
    source = BitSource(5)
    config = ProtocolConfig(block_size=64, num_blocks=1, mode="per_block")
    _, bits, block = alice_prepare_block(config, source, forced=0)
    _, outcomes = bob_measure_block(block, config, source, forced=0)
    assert np.array_equal(outcomes, bits)
    assert source.ledger.get("bob", "bob_measurement") == 0
    report = run_session(config, force_shared_basis=Basis.Z)
    assert np.array_equal(report.alice_key, report.bob_key)
    assert report.ledger.get("bob", "bob_measurement") == 0


def test_mismatched_basis_outcomes_uniform():
    # Enumeration oracle: a Z eigenstate measured in X is uniform.
    dist = enumerate_outcomes(
        Circuit(1, [Prep(0, 0, Basis.Z), Measure(0, Basis.X, "bob")])
    )
    assert dist.prob((0,)) == pytest.approx(0.5, abs=1e-12)
    source = BitSource(6)
    config = ProtocolConfig(block_size=4000, num_blocks=1, mode="per_block")
    _, _, block = alice_prepare_block(config, source, forced=0)
    _, outcomes = bob_measure_block(block, config, source, forced=1)
    mean = outcomes.mean()
    sigma = math.sqrt(0.25 / 4000)
    assert abs(mean - 0.5) <= 5 * sigma
    assert source.ledger.get("bob", "bob_measurement") == 4000


# --- channel ------------------------------------------------------------------


def test_noiseless_channel_draws_no_flips():
    assert _channel_flips(ProtocolConfig(block_size=16, num_blocks=3, seed=7)) is None
    # A noisy channel reads one uniform per raw qubit, in block order.
    config = ProtocolConfig(block_size=16, num_blocks=3, channel_flip_prob=0.3, seed=7)
    expected = AddressedDraws(config, ()).flips(config)
    assert np.array_equal(_channel_flips(config), expected)


def test_full_noise_flips_everything():
    config = ProtocolConfig(
        block_size=8, num_blocks=20, mode="per_block", channel_flip_prob=1.0, seed=8
    )
    report = run_session(config, force_shared_basis=Basis.Z)
    assert report.qber_true == 1.0


def test_partial_noise_matches_rate():
    config = ProtocolConfig(
        block_size=10,
        num_blocks=1000,
        mode="per_block",
        channel_flip_prob=0.05,
        seed=9,
    )
    report = run_session(config, force_shared_basis=Basis.X)
    assert report.sifted_bits == 10_000
    assert abs(report.qber_true - 0.05) <= 0.01


# --- sifting ------------------------------------------------------------------


def test_sift_block_fraction():
    config = ProtocolConfig(block_size=4, num_blocks=1000, mode="per_block", seed=10)
    report = run_session(config)
    sigma = math.sqrt(1000 * 0.25)
    assert abs(report.kept_blocks - 500) <= 5 * sigma
    assert report.sifted_bits == 4 * report.kept_blocks


def test_forced_bases_keep_everything():
    config = ProtocolConfig(block_size=4, num_blocks=50, mode="per_block", seed=11)
    report = run_session(config, force_shared_basis=Basis.Z)
    assert report.kept_blocks == 50
    assert report.sifted_bits == 200


def test_sift_per_qubit_fraction():
    config = ProtocolConfig(
        block_size=100, num_blocks=100, mode="per_qubit", seed=12
    )
    report = run_session(config)
    sigma = math.sqrt(10_000 * 0.25)
    assert abs(report.sifted_bits - 5000) <= 5 * sigma


def test_sift_empty_records():
    # Sifting a session whose every block is discarded keeps nothing.
    for seed in range(100):
        config = ProtocolConfig(block_size=4, num_blocks=1, seed=seed)
        report = run_session(config)
        if report.kept_blocks == 0:
            assert report.sifted_bits == 0
            assert len(report.alice_key) == 0 and len(report.bob_key) == 0
            return
    pytest.fail("no discarded block in 100 seeds")


# --- estimation ---------------------------------------------------------------


def test_estimate_identical_keys():
    source = BitSource(13)
    key = np.ones(100, dtype=np.uint8)
    estimate, disclosed = estimate_qber(key, key.copy(), 0.2, source)
    assert estimate == 0.0
    assert len(disclosed) == 20
    assert source.ledger.get("shared", "sampling") > 0


def test_estimate_complementary_keys():
    source = BitSource(14)
    key = np.zeros(50, dtype=np.uint8)
    estimate, _ = estimate_qber(key, 1 - key, 0.2, source)
    assert estimate == 1.0


def test_estimate_converges():
    rng = np.random.default_rng(15)
    alice = rng.integers(0, 2, 10_000).astype(np.uint8)
    flips = rng.random(10_000) < 0.25
    bob = (alice ^ flips).astype(np.uint8)
    source = BitSource(16)
    estimate, disclosed = estimate_qber(alice, bob, 0.2, source)
    assert abs(estimate - 0.25) <= 0.05
    assert list(disclosed) == sorted(set(disclosed))


def test_estimate_rejects_short_or_unequal():
    source = BitSource(17)
    with pytest.raises(ValueError):
        estimate_qber(np.zeros(3, np.uint8), np.zeros(3, np.uint8), 0.2, source)
    with pytest.raises(ValueError):
        estimate_qber(np.zeros(10, np.uint8), np.zeros(9, np.uint8), 0.2, source)


# --- full sessions ------------------------------------------------------------


def test_clean_session_agrees_exactly():
    config = ProtocolConfig(block_size=6, num_blocks=100, mode="per_block", seed=18)
    report = run_session(config)
    assert report.qber_true == 0.0
    assert report.qber_estimated == 0.0
    assert np.array_equal(report.alice_key, report.bob_key)
    assert report.eve_symbols is None


def test_full_intercept_qber():
    config = ProtocolConfig(
        block_size=4, num_blocks=6000, mode="per_block", seed=19
    )
    attack = BlockAttackSpec.intercept(1.0, "per_qubit")
    report = run_session(config, attack)
    assert report.sifted_bits >= 10_000
    assert abs(report.qber_true - 0.25) <= 0.02
    assert report.eve_symbols is not None
    assert len(report.eve_symbols) == report.sifted_bits


def test_same_seed_identical_reports():
    config = ProtocolConfig(
        block_size=4,
        num_blocks=200,
        mode="per_block",
        channel_flip_prob=0.03,
        seed=20,
    )
    attack = BlockAttackSpec.intercept(0.5, "per_block")
    r1 = run_session(config, attack)
    r2 = run_session(config, attack)
    assert np.array_equal(r1.alice_key, r2.alice_key)
    assert np.array_equal(r1.bob_key, r2.bob_key)
    assert r1.qber_true == r2.qber_true
    assert r1.qber_estimated == r2.qber_estimated
    assert np.array_equal(r1.disclosed_indices, r2.disclosed_indices)
    assert np.array_equal(r1.eve_symbols, r2.eve_symbols)
    assert r1.ledger.as_dict() == r2.ledger.as_dict()


_CNOT = cnot_entangler()
GOLDEN_SESSIONS = {
    "per_block-none": (ProtocolConfig(4, 60, "per_block", 0.05, seed=301), None, None),
    "per_qubit-none": (ProtocolConfig(4, 60, "per_qubit", 0.05, seed=302), None, None),
    "per_block-intercept_qubit": (
        ProtocolConfig(4, 60, "per_block", 0.02, seed=303),
        BlockAttackSpec.intercept(0.4, "per_qubit"),
        None,
    ),
    "per_qubit-intercept_qubit": (
        ProtocolConfig(4, 60, "per_qubit", 0.02, seed=304),
        BlockAttackSpec.intercept(0.4, "per_qubit"),
        None,
    ),
    "per_block-intercept_block": (
        ProtocolConfig(4, 60, "per_block", 0.02, seed=305),
        BlockAttackSpec.intercept(0.4, "per_block"),
        None,
    ),
    "per_qubit-intercept_block": (
        ProtocolConfig(4, 60, "per_qubit", 0.02, seed=306),
        BlockAttackSpec.intercept(0.4, "per_block"),
        None,
    ),
    "unitary-delayed": (
        ProtocolConfig(2, 60, "per_block", 0.03, seed=307),
        BlockAttackSpec.unitary(_CNOT, 2, 1, delayed=True),
        None,
    ),
    "unitary-immediate": (
        ProtocolConfig(2, 60, "per_block", 0.03, seed=308),
        BlockAttackSpec.unitary(_CNOT, 2, 1, delayed=False),
        None,
    ),
    "forced-shared-basis": (
        ProtocolConfig(4, 60, "per_block", 0.05, seed=309),
        BlockAttackSpec.intercept(0.4, "per_qubit"),
        Basis.X,
    ),
}
GOLDEN_DIGESTS = {
    "per_block-none": "4733a9a19c3adeeef206bb1a3ce3a6da6f2cde54e1f825e306b03989e819d901",
    "per_qubit-none": "5b2189505ab18d1e0d329221d54edf99ff1f05530e85bf92a1b6e35eab1ccf0c",
    "per_block-intercept_qubit": "d2580bedaeb308665e73d926eb36ff857ebd5b702efe893e119df1d7cdcecee4",
    "per_qubit-intercept_qubit": "0df3bdd447967dcceca2243ed9bf8915799019726a07af6ba3ecf05351a149cf",
    "per_block-intercept_block": "2ace99b6effb36b65f6013ea45a41f31564008d0a962841b6294ab427843792e",
    "per_qubit-intercept_block": "4b11709616ed9545605a0109526ad0a5c582b71ee2ce817c1b24c768a0e5158b",
    "unitary-delayed": "64f2badb3fb885b35022b3329a896813207766a975f0aa71edc07e442b240e6b",
    "unitary-immediate": "7d9218d553e8a6560bd92687380548f73df1f387294327904c72e241fdcc2cb3",
    "forced-shared-basis": "2213f89d73806b895ab3bd2927174244bb9d33ee575db4da6876dd144208f2fa",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SESSIONS))
def test_session_outputs_match_golden_digests(name):
    """Fixed sessions reproduce the digests recorded for package 0.5.0.

    The digest covers both sifted keys (dtype and bytes), kept_blocks, the
    disclosed indices, Eve's codes decoded by eve_tuples (by repr, so the
    decoded Python types count) and the ledger entries. A refactor must leave every digest as it is; a
    deliberate change of the random-stream layout updates these digests
    together with ``__version__``.
    """
    config, attack, forced = GOLDEN_SESSIONS[name]
    report = run_session(config, attack, force_shared_basis=forced)
    h = hashlib.sha256()
    for key in (report.alice_key, report.bob_key):
        h.update(key.dtype.str.encode())
        h.update(key.tobytes())
    summary = (
        report.kept_blocks,
        tuple(map(int, report.disclosed_indices)),
        eve_tuples(report),
        sorted(report.ledger.counts.items()),
    )
    h.update(repr(summary).encode())
    assert h.hexdigest() == GOLDEN_DIGESTS[name]


def test_report_invariants():
    config = ProtocolConfig(
        block_size=5, num_blocks=400, mode="per_block", channel_flip_prob=0.02, seed=21
    )
    report = run_session(config)
    assert report.raw_qubits == 2000
    recomputed = np.count_nonzero(report.alice_key != report.bob_key)
    assert report.qber_true == recomputed / report.sifted_bits
    assert all(0 <= i < report.sifted_bits for i in report.disclosed_indices)
    assert report.disclosed_indices.dtype == np.int32
    assert np.all(np.diff(report.disclosed_indices) > 0)
    ledger = report.ledger
    assert ledger.get("alice", "alice_basis") == 400
    assert ledger.get("alice", "alice_bits") == 2000
    assert ledger.get("bob", "bob_basis") == 400
    assert ledger.get("shared", "sampling") > 0


@pytest.mark.parametrize("p,c", [(0.5, 0.02), (1.0, 0.05), (0.3, 0.0)])
def test_qber_composition_oracle(p, c):
    expected = intercept_qber_oracle(p, c)
    config = ProtocolConfig(
        block_size=4,
        num_blocks=5000,
        mode="per_block",
        channel_flip_prob=c,
        seed=22,
    )
    attack = BlockAttackSpec.intercept(p, "per_qubit")
    report = run_session(config, attack)
    sigma = math.sqrt(expected * (1 - expected) / report.sifted_bits)
    assert abs(report.qber_true - expected) <= 5 * sigma + 1e-9


def test_mode_equivalence_single_qubit_blocks():
    kwargs = dict(block_size=1, num_blocks=500, channel_flip_prob=0.04, seed=23)
    r_block = run_session(ProtocolConfig(mode="per_block", **kwargs))
    r_qubit = run_session(ProtocolConfig(mode="per_qubit", **kwargs))
    assert np.array_equal(r_block.alice_key, r_qubit.alice_key)
    assert np.array_equal(r_block.bob_key, r_qubit.bob_key)
    assert r_block.qber_true == r_qubit.qber_true
    assert r_block.qber_estimated == r_qubit.qber_estimated
    assert np.array_equal(r_block.disclosed_indices, r_qubit.disclosed_indices)
    assert r_block.ledger.as_dict() == r_qubit.ledger.as_dict()


def test_unitary_attack_requires_matching_shape():
    attack = BlockAttackSpec.unitary(cnot_entangler(), 2, 1, delayed=True)
    with pytest.raises(ValueError):
        run_session(ProtocolConfig(block_size=3, num_blocks=2, seed=24), attack)
    with pytest.raises(ValueError):
        run_session(
            ProtocolConfig(block_size=2, num_blocks=2, mode="per_qubit", seed=24),
            attack,
        )


def test_unitary_attack_session_runs():
    config = ProtocolConfig(block_size=2, num_blocks=300, mode="per_block", seed=25)
    for delayed in (True, False):
        attack = BlockAttackSpec.unitary(cnot_entangler(), 2, 1, delayed=delayed)
        report = run_session(config, attack)
        assert report.sifted_bits == 2 * report.kept_blocks
        assert len(report.eve_symbols) == report.sifted_bits
        # Every register's ancilla was measured: at the announcement, recorded
        # with the announced basis value, or before the block went on,
        # recorded with whether Eve's guessed basis matched the announced one.
        for symbol in eve_tuples(report):
            basis_value, ancilla_bits = symbol
            assert basis_value in (0, 1)
            assert isinstance(basis_value, bool) == (not delayed)
            assert len(ancilla_bits) == 1
        if not delayed:
            # at least the guessed basis bit for every block
            assert report.ledger.get("eve", "attack") >= config.num_blocks


def _reference_outputs(config, draws, alice_parts, bob_parts, kept_blocks, symbols):
    """Keys, kept blocks, Eve's symbols and disclosed indices of a session
    from its kept parts, after the estimation sample, and its BitSource."""
    source = draws.source()
    alice_key = np.concatenate(alice_parts) if alice_parts else np.zeros(0, np.uint8)
    bob_key = np.concatenate(bob_parts) if bob_parts else np.zeros(0, np.uint8)
    disclosed = ()
    if len(alice_key) >= math.ceil(1.0 / config.sample_fraction):
        _, disclosed = estimate_qber(alice_key, bob_key, config.sample_fraction, source)
    return alice_key, bob_key, kept_blocks, symbols, disclosed, source


def assert_same_session(report, reference):
    """run_session's report against a reference session, draw for draw."""
    alice_key, bob_key, kept_blocks, symbols, disclosed, source = reference
    assert report.alice_key.dtype == alice_key.dtype
    assert np.array_equal(report.alice_key, alice_key)
    assert report.bob_key.dtype == bob_key.dtype
    assert np.array_equal(report.bob_key, bob_key)
    assert report.kept_blocks == kept_blocks
    assert repr(eve_tuples(report)) == repr(symbols)
    assert np.array_equal(report.disclosed_indices, disclosed)
    assert list(report.ledger.counts.items()) == list(source.ledger.counts.items())
    assert report.source._rng.getstate() == source._rng.getstate()


ALICE_BASIS, ALICE_BITS = ("alice", "alice_basis"), ("alice", "alice_bits")
BOB_BASIS, BOB_MEASUREMENT = ("bob", "bob_basis"), ("bob", "bob_measurement")


def _block_bases(config, draws, block, party, forced):
    """One party's basis values for a block: its bit (per_block) or its
    qubits' bits, then replaced by `forced`."""
    n, kind = config.block_size, f"{party}_basis"
    charge = (party, kind)
    if config.mode == "per_block":
        bases = np.full(n, draws.bit(kind, block, charge))
    else:
        bases = np.array([draws.bit(kind, block * n + i, charge) for i in range(n)])
    if forced is not None:
        bases[:] = forced.value
    return bases


def _block_bits(config, draws, block):
    """Alice's data bits for a block, one per qubit."""
    n = config.block_size
    return np.array([draws.bit("alice_bits", block * n + i, ALICE_BITS) for i in range(n)],
                    dtype=np.uint8)


def _reference_row_session(config, attack, forced):
    """A session without an entangling attack, block by block on amplitude
    rows: Alice's preparation, intercept_resend, flip_rows in the
    preparation basis, Bob's measure_rows, then the estimation sample."""
    n = config.block_size
    draws = AddressedDraws(config, (ALICE_BASIS, ALICE_BITS, EVE, BOB_BASIS, BOB_MEASUREMENT))
    flips = draws.flips(config)
    alice_parts, bob_parts, symbols, kept_blocks = [], [], [], 0
    for index in range(config.num_blocks):
        alice_bases = _block_bases(config, draws, index, "alice", forced)
        alice_bits = _block_bits(config, draws, index)
        rows = bb84_rows(alice_bits, alice_bases)
        prep_bases = alice_bases
        if attack.variant == "intercept_resend":
            rows, prep_bases, attacked, eve_bits = intercept_resend(
                rows, alice_bases, attack, draws, index
            )
        if flips is not None:
            rows = flip_rows(rows, flips[index], prep_bases)
        bob_bases = _block_bases(config, draws, index, "bob", forced)
        qubits = index * n + np.arange(n)
        outcomes, _ = measure_rows(rows, bob_bases, draws, *BOB_MEASUREMENT, qubits=qubits)
        kept = alice_bases == bob_bases
        if not kept.any():
            continue
        kept_blocks += 1
        alice_parts.append(alice_bits[kept])
        bob_parts.append(outcomes[kept])
        if attack.variant == "intercept_resend":
            symbols.extend(
                (int(eve_bits[i]), bool(prep_bases[i] == alice_bases[i]))
                if attacked[i]
                else "?"
                for i in np.flatnonzero(kept)
            )
    symbols = None if attack.variant == "none" else tuple(symbols)
    return _reference_outputs(config, draws, alice_parts, bob_parts, kept_blocks, symbols)


_ROW_ATTACKS = [BlockAttackSpec.none()] + [
    BlockAttackSpec.intercept(fraction, granularity)
    for fraction in (0.0, 1e-13, 0.3, 1.0, 0.25, 0.5, 1 - 5e-13)
    for granularity in ("per_qubit", "per_block")
]


@given(
    n=st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 70]),
    mode=st.sampled_from(protocol.MODES),
    attack=st.sampled_from(_ROW_ATTACKS),
    flip=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    forced=st.sampled_from([None, Basis.Z, Basis.X]),
    seed=st.integers(0, 2**32 - 1),
    num_blocks=st.integers(1, 40),
)
@example(n=4, mode="per_qubit", attack=_ROW_ATTACKS[5], flip=0.05, forced=None,
         seed=11, num_blocks=300)
@settings(max_examples=200, deadline=None)
def test_mask_engine_matches_row_loop(n, mode, attack, flip, forced, seed, num_blocks):
    """run_session's unentangled blocks, all at once, against the
    amplitude-row loop, one block at a time: same keys, kept blocks, Eve's
    symbols, ledger in key order and generator state. (The test keeps the
    name it had when blocks ran as bit masks.)"""
    config = ProtocolConfig(n, num_blocks, mode, flip, seed=seed)
    report = run_session(config, attack, force_shared_basis=forced)
    assert_same_session(report, _reference_row_session(config, attack, forced))


def _measure_each(state, qubits, basis, trial, first_level):
    """Measure `qubits` in order in `basis`, the k-th on `trial(level, p)`
    at level first_level + k: (their outcomes, post state)."""
    outcomes = []
    for level, q in enumerate(qubits, first_level):
        outcome, state = measure(state, q, basis, functools.partial(trial, level))
        outcomes.append(outcome)
    return tuple(outcomes), state


def _reference_unitary_session(config, attack, forced):
    """A unitary_block session block by block on the register itself: the
    block entangled with Eve's ancillas (measured at once in a guessed
    basis unless delayed), Bob's measurement and Eve's delayed measurement,
    each outcome a trial on its (block, level) word, then the estimation
    sample. A channel flip in a block Bob measures in another basis than
    Alice's is its flip gate; in one he measures in hers it XORs his
    outcome. Returns what run_session must reproduce, and the session's
    BitSource."""
    n, m = config.block_size, attack.num_ancillas
    order = [ALICE_BASIS, ALICE_BITS, EVE, BOB_BASIS, BOB_MEASUREMENT]
    if attack.delayed:
        order.append(order.pop(2))
    draws = AddressedDraws(config, order)
    flips = draws.flips(config)
    ancillas = range(n, n + m)
    alice_parts, bob_parts, symbols, kept_blocks = [], [], [], 0
    for index in range(config.num_blocks):
        announced = int(_block_bases(config, draws, index, "alice", forced)[0])
        alice_bits = _block_bits(config, draws, index)
        state = entangle_block(bb84_rows(alice_bits, Basis(announced)), attack.u, m)

        def trial(charge, level, p):
            return draws.trial("unitary", index, level, p, charge)

        eve_trial, bob_trial = (functools.partial(trial, c) for c in (EVE, BOB_MEASUREMENT))
        if not attack.delayed:
            guess = draws.bit("eve_guess", index, EVE)
            eve_bits, state = _measure_each(state, ancillas, Basis(guess), eve_trial, 0)
            symbol = (guess == announced, eve_bits)
        bob_basis = int(_block_bases(config, draws, index, "bob", forced)[0])
        if flips is not None and bob_basis != announced:
            for i in np.flatnonzero(flips[index]):
                state = apply_unitary(state, FLIP_GATES[Basis(announced)], (int(i),))
        bob_level = 0 if attack.delayed else m
        outcomes, state = _measure_each(state, range(n), Basis(bob_basis), bob_trial, bob_level)
        if attack.delayed:
            eve_bits, state = _measure_each(state, ancillas, Basis(announced), eve_trial, n)
            symbol = (announced, eve_bits)
        if announced == bob_basis:
            kept_blocks += 1
            alice_parts.append(alice_bits)
            outcomes = np.array(outcomes, dtype=np.uint8)
            bob_parts.append(outcomes if flips is None else outcomes ^ flips[index])
            symbols.extend([symbol] * n)
    return _reference_outputs(config, draws, alice_parts, bob_parts, kept_blocks, tuple(symbols))


@given(
    n=st.sampled_from([1, 2, 3]),
    m=st.sampled_from([0, 1, 2]),
    unitary_seed=st.integers(0, 2**32 - 1),
    delayed=st.booleans(),
    flip=st.sampled_from([0.0, 0.03, 0.3, 0.5]),
    forced=st.sampled_from([None, Basis.Z, Basis.X]),
    seed=st.integers(0, 2**32 - 1),
    num_blocks=st.integers(1, 40),
)
@example(n=2, m=1, unitary_seed=None, delayed=True, flip=0.03, forced=None,
         seed=307, num_blocks=60)
@example(n=2, m=1, unitary_seed=None, delayed=False, flip=0.5, forced=Basis.X,
         seed=308, num_blocks=60)
@example(n=2, m=1, unitary_seed="hadamard", delayed=True, flip=0.0, forced=None,
         seed=304, num_blocks=20)
@settings(max_examples=100, deadline=None)
def test_outcome_tables_match_per_block_register(
    n, m, unitary_seed, delayed, flip, forced, seed, num_blocks
):
    """run_session's walk of the outcome tables against the register
    evolved block by block: same keys, kept blocks, Eve's symbols, ledger
    and generator state. unitary_seed None stands for the CNOT entangler,
    "hadamard" for a Hadamard on the ancilla alone."""
    if unitary_seed == "hadamard":
        u = embed(n + m, UnitarySpec(2, HADAMARD), (n,))
    else:
        u = cnot_entangler() if unitary_seed is None else random_unitary(n + m, unitary_seed)
    attack = BlockAttackSpec.unitary(u, n, m, delayed=delayed)
    config = ProtocolConfig(n, num_blocks, "per_block", flip, seed=seed)
    reference = _reference_unitary_session(config, attack, forced)
    report = run_session(config, attack, force_shared_basis=forced)
    assert_same_session(report, reference)
    if unitary_seed == "hadamard":
        # Eve measures delayed, so her charge comes after Bob's in a block's
        # draw order, whichever block first drew from either.
        assert list(report.ledger.counts) == [
            ("alice", "alice_basis"),
            ("alice", "alice_bits"),
            ("bob", "bob_basis"),
            ("bob", "bob_measurement"),
            ("eve", "attack"),
            ("shared", "sampling"),
        ]


_SWEEP_SESSION = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.sampled_from([0.0, 0.03, 0.5]),  # flip probability
    st.sampled_from([None, Basis.Z, Basis.X]),  # forced basis
    st.booleans(),  # delayed
    st.integers(1, 30),  # blocks
)


@given(
    n=st.sampled_from([1, 2, 3]),
    m=st.sampled_from([0, 1, 2]),
    unitary_seed=st.integers(0, 2**32 - 1),
    sessions=st.lists(_SWEEP_SESSION, min_size=1, max_size=4),
)
@example(n=2, m=1, unitary_seed=None, sessions=[
    (3, 0.0, None, True, 30), (4, 0.0, None, True, 30), (5, 0.03, None, True, 30),
    (6, 0.03, Basis.X, False, 30), (7, 0.5, Basis.Z, True, 30), (8, 0.03, None, False, 30),
])
@settings(max_examples=40, deadline=None)
def test_sweep_on_one_attack_matches_per_block_register(n, m, unitary_seed, sessions):
    """A list of sessions run twice in order on one delayed and one
    immediate attack object, as a sweep runs them: each session matches
    the same session on a fresh attack and the register evolved block by
    block, and the shared attacks hold nothing but their fields before and
    after. unitary_seed None stands for the CNOT entangler."""
    u = cnot_entangler() if unitary_seed is None else random_unitary(n + m, unitary_seed)

    def configured(seed, flip, forced, delayed, num_blocks):
        config = ProtocolConfig(n, num_blocks, "per_block", flip, seed=seed)
        return config, BlockAttackSpec.unitary(u, n, m, delayed=delayed), forced

    runs = [configured(*session) for session in sessions]
    references = [_reference_unitary_session(*run) for run in runs]
    shared = {delayed: BlockAttackSpec.unitary(u, n, m, delayed) for delayed in (False, True)}
    fields = {f.name for f in dataclasses.fields(BlockAttackSpec)}
    assert all(vars(attack).keys() == fields for attack in shared.values())
    for sweep in range(2):
        for (config, attack, forced), reference in zip(runs, references):
            report = run_session(config, shared[attack.delayed], forced)
            assert_same_session(report, reference)
            if sweep == 0:
                fresh = BlockAttackSpec.unitary(u, n, m, attack.delayed)
                assert_same_session(run_session(config, fresh, forced), reference)
    assert all(vars(attack).keys() == fields for attack in shared.values())
    for delayed, attack in shared.items():
        fresh = BlockAttackSpec.unitary(u, n, m, delayed)
        assert attack == fresh and repr(attack) == repr(fresh)


def _replay_heap(p1, node, state, order):
    """Check p1[node] and the nodes below it against the register `state`
    replayed along their path: `order` is the (qubit, basis value) of each
    measurement still to come."""
    (qubit, basis), rest = order[0], order[1:]
    p, moved = outcome_probability(state, qubit, Basis(basis))
    assert abs(p1[node] - p) <= 1e-12
    for outcome, prob in ((0, 1.0 - p), (1, p)) if rest else ():
        if prob > 0.0:
            post = collapse(moved, qubit, Basis(basis), outcome, prob)
            _replay_heap(p1, 2 * node + outcome, post, rest)


# The test keeps the name of the register-memo audit it replaced, so the
# suite's test ids stay as they were.
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("delayed", [True, False])
def test_register_memo_keys_replay_to_their_probabilities(n, m, delayed):
    """Audit of the outcome tables: in every row, each node's p1 is
    snapped and equals, to 1e-12, what the register replayed along the
    node's path gives, and the product along each root-to-leaf path equals
    that leaf's |amplitude|^2 to 1e-12."""
    u = random_unitary(n + m, 80 + 3 * n + m)
    tables = protocol._outcome_tables(BlockAttackSpec.unitary(u, n, m, delayed=delayed))
    assert tables.shape == (2, 1 if delayed else 2, 2, 2**n, 2 ** (n + m))
    for point in (0.0, 0.5, 1.0):  # snapped within 1e-12
        assert np.all((np.abs(tables - point) >= 1e-12) | (tables == point))
    hadamard = UnitarySpec(2, HADAMARD)
    rows_of = tables.reshape(-1, 2**n, 2 ** (n + m))
    for (alice, eve_axis, bob), rows in zip(np.ndindex(tables.shape[:3]), rows_of):
        eve = alice if delayed else eve_axis
        order = [(q, bob) for q in range(n)] + [(q, eve) for q in range(n, n + m)]
        if not delayed:  # Eve measures first
            order = order[n:] + order[:n]
        for pattern, p1 in enumerate(rows):
            bits = [pattern >> (n - 1 - i) & 1 for i in range(n)]
            state = entangle_block(bb84_rows(bits, Basis(alice)), u, m)
            _replay_heap(p1, 1, state, order)
            for qubit, basis in order:
                if basis:
                    state = apply_unitary(state, hadamard, (qubit,))
            probs = np.abs(state.amplitudes.reshape([2] * (n + m))) ** 2
            leaves = probs.transpose([qubit for qubit, _ in order]).reshape(-1)
            weights = np.ones(1)
            for depth in range(n + m):
                level = p1[2**depth : 2 ** (depth + 1)]
                weights = np.stack([weights * (1.0 - level), weights * level], 1).reshape(-1)
            assert np.max(np.abs(weights - leaves)) <= 1e-12


# --- empirical rates ----------------------------------------------------------


def _list_rates(alice, bob, symbols):
    """empirical_rates through per-bit Python lists and empirical_joint,
    Eve's view given as one symbol per position (None with no attack):
    the joint table and the rates."""
    a = [int(b) for b in alice]
    b = [int(b) for b in bob]
    if symbols is None:
        joint = empirical_joint(list(zip(a, b)), ("alice", "bob"))
        return joint, ck_rate(mutual_information(joint, "alice", "bob"), 0.0, 0.0)
    joint = empirical_joint(list(zip(a, b, symbols)), ("alice", "bob", "eve"))
    return joint, ck_rate(
        mutual_information(joint, "alice", "bob"),
        mutual_information(joint, "eve", "alice"),
        mutual_information(joint, "eve", "bob"),
    )


def _rates_reference(report):
    """empirical_rates counted over Eve's decoded tuples."""
    return _list_rates(report.alice_key, report.bob_key, eve_tuples(report))[1]


# The largest code of each alphabet: no attack, intercept_resend's 0-4,
# unitary_block's below 2^(m+1) for m <= 2, and the whole uint16 range.
_EVE_CODES = {"none": None, "intercept_resend": 4, "unitary_block": 7, "uint16": 2**16 - 1}


@given(data=st.data(), variant=st.sampled_from(sorted(_EVE_CODES)),
       length=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_empirical_rates_match_list_counting(data, variant, length, seed):
    rng = np.random.default_rng(seed)
    alice = rng.integers(0, 2, length).astype(np.uint8)
    bob = rng.integers(0, 2, length).astype(np.uint8)
    symbols = None
    if _EVE_CODES[variant] is not None:
        codes = st.integers(0, _EVE_CODES[variant])
        alphabet = data.draw(st.lists(codes, min_size=1, max_size=6))
        symbols = np.array(alphabet, dtype=np.uint16)[rng.integers(0, len(alphabet), length)]
    report = SimpleNamespace(
        sifted_bits=length, alice_key=alice, bob_key=bob, eve_symbols=symbols
    )
    joint, rates = _list_rates(alice, bob, None if symbols is None else symbols.tolist())
    columns = [alice, bob] + ([] if symbols is None else [symbols])
    counted = _joint_counts(columns, joint.variables)
    assert repr(list(counted.probabilities.items())) == repr(list(joint.probabilities.items()))
    assert empirical_rates(report) == rates


@pytest.mark.parametrize(
    "attack,flip",
    [
        pytest.param(attack, flip, id=attack.label + ("" if flip else ",flip=0"))
        for attack, flip in [
            (BlockAttackSpec.none(), 0.03),
            (BlockAttackSpec.intercept(0.4, "per_qubit"), 0.03),
            (BlockAttackSpec.intercept(0.4, "per_block"), 0.03),
            (BlockAttackSpec.unitary(cnot_entangler(), 2, 1, delayed=True), 0.03),
            (BlockAttackSpec.unitary(cnot_entangler(), 2, 1, delayed=False), 0.03),
            (BlockAttackSpec.unitary(cnot_entangler(), 2, 1, delayed=True), 0.0),
        ]
    ],
)
def test_empirical_rates_match_list_counting_on_sessions(attack, flip):
    config = ProtocolConfig(2, 400, "per_block", flip, seed=31)
    report = run_session(config, attack)
    assert empirical_rates(report) == _rates_reference(report)


@pytest.mark.parametrize(
    "mode,attack",
    [
        ("per_block", BlockAttackSpec.none()),
        ("per_block", BlockAttackSpec.intercept(0.4, "per_qubit")),
        ("per_qubit", BlockAttackSpec.intercept(0.4, "per_block")),
        ("per_block", BlockAttackSpec.unitary(cnot_entangler(), 2, 1, delayed=True)),
        ("per_block", BlockAttackSpec.unitary(random_unitary(4, 33), 2, 2, delayed=True)),
        ("per_block", BlockAttackSpec.unitary(random_unitary(4, 34), 2, 2, delayed=False)),
    ],
    ids=lambda value: value if isinstance(value, str) else value.label,
)
def test_eve_symbols_are_integer_codes(mode, attack):
    """Eve's view is one uint16 code per sifted position: 0-4 under
    intercept_resend, and under unitary_block a code below 2^(m+1) that is
    constant over each kept block; None with no attack."""
    report = run_session(ProtocolConfig(2, 300, mode, 0.03, seed=32), attack)
    codes = report.eve_symbols
    if attack.variant == "none":
        assert codes is None
        return
    assert isinstance(codes, np.ndarray) and codes.dtype == np.uint16
    assert codes.shape == (report.sifted_bits,)
    if attack.variant == "intercept_resend":
        assert set(codes.tolist()) == {0, 1, 2, 3, 4}
    else:
        assert int(codes.max()) < 1 << (attack.num_ancillas + 1)
        blocks = codes.reshape(report.kept_blocks, 2)
        assert (blocks == blocks[:, :1]).all()



def test_rates_without_attack():
    config = ProtocolConfig(block_size=4, num_blocks=500, seed=26)
    rates = empirical_rates(run_session(config))
    assert rates.i_ea == 0.0 and rates.i_eb == 0.0
    # identical keys: plug-in I(A:B) = H(A) = h(empirical bias), near 1
    assert 0.99 <= rates.i_ab <= 1.0
    assert rates.ck_rate == rates.i_ab
    assert rates.distillable


def test_rates_full_intercept_negative():
    config = ProtocolConfig(block_size=4, num_blocks=4000, seed=27)
    attack = BlockAttackSpec.intercept(1.0, "per_qubit")
    rates = empirical_rates(run_session(config, attack))
    assert 0.4 <= rates.i_ea <= 0.6
    assert rates.ck_rate < 0.0
    assert not rates.distillable


def test_rates_empty_session():
    # A single per_block block is discarded half the time; find such a seed.
    for seed in range(100):
        config = ProtocolConfig(block_size=4, num_blocks=1, seed=seed)
        report = run_session(config)
        if report.sifted_bits == 0:
            rates = empirical_rates(report)
            assert rates.ck_rate == 0.0
            assert not rates.distillable
            return
    pytest.fail("no discarded block in 100 seeds")
