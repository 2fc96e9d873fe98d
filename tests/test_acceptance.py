"""End-to-end acceptance checks.

One test per shipped claim; each prints a single `criterion N: PASS/FAIL`
line (visible with -v on failure, and in captured output otherwise). All
tolerances are pinned in the assertions, never loosened at runtime.
"""

import functools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from blockqkd.attacks import BlockAttackSpec, reduction_corpus, verify_reduction
from blockqkd.cli import main as cli_main
from blockqkd.infotheory import JointDistribution, mutual_information
from blockqkd.postprocess import DEFAULT_SAFETY_MARGIN, pipeline
from blockqkd.protocol import ProtocolConfig, empirical_rates, run_session
from blockqkd.quantum import Basis
from blockqkd.randomness import BitSource, consumption_ratio
from circuit_oracle import Circuit, Measure, Prep, PrepSinglet, enumerate_outcomes, mixture
from circuit_sampling import RandomCoin, sample_circuit
from measurement_reference import empirical_joint, eve_tuples

MC_TRIALS = 100_000


def criterion(num: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL - {label}")
                raise
            print(f"criterion {num}: PASS - {label}")

        return wrapper

    return decorate


def freq_sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def exact_intercept_joint(p: float) -> JointDistribution:
    """Exact (alice, bob, eve-symbol) distribution for intercept fraction p.

    Every branch comes from enumerating the corresponding one-qubit
    circuit; the mixture weights are the attack/basis choice probabilities.
    Eve's symbol is '?' when she stays out, else (her bit, basis matched).
    """
    names = ("alice", "bob", "eve")
    components = []
    for a_basis in (Basis.Z, Basis.X):
        for a_bit in (0, 1):
            base_weight = 0.25
            clean = enumerate_outcomes(
                Circuit(1, [Prep(0, a_bit, a_basis), Measure(0, a_basis, "bob")])
            )
            table: dict[tuple, float] = {}
            for (bob,), q in clean.probabilities.items():
                key = (a_bit, bob, "?")
                table[key] = table.get(key, 0.0) + q
            components.append((base_weight * (1.0 - p), JointDistribution(names, table)))
            for e_basis in (Basis.Z, Basis.X):
                attacked = enumerate_outcomes(
                    Circuit(
                        1,
                        [
                            Prep(0, a_bit, a_basis),
                            Measure(0, e_basis, "eve"),
                            Measure(0, a_basis, "bob"),
                        ],
                    )
                )
                table = {}
                for (eve, bob), q in attacked.probabilities.items():
                    key = (a_bit, bob, (eve, e_basis == a_basis))
                    table[key] = table.get(key, 0.0) + q
                components.append(
                    (base_weight * p * 0.5, JointDistribution(names, table))
                )
    components = [(w, d) for w, d in components if w > 0.0]
    return mixture(components)


def oracle_ck(p: float) -> float:
    joint = exact_intercept_joint(p)
    i_ab = mutual_information(joint, "alice", "bob")
    i_ea = mutual_information(joint, "eve", "alice")
    i_eb = mutual_information(joint, "eve", "bob")
    return i_ab - min(i_ea, i_eb)


@criterion(1, "block basis choice cuts Alice's random-bit rate to (n+1)/(2n)")
def test_criterion_1_half_reduction():
    started = time.perf_counter()
    for n in (2, 10, 100, 1000):
        block = run_session(
            ProtocolConfig(block_size=n, num_blocks=100, mode="per_block", seed=301)
        )
        baseline = run_session(
            ProtocolConfig(block_size=n, num_blocks=100, mode="per_qubit", seed=301)
        )
        ratios = consumption_ratio(block.consumption, baseline.consumption)
        assert ratios.quantum_phase_alice == Fraction(n + 1, 2 * n)
        assert ratios.quantum_phase_bob == Fraction(1, n)
        if n == 1000:
            assert ratios.quantum_phase_alice == Fraction(1001, 2000)  # 0.5005
            assert abs(ratios.quantum_phase_alice - Fraction(1, 2)) <= Fraction(1, 2000)
    assert time.perf_counter() - started < 1.0


@criterion(2, "singlet-built blocks are exactly equivalent to real blocks")
def test_criterion_2_reduction_argument():
    started = time.perf_counter()
    cases = reduction_corpus()
    assert len(cases) == 27  # 6 identities, 1 entangler, 20 seeded randoms
    worst = 0.0
    for case in cases:
        outcome = verify_reduction(case.u, case.n, case.m)
        assert outcome.passed, f"{case.name}: deviation {outcome.max_deviation}"
        worst = max(worst, outcome.max_deviation, outcome.max_weight_deviation)
    assert worst < 1e-9
    assert time.perf_counter() - started < 60.0


@criterion(3, "whole blocks are kept or discarded, at rate 1/2")
def test_criterion_3_block_sifting():
    started = time.perf_counter()
    config = ProtocolConfig(block_size=4, num_blocks=10_000, mode="per_block", seed=303)
    report = run_session(config)
    fraction = report.kept_blocks / 10_000
    assert abs(fraction - 0.5) <= 5 * freq_sigma(0.5, 10_000)
    # kept blocks contribute exactly n bits, discarded blocks exactly 0
    assert report.sifted_bits == 4 * report.kept_blocks
    assert time.perf_counter() - started < 10.0


@criterion(4, "per-block interception leaks no more than per-qubit interception")
def test_criterion_4_information_parity():
    measured = {}
    for granularity in ("per_qubit", "per_block"):
        config = ProtocolConfig(block_size=4, num_blocks=6000, mode="per_block", seed=304)
        report = run_session(config, BlockAttackSpec.intercept(1.0, granularity))
        assert report.sifted_bits >= 10_000
        rates = empirical_rates(report)
        assert abs(report.qber_true - 0.25) <= 0.02
        assert abs(rates.i_ea - 0.5) <= 0.02
        measured[granularity] = (report.qber_true, rates.i_ea)
    assert abs(measured["per_qubit"][0] - measured["per_block"][0]) <= 0.01
    assert abs(measured["per_qubit"][1] - measured["per_block"][1]) <= 0.01


@criterion(5, "positive key rate iff the two-way information balance allows one")
def test_criterion_5_ck_gate():
    sweep = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    points = []
    for index, p in enumerate(sweep):
        config = ProtocolConfig(
            block_size=4, num_blocks=3000, mode="per_block", seed=101 + index
        )
        report = run_session(config, BlockAttackSpec.intercept(p, "per_qubit"))
        rates = empirical_rates(report)
        result = pipeline(report, rates)
        reconciled = (
            result.reconciliation is not None
            and result.reconciliation.residual_mismatches == 0
        )
        points.append((p, rates.ck_rate, len(result.final_key), reconciled, result.reason))

    # the empirical sign change must land on the interval holding the
    # exact zero of the enumeration-oracle rate curve
    lo, hi = 0.0, 1.0
    assert oracle_ck(lo) > 0.0 > oracle_ck(hi)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if oracle_ck(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    crossing = (lo + hi) / 2.0
    bracket = next(
        i for i in range(len(sweep) - 1) if sweep[i] < crossing <= sweep[i + 1]
    )
    assert points[bracket][1] > 0.0, (
        f"rate at p={sweep[bracket]} should be positive (crossing at {crossing:.4f})"
    )
    assert points[bracket + 1][1] < 0.0, (
        f"rate at p={sweep[bracket + 1]} should be negative (crossing at {crossing:.4f})"
    )

    # nonempty final key exactly when the rate is positive and
    # reconciliation succeeded
    mismatches = []
    for p, ck, key_len, reconciled, reason in points:
        expected_nonempty = ck > 0.0 and reconciled
        if (key_len > 0) != expected_nonempty:
            mismatches.append(
                f"p={p:g}: ck_rate={ck:+.4f}, reconciliation "
                f"{'clean' if reconciled else 'failed or skipped'}, but final "
                f"key has {key_len} bits (reason={reason})"
            )
    if mismatches:
        # A positive rate with an empty key means reconciliation leaked more
        # than the rate leaves room for: near the zero crossing the budget
        # is thin, and any reconciler with efficiency above 1 empties the
        # key somewhere just above it. How the leak is counted (GF(2) rank
        # of the disclosed parities) and why the first-block size was
        # chosen: see the blockqkd.postprocess module docstring.
        pytest.fail("; ".join(mismatches))


@criterion(6, "sampled frequencies match exact enumeration on every derived example")
def test_criterion_6_oracle_agreement():
    coin = RandomCoin(random.Random(606))

    # - singlet pairs are anti-correlated in Z and in X, pairs (0,1) and
    #   (1,0) each carrying probability 1/2
    for basis in (Basis.Z, Basis.X):
        circ = Circuit(
            2, [PrepSinglet(0, 1), Measure(0, basis, "a"), Measure(1, basis, "b")]
        )
        oracle = enumerate_outcomes(circ)
        assert oracle.prob((0, 1)) == pytest.approx(0.5, abs=1e-12)
        assert oracle.prob((1, 0)) == pytest.approx(0.5, abs=1e-12)
        samples = sample_circuit(circ, MC_TRIALS, coin)
        assert all(a != b for a, b in samples)  # oracle probability 1
        f01 = sum(1 for s in samples if s == (0, 1)) / MC_TRIALS
        assert abs(f01 - 0.5) <= 5 * freq_sigma(0.5, MC_TRIALS)

    # - an X eigenstate measured in Z is uniform; a Z eigenstate measured
    #   in X is uniform (mismatched-basis readout): in a full-interception
    #   session, where Eve's basis differs from Alice's, her bit is Alice's
    #   half the time
    full_intercept = BlockAttackSpec.intercept(1.0, "per_qubit")
    for prep_basis, meas_basis in ((Basis.X, Basis.Z), (Basis.Z, Basis.X)):
        oracle = enumerate_outcomes(
            Circuit(1, [Prep(0, 0, prep_basis), Measure(0, meas_basis, "bob")])
        )
        assert oracle.prob((0,)) == pytest.approx(0.5, abs=1e-12)
        config = ProtocolConfig(100, 2 * MC_TRIALS // 100, seed=607 + prep_basis.value)
        report = run_session(config, full_intercept, force_shared_basis=prep_basis)
        readouts = [
            eve_bit == alice_bit
            for (eve_bit, matched), alice_bit in zip(eve_tuples(report), report.alice_key)
            if not matched
        ]
        freq = sum(readouts) / len(readouts)
        assert abs(freq - 0.5) <= 5 * freq_sigma(0.5, len(readouts))

    # - full interception with matched Alice/Bob bases errs on 1/4 of the
    #   qubits: once in a session under a forced basis, once sampled on the
    #   explicit measure-then-measure circuit
    oracle_err = 0.0
    for e_basis in (Basis.Z, Basis.X):
        dist = enumerate_outcomes(
            Circuit(
                1,
                [
                    Prep(0, 0, Basis.Z),
                    Measure(0, e_basis, "eve"),
                    Measure(0, Basis.Z, "bob"),
                ],
            )
        )
        oracle_err += 0.5 * dist.marginal(("bob",)).prob((1,))
    assert oracle_err == pytest.approx(0.25, abs=1e-12)

    config = ProtocolConfig(100, MC_TRIALS // 100, seed=611)
    report = run_session(config, full_intercept, force_shared_basis=Basis.Z)
    assert report.sifted_bits == MC_TRIALS
    assert abs(report.qber_true - oracle_err) <= 5 * freq_sigma(oracle_err, MC_TRIALS)

    branch = BitSource(612).draw_bits("eve", "attack", MC_TRIALS)
    shots_x = int(branch.sum())
    errors = 0
    for e_basis, shots in ((Basis.Z, MC_TRIALS - shots_x), (Basis.X, shots_x)):
        samples = sample_circuit(
            Circuit(
                1,
                [
                    Prep(0, 0, Basis.Z),
                    Measure(0, e_basis, "eve"),
                    Measure(0, Basis.Z, "bob"),
                ],
            ),
            shots,
            coin,
        )
        errors += sum(1 for _, bob in samples if bob != 0)
    assert abs(errors / MC_TRIALS - oracle_err) <= 5 * freq_sigma(oracle_err, MC_TRIALS)

    # - one interception basis per 2-qubit block correlates the errors:
    #   pattern (0,0) carries 1/2 + 1/8, the per-qubit marginal stays 1/4
    pattern_oracle = {(a, b): 0.0 for a in (0, 1) for b in (0, 1)}
    for e_basis in (Basis.Z, Basis.X):
        dist = enumerate_outcomes(
            Circuit(
                2,
                [
                    Prep(0, 0, Basis.Z),
                    Prep(1, 0, Basis.Z),
                    Measure(0, e_basis, "e0"),
                    Measure(1, e_basis, "e1"),
                    Measure(0, Basis.Z, "b0"),
                    Measure(1, Basis.Z, "b1"),
                ],
            )
        )
        for (_, _, b0, b1), q in dist.probabilities.items():
            pattern_oracle[(int(b0 != 0), int(b1 != 0))] += 0.5 * q
    assert pattern_oracle[(0, 0)] == pytest.approx(0.5 + 0.125, abs=1e-12)

    blocks = MC_TRIALS
    config = ProtocolConfig(2, blocks, "per_block", seed=614)
    report = run_session(
        config, BlockAttackSpec.intercept(1.0, "per_block"), force_shared_basis=Basis.Z
    )
    errs = (report.alice_key != report.bob_key).reshape(blocks, 2)
    f00 = float(np.mean(~errs[:, 0] & ~errs[:, 1]))
    assert abs(f00 - 0.625) <= 5 * freq_sigma(0.625, blocks)
    marginal = float(errs.mean())
    assert abs(marginal - 0.25) <= 5 * freq_sigma(0.25, 2 * blocks)

    # - with the do-nothing block unitary, Eve's raw kept-half outcome is
    #   the complement of the simulated qubit's announced-basis value, and
    #   a partner that measures 1 in Z means Eve records bit 1
    per_combo = MC_TRIALS // 4
    for basis in (Basis.Z, Basis.X):
        for bit in (0, 1):
            circ = Circuit(
                3,
                [
                    Prep(0, bit, basis),
                    PrepSinglet(1, 2),
                    Measure(1, basis, "partner"),
                    Measure(2, basis, "kept_raw"),
                ],
            )
            oracle = enumerate_outcomes(circ)
            anti = sum(
                q
                for (partner, raw), q in oracle.probabilities.items()
                if raw == 1 - partner
            )
            assert anti == pytest.approx(1.0, abs=1e-12)
            samples = sample_circuit(circ, per_combo, coin)
            assert all(raw == 1 - partner for partner, raw in samples)
            if basis is Basis.Z and bit == 0:
                ones = [(p, r) for p, r in samples if p == 1]
                assert len(ones) > 0
                # raw outcome 0, so the recorded (complemented) bit is 1
                assert all(raw == 0 for _, raw in ones)

    # - the ~10^5 sifted triples of a per_qubit full-interception session
    #   carry I(E:A) = 1/2 bit per position
    joint_oracle = exact_intercept_joint(1.0)
    exact_iea = mutual_information(joint_oracle, "eve", "alice")
    assert exact_iea == pytest.approx(0.5, abs=1e-9)
    config = ProtocolConfig(100, 2 * MC_TRIALS // 100, "per_qubit", seed=616)
    report = run_session(config, full_intercept)
    triples = list(
        zip(report.alice_key.tolist(), report.bob_key.tolist(), eve_tuples(report))
    )
    joint = empirical_joint(triples, ("alice", "bob", "eve"))
    assert abs(mutual_information(joint, "eve", "alice") - exact_iea) <= 0.02


@criterion(7, "reconciliation converges and the key budget is exact")
def test_criterion_7_postprocessing_soundness():
    zero_residual = 0
    for trial in range(100):
        config = ProtocolConfig(
            block_size=100,
            num_blocks=200,
            mode="per_block",
            channel_flip_prob=0.05,
            seed=700 + trial,
        )
        report = run_session(config)
        result = pipeline(report, empirical_rates(report))
        assert result.reconciliation is not None
        if result.reconciliation.residual_mismatches == 0:
            zero_residual += 1
            undisclosed = report.sifted_bits - len(report.disclosed_indices)
            expected = (
                undisclosed
                - result.reconciliation.disclosed_parities
                - DEFAULT_SAFETY_MARGIN
            )
            assert len(result.final_key) == expected
            assert expected > 0
    assert zero_residual >= 99


@criterion(8, "identical config and seed reproduce byte-identical outputs")
def test_criterion_8_determinism(tmp_path):
    def run_once(base):
        base.mkdir()
        csv_path = base / "r.csv"
        code = cli_main(
            [
                "run",
                "--block-size",
                "4",
                "--num-blocks",
                "400",
                "--flip-prob",
                "0.02",
                "--attack",
                "intercept_resend",
                "--fraction",
                "0.3",
                "--seed",
                "77",
                "--repetitions",
                "2",
                "--output",
                str(csv_path),
            ]
        )
        assert code == 0
        sessions = {
            p.name: p.read_bytes()
            for p in sorted((base / "r_sessions").glob("session_*.json"))
        }
        assert len(sessions) == 2
        return csv_path.read_bytes(), sessions

    first = run_once(tmp_path / "one")
    second = run_once(tmp_path / "two")
    assert first == second
