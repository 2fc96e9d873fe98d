import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockqkd.infotheory import (
    JointDistribution,
    binary_entropy,
    ck_rate,
    entropy,
    mutual_information,
)
from circuit_oracle import mixture
from measurement_reference import empirical_joint

H_QUARTER = 0.8112781244591328  # -0.25*log2(0.25) - 0.75*log2(0.75), float64


def test_binary_entropy_half():
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_degenerate():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_quarter():
    assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetric_and_bounded(p):
    value = binary_entropy(p)
    assert 0.0 <= value <= 1.0
    assert value == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


def _uniform_pair(correlated: bool) -> JointDistribution:
    if correlated:
        table = {(0, 0): 0.5, (1, 1): 0.5}
    else:
        table = {(a, b): 0.25 for a in (0, 1) for b in (0, 1)}
    return JointDistribution(("a", "b"), table)


def test_mutual_information_independent():
    assert mutual_information(_uniform_pair(False), "a", "b") == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_correlated():
    assert mutual_information(_uniform_pair(True), "a", "b") == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_bsc_quarter():
    bsc = JointDistribution(
        ("a", "b"),
        {(0, 0): 0.375, (0, 1): 0.125, (1, 0): 0.125, (1, 1): 0.375},
    )
    assert mutual_information(bsc, "a", "b") == pytest.approx(1 - H_QUARTER, abs=1e-12)
    assert 1 - H_QUARTER == pytest.approx(0.18872187554086717, abs=1e-16)


def test_mutual_information_symmetric():
    bsc = JointDistribution(
        ("a", "b"),
        {(0, 0): 0.4, (0, 1): 0.1, (1, 0): 0.2, (1, 1): 0.3},
    )
    assert mutual_information(bsc, "a", "b") == pytest.approx(
        mutual_information(bsc, "b", "a"), abs=1e-12
    )


def test_mutual_information_unknown_variable():
    with pytest.raises(ValueError):
        mutual_information(_uniform_pair(True), "a", "zz")


def test_mutual_information_nonnegative_three_vars():
    rng = random.Random(4)
    weights = [rng.random() for _ in range(8)]
    total = sum(weights)
    table = {
        (a, b, e): w / total
        for (a, b, e), w in zip(
            [(a, b, e) for a in (0, 1) for b in (0, 1) for e in (0, 1)], weights
        )
    }
    dist = JointDistribution(("a", "b", "e"), table)
    for pair in (("a", "b"), ("a", "e"), ("b", "e")):
        value = mutual_information(dist, *pair)
        assert value >= 0.0
        marg_a = entropy(dist.marginal((pair[0],)))
        marg_b = entropy(dist.marginal((pair[1],)))
        assert value <= min(marg_a, marg_b) + 1e-12


def test_joint_distribution_validates():
    with pytest.raises(ValueError):
        JointDistribution(("a",), {(0,): 0.6, (1,): 0.6})
    with pytest.raises(ValueError):
        JointDistribution(("a",), {(0,): -0.1, (1,): 1.1})
    with pytest.raises(ValueError):
        JointDistribution(("a", "b"), {(0,): 1.0})


def test_joint_distribution_marginal_and_prob():
    dist = JointDistribution(
        ("a", "b"), {(0, 0): 0.5, (0, 1): 0.25, (1, 1): 0.25}
    )
    marg = dist.marginal(("a",))
    assert marg.prob((0,)) == pytest.approx(0.75)
    assert marg.prob((1,)) == pytest.approx(0.25)
    assert dist.prob((1, 0)) == 0.0


def test_mixture_combines_components():
    zero = JointDistribution(("a",), {(0,): 1.0})
    one = JointDistribution(("a",), {(1,): 1.0})
    mix = mixture([(0.25, zero), (0.75, one)])
    assert mix.prob((0,)) == pytest.approx(0.25)
    assert mix.prob((1,)) == pytest.approx(0.75)


def test_ck_rate_examples():
    clean = ck_rate(1.0, 0.0, 0.0)
    assert clean.ck_rate == 1.0 and clean.distillable

    intercepted = ck_rate(1 - H_QUARTER, 0.5, 0.5)
    assert intercepted.ck_rate == pytest.approx(-0.3112781244591328, abs=1e-15)
    assert not intercepted.distillable

    boundary = ck_rate(0.4, 0.4, 0.9)
    assert boundary.ck_rate == 0.0
    assert not boundary.distillable


def test_ck_rate_uses_weaker_eve_channel():
    report = ck_rate(0.5, 0.1, 0.4)
    assert report.ck_rate == pytest.approx(0.4)


def test_ck_rate_rejects_negative():
    with pytest.raises(ValueError):
        ck_rate(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        ck_rate(0.5, -0.1, 0.0)


def test_empirical_joint_basic():
    dist = empirical_joint([(0, 0), (1, 1)])
    assert dist.prob((0, 0)) == 0.5
    assert dist.prob((1, 1)) == 0.5


def test_empirical_joint_point_mass():
    dist = empirical_joint([("x", 1)] * 17)
    assert dist.prob(("x", 1)) == 1.0


def test_empirical_joint_rejects_empty():
    with pytest.raises(ValueError):
        empirical_joint([])


def test_empirical_joint_names():
    dist = empirical_joint([(0, 1, 2)], variables=("a", "b", "e"))
    assert dist.variables == ("a", "b", "e")
    default = empirical_joint([(0, 1)])
    assert default.variables == ("v0", "v1")


def test_plugin_estimate_converges():
    # Estimate I(A:B) of a correlated pair from samples; the error at 10^5
    # samples must be far below the error at 10^3.
    rng = random.Random(8)

    def sample(count):
        out = []
        for _ in range(count):
            a = rng.randrange(2)
            b = a ^ (rng.random() < 0.25)
            out.append((a, int(b)))
        return out

    exact = 1 - H_QUARTER
    small = abs(mutual_information(empirical_joint(sample(1000)), "v0", "v1") - exact)
    large = abs(mutual_information(empirical_joint(sample(100000)), "v0", "v1") - exact)
    assert large < small
    assert large < 0.01


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=300
    )
)
@settings(max_examples=100)
def test_empirical_joint_is_valid_distribution(samples):
    dist = empirical_joint(samples)
    assert math.isclose(sum(dist.probabilities.values()), 1.0, abs_tol=1e-9)
    value = mutual_information(dist, "v0", "v1")
    assert value >= 0.0
