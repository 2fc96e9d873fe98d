"""Entropies and mutual information over discrete joint distributions.

All logarithms are base 2; every quantity is in bits. Distributions are
exact probability tables keyed by outcome tuples; the package builds them
by counting a session's integer columns, its two sifted keys and Eve's
codes (protocol.empirical_rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

PROB_TOL = 1e-9


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over tuples of discrete outcomes.

    `variables` names the tuple positions; outcome values only need to be
    hashable. Probabilities must be non-negative and sum to 1 within 1e-9.
    """

    variables: tuple[str, ...]
    probabilities: dict[tuple, float]

    def __post_init__(self):
        for outcome, p in self.probabilities.items():
            if len(outcome) != len(self.variables):
                raise ValueError(f"outcome {outcome!r} does not match variables")
            if p < -PROB_TOL:
                raise ValueError(f"negative probability {p} for {outcome!r}")
        total = sum(self.probabilities.values())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    def marginal(self, names: Sequence[str]) -> "JointDistribution":
        idx = [self._index(name) for name in names]
        table: dict[tuple, float] = {}
        for outcome, p in self.probabilities.items():
            key = tuple(outcome[i] for i in idx)
            table[key] = table.get(key, 0.0) + p
        return JointDistribution(tuple(names), table)

    def prob(self, outcome: tuple) -> float:
        return self.probabilities.get(outcome, 0.0)

    def _index(self, name: str) -> int:
        if name not in self.variables:
            raise ValueError(f"unknown variable {name!r}")
        return self.variables.index(name)


@dataclass(frozen=True)
class RateReport:
    """Csiszar-Korner secret-key rate: i_ab minus Eve's better channel."""

    i_ab: float
    i_ea: float
    i_eb: float
    ck_rate: float
    distillable: bool


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy(dist: JointDistribution) -> float:
    """Shannon entropy of the whole outcome tuple, in bits."""
    return -sum(p * math.log2(p) for p in dist.probabilities.values() if p > 0.0)


def mutual_information(dist: JointDistribution, var_a: str, var_b: str) -> float:
    """I(A:B) = H(A) + H(B) - H(A,B); clamped at 0 against float noise."""
    h_a = entropy(dist.marginal([var_a]))
    h_b = entropy(dist.marginal([var_b]))
    h_ab = entropy(dist.marginal([var_a, var_b]))
    value = h_a + h_b - h_ab
    return 0.0 if -1e-12 <= value < 0.0 else value


def ck_rate(i_ab: float, i_ea: float, i_eb: float) -> RateReport:
    """Secret-key rate i_ab - min(i_ea, i_eb); distillable iff positive."""
    for name, value in (("i_ab", i_ab), ("i_ea", i_ea), ("i_eb", i_eb)):
        if value < 0.0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    rate = i_ab - min(i_ea, i_eb)
    return RateReport(i_ab=i_ab, i_ea=i_ea, i_eb=i_eb, ck_rate=rate, distillable=rate > 0.0)
