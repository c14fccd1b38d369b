"""Conventional risk-adjusted-discount-rate valuation on vertically averaged flows.

The comparison is deliberately restricted the way the method itself is: flat
riskless rate, and canonical flows (single outlay at t=0, non-negative flows
after) unless the ``paper-table4`` mode is selected, which discounts negative
later flows at the risk-adjusted rate as well. The certainty-equivalent factor
alpha = ((1+r)/(1+k))^t splits each mean flow into riskless and risky parts;
the riskless present value of the risky parts is the implicit acceptance
scale lambda_radr.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .cashflows import ScenarioSet, _discounted
from .curves import YieldCurve
from .errors import DomainError, InputError, NonCanonicalFlowError, located
from .metrics import in_float_range, mirr

MODE_CANONICAL = "canonical-strict"
MODE_TABLE4 = "paper-table4"
MODES = (MODE_CANONICAL, MODE_TABLE4)


@dataclass(frozen=True)
class RadrInput:
    """Scenario set plus flat riskless rate r and risk-adjusted rate k >= r."""

    scenario_set: ScenarioSet
    riskless_rate: float
    radr_rate: float
    mode: str = MODE_CANONICAL

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        r, k = self.riskless_rate, self.radr_rate
        for name, rate in (("r", r), ("k", k)):
            _flat_curve(rate, self.scenario_set.horizon, name)
        if k < r:
            raise InputError(f"risk-adjusted rate {k} must be >= riskless rate {r}")
        if self.mode == MODE_CANONICAL:
            _check_canonical(self.scenario_set)


def _flat_curve(rate: float, horizon: int, name: str) -> YieldCurve:
    """The flat curve at ``rate``; an error for a rate it refuses names ``name``."""
    with located(f"rate {name}"):
        return YieldCurve.flat(rate, horizon)


def _check_canonical(scenario_set: ScenarioSet) -> None:
    negative = np.argwhere(scenario_set.flows[:, 1:] < 0.0)
    if negative.size:
        i, t = negative[0][0], negative[0][1] + 1
        raise NonCanonicalFlowError(
            f"scenario {i} has negative flow {float(scenario_set.flows[i, t])} at t={t}; "
            "only a t=0 outlay may be negative"
        )


@dataclass(frozen=True)
class RadrResult:
    mean_flows: tuple[float, ...]
    npv_at_k: float
    mirr_at_k: float
    mean_npv_at_r: float
    lambda_radr: float
    alpha_factors: tuple[float, ...]
    accept: bool
    mode: str

    def to_dict(self) -> dict:
        """The radr.json layout: the fields in order, without ``mean_flows``."""
        payload = asdict(self)
        del payload["mean_flows"]
        return payload


def vertical_average(scenario_set: ScenarioSet) -> tuple[float, ...]:
    """Weighted per-tenor mean of the flows, including the t=0 outlay."""
    weighted = scenario_set.weights[:, None] * scenario_set.flows
    return tuple(math.fsum(column) for column in weighted.T.tolist())


def radr_valuation(radr_input: RadrInput) -> RadrResult:
    """Value the vertically averaged flows at the risk-adjusted rate.

    Returns the mean-flow NPV and MIRR at k, the mean riskless NPV, the
    implicit acceptance scale lambda_radr and the per-tenor certainty
    equivalent factors. Acceptance means NPV at k is positive. Flows whose
    values overflow are an InputError.
    """
    with in_float_range("the valuations of these flows"):
        r, k = radr_input.riskless_rate, radr_input.radr_rate
        means = vertical_average(radr_input.scenario_set)
        horizon = len(means) - 1
        curve_r, curve_k = _flat_curve(r, horizon, "r"), _flat_curve(k, horizon, "k")
        alpha = tuple(((1.0 + r) / (1.0 + k)) ** t for t in range(1, horizon + 1))
        npv_at_k = means[0] + math.fsum(f / g for f, g in zip(means[1:], curve_k.growth_factors))
        flows, weights = radr_input.scenario_set.flows, radr_input.scenario_set.weights
        npv_at_r = flows[:, 0] + _discounted(flows[:, 1:], curve_r).sum(axis=1)
        mean_npv_at_r = math.fsum((weights * npv_at_r).tolist())
        lambda_radr = math.fsum(
            (1.0 - a) * f / g for a, f, g in zip(alpha, means[1:], curve_r.growth_factors)
        )
        mirr_at_k = mirr(means, k, k)
    return RadrResult(
        mean_flows=means,
        npv_at_k=npv_at_k,
        mirr_at_k=mirr_at_k,
        mean_npv_at_r=mean_npv_at_r,
        lambda_radr=lambda_radr,
        alpha_factors=alpha,
        accept=npv_at_k > 0.0,
        mode=radr_input.mode,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """The three equivalent acceptance predicates and their margins."""

    npv_at_k_positive: bool
    mirr_exceeds_rate: bool
    premium_exceeds_lambda: bool
    margins: tuple[float, float, float]
    valuation: RadrResult

    @property
    def agree(self) -> bool:
        return self.npv_at_k_positive == self.mirr_exceeds_rate == self.premium_exceeds_lambda

    @property
    def accept(self) -> bool:
        return self.npv_at_k_positive


def equivalence_check(radr_input: RadrInput) -> EquivalenceReport:
    """Evaluate NPV(k)>0, MIRR(k)>k and mean-premium>lambda_radr; they must agree.

    Only defined for canonical flows (the equivalences do not hold otherwise).
    """
    _check_canonical(radr_input.scenario_set)
    valuation = radr_valuation(radr_input)
    k = radr_input.radr_rate
    margins = (
        valuation.npv_at_k,
        valuation.mirr_at_k - k,
        valuation.mean_npv_at_r - valuation.lambda_radr,
    )
    report = EquivalenceReport(
        npv_at_k_positive=margins[0] > 0.0,
        mirr_exceeds_rate=margins[1] > 0.0,
        premium_exceeds_lambda=margins[2] > 0.0,
        margins=margins,
        valuation=valuation,
    )
    if not report.agree:
        raise DomainError(
            f"acceptance predicates disagree (margins {margins}); "
            "this indicates a numerically degenerate boundary case"
        )
    return report
