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
from dataclasses import dataclass

import numpy as np

from .cashflows import ScenarioSet
from .curves import YieldCurve
from .distributions import in_float_range, weighted_mean
from .errors import DomainError, InputError, located
from .metrics import evaluate_set

MODE_CANONICAL = "canonical-strict"
MODE_TABLE4 = "paper-table4"
MODES = (MODE_CANONICAL, MODE_TABLE4)


def _check_canonical(scenario_set: ScenarioSet) -> None:
    negative = np.argwhere(scenario_set.flows[:, 1:] < 0.0)
    if negative.size:
        i, t = negative[0][0], negative[0][1] + 1
        raise DomainError(
            f"{scenario_set.row_name(i)} has negative flow {float(scenario_set.flows[i, t])} "
            f"at t={t}; only a t=0 outlay may be negative"
        )


# The fields in order are the radr.json layout.
@dataclass(frozen=True)
class RadrResult:
    npv_at_k: float
    mirr_at_k: float
    mean_npv_at_r: float
    lambda_radr: float
    alpha_factors: tuple[float, ...]
    accept: bool
    mode: str


def vertical_average(scenario_set: ScenarioSet) -> tuple[float, ...]:
    """Weighted per-tenor mean of the flows (``weighted_mean``), including the t=0 outlay."""
    columns = np.ascontiguousarray(scenario_set.flows.T)
    return tuple(weighted_mean(column, scenario_set.weights) for column in columns)


def radr_valuation(
    scenario_set: ScenarioSet, riskless_rate: float, radr_rate: float, mode: str = MODE_CANONICAL
) -> RadrResult:
    """Value the vertically averaged flows at the risk-adjusted rate k >= the riskless rate r.

    Returns the mean-flow NPV and MIRR at k, the mean riskless NPV, the
    implicit acceptance scale lambda_radr and the per-tenor certainty
    equivalent factors. Acceptance means NPV at k is positive. The mode, then
    each rate as a flat curve, then k >= r, then (in the canonical mode) the
    flows are checked, in that order; flows whose values overflow are an
    InputError.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
    r, k = riskless_rate, radr_rate
    with located("rate r"):
        curve_r = YieldCurve.flat(r, scenario_set.horizon)
    with located("rate k"):
        curve_k = YieldCurve.flat(k, scenario_set.horizon)
    if k < r:
        raise InputError(f"risk-adjusted rate {k} must be >= riskless rate {r}")
    if mode == MODE_CANONICAL:
        _check_canonical(scenario_set)
    with in_float_range("the valuations of these flows"):
        means = vertical_average(scenario_set)
        # the kernel's rows of the mean flows: NPV is linear in the flows, so the NPV at r of
        # the mean flows is the mean NPV at r; mu at flat k is their MIRR(k, k)
        mean_set = ScenarioSet(scenario_set.project_id, [means], None, lambda i: "the mean flows")
        at_r = evaluate_set(mean_set, curve_r).row(0)
        at_k = evaluate_set(mean_set, curve_k).row(0)
        # after the rows: each term is (1 - a) times a present value that the row at r kept finite
        alpha = tuple(((1.0 + r) / (1.0 + k)) ** t for t in range(1, len(means)))
        lambda_radr = math.fsum(
            (1.0 - a) * f / g for a, f, g in zip(alpha, means[1:], curve_r.growth_factors)
        )
    return RadrResult(
        npv_at_k=at_k.npv,
        mirr_at_k=at_k.annualized_return,
        mean_npv_at_r=at_r.npv,
        lambda_radr=lambda_radr,
        alpha_factors=alpha,
        accept=at_k.npv > 0.0,
        mode=mode,
    )
