"""Per-scenario project characteristics, risk premiums and threshold algebra.

Every quantity is taken against the riskless replication of the scenario:
profit and return compare the reinvested inflows with the total outlay
(initial outlay plus the cost of covering future outflows), NPV compares the
certainty-equivalent outlay with the total outlay, and the hurdle conversions
translate between an annualized-return floor and its NPV equivalent.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .cashflows import ScenarioSet, _replicate_rows
from .csvio import write_csv
from .curves import YieldCurve
from .distributions import _libm, record_row
from .errors import DomainError, InputError

HURDLE_KINDS = ("delta_mu", "mu_star", "npv_star", "profit_star")


@dataclass(frozen=True)
class EvaluationResult:
    """Per-scenario characteristics: arrays over a set, or floats for one scenario.

    ``total_outlay`` is the initial outlay plus the riskless cost of covering
    the later outflows, the threshold basis of the hurdle conversions.
    """

    npv: np.ndarray | float
    terminal_profit: np.ndarray | float
    terminal_return: np.ndarray | float
    annualized_return: np.ndarray | float
    profitability_index: np.ndarray | float
    premium_return: np.ndarray | float
    total_outlay: np.ndarray | float

    def row(self, i: int) -> "EvaluationResult":
        """Scenario ``i`` of a set result, as Python floats."""
        return record_row(self, i)


@dataclass(frozen=True)
class HurdleSpec:
    """Investor hurdle: a return premium, return floor, NPV floor or profit floor."""

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in HURDLE_KINDS:
            raise InputError(f"unknown hurdle kind {self.kind!r}, expected one of {HURDLE_KINDS}")
        if not math.isfinite(self.value):
            raise InputError(f"hurdle value must be finite, got {self.value!r}")


@dataclass(frozen=True)
class ThresholdSet:
    """Mutually consistent return and NPV thresholds for one outlay basis."""

    mu_star: float
    npv_star: float
    basis_outlay: float


@contextmanager
def in_float_range(what: str) -> Iterator[None]:
    """Raise numpy overflows inside the block, and report any overflow, numpy's or
    Python's, as one InputError saying that ``what`` leave the float range."""
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError):
        raise InputError(f"{what} leave the float range") from None


def evaluate_set(scenario_set: ScenarioSet, curve: YieldCurve) -> EvaluationResult:
    """NPV, profits, returns, PI and premium return of every row, as arrays in row order.

    Later flows are priced by their riskless replication (``_replicate_rows``):
    outflows by the zero-coupon outlays covering them, inflows by the bonds
    paying them. The inflows reinvested at the locked forwards reach the
    horizon as FV+ = PV+ (1+r_T)^T, which gives the terminal and annualized
    returns. Flows whose replication sums or returns overflow are an InputError.
    """
    with in_float_range("the replication sums or returns of these flows"):
        flows, horizon = scenario_set.flows, scenario_set.horizon
        replication = _replicate_rows(flows, curve)
        pv_plus, total_outlay = replication.certainty_equivalent_outlay, replication.total_outlay
        zero = np.flatnonzero(total_outlay <= 0.0)
        if zero.size:
            raise DomainError(
                f"{scenario_set.row_name(zero[0])}: total outlay is zero: "
                "returns and PI are undefined"
            )
        growth_T = curve.growth_factors[horizon - 1]
        fv_plus = pv_plus * growth_T
        ratio = fv_plus / total_outlay
        pi = replication.npv / total_outlay
        return EvaluationResult(
            npv=replication.npv,
            terminal_profit=fv_plus - total_outlay,
            terminal_return=ratio - 1.0,
            # ratio >= 0 (-1 with no inflows); numpy's ** 1.0 is a copy and its ** 0.5 a sqrt
            annualized_return=(ratio ** (1.0 / horizon) if horizon <= 2
                               else _libm(math.pow, ratio, 1.0 / horizon)) - 1.0,
            profitability_index=pi,
            premium_return=growth_T * pi,
            total_outlay=total_outlay,
        )


def metric_thresholds(
    kind: str, values: Sequence[float], metric: str, basis_outlay: float, curve: YieldCurve,
    horizon: int,
) -> list[float]:
    """The threshold on ``metric`` ("mu" or "npv") of each hurdle value of one ``kind``, as
    Python floats (libm ``pow``): the one hurdle conversion, with B the basis outlay and g the
    growth factor (1+r_T)^T. A return hurdle gives mu* and its NPV on either metric, so both
    refuse the same hurdles; an NPV or profit floor gives NPV*, the npv metric's threshold as
    it is (a profit p is (npv + B) g - B), and only the mu metric derives its mu*."""
    if kind == "npv_star" and metric != "mu":
        return list(values)
    if basis_outlay <= 0.0:
        raise DomainError(f"basis outlay must be positive, got {basis_outlay}")
    if kind in ("delta_mu", "mu_star"):
        values = [curve.annual_rate(horizon) + v for v in values] if kind == "delta_mu" else values
        growth = []
        for mu in values:
            if mu <= -1.0:
                raise DomainError(f"annualized return must exceed -1, got {mu}")
            try:
                growth.append((1.0 + mu) ** horizon)
            except OverflowError:
                raise InputError(f"annualized return {mu} overflows (1+mu)^{horizon}") from None
        g = curve.growth_factor(horizon)
        return list(values) if metric == "mu" else [(x / g - 1.0) * basis_outlay for x in growth]
    if kind == "profit_star":
        g = curve.growth_factor(horizon)
        values = [(p + basis_outlay) / g - basis_outlay for p in values]
    if metric != "mu":
        return values
    ratios = [npv / basis_outlay + 1.0 for npv in values]
    for ratio in ratios:
        if ratio <= 0.0:
            raise DomainError(f"return undefined: 1 + npv/outlay = {ratio} is not positive")
    g = curve.growth_factor(horizon)
    return [(g * ratio) ** (1.0 / horizon) - 1.0 for ratio in ratios]


def thresholds(
    hurdle: HurdleSpec, basis_outlay: float, curve: YieldCurve, horizon: int
) -> ThresholdSet:
    """Derive the consistent (mu*, NPV*) pair from any supported hurdle form
    (``metric_thresholds`` on "mu", then on "npv").

    Every conversion refuses a basis outlay that is not positive (a DomainError).
    """
    mu_star, npv_star = (
        metric_thresholds(hurdle.kind, [hurdle.value], metric, basis_outlay, curve, horizon)[0]
        for metric in ("mu", "npv")
    )
    return ThresholdSet(mu_star=mu_star, npv_star=npv_star, basis_outlay=basis_outlay)


def write_evaluation_csv(results: EvaluationResult, path: str | Path) -> None:
    """Write one row per scenario of a set result in the standard evaluation-report layout.

    The ``premium_npv`` column equals ``npv``; it stays for layout compatibility.
    """
    r = results
    write_csv(path, {
        "scenario": range(len(r.npv)),
        "npv": r.npv,
        "profit": r.terminal_profit,
        "terminal_return": r.terminal_return,
        "mu": r.annualized_return,
        "pi": r.profitability_index,
        "premium_npv": r.npv,
        "premium_return": r.premium_return,
        "total_outlay": r.total_outlay,
    })


def mean_basis_outlay(results: EvaluationResult, weights: np.ndarray) -> float:
    """Weighted mean of the per-scenario total outlays (threshold basis)."""
    return math.fsum((weights * results.total_outlay).tolist())
