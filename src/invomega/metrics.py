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
from typing import IO, Iterator, Sequence

import numpy as np

from .cashflows import CashFlowScenario, ScenarioSet, _replicate_rows
from .csvio import write_csv
from .curves import YieldCurve
from .distributions import record_row
from .errors import (
    DomainError,
    InputError,
    ReturnUndefinedError,
    ZeroOutlayError,
)

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


def _evaluate_flows(flows: np.ndarray, curve: YieldCurve) -> EvaluationResult:
    """The evaluation kernel over flow rows F_0..F_T, shape (N, T+1).

    Later flows are priced by their riskless replication (``_replicate_rows``):
    outflows by the zero-coupon outlays covering them, inflows by the bonds
    paying them. The inflows reinvested at the locked forwards reach the
    horizon as FV+ = PV+ (1+r_T)^T, which gives the terminal and annualized
    returns. Flows whose replication sums or returns overflow are an InputError.
    """
    with in_float_range("the replication sums or returns of these flows"):
        horizon = flows.shape[1] - 1
        replication = _replicate_rows(flows, curve)
        pv_plus, total_outlay = replication.certainty_equivalent_outlay, replication.total_outlay
        zero = np.flatnonzero(total_outlay <= 0.0)
        if zero.size:
            raise ZeroOutlayError(
                f"scenario {zero[0]}: total outlay is zero: returns and PI are undefined"
            )
        growth_T = curve.growth_factors[horizon - 1]
        fv_plus = pv_plus * growth_T
        npv = pv_plus - total_outlay
        ratio = fv_plus / total_outlay
        pi = npv / total_outlay
        return EvaluationResult(
            npv=npv,
            terminal_profit=fv_plus - total_outlay,
            terminal_return=ratio - 1.0,
            # ratio >= 0; no inflows at all gives the total-loss return -1
            annualized_return=ratio ** (1.0 / horizon) - 1.0,
            profitability_index=pi,
            premium_return=growth_T * pi,
            total_outlay=total_outlay,
        )


def evaluate(scenario: CashFlowScenario, curve: YieldCurve) -> EvaluationResult:
    """Compute NPV, terminal profit/return, annualized return, PI and premium return.

    Raises ZeroOutlayError when the total outlay is zero (returns and PI are
    undefined in that case). A scenario with no inflows at all yields an
    annualized return of -1 (total loss), not an error.
    """
    return _evaluate_flows(np.array([scenario.flows]), curve).row(0)


def evaluate_set(scenario_set: ScenarioSet, curve: YieldCurve) -> EvaluationResult:
    """evaluate() for every scenario of the set at once, as arrays in row order."""
    return _evaluate_flows(scenario_set.flows, curve)


def mu_from_npv(npv: float, basis_outlay: float, curve: YieldCurve, horizon: int) -> float:
    """Annualized return implied by an NPV on a given outlay basis.

    Inverts (1+mu)^T = (1+r_T)^T * (npv/basis + 1); strictly increasing in npv.
    """
    if basis_outlay <= 0.0:
        raise ZeroOutlayError(f"basis outlay must be positive, got {basis_outlay}")
    ratio = npv / basis_outlay + 1.0
    if ratio <= 0.0:
        raise ReturnUndefinedError(
            f"return undefined: 1 + npv/outlay = {ratio} is not positive"
        )
    return (curve.growth_factor(horizon) * ratio) ** (1.0 / horizon) - 1.0


def npv_from_mu(mu: float, basis_outlay: float, curve: YieldCurve, horizon: int) -> float:
    """NPV equivalent of an annualized return floor; exact inverse of mu_from_npv."""
    return npv_from_mus([mu], basis_outlay, curve, horizon)[0]


def npv_from_mus(
    mus: Sequence[float], basis_outlay: float, curve: YieldCurve, horizon: int
) -> list[float]:
    """npv_from_mu at each mu in turn (Python floats, libm ``pow``), with the basis
    checked and the curve's growth factor looked up once."""
    if basis_outlay <= 0.0:
        raise ZeroOutlayError(f"basis outlay must be positive, got {basis_outlay}")
    growth = []
    for mu in mus:
        if mu <= -1.0:
            raise ReturnUndefinedError(f"annualized return must exceed -1, got {mu}")
        try:
            growth.append((1.0 + mu) ** horizon)
        except OverflowError:
            raise InputError(f"annualized return {mu} overflows (1+mu)^{horizon}") from None
    g = curve.growth_factor(horizon)
    return [(x / g - 1.0) * basis_outlay for x in growth]


def npv_from_profit(
    profit: float, basis_outlay: float, curve: YieldCurve, horizon: int
) -> float:
    """NPV equivalent of a terminal-profit floor on a given outlay basis."""
    if basis_outlay <= 0.0:
        raise ZeroOutlayError(f"basis outlay must be positive, got {basis_outlay}")
    # terminal profit = (npv + basis) * (1+r_T)^T - basis
    return (profit + basis_outlay) / curve.growth_factor(horizon) - basis_outlay


def thresholds(
    hurdle: HurdleSpec, basis_outlay: float, curve: YieldCurve, horizon: int
) -> ThresholdSet:
    """Derive the consistent (mu*, NPV*) pair from any supported hurdle form.

    Every conversion refuses a basis outlay that is not positive (ZeroOutlayError).
    """
    if hurdle.kind == "delta_mu":
        mu_star = curve.annual_rate(horizon) + hurdle.value
        npv_star = npv_from_mu(mu_star, basis_outlay, curve, horizon)
    elif hurdle.kind == "mu_star":
        mu_star = hurdle.value
        npv_star = npv_from_mu(mu_star, basis_outlay, curve, horizon)
    elif hurdle.kind == "npv_star":
        npv_star = hurdle.value
        mu_star = mu_from_npv(npv_star, basis_outlay, curve, horizon)
    else:  # profit_star
        npv_star = npv_from_profit(hurdle.value, basis_outlay, curve, horizon)
        mu_star = mu_from_npv(npv_star, basis_outlay, curve, horizon)
    return ThresholdSet(mu_star=mu_star, npv_star=npv_star, basis_outlay=basis_outlay)


def mirr(flows: Sequence[float], reinvest_rate: float, finance_rate: float) -> float:
    """Modified internal rate of return of F_0..F_T with flat reinvestment/financing rates.

    Inflows compound at the reinvestment rate to the horizon; outflows
    (including the initial outlay) discount at the financing rate to t = 0.
    """
    if reinvest_rate <= -1.0 or finance_rate <= -1.0:
        raise InputError("rates must exceed -1")
    horizon = len(flows) - 1
    compounded = math.fsum(
        max(f, 0.0) * (1.0 + reinvest_rate) ** (horizon - t)
        for t, f in enumerate(flows[1:], start=1)
    )
    financed = max(-flows[0], 0.0) + math.fsum(
        max(-f, 0.0) / (1.0 + finance_rate) ** t for t, f in enumerate(flows[1:], start=1)
    )
    if financed <= 0.0:
        raise DomainError(
            f"MIRR undefined: financed outflows total {financed}, must be positive"
        )
    ratio = compounded / financed
    return ratio ** (1.0 / horizon) - 1.0 if ratio > 0.0 else -1.0


EVALUATION_COLUMNS = (
    "scenario",
    "npv",
    "profit",
    "terminal_return",
    "mu",
    "pi",
    "premium_npv",
    "premium_return",
    "total_outlay",
)


def write_evaluation_csv(results: EvaluationResult, target: str | Path | IO[str]) -> None:
    """Write one row per scenario of a set result in the standard evaluation-report layout.

    The ``premium_npv`` column equals ``npv``; it stays for layout compatibility.
    """
    r = results
    columns = (r.npv, r.terminal_profit, r.terminal_return, r.annualized_return,
               r.profitability_index, r.npv, r.premium_return, r.total_outlay)
    write_csv(target, EVALUATION_COLUMNS, zip(range(len(r.npv)), *(c.tolist() for c in columns)))


def mean_basis_outlay(results: EvaluationResult, weights: np.ndarray) -> float:
    """Weighted mean of the per-scenario total outlays (threshold basis)."""
    return math.fsum((weights * results.total_outlay).tolist())
