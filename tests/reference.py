"""Scalar references that share no code with the numpy paths they check.

Replication: the sign split, the per-tenor discounting and the forward roll
of one scenario in Python floats, each sum a correctly rounded ``math.fsum``.
Only the curve's growth factors (1+r_t)^t are taken from ``YieldCurve``. The
NPV's float terms are also summed exactly, as a ``Fraction``.

Crossing solver: one Omega lookup per point and per curve. The signs come
from each ``OmegaResult``'s omega and its nan flag, the brackets from a
Python loop over the grid, and each bisection midpoint is a separate call.

Moment matching: the closed-form mean, std and skewness of each matched
family's parameters.

MIRR: the modified internal rate of return of one flow row at flat
reinvestment and financing rates, in Python floats, against which the
kernel's annualized return on a flat curve is checked.

RADR: the weighted mean flows, the NPV at k of the mean flows and the
weighted mean of the scenario NPVs at r by the two formulas the RADR
valuation used before both became rows of the evaluation kernel, and the
acceptance scale lambda and the factors alpha from the growth factors alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from invomega import DomainError, InputError, OmegaResult, YieldCurve
from invomega.scenarios import MatchedDistribution, MatchedNormal, MatchedTwoPoint


def split(flows: Sequence[float]) -> tuple[float, list[float], list[float]]:
    """Initial outlay max(-F_0, 0), inflows F+ and outflows F- of F_1..F_T."""
    later = flows[1:]
    return max(-flows[0], 0.0), [max(f, 0.0) for f in later], [max(-f, 0.0) for f in later]


def discounted(later: Sequence[float], curve: YieldCurve) -> list[float]:
    """Each flow at tenor t = 1..T over the growth factor (1+r_t)^t."""
    return [f / curve.growth_factor(t) for t, f in enumerate(later, start=1)]


def replication(flows: Sequence[float], curve: YieldCurve) -> tuple[float, float]:
    """(total outlay, certainty-equivalent outlay) of F_0..F_T: the initial outlay
    plus the zero-coupon cost of every F-, and the bond cost of every F+."""
    outlay, positive, negative = split(flows)
    return outlay + math.fsum(discounted(negative, curve)), math.fsum(discounted(positive, curve))


def exact_npv(flows: Sequence[float], curve: YieldCurve) -> Fraction:
    """The exact sum of the NPV's float terms: F_0 and each later flow over its growth factor."""
    return sum(map(Fraction, [flows[0], *discounted(flows[1:], curve)]), Fraction(0))


def future_value(positive: Sequence[float], curve: YieldCurve) -> float:
    """Inflows at tenors 1..T rolled to T, each by (1+r_T)^T / (1+r_t)^t rounded once."""
    top = curve.growth_factor(len(positive))
    return math.fsum(f * (top / curve.growth_factor(t)) for t, f in enumerate(positive, start=1))


def rows(curve: OmegaResult) -> list[OmegaResult]:
    """The one-threshold results of a columnar ``OmegaResult``, in threshold order."""
    columns = (curve.threshold, curve.call, curve.put, curve.omega)
    return [OmegaResult(*map(float, row)) for row in zip(*columns)]


def compare(a: OmegaResult, b: OmegaResult) -> int:
    """Sign of Omega_a - Omega_b; infinities above all finite values,
    indeterminate points treated as incomparable (sign 0)."""
    if a.is_indeterminate or b.is_indeterminate:
        return 0
    if math.isinf(a.omega) and math.isinf(b.omega):
        return 0
    if math.isinf(a.omega):
        return 1
    if math.isinf(b.omega):
        return -1
    diff = a.omega - b.omega
    return (diff > 0) - (diff < 0)


def crossing_on_grid(
    grid: Sequence[float],
    eval_a: Callable[[float], OmegaResult],
    eval_b: Callable[[float], OmegaResult],
) -> list[tuple[float, float]]:
    """Ranking-flip brackets of two scalar Omega callables along ``grid``.

    A flip between the last non-zero sign and the next one is bracketed in the
    grid step that starts at the former, then bisected until the bracket is no
    wider than that step divided by 1024 or its ends are adjacent floats.
    """
    signs = [compare(eval_a(x), eval_b(x)) for x in grid]
    brackets: list[tuple[float, float]] = []
    last = None
    for i, s in enumerate(signs):
        if s == 0:
            continue
        if last is not None and signs[last] * s < 0:
            s_lo = signs[last]
            lo, hi = float(grid[last]), float(grid[last + 1])
            limit = (hi - lo) / 1024.0
            while hi - lo > limit and math.nextafter(lo, hi) < hi:
                mid = 0.5 * (lo + hi)
                if compare(eval_a(mid), eval_b(mid)) == s_lo:
                    lo = mid
                else:
                    hi = mid
            brackets.append((lo, hi))
        last = i
    return brackets


def analytic_moments(matched: MatchedDistribution) -> tuple[float, float, float]:
    """(mean, std, skewness) of the distribution that ``moment_match`` returned."""
    if isinstance(matched, MatchedNormal):
        return matched.mean, matched.std, 0.0
    if isinstance(matched, MatchedTwoPoint):
        p = matched.p_high
        mean = p * matched.high + (1.0 - p) * matched.low
        std = math.sqrt(p * (1.0 - p)) * (matched.high - matched.low)
        return mean, std, (1.0 - 2.0 * p) / math.sqrt(p * (1.0 - p))
    w = math.exp(matched.sigma_log**2)
    mean = matched.shift + math.exp(matched.mu_log) * math.sqrt(w)
    std = math.exp(matched.mu_log) * math.sqrt(w * (w - 1.0))
    skew = (w + 2.0) * math.sqrt(w - 1.0)
    if matched.mirror_center is None:
        return mean, std, skew
    return 2.0 * matched.mirror_center - mean, std, -skew


def mirr(flows: Sequence[float], reinvest_rate: float, finance_rate: float) -> float:
    """Modified internal rate of return of F_0..F_T with flat reinvestment/financing rates.

    Inflows compound at the reinvestment rate to the horizon; outflows
    (including the initial outlay) discount at the financing rate to t = 0.
    Raises OverflowError when the financed total or the ratio leaves the float range.
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
    if not (math.isfinite(financed) and math.isfinite(ratio)):
        raise OverflowError(f"MIRR ratio {compounded} / {financed} leaves the float range")
    return ratio ** (1.0 / horizon) - 1.0 if ratio > 0.0 else -1.0


def mean_flows(flows: Sequence[Sequence[float]], weights: Sequence[float]) -> list[float]:
    """Weighted per-tenor means of the rows F_0..F_T, each sum a correctly rounded fsum."""
    return [math.fsum(w * f for w, f in zip(weights, column)) for column in zip(*flows)]


def npv_at_k(means: Sequence[float], curve_k: YieldCurve) -> float:
    """NPV of the mean flows: F_0 plus the fsum of each later mean flow over its growth factor."""
    return means[0] + math.fsum(f / g for f, g in zip(means[1:], curve_k.growth_factors))


def mean_npv_at_r(flows: np.ndarray, weights: np.ndarray, curve_r: YieldCurve) -> float:
    """Weighted fsum of the scenario NPVs, each F_0 plus numpy's sum of its discounted later flows."""
    later = flows[:, 1:] / np.array(curve_r.growth_factors[: flows.shape[1] - 1])
    npv_at_r = flows[:, 0] + later.sum(axis=1)
    return math.fsum((weights * npv_at_r).tolist())


def alpha_factors(curve_r: YieldCurve, curve_k: YieldCurve) -> list[float]:
    """Certainty-equivalent factors (1+r)^t / (1+k)^t, t = 1..T, as ratios of growth factors."""
    return [gr / gk for gr, gk in zip(curve_r.growth_factors, curve_k.growth_factors)]


def lambda_radr(means: Sequence[float], curve_r: YieldCurve, curve_k: YieldCurve) -> float:
    """Acceptance scale: the mean flows' NPV at r less their NPV at k, one fsum over 2T terms."""
    return math.fsum(
        term for f, gr, gk in zip(means[1:], curve_r.growth_factors, curve_k.growth_factors)
        for term in (f / gr, -f / gk)
    )


def radr_tolerance(means_abs: Sequence[float], curve: YieldCurve) -> float:
    """8(T+2) eps times sum_t mean|F_t| / (1+rate)^t: the bound on an NPV of the mean flows."""
    horizon = len(means_abs) - 1
    scale = means_abs[0] + math.fsum(f / g for f, g in zip(means_abs[1:], curve.growth_factors))
    return 8.0 * (horizon + 2) * math.ulp(1.0) * scale
