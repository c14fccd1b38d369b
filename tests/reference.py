"""Scalar references that share no code with the numpy paths they check.

Replication: the sign split, the per-tenor discounting and the forward roll
of one scenario in Python floats, each sum a correctly rounded ``math.fsum``.
Only the curve's growth factors (1+r_t)^t are taken from ``YieldCurve``.

Crossing solver: one Omega lookup per point and per curve. The signs come
from each ``OmegaResult``'s omega and its nan flag, the brackets from a
Python loop over the grid, and each bisection midpoint is a separate call.

Moment matching: the closed-form mean, std and skewness of each matched
family's parameters.

MIRR: the modified internal rate of return of one flow row at flat
reinvestment and financing rates, in Python floats, against which the
kernel's annualized return on a flat curve is checked.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

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
