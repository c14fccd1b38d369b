"""Scalar references that share no code with the numpy paths they check.

Replication: the sign split, the per-tenor discounting and the forward roll
of one scenario in Python floats, each sum a correctly rounded ``math.fsum``.
Only the curve's growth factors (1+r_t)^t are taken from ``YieldCurve``.

Crossing solver: one Omega lookup per point and per curve. The signs come
from ``OmegaResult`` flags, the brackets from a Python loop over the grid,
and each bisection midpoint is a separate call.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from invomega import OmegaResult, YieldCurve


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
    if a.is_infinite and b.is_infinite:
        return 0
    if a.is_infinite:
        return 1
    if b.is_infinite:
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
    wider than that step divided by 1024.
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
            while hi - lo > limit:
                mid = 0.5 * (lo + hi)
                if compare(eval_a(mid), eval_b(mid)) == s_lo:
                    lo = mid
                else:
                    hi = mid
            brackets.append((lo, hi))
        last = i
    return brackets
