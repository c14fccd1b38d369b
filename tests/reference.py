"""Scalar reference for the crossing solver: one Omega lookup per point and per curve.

It shares no code with ``distributions.crossing_on_grid`` beyond what the
callables do: the signs come from ``OmegaResult`` flags, the brackets from a
Python loop over the grid, and each bisection midpoint is a separate call.
"""

from __future__ import annotations

from typing import Callable, Sequence

from invomega import OmegaResult


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
