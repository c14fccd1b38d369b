"""Weighted empirical distributions, summary statistics and the Omega measure.

The Monte Carlo sample *is* the distribution here: Omega's upside/downside
partial moments are exact weighted sums over the samples, with no binning or
smoothing. Construction sorts once (stable, ties broken by original index) and
every reduction runs over the sorted view, so results do not depend on the
order samples were supplied in.

Construction also accumulates both partial moments at every sample, in a form
whose terms are all >= 0 (put(L) is the integral of F below L, call(L) the
integral of 1 - F above L), with a compensated cumulative sum. Omega at any
threshold is then two binary searches and one linear step from the nearest
sample: O(log N) instead of a pass over all samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Mapping, Sequence, TypeVar

import numpy as np

from .csvio import write_csv
from .errors import InputError

_WEIGHT_TOL = 1e-12


def validated_weights(
    weights: Sequence[float] | None,
    n: int,
    where: Callable[[int], str] = lambda i: f"weight {i}",
) -> np.ndarray:
    """A new array of ``n`` probabilities, finite, >= 0 and summing to 1 (uniform when None).

    ``where(i)`` names weight i in the error.
    """
    if weights is None:
        return np.full(n, 1.0 / n)
    wts = np.array(weights, dtype=float)
    if wts.shape != (n,):
        raise InputError(f"{wts.size} weights for {n} samples")
    bad = np.flatnonzero(~(np.isfinite(wts) & (wts >= 0.0)))
    if bad.size:
        raise InputError(f"{where(bad[0])} must be finite and >= 0, got {float(wts[bad[0]])}")
    total = math.fsum(wts.tolist())
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise InputError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {total!r}")
    return wts


def _cumsum(terms: np.ndarray) -> np.ndarray:
    """Running sums of ``terms``, each corrected by the rounding errors of its steps.

    ``np.cumsum`` adds in sequence, so TwoSum recovers every step's rounding
    error exactly; the errors are summed alongside and added back.
    """
    sums = np.cumsum(terms)
    before = np.concatenate(([0.0], sums[:-1]))
    added = sums - before
    errors = (before - (sums - added)) + (terms - added)
    return sums + np.cumsum(errors)


class EmpiricalDistribution:
    """Immutable weighted sample set with a sorted view and its partial-moment sums.

    ``values`` and ``weights`` hold the samples as given, ``sorted_values`` and
    ``sorted_weights`` in ascending order (stable); all arrays are read-only.
    The spread x_max - x_min must be finite, so every gap and deviation is.
    Over the sorted samples x_0 <= ... <= x_{N-1} with weights w_i, for k = 0..N:
    W_k = sum_{i<k} w_i, V_k = sum_{i>=k} w_i, and for k < N:
    P_k = sum_{i<k} w_i (x_k - x_i), C_k = sum_{i>=k} w_i (x_i - x_k).
    """

    __slots__ = (
        "values", "weights", "sorted_values", "sorted_weights",
        "_below", "_above", "_put_at", "_call_at",
    )

    def __init__(self, values: Sequence[float], weights: Sequence[float] | None = None):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise InputError("distribution needs a non-empty 1-D sample sequence")
        order = np.argsort(vals, kind="stable")  # nan sorts last
        low, high = float(vals[order[0]]), float(vals[order[-1]])
        if not math.isfinite(high - low):
            raise InputError(
                f"samples and their spread x_max - x_min must be finite, got {low!r} to {high!r}"
            )
        wts = validated_weights(weights, vals.size)
        self.values = vals.copy()
        self.weights = wts
        self.sorted_values = x = vals[order]
        self.sorted_weights = w = wts[order]
        gaps = np.diff(x)
        self._below = np.concatenate(([0.0], _cumsum(w)))  # W
        self._above = np.concatenate((_cumsum(w[::-1])[::-1], [0.0]))  # V
        # P_k = P_{k-1} + W_k (x_k - x_{k-1}), C_k = C_{k+1} + V_{k+1} (x_{k+1} - x_k)
        self._put_at = np.concatenate(([0.0], _cumsum(self._below[1:-1] * gaps)))
        self._call_at = np.concatenate((_cumsum((self._above[1:-1] * gaps)[::-1])[::-1], [0.0]))
        for name in self.__slots__:
            getattr(self, name).setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.size

    def mean(self) -> float:
        # anchored at the smallest sample so a constant distribution is exact
        anchor = float(self.sorted_values[0])
        return anchor + float(np.sum(self.sorted_weights * (self.sorted_values - anchor)))

    def shifted(self, offset: float) -> "EmpiricalDistribution":
        return EmpiricalDistribution(self.values + offset, self.weights)

    def scaled(self, factor: float) -> "EmpiricalDistribution":
        return EmpiricalDistribution(self.values * factor, self.weights)


@dataclass(frozen=True)
class SummaryStats:
    """Weighted mean/median/std/skewness; std and skewness may be undefined."""

    mean: float
    median: float
    std: float | None
    skewness: float | None


def summarize(dist: EmpiricalDistribution) -> SummaryStats:
    """Weighted summary statistics (population moments, lower weighted median).

    The median is the first sample whose compensated cumulative weight W_{k+1}
    reaches 1/2. Std is None where the variance leaves the float range;
    skewness is None there too, at std 0, and where std**3 or the ratio
    leaves the float range.
    """
    sv = dist.sorted_values
    sw = dist.sorted_weights
    mean = dist.mean()
    median = float(sv[np.searchsorted(dist._below[1:], 0.5)])
    if dist.size < 2:
        return SummaryStats(mean, median, None, None)
    centered = sv - mean
    with np.errstate(over="ignore", invalid="ignore"):
        variance = float(np.sum(sw * centered * centered))
        m3 = float(np.sum(sw * centered * centered * centered))
    if not math.isfinite(variance):
        return SummaryStats(mean, median, None, None)
    std = math.sqrt(variance) if variance > 0.0 else 0.0
    try:
        skew = m3 / std**3
    except (OverflowError, ZeroDivisionError):
        skew = math.nan
    return SummaryStats(mean, median, std, skew if math.isfinite(skew) else None)


@dataclass(frozen=True)
class OmegaResult:
    """Upside/downside partial moments and their ratio: arrays over a set of
    thresholds, or floats for one threshold.

    ``omega`` is +inf when there is upside but no downside mass and nan when
    the threshold carries neither (a point mass exactly at the threshold).
    """

    threshold: np.ndarray | float
    call: np.ndarray | float
    put: np.ndarray | float
    omega: np.ndarray | float

    @property
    def is_infinite(self) -> np.ndarray | np.bool_:
        return np.isinf(self.omega)

    @property
    def is_indeterminate(self) -> np.ndarray | np.bool_:
        return np.isnan(self.omega)


Record = TypeVar("Record")


def record_row(record: Record, i: int) -> Record:
    """Row ``i`` of a dataclass of per-row arrays, as the same dataclass of Python
    floats, with tuples for the per-tenor (N, T) fields."""
    cells = (getattr(record, f.name)[i] for f in fields(record))
    return type(record)(*(tuple(c.tolist()) if np.ndim(c) else float(c) for c in cells))


def partial_moments(
    dist: EmpiricalDistribution, thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """call(L) = E[max(X - L, 0)] and put(L) = E[max(L - X, 0)] at each threshold L.

    With x_{k-1} < L <= x_k, put = P_{k-1} + (L - x_{k-1}) W_k (0 when k = 0);
    with x_{j-1} <= L < x_j, call = C_j + (x_j - L) V_j (0 when j = N). Every
    term is >= 0, so nothing cancels.
    """
    x = dist.sorted_values
    last = x.size - 1
    k = np.searchsorted(x, thresholds, side="left")
    j = np.searchsorted(x, thresholds, side="right")
    lo = np.maximum(k - 1, 0)
    hi = np.minimum(j, last)
    put = np.where(k > 0, dist._put_at[lo] + (thresholds - x[lo]) * dist._below[k], 0.0)
    call = np.where(j <= last, dist._call_at[hi] + (x[hi] - thresholds) * dist._above[j], 0.0)
    return call, put


def _omega_at(dist: EmpiricalDistribution, thresholds: Sequence[float]) -> OmegaResult:
    """Omega at each threshold (any order), from one partial-moment lookup: call / put,
    +inf where only upside mass remains (or the ratio passes the float range), nan
    where neither side has any."""
    lam = np.array(thresholds, dtype=float)
    finite = np.isfinite(lam)
    if not finite.all():
        raise InputError(f"threshold must be finite, got {float(lam[~finite][0])!r}")
    call, put = partial_moments(dist, lam)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(put > 0.0, call / put, np.where(call > 0.0, np.inf, np.nan))
    return OmegaResult(lam, call, put, ratio)


def omega(dist: EmpiricalDistribution, threshold: float) -> OmegaResult:
    """Omega at ``threshold``: expected excess above it over expected shortfall below
    (the kernel's one-row case, as Python floats)."""
    return record_row(_omega_at(dist, [threshold]), 0)


def omega_curve(dist: EmpiricalDistribution, grid: Sequence[float]) -> OmegaResult:
    """Omega at each point of a strictly increasing threshold grid."""
    _check_grid(grid)
    return _omega_at(dist, grid)


def _check_grid(grid: Sequence[float]) -> None:
    if len(grid) == 0:
        raise InputError("threshold grid is empty")
    for lo, hi in zip(grid, grid[1:]):
        if not hi > lo:
            raise InputError(f"grid must be strictly increasing, got {lo} then {hi}")


def _signs(omega_a: np.ndarray, omega_b: np.ndarray) -> np.ndarray:
    """Sign of Omega_a - Omega_b: +inf ranks above every finite value; 0 at a tie,
    where either Omega is indeterminate (nan) and where both are +inf."""
    with np.errstate(invalid="ignore"):
        diff = omega_a - omega_b
    return np.where(np.isnan(diff), 0.0, np.sign(diff))


def crossing_on_grid(
    grid: Sequence[float],
    omega_a: Callable[[np.ndarray], np.ndarray],
    omega_b: Callable[[np.ndarray], np.ndarray],
) -> list[tuple[float, float]]:
    """Brackets where the ranking of two Omega curves flips along ``grid``.

    ``omega_a`` and ``omega_b`` map an array of points to the curves' Omega
    there. A flip is a change of sign between two grid points whose signs are
    non-zero and which have only zeros between them. Its bracket lies in the
    grid step that ends at the first of those zeros, or in the step between
    the two points when there are none. So (+, 0, -) gives one bracket in the
    first step, while (+, 0, +) and a run of zeros at either end of the grid
    give none. All brackets are bisected together, with one call of each
    curve per step at the midpoints of the brackets still open, until each is
    no wider than its grid step divided by 1024.
    """
    _check_grid(grid)
    points = np.array(grid, dtype=float)
    signs = _signs(omega_a(points), omega_b(points))
    nonzero = np.flatnonzero(signs)
    flips = nonzero[:-1][signs[nonzero[:-1]] != signs[nonzero[1:]]]
    lo, hi, side = points[flips], points[flips + 1], signs[flips]
    limit = (hi - lo) / 1024.0
    open_ = np.flatnonzero(hi - lo > limit)
    while open_.size:
        mid = 0.5 * (lo[open_] + hi[open_])
        stay = _signs(omega_a(mid), omega_b(mid)) == side[open_]
        lo[open_[stay]] = mid[stay]
        hi[open_[~stay]] = mid[~stay]
        open_ = open_[hi[open_] - lo[open_] > limit[open_]]
    return list(zip(lo.tolist(), hi.tolist()))


def write_omega_curve_csv(curve: OmegaResult, target: str | Path | IO[str]) -> None:
    """Write one row per threshold of ``curve``, the ``OmegaResult`` fields as columns
    (``threshold,call,put,omega``; omega prints as inf/nan when flagged)."""
    columns = [f.name for f in fields(OmegaResult)]
    write_csv(target, columns, zip(*(getattr(curve, c).tolist() for c in columns)))


def write_summary_csv(
    summaries: Mapping[str, SummaryStats], target: str | Path | IO[str]
) -> None:
    """Write one row per metric, its name and then the ``SummaryStats`` fields
    (``metric,mean,median,std,skewness``); an undefined statistic prints as nan."""
    columns = [f.name for f in fields(SummaryStats)]
    write_csv(
        target,
        ["metric", *columns],
        (
            [name, *(math.nan if v is None else v for v in attrgetter(*columns)(s))]
            for name, s in summaries.items()
        ),
    )
