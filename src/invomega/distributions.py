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
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

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
    total = _fsum(wts)
    if not abs(total - 1.0) <= _WEIGHT_TOL:
        raise InputError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {total!r}")
    return wts


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b and its exact rounding error (Knuth's TwoSum): the one compensated-sum formula."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


def _cumsum(terms: np.ndarray) -> np.ndarray:
    """Running sums of ``terms``, each plus the running sum of the exact rounding errors
    (``_two_sum``) of ``np.cumsum``'s steps, which add in sequence."""
    sums = np.cumsum(terms)
    return sums + np.cumsum(_two_sum(np.concatenate(([0.0], sums[:-1])), terms)[1])


def _fsum(terms: np.ndarray) -> float:
    """``math.fsum`` of ``terms``: exactly rounded, so the same in any order; nan past the range."""
    try:
        return math.fsum(terms.tolist())
    except (OverflowError, ValueError):  # a sum past the float range, or inf + -inf
        return math.nan


@contextmanager
def in_float_range(what: str) -> Iterator[None]:
    """Raise numpy overflows inside the block, and report any overflow, numpy's or
    Python's, as one InputError saying that ``what`` leave the float range."""
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError):
        raise InputError(f"{what} leave the float range") from None


def weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    """The one weighted mean over rows: min + the exact fsum of w_i (x_i - min), so constant
    ``values`` average to themselves in any row order; an InputError past the float range."""
    anchor = values.min()
    with in_float_range("the terms of a weighted mean"):
        return float(anchor + math.fsum((weights * (values - anchor)).tolist()))


class EmpiricalDistribution:
    """Immutable weighted sample set, held sorted, with its partial-moment sums.

    ``sorted_values`` and ``sorted_weights`` hold the samples in ascending order
    (stable; the input order is not kept); all arrays are read-only.
    The spread x_max - x_min must be finite, so every gap and deviation is.
    Over the sorted samples x_0 <= ... <= x_{N-1} with weights w_i, for k = 0..N:
    W_k = sum_{i<k} w_i, V_k = sum_{i>=k} w_i, and for k < N:
    P_k = sum_{i<k} w_i (x_k - x_i), C_k = sum_{i>=k} w_i (x_i - x_k).
    """

    __slots__ = ("sorted_values", "sorted_weights", "_below", "_above", "_put_at", "_call_at")

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
        self.sorted_values = x = vals[order]
        self.sorted_weights = w = wts[order]
        gaps = np.diff(x)
        self._below = np.concatenate(([0.0], _cumsum(w)))  # W
        self._above = np.concatenate((_cumsum(w[::-1])[::-1], [0.0]))  # V
        # P_k = P_{k-1} + W_k (x_k - x_{k-1}), C_k = C_{k+1} + V_{k+1} (x_{k+1} - x_k)
        with in_float_range("the partial moments of these samples"):  # weights may sum past 1
            self._put_at = np.concatenate(([0.0], _cumsum(self._below[1:-1] * gaps)))
            self._call_at = np.concatenate((_cumsum((self._above[1:-1] * gaps)[::-1])[::-1], [0.0]))
        for name in self.__slots__:
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.sorted_values)

    def mean(self) -> float:
        return weighted_mean(self.sorted_values, self.sorted_weights)


@dataclass(frozen=True)
class SummaryStats:
    """Weighted mean/median/std/skewness; std and skewness may be undefined."""

    mean: float
    median: float
    std: float | None
    skewness: float | None


def summarize(dist: EmpiricalDistribution) -> SummaryStats:
    """Weighted summary statistics (population moments, lower weighted median).

    The mean (``weighted_mean``) and both moments are exact fsums, the same in any row order.
    The median is the first sample whose compensated cumulative weight W_{k+1} reaches 1/2.
    Std is None where the variance leaves the float range; skewness is None there too, at
    std 0, and where std**3 or the ratio leaves the float range.
    """
    sv = dist.sorted_values
    sw = dist.sorted_weights
    mean = dist.mean()
    median = float(sv[np.searchsorted(dist._below[1:], 0.5)])
    if len(dist) < 2:
        return SummaryStats(mean, median, None, None)
    centered = sv - mean
    with np.errstate(over="ignore", invalid="ignore"):
        squares = sw * centered * centered
        variance, m3 = _fsum(squares), _fsum(squares * centered)
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
    def is_indeterminate(self) -> np.ndarray | np.bool_:
        return np.isnan(self.omega)


Record = TypeVar("Record")


def record_row(record: Record, i: int) -> Record:
    """Row ``i`` of a dataclass of (N,) arrays, as the same dataclass of Python floats."""
    return type(record)(*(float(getattr(record, f.name)[i]) for f in fields(record)))


def _libm(fn: Callable[..., float], x: np.ndarray, *args: float) -> np.ndarray:
    """``fn(v, *args)`` of each v of the 1-D ``x`` by libm; numpy's SIMD kernels round by CPU."""
    return np.fromiter(map(fn, x.tolist(), *map(repeat, args)), np.float64, x.size)


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
    with in_float_range("the partial moments at these thresholds"):
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
    grid: Sequence[float], curves: Sequence[Callable[[np.ndarray], np.ndarray]]
) -> list[list[tuple[float, float]]]:
    """Brackets along ``grid`` where the ranking of two Omega curves flips.

    ``curves`` map an array of points to their Omega there; the result has one
    list per pair i < j, in ``np.triu_indices`` order. A flip is a change of
    sign between two grid points whose signs are non-zero and which have only
    zeros between them. Its bracket lies in the grid step that ends at the
    first of those zeros, or in the step between the two points when there
    are none. So (+, 0, -) gives one bracket in the first step, while
    (+, 0, +) and a run of zeros at either end of the grid give none. With two
    curves or more, each is called once on the grid and then once per bisection
    step, at its own pairs' open brackets' midpoints. A bracket stays open while
    it is wider than its grid step / 1024 and its ends are not adjacent floats.
    """
    _check_grid(grid)
    if len(curves) < 2:
        return []
    points = np.array(grid, dtype=float)
    on_grid = np.fromiter((curve(points) for curve in curves), (float, points.size), len(curves))
    pairs = np.transpose(np.triu_indices(len(curves), 1))
    flips = []
    for a, b in pairs:  # one pair at a time: the P x G matrix is the one grid-sized array
        signs = _signs(on_grid[a], on_grid[b])
        nonzero = np.flatnonzero(signs)
        flips.append(nonzero[:-1][signs[nonzero[:-1]] != signs[nonzero[1:]]])
    at = np.concatenate(flips)
    ends = pairs[np.repeat(np.arange(len(pairs)), [f.size for f in flips])].T  # each bracket's curves
    lo, hi, side = points[at], points[at + 1], _signs(*on_grid[ends, at])
    limit = (hi - lo) / 1024.0
    open_ = np.arange(at.size)
    while (open_ := open_[(hi[open_] - lo[open_] > limit[open_])
                          & (np.nextafter(lo[open_], hi[open_]) < hi[open_])]).size:
        mid = 0.5 * (lo[open_] + hi[open_])
        curve_of, values = ends[:, open_], np.tile(mid, (2, 1))  # values: midpoints, then Omegas
        for c in np.unique(curve_of):
            mine = curve_of == c
            values[mine] = curves[c](values[mine])
        stay = _signs(*values) == side[open_]
        lo[open_[stay]] = mid[stay]
        hi[open_[~stay]] = mid[~stay]
    brackets = zip(lo.tolist(), hi.tolist())
    return [[next(brackets) for _ in f] for f in flips]


def write_omega_curve_csv(curve: OmegaResult, path: str | Path) -> None:
    """Write one row per threshold of ``curve``, the ``OmegaResult`` fields as columns
    (``threshold,call,put,omega``; omega prints as inf/nan when flagged)."""
    write_csv(path, {f.name: getattr(curve, f.name) for f in fields(OmegaResult)})


def write_summary_csv(summaries: Mapping[str, SummaryStats], path: str | Path) -> None:
    """Write one row per metric, its name and then the ``SummaryStats`` fields
    (``metric,mean,median,std,skewness``); an undefined statistic prints as nan."""
    stats = {f.name: np.array([getattr(s, f.name) for s in summaries.values()], dtype=float)
             for f in fields(SummaryStats)}
    write_csv(path, {"metric": list(summaries), **stats})
