import ast
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import invomega
from invomega import (
    EmpiricalDistribution,
    InputError,
    OmegaResult,
    ScenarioSet,
    YieldCurve,
    crossing_on_grid,
    evaluate_project,
    evaluate_set,
    omega,
    omega_curve,
    summarize,
    vertical_average,
)
from invomega.distributions import (
    _omega_at,
    write_omega_curve_csv,
    write_summary_csv,
)

import reference
from reference import rows


def random_dist(rng: random.Random, n: int | None = None) -> EmpiricalDistribution:
    n = n or rng.randint(1, 50)
    values = [rng.uniform(-100, 100) for _ in range(n)]
    raw = [rng.uniform(0.1, 1.0) for _ in range(n)]
    total = math.fsum(raw)
    return EmpiricalDistribution(values, [w / total for w in raw])


def omega_leq(a, b) -> bool:
    """a <= b in the extended ordering (inf above every finite value)."""
    if np.isinf(b.omega):
        return True
    if np.isinf(a.omega):
        return False
    return a.omega <= b.omega


class TestSummarize:
    def test_two_point(self):
        stats = summarize(EmpiricalDistribution([0.0, 100.0]))
        assert stats.mean == 50.0
        assert stats.median == 0.0  # lower weighted median
        assert stats.std == 50.0
        assert stats.skewness == 0.0

    def test_constant(self):
        stats = summarize(EmpiricalDistribution([7.0, 7.0, 7.0]))
        assert stats.mean == 7.0
        assert stats.median == 7.0
        assert stats.std == 0.0
        assert stats.skewness is None

    def test_single_sample(self):
        stats = summarize(EmpiricalDistribution([3.0]))
        assert stats.mean == 3.0 and stats.median == 3.0
        assert stats.std is None and stats.skewness is None

    def test_weighted_median_lower_convention(self):
        dist = EmpiricalDistribution([3.0, 1.0, 2.0], [0.5, 0.25, 0.25])
        assert summarize(dist).median == 2.0

    def test_weighted_moments(self):
        dist = EmpiricalDistribution([0.0, 10.0], [0.9, 0.1])
        stats = summarize(dist)
        assert stats.mean == pytest.approx(1.0)
        assert stats.std == pytest.approx(3.0)
        # third standardized moment of a 0.9/0.1 two-pointer
        assert stats.skewness == pytest.approx((0.9 * (-1.0) ** 3 + 0.1 * 9.0**3) / 27.0)

    @pytest.mark.parametrize("n", [12, 30, 10_000])
    def test_uniform_median_is_the_lower_middle_sample(self, n):
        # a plain running sum of n weights 1/n stays below 1/2 at sample n/2 - 1
        assert summarize(EmpiricalDistribution(np.arange(n))).median == n / 2 - 1

    def test_median_reaches_half_on_exact_cumulative_weights(self):
        rng = random.Random(11)
        dists = [random_dist(rng, rng.randint(1, 400)) for _ in range(200)]
        for dist in [EmpiricalDistribution(np.arange(10_000)), *dists]:
            cum = Fraction(0)
            for x, w in zip(dist.sorted_values.tolist(), dist.sorted_weights.tolist()):
                cum += Fraction(w)
                if cum >= Fraction(1, 2):
                    break
            assert summarize(dist).median == x

    def test_skewness_undefined_when_std_cubed_underflows(self):
        stats = summarize(EmpiricalDistribution([0.0, 50.0], [1e-320, 1.0]))
        assert stats.std > 0.0
        assert stats.skewness is None

    def test_skewness_undefined_when_std_cubed_overflows(self):
        stats = summarize(EmpiricalDistribution([-1e150, 1e150]))
        assert stats.std == 1e150
        assert stats.skewness is None

    @pytest.mark.parametrize("values", [[-1e200, 1e200], [1e300, 0.0, -1e300, 5.0]])
    def test_std_undefined_when_the_variance_overflows(self, values):
        stats = summarize(EmpiricalDistribution(values))
        assert math.isfinite(stats.mean)
        assert stats.std is None
        assert stats.skewness is None


class TestConstructionInvariance:
    def test_sorted_view_is_permutation(self):
        rng = random.Random(3)
        values = [rng.uniform(-100, 100) for _ in range(40)]
        raw = [rng.uniform(0.1, 1.0) for _ in range(40)]
        weights = [w / math.fsum(raw) for w in raw]
        dist = EmpiricalDistribution(values, weights)
        assert list(zip(dist.sorted_values.tolist(), dist.sorted_weights.tolist())) == sorted(zip(values, weights))
        assert math.fsum(dist.sorted_weights) == pytest.approx(1.0, abs=1e-12)

    def test_input_order_does_not_change_results(self):
        values = [5.0, -2.0, 17.0, 0.5, -9.0, 3.25]
        dist_a = EmpiricalDistribution(values)
        dist_b = EmpiricalDistribution(list(reversed(values)))
        assert dist_a.sorted_values.tolist() == dist_b.sorted_values.tolist()
        sa, sb = summarize(dist_a), summarize(dist_b)
        assert (sa.mean, sa.median, sa.std, sa.skewness) == (
            sb.mean,
            sb.median,
            sb.std,
            sb.skewness,
        )
        for lam in (-10.0, 0.5, 4.0, 20.0):
            ra, rb = omega(dist_a, lam), omega(dist_b, lam)
            assert (ra.call, ra.put, ra.omega) == (rb.call, rb.put, rb.omega)

    def test_stable_tie_break(self):
        dist = EmpiricalDistribution([1.0, 1.0, 0.0], [0.2, 0.3, 0.5])
        assert dist.sorted_values.tolist() == [0.0, 1.0, 1.0]
        assert dist.sorted_weights.tolist() == [0.5, 0.2, 0.3]

    def test_immutable(self):
        dist = EmpiricalDistribution([1.0, 2.0])
        with pytest.raises(ValueError):
            dist.sorted_values[0] = 9.0
        with pytest.raises(ValueError):
            dist.sorted_weights[0] = 0.5

    @pytest.mark.parametrize(
        "values", [[1e308, -1e308], [-1.0, 1.7e308, -1.7e308], [0.0, math.inf], [math.nan, 1.0]]
    )
    def test_spread_beyond_the_float_range_is_refused(self, values):
        with pytest.raises(InputError, match="spread x_max - x_min must be finite"):
            EmpiricalDistribution(values)

    def test_validation(self):
        with pytest.raises(InputError):
            EmpiricalDistribution([])
        with pytest.raises(InputError):
            EmpiricalDistribution([1.0, math.nan])
        with pytest.raises(InputError):
            EmpiricalDistribution([1.0, 2.0], [0.5, 0.6])
        with pytest.raises(InputError):
            EmpiricalDistribution([1.0, 2.0], [-0.2, 1.2])


class TestOmega:
    def test_at_mean_is_one(self):
        rng = random.Random(17)
        for _ in range(50):
            dist = random_dist(rng, rng.randint(2, 40))
            result = omega(dist, dist.mean())
            if result.put > 0.0:
                assert result.omega == pytest.approx(1.0, rel=1e-12)

    def test_two_point_reference(self):
        dist = EmpiricalDistribution([0.0, 100.0])
        result = omega(dist, 25.0)
        assert result.call == pytest.approx(37.5)
        assert result.put == pytest.approx(12.5)
        assert result.omega == pytest.approx(3.0)

    def test_threshold_below_support_is_infinite(self):
        result = omega(EmpiricalDistribution([0.0, 100.0]), -10.0)
        assert result.put == 0.0
        assert np.isinf(result.omega)
        assert not result.is_indeterminate

    def test_point_mass_at_threshold_is_indeterminate(self):
        result = omega(EmpiricalDistribution([5.0, 5.0]), 5.0)
        assert result.call == 0.0 and result.put == 0.0
        assert result.is_indeterminate

    def test_against_brute_force_loop(self):
        # independent pure-Python evaluation of both partial moments
        rng = random.Random(53)
        for _ in range(50):
            n = rng.randint(1, 30)
            values = [rng.uniform(-80, 80) for _ in range(n)]
            raw = [rng.uniform(0.1, 1.0) for _ in range(n)]
            total = math.fsum(raw)
            weights = [w / total for w in raw]
            lam = rng.uniform(-100, 100)
            result = omega(EmpiricalDistribution(values, weights), lam)
            call = math.fsum(w * max(x - lam, 0.0) for x, w in zip(values, weights))
            put = math.fsum(w * max(lam - x, 0.0) for x, w in zip(values, weights))
            assert result.call == pytest.approx(call, rel=1e-12, abs=1e-15)
            assert result.put == pytest.approx(put, rel=1e-12, abs=1e-15)

    def test_put_call_parity(self):
        rng = random.Random(23)
        for _ in range(200):
            dist = random_dist(rng)
            lam = rng.uniform(-150, 150)
            result = omega(dist, lam)
            mean = dist.mean()
            assert abs(result.call - result.put - (mean - lam)) <= 1e-10 * (
                abs(mean) + abs(lam) + 1.0
            )

    def test_translation_exact_on_dyadic_data(self):
        dist = EmpiricalDistribution([0.0, 3.0, 7.5, 100.0])
        shifted = EmpiricalDistribution(dist.sorted_values + 8.0, dist.sorted_weights)
        for lam in (1.5, 5.0, 50.0):
            a, b = omega(dist, lam), omega(shifted, lam + 8.0)
            assert a.omega == b.omega and a.call == b.call and a.put == b.put

    def test_scaling_exact_on_dyadic_data(self):
        dist = EmpiricalDistribution([0.0, 3.0, 7.5, 100.0])
        scaled = EmpiricalDistribution(dist.sorted_values * 4.0, dist.sorted_weights)
        for lam in (1.5, 5.0, 50.0):
            a, b = omega(dist, lam), omega(scaled, 4.0 * lam)
            assert a.omega == b.omega
            assert b.call == 4.0 * a.call and b.put == 4.0 * a.put

    def test_translation_scaling_general(self):
        rng = random.Random(29)
        for _ in range(100):
            dist = random_dist(rng)
            lam = rng.uniform(-120, 120)
            c = rng.uniform(-50, 50)
            a = rng.uniform(0.1, 10)
            base = omega(dist, lam)
            if base.is_indeterminate:
                continue
            tr = omega(EmpiricalDistribution(dist.sorted_values + c, dist.sorted_weights), lam + c)
            sc = omega(EmpiricalDistribution(dist.sorted_values * a, dist.sorted_weights), a * lam)
            if np.isinf(base.omega):
                assert np.isinf(tr.omega) and np.isinf(sc.omega)
            else:
                assert tr.omega == pytest.approx(base.omega, rel=1e-9, abs=1e-12)
                assert sc.omega == pytest.approx(base.omega, rel=1e-9, abs=1e-12)


class TestOmegaCurve:
    def test_two_point_curve(self):
        dist = EmpiricalDistribution([0.0, 100.0])
        results = rows(omega_curve(dist, [-10.0, 25.0, 50.0, 75.0, 110.0]))
        assert np.isinf(results[0].omega)
        assert results[1].omega == pytest.approx(3.0)
        assert results[2].omega == pytest.approx(1.0)
        assert results[3].omega == pytest.approx(1.0 / 3.0)
        assert results[4].omega == 0.0 and results[4].call == 0.0

    def test_nonincreasing(self):
        rng = random.Random(31)
        for _ in range(50):
            dist = random_dist(rng)
            lo = float(dist.sorted_values[0]) - 5.0
            hi = float(dist.sorted_values[-1]) + 5.0
            grid = np.linspace(lo, hi, 31).tolist()
            results = rows(omega_curve(dist, grid))
            for a, b in zip(results[1:], results[:-1]):
                if a.is_indeterminate or b.is_indeterminate:
                    continue
                assert omega_leq(a, b)

    def test_strictly_decreasing_inside_support(self):
        dist = EmpiricalDistribution([0.0, 100.0])
        r1, r2 = rows(omega_curve(dist, [25.0, 75.0]))
        assert r1.omega > r2.omega

    def test_constant_distribution_flags(self):
        results = rows(omega_curve(EmpiricalDistribution([5.0, 5.0]), [4.0, 5.0, 6.0]))
        assert np.isinf(results[0].omega)
        assert results[1].is_indeterminate
        assert results[2].omega == 0.0

    def test_single_point_grid_at_mean(self):
        dist = EmpiricalDistribution([1.0, 3.0])
        (result,) = rows(omega_curve(dist, [2.0]))
        assert result.omega == pytest.approx(1.0)

    def test_grid_validation(self):
        dist = EmpiricalDistribution([1.0, 2.0])
        with pytest.raises(InputError):
            omega_curve(dist, [])
        with pytest.raises(InputError):
            omega_curve(dist, [1.0, 1.0])
        with pytest.raises(InputError):
            omega_curve(dist, [2.0, 1.0])


def omega_of(dist: EmpiricalDistribution):
    """The distribution's Omega as an array callable, the form crossing_on_grid takes."""
    return lambda points: _omega_at(dist, points).omega


def flat(value: float):
    return lambda points: np.full(points.shape, value)


def as_result(value: float) -> OmegaResult:
    """A scalar lookup for the reference solver; only the Omega value matters there."""
    return OmegaResult(threshold=0.0, call=0.0, put=0.0, omega=value)


class TestCrossing:
    def test_identical_distributions(self):
        dist = EmpiricalDistribution([0.0, 50.0, 100.0])
        grid = [10.0, 30.0, 70.0]
        assert crossing_on_grid(grid, [omega_of(dist), omega_of(dist)])[0] == []

    def test_two_point_pair_crosses_at_common_mean(self):
        # omega of {0,100} and {40,60} are equal exactly at 50; the ranking
        # flips there, so the refined bracket must straddle 50
        dist_a = EmpiricalDistribution([0.0, 100.0])
        dist_b = EmpiricalDistribution([40.0, 60.0])
        grid = [41.0, 45.0, 49.0, 53.0, 57.0]
        brackets = crossing_on_grid(grid, [omega_of(dist_a), omega_of(dist_b)])[0]
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo <= 50.0 <= hi
        assert hi - lo <= 4.0 / 1024.0
        # brute-force sign check at the refined endpoints (the flip point 50
        # itself can land on a bisection midpoint, where both omegas equal 1)
        assert omega(dist_a, lo).omega < omega(dist_b, lo).omega
        assert omega(dist_a, hi).omega >= omega(dist_b, hi).omega

    def test_disjoint_supports_no_crossing(self):
        dist_a = EmpiricalDistribution([0.0, 1.0])
        dist_b = EmpiricalDistribution([10.0, 11.0])
        grid = [2.0, 4.0, 6.0, 9.0]
        assert crossing_on_grid(grid, [omega_of(dist_a), omega_of(dist_b)])[0] == []

    def test_crossing_on_grid_with_callables(self):
        dist_a = EmpiricalDistribution([0.0, 100.0])
        dist_b = EmpiricalDistribution([40.0, 60.0])
        brackets = crossing_on_grid(
            [45.0, 55.0],
            [
                lambda x: np.array([omega(dist_a, v).omega for v in x]),
                lambda x: np.array([omega(dist_b, v).omega for v in x]),
            ],
        )[0]
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo <= 50.0 <= hi and hi - lo <= 10.0 / 1024.0


class TestZeroSigns:
    """Grid signs of 0 (ties, indeterminate points, both curves +inf) between flips."""

    def test_flip_through_a_tie_on_the_grid(self):
        # signs (+, 0, -): one bracket, in the step that ends at the tie
        brackets = crossing_on_grid([0.0, 1.0, 2.0], [lambda x: 2.0 - x, flat(1.0)])[0]
        assert brackets == [(1.0 - 1.0 / 1024.0, 1.0)]

    def test_flip_through_a_run_of_ties(self):
        # signs (+, 0, 0, -): the bracket goes in the step that ends at the first 0
        a = lambda x: np.where(x < 1.0, 2.0, np.where(x <= 2.0, 1.0, 0.5))
        (lo, hi), = crossing_on_grid([0.0, 1.0, 2.0, 3.0], [a, flat(1.0)])[0]
        assert 0.0 <= lo < hi == 1.0 and hi - lo <= 1.0 / 1024.0

    def test_touch_without_flip(self):
        # signs (+, 0, +): the curves meet at the grid point but do not swap
        assert crossing_on_grid([0.0, 1.0, 2.0], [lambda x: 1.0 + (x - 1.0) ** 2, flat(1.0)])[0] == []

    def test_zero_runs_at_the_ends(self):
        # both curves +inf, then a flip, then both indeterminate: signs (0, 0, +, -, 0)
        grid = [0.0, 1.0, 2.0, 3.0, 4.0]
        a = lambda x: np.where(x < 1.5, np.inf, np.where(x < 3.5, 3.0 - x, np.nan))
        b = lambda x: np.where(x < 1.5, np.inf, np.where(x < 3.5, 0.5, np.nan))
        (lo, hi), = crossing_on_grid(grid, [a, b])[0]
        assert 2.0 <= lo <= 2.5 <= hi <= 3.0 and hi - lo <= 1.0 / 1024.0
        assert crossing_on_grid(grid[:2], [a, b])[0] == []
        assert crossing_on_grid(grid[:3], [a, b])[0] == []  # (0, 0, +)
        assert crossing_on_grid(grid[3:], [a, b])[0] == []

    def test_adjacent_flip_is_bracketed_as_before(self):
        # signs (+, +, -): no zero in between, so the bracket is that of the scalar loop
        grid = [0.0, 0.75, 2.0]
        brackets = crossing_on_grid(grid, [lambda x: 2.0 - x, flat(1.0)])[0]
        assert brackets == reference.crossing_on_grid(
            grid, lambda x: as_result(2.0 - x), lambda x: as_result(1.0)
        )
        (lo, hi), = brackets
        assert 0.75 <= lo < 1.0 <= hi <= 2.0 and hi - lo <= 1.25 / 1024.0

    @pytest.mark.parametrize("seed", range(20))
    def test_random_signs_match_the_scalar_reference(self, seed):
        # five step curves on a few levels, so that ties and runs of zeros are common;
        # each of the ten pairs must give the brackets of the scalar loop
        rng = np.random.default_rng(seed)
        grid = np.cumsum(rng.uniform(0.5, 1.5, 12))
        levels = np.array([0.5, 1.0, 2.0, np.inf, np.nan])
        values = rng.choice(levels, (5, 12))

        def step(row):
            return lambda x: row[np.searchsorted(grid, x, side="right") - 1]

        got = crossing_on_grid(grid.tolist(), [step(row) for row in values])
        pairs = list(zip(*np.triu_indices(5, 1)))
        assert len(got) == len(pairs) == 10
        for brackets, (i, j) in zip(got, pairs):
            assert brackets == reference.crossing_on_grid(
                grid.tolist(),
                lambda x: as_result(float(step(values[i])(x))),
                lambda x: as_result(float(step(values[j])(x))),
            )

    def test_one_call_per_curve_per_bisection_step(self):
        calls = []

        def counted(points):
            calls.append(points.size)
            return np.cos(points)

        grid = np.linspace(0.0, 20.0, 41).tolist()
        brackets = crossing_on_grid(grid, [counted, flat(0.0)])[0]
        assert len(brackets) == 6  # the zeros of cos in (0, 20)
        assert calls[0] == 41
        assert len(calls) <= 1 + 11 and calls[1] == 6

    def test_each_curve_is_called_at_its_own_pairs_midpoints_only(self):
        # four shifted cosines cross each other; a fifth curve lies above them all
        grid = np.linspace(0.0, 20.0, 41)
        calls = {c: [] for c in range(5)}

        def curve(c):
            def at(points):
                calls[c].append(points.copy())
                return np.full(points.shape, 2.0) if c == 4 else np.cos(points + 0.9 * c)
            return at

        result = crossing_on_grid(grid.tolist(), [curve(c) for c in range(5)])
        pairs = list(zip(*np.triu_indices(5, 1)))
        for c, points in calls.items():
            own = [b for bs, pair in zip(result, pairs) if c in pair for b in bs]
            assert points[0].tolist() == grid.tolist()
            assert len(points) <= 1 + 11
            if not own:
                assert c == 4 and len(points) == 1
                continue
            assert points[1].size == len(own)  # every bracket is open at the first step
            steps = {int(np.searchsorted(grid, lo, side="right")) for lo, _ in own}
            for midpoints in points[1:]:
                assert 0 < midpoints.size <= len(own)
                assert set(np.searchsorted(grid, midpoints, side="right").tolist()) <= steps
        assert sum(map(len, result[:6])) >= 6  # the four cosines' six pairs all cross

    def test_memory_is_one_matrix_of_curves_not_one_row_per_pair(self):
        # 40 curves over 1e5 points: a pairs x G array would be 780 rows, about 624 MB
        curves_n, points_n = 40, 100_000
        grid = np.linspace(0.0, 20.0, points_n).tolist()
        curves = [lambda x, c=c: np.cos(x + 0.1 * c) for c in range(curves_n)]
        tracemalloc.start()
        try:
            result = crossing_on_grid(grid, curves)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == curves_n * (curves_n - 1) // 2
        assert peak < 2 * curves_n * points_n * 8

    def test_bisection_stops_at_adjacent_floats(self):
        # a grid step of a few float spacings: step/1024 is below one spacing, so the
        # bracket ends as two adjacent floats; run in a child process, so that a
        # bisection that never ends fails by timeout instead of hanging the suite
        code = (
            "from invomega import crossing_on_grid\n"
            "x0 = 0.1 + 5e-15\n"
            "print(crossing_on_grid([0.1 + i * 1e-15 for i in range(11)],"
            " [lambda m: 1 + (m - x0), lambda m: 1 - (m - x0)])[0])\n"
        )
        src = Path(invomega.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        (lo, hi), = ast.literal_eval(proc.stdout)
        assert 0.1 <= lo < hi <= 0.1 + 1e-14 and math.nextafter(lo, hi) == hi


class TestCsvOutput:
    def test_omega_curve_flags(self, tmp_path):
        results = omega_curve(EmpiricalDistribution([5.0, 5.0]), [4.0, 5.0, 6.0])
        write_omega_curve_csv(results, tmp_path / "curve.csv")
        lines = (tmp_path / "curve.csv").read_bytes().split(b"\n")
        assert lines[0] == b"threshold,call,put,omega"
        assert lines[1].endswith(b"inf")
        assert lines[2].endswith(b"nan")
        assert lines[3].endswith(b"0.0")
        assert lines[4:] == [b""]

    def test_summary_csv(self, tmp_path):
        stats = summarize(EmpiricalDistribution([7.0, 7.0]))
        write_summary_csv({"npv": stats}, tmp_path / "summary.csv")
        assert (tmp_path / "summary.csv").read_bytes() == b"metric,mean,median,std,skewness\nnpv,7.0,7.0,0.0,nan\n"

    def test_summary_csv_undefined_std(self, tmp_path):
        stats = summarize(EmpiricalDistribution([-1e200, 1e200]))
        write_summary_csv({"npv": stats}, tmp_path / "summary.csv")
        assert (tmp_path / "summary.csv").read_bytes().split(b"\n")[1] == b"npv,0.0,-1e+200,nan,nan"


@pytest.mark.parametrize("n", [3, 11, 13, 97, 1000, 9999, 10000, 100000])
def test_constant_columns_average_exactly(n):
    # every weighted mean over rows is anchored at the column's smallest value, so uniform
    # copies of one row average back to that row: the vertical average and the threshold
    # basis. A plain fsum of w * x sums the rounded 1/n and missed by one ulp at each n here,
    # the columns at six of them and the basis at 13 and 100000.
    scenario_set = ScenarioSet.uniform("p", np.tile((-200.0, 350.0, -100.0), (n, 1)))
    assert vertical_average(scenario_set) == (-200.0, 350.0, -100.0)
    curve = YieldCurve.flat(0.05, 2)
    outlay = float(evaluate_set(scenario_set, curve).total_outlay[0])
    assert evaluate_project(scenario_set, curve, "npv").basis_outlay == outlay
