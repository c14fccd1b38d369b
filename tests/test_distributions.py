import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from invomega import (
    EmpiricalDistribution,
    InputError,
    OmegaResult,
    crossing_on_grid,
    omega,
    omega_curve,
    summarize,
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
    if b.is_infinite:
        return True
    if a.is_infinite:
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
        dist = random_dist(rng, 40)
        pairs = sorted(zip(dist.values.tolist(), dist.weights.tolist()))
        assert [p[0] for p in pairs] == dist.sorted_values.tolist()
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
            dist.values[0] = 9.0

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
        assert result.is_infinite
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
        shifted = dist.shifted(8.0)
        for lam in (1.5, 5.0, 50.0):
            a, b = omega(dist, lam), omega(shifted, lam + 8.0)
            assert a.omega == b.omega and a.call == b.call and a.put == b.put

    def test_scaling_exact_on_dyadic_data(self):
        dist = EmpiricalDistribution([0.0, 3.0, 7.5, 100.0])
        scaled = dist.scaled(4.0)
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
            tr = omega(dist.shifted(c), lam + c)
            sc = omega(dist.scaled(a), a * lam)
            if base.is_infinite:
                assert tr.is_infinite and sc.is_infinite
            else:
                assert tr.omega == pytest.approx(base.omega, rel=1e-9, abs=1e-12)
                assert sc.omega == pytest.approx(base.omega, rel=1e-9, abs=1e-12)


class TestOmegaCurve:
    def test_two_point_curve(self):
        dist = EmpiricalDistribution([0.0, 100.0])
        results = rows(omega_curve(dist, [-10.0, 25.0, 50.0, 75.0, 110.0]))
        assert results[0].is_infinite
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
        assert results[0].is_infinite
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
        assert crossing_on_grid(grid, omega_of(dist), omega_of(dist)) == []

    def test_two_point_pair_crosses_at_common_mean(self):
        # omega of {0,100} and {40,60} are equal exactly at 50; the ranking
        # flips there, so the refined bracket must straddle 50
        dist_a = EmpiricalDistribution([0.0, 100.0])
        dist_b = EmpiricalDistribution([40.0, 60.0])
        grid = [41.0, 45.0, 49.0, 53.0, 57.0]
        brackets = crossing_on_grid(grid, omega_of(dist_a), omega_of(dist_b))
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
        assert crossing_on_grid(grid, omega_of(dist_a), omega_of(dist_b)) == []

    def test_crossing_on_grid_with_callables(self):
        dist_a = EmpiricalDistribution([0.0, 100.0])
        dist_b = EmpiricalDistribution([40.0, 60.0])
        brackets = crossing_on_grid(
            [45.0, 55.0],
            lambda x: np.array([omega(dist_a, v).omega for v in x]),
            lambda x: np.array([omega(dist_b, v).omega for v in x]),
        )
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo <= 50.0 <= hi and hi - lo <= 10.0 / 1024.0


class TestZeroSigns:
    """Grid signs of 0 (ties, indeterminate points, both curves +inf) between flips."""

    def test_flip_through_a_tie_on_the_grid(self):
        # signs (+, 0, -): one bracket, in the step that ends at the tie
        brackets = crossing_on_grid([0.0, 1.0, 2.0], lambda x: 2.0 - x, flat(1.0))
        assert brackets == [(1.0 - 1.0 / 1024.0, 1.0)]

    def test_flip_through_a_run_of_ties(self):
        # signs (+, 0, 0, -): the bracket goes in the step that ends at the first 0
        a = lambda x: np.where(x < 1.0, 2.0, np.where(x <= 2.0, 1.0, 0.5))
        (lo, hi), = crossing_on_grid([0.0, 1.0, 2.0, 3.0], a, flat(1.0))
        assert 0.0 <= lo < hi == 1.0 and hi - lo <= 1.0 / 1024.0

    def test_touch_without_flip(self):
        # signs (+, 0, +): the curves meet at the grid point but do not swap
        assert crossing_on_grid([0.0, 1.0, 2.0], lambda x: 1.0 + (x - 1.0) ** 2, flat(1.0)) == []

    def test_zero_runs_at_the_ends(self):
        # both curves +inf, then a flip, then both indeterminate: signs (0, 0, +, -, 0)
        grid = [0.0, 1.0, 2.0, 3.0, 4.0]
        a = lambda x: np.where(x < 1.5, np.inf, np.where(x < 3.5, 3.0 - x, np.nan))
        b = lambda x: np.where(x < 1.5, np.inf, np.where(x < 3.5, 0.5, np.nan))
        (lo, hi), = crossing_on_grid(grid, a, b)
        assert 2.0 <= lo <= 2.5 <= hi <= 3.0 and hi - lo <= 1.0 / 1024.0
        assert crossing_on_grid(grid[:2], a, b) == []
        assert crossing_on_grid(grid[:3], a, b) == []  # (0, 0, +)
        assert crossing_on_grid(grid[3:], a, b) == []

    def test_adjacent_flip_is_bracketed_as_before(self):
        # signs (+, +, -): no zero in between, so the bracket is that of the scalar loop
        grid = [0.0, 0.75, 2.0]
        brackets = crossing_on_grid(grid, lambda x: 2.0 - x, flat(1.0))
        assert brackets == reference.crossing_on_grid(
            grid, lambda x: as_result(2.0 - x), lambda x: as_result(1.0)
        )
        (lo, hi), = brackets
        assert 0.75 <= lo < 1.0 <= hi <= 2.0 and hi - lo <= 1.25 / 1024.0

    @pytest.mark.parametrize("seed", range(20))
    def test_random_signs_match_the_scalar_reference(self, seed):
        # step curves on a few levels, so that ties and runs of zeros are common
        rng = np.random.default_rng(seed)
        grid = np.cumsum(rng.uniform(0.5, 1.5, 12))
        levels = np.array([0.5, 1.0, 2.0, np.inf, np.nan])
        a, b = rng.choice(levels, 12), rng.choice(levels, 12)

        def step(values):
            return lambda x: values[np.searchsorted(grid, x, side="right") - 1]

        got = crossing_on_grid(grid.tolist(), step(a), step(b))
        scalar = reference.crossing_on_grid(
            grid.tolist(),
            lambda x: as_result(float(step(a)(x))),
            lambda x: as_result(float(step(b)(x))),
        )
        assert got == scalar

    def test_one_call_per_curve_per_bisection_step(self):
        calls = []

        def counted(points):
            calls.append(points.size)
            return np.cos(points)

        grid = np.linspace(0.0, 20.0, 41).tolist()
        brackets = crossing_on_grid(grid, counted, flat(0.0))
        assert len(brackets) == 6  # the zeros of cos in (0, 20)
        assert calls[0] == 41
        assert len(calls) <= 1 + 11 and calls[1] == 6


class TestCsvOutput:
    def test_omega_curve_flags(self):
        results = omega_curve(EmpiricalDistribution([5.0, 5.0]), [4.0, 5.0, 6.0])
        buffer = io.StringIO()
        write_omega_curve_csv(results, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "threshold,call,put,omega"
        assert lines[1].endswith("inf")
        assert lines[2].endswith("nan")
        assert lines[3].endswith("0.0")

    def test_summary_csv(self):
        stats = summarize(EmpiricalDistribution([7.0, 7.0]))
        buffer = io.StringIO()
        write_summary_csv({"npv": stats}, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "metric,mean,median,std,skewness"
        assert lines[1] == "npv,7.0,7.0,0.0,nan"

    def test_summary_csv_undefined_std(self):
        stats = summarize(EmpiricalDistribution([-1e200, 1e200]))
        buffer = io.StringIO()
        write_summary_csv({"npv": stats}, buffer)
        assert buffer.getvalue().splitlines()[1] == "npv,0.0,-1e+200,nan,nan"
