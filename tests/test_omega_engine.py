"""The cumulative-sum Omega engine against direct weighted sums.

``partial_moments`` answers call/put at any threshold from sums accumulated
once per distribution. The reference is ``math.fsum`` over every sample;
the tolerance is K_SUM(N) * eps * sum_i w_i (|x_i| + |L|) with
K_SUM(N) = 64 (log2 N + 4), the ulp-level bound used for weighted sums.
No term of the engine's sums is negative, so nothing cancels and the error
is also within a few eps of the value itself.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from invomega import EmpiricalDistribution, omega, omega_curve
from invomega.distributions import partial_moments
from reference import rows

EPS = float(np.finfo(float).eps)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

# zero or a magnitude in [1e-6, 1e6] of either sign: no subnormal products
magnitude = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))


def k_sum(n: int) -> float:
    return 64.0 * (math.log2(n) + 4.0)


def reference(values, weights, lam) -> tuple[float, float, float]:
    """fsum call, put and the tolerance scale sum w (|x| + |L|)."""
    call = math.fsum(w * max(x - lam, 0.0) for x, w in zip(values, weights))
    put = math.fsum(w * max(lam - x, 0.0) for x, w in zip(values, weights))
    scale = math.fsum(w * (abs(x) + abs(lam)) for x, w in zip(values, weights))
    return call, put, scale


@st.composite
def weighted_samples(draw):
    """Samples drawn from a small pool (ties, point masses) with non-uniform weights, some zero."""
    pool = draw(st.lists(magnitude, min_size=1, max_size=6, unique=True))
    n = draw(st.integers(1, 40))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n, max_size=n))
    if not any(raw):
        raw[draw(st.integers(0, n - 1))] = 1.0
    total = math.fsum(raw)
    weights = [r / total for r in raw]
    lo, hi = min(values), max(values)
    thresholds = draw(
        st.lists(
            st.one_of(
                st.sampled_from(values),  # at a sample
                # inside the support, not subnormal
                st.floats(lo, hi).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
                if lo < hi
                else st.just(lo),
                magnitude,
            ),
            min_size=1,
            max_size=12,
        )
    )
    # below and above the support
    thresholds += [lo - 1.0 - abs(lo), hi + 1.0 + abs(hi)]
    return values, weights, thresholds


@PROPERTY
@given(weighted_samples())
def test_partial_moments_against_fsum(sample):
    values, weights, thresholds = sample
    dist = EmpiricalDistribution(values, weights)
    call, put = partial_moments(dist, np.array(thresholds))
    tol_factor = k_sum(len(values)) * EPS
    for lam, c, p in zip(thresholds, call.tolist(), put.tolist()):
        want_call, want_put, scale = reference(values, weights, lam)
        assert abs(c - want_call) <= tol_factor * scale
        assert abs(p - want_put) <= tol_factor * scale
        assert abs(c - want_call) <= 8 * EPS * want_call
        assert abs(p - want_put) <= 8 * EPS * want_put
        # an empty side is exactly 0, so the inf/nan flags of Omega are exact
        assert (c == 0.0) == (want_call == 0.0)
        assert (p == 0.0) == (want_put == 0.0)
        # the scalar call is the one-element case of the same kernel
        single = omega(dist, lam)
        assert (single.call, single.put) == (c, p)


def test_point_mass_flags():
    dist = EmpiricalDistribution([2.5, 2.5, 2.5], [0.2, 0.3, 0.5])
    below, at, above = rows(omega_curve(dist, [1.0, 2.5, 4.0]))
    assert np.isinf(below.omega) and below.put == 0.0 and below.call == 1.5
    assert at.is_indeterminate and at.call == 0.0 and at.put == 0.0
    assert above.omega == 0.0 and above.call == 0.0 and above.put == 1.5


def test_zero_weight_tail_has_no_mass():
    # samples carrying no weight leave their side of the threshold empty
    dist = EmpiricalDistribution([-5.0, 1.0, 2.0, 9.0], [0.0, 0.5, 0.5, 0.0])
    left, right = rows(omega_curve(dist, [0.0, 3.0]))
    assert left.put == 0.0 and np.isinf(left.omega)
    assert right.call == 0.0 and right.omega == 0.0


def test_c5_gates_at_one_million_samples():
    rng = np.random.default_rng(20240808)
    n = 1_000_000
    values = 100.0 * rng.lognormal(0.0, 0.8, n) - 150.0  # skewed, both signs
    raw = rng.uniform(0.5, 1.5, n)
    weights = raw / math.fsum(raw.tolist())
    dist = EmpiricalDistribution(values, weights)
    mean = dist.mean()
    grid = sorted(np.quantile(values, [0.001, 0.1, 0.5, 0.9, 0.999]).tolist() + [mean])
    base = rows(omega_curve(dist, grid))

    for lam, result in zip(grid, base):
        # put-call parity
        assert abs(result.call - result.put - (mean - lam)) <= 1e-10 * (abs(mean) + abs(lam) + 1.0)
    # Omega at the mean is 1
    assert abs(omega(dist, mean).omega - 1.0) <= 1e-10
    # two thresholds against direct sums over all samples
    tol_factor = k_sum(n) * EPS
    for lam in (grid[1], grid[-2]):
        result = omega(dist, lam)
        diff = values - lam
        scale = math.fsum((weights * (np.abs(values) + abs(lam))).tolist())
        for got, terms in ((result.call, np.maximum(diff, 0.0)), (result.put, np.maximum(-diff, 0.0))):
            want = math.fsum((weights * terms).tolist())
            assert abs(got - want) <= tol_factor * scale
            assert abs(got - want) <= 8 * EPS * want

    # translation and positive scaling, one moved copy alive at a time
    shift, factor = 37.25, 3.5
    moved = rows(omega_curve(EmpiricalDistribution(dist.sorted_values + shift, dist.sorted_weights),
                             [lam + shift for lam in grid]))
    for a, b in zip(base, moved):
        assert math.isclose(a.omega, b.omega, rel_tol=1e-9, abs_tol=1e-12)
    moved = rows(omega_curve(EmpiricalDistribution(dist.sorted_values * factor, dist.sorted_weights),
                             [lam * factor for lam in grid]))
    for a, b in zip(base, moved):
        assert math.isclose(a.omega, b.omega, rel_tol=1e-9, abs_tol=1e-12)
