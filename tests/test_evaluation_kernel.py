"""The columnar evaluation kernel against the scalar reference in ``reference.py``.

The reference is the paper's decomposition in Python floats and ``math.fsum``:
the replication for NPV and total outlay, and the inflows rolled at the
locked forwards for the annualized return. It shares no code with the kernel;
``replicate`` and a one-row set are the kernel's one-row case, so they are
only checked to be that, bitwise. Tolerances are ulp-level: 8 (T+2) eps times
the magnitude of the discounted terms.
"""

import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invomega import ScenarioSet, YieldCurve, evaluate_set, replicate

import reference
from conftest import evaluate_row as evaluate

EPS = float(np.finfo(float).eps)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

# zero or a magnitude in [1e-6, 1e6] of either sign: mixed-sign flows without subnormal ratios
later_flow = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 1e6),
    st.floats(-1e6, -1e-6),
)


@st.composite
def weighted_sets(draw, max_n: int = 12):
    """A curve, and a weighted set of mixed-sign scenarios with F_0 < 0 on it."""
    horizon = draw(st.integers(1, 30))
    n = draw(st.integers(1, max_n))
    # one-period forwards in [-50%, 50%]: the growth factors stay within [0.5^30, 1.5^30],
    # and the forward-roll reference rounds each factor (1+r_T)^T / (1+r_t)^t once, so
    # it keeps its relative accuracy however far the curve falls after t
    forwards = draw(hnp.arrays(float, horizon, elements=st.floats(-0.5, 0.5)))
    rates = np.cumprod(1.0 + forwards) ** (1.0 / np.arange(1, horizon + 1)) - 1.0
    flows = np.column_stack(
        (
            -draw(hnp.arrays(float, n, elements=st.floats(1e-6, 1e6))),
            draw(hnp.arrays(float, (n, horizon), elements=later_flow)),
        )
    )
    raw = draw(hnp.arrays(float, n, elements=st.floats(0.01, 1.0)))
    return YieldCurve(tuple(rates.tolist())), ScenarioSet("p", flows, raw / math.fsum(raw.tolist()))


def _bits_of(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _bits(result) -> list[int]:
    values = [getattr(result, f.name) for f in fields(result)]
    return np.array(values, dtype=float).view(np.uint64).tolist()


def test_npv_is_within_the_compensated_sum_bound_of_its_exact_sum():
    """NPV sums F_0 and F_t / (1+r_t)^t by TwoSum with the errors added back (Sum2), so it
    is within eps/2 |S| + (T eps/2)^2 sum |terms| of the exact sum S of those float terms;
    for T <= 30 that is inside ulp(S) + 8 (T+1) eps^2 sum |terms|. Half the rows have an F_0
    that cancels the later flows' present value, so their NPV is near zero."""
    rng = np.random.default_rng(36)
    for horizon in range(1, 31):
        curve = YieldCurve(tuple(rng.uniform(-0.02, 0.1, horizon).tolist()))
        later = rng.choice([-1.0, 1.0], (64, horizon)) * 10.0 ** rng.uniform(-3.0, 6.0, (64, horizon))
        later[rng.uniform(size=later.shape) < 0.2] = 0.0
        first = -(10.0 ** rng.uniform(-3.0, 6.0, 64))
        for i, row in enumerate(later[32:].tolist(), start=32):
            present = math.fsum(reference.discounted(row, curve))
            later[i] *= -1.0 if present < 0.0 else 1.0
            first[i] = -abs(present) or first[i]
        flows = np.column_stack((first, later))
        npv = evaluate_set(ScenarioSet.uniform("p", flows), curve).npv
        for value, row in zip(npv.tolist(), flows.tolist()):
            exact = reference.exact_npv(row, curve)
            terms = [row[0], *reference.discounted(row[1:], curve)]
            bound = math.ulp(float(exact)) + 8 * (horizon + 1) * EPS**2 * math.fsum(map(abs, terms))
            assert abs(Fraction(value) - exact) <= Fraction(bound), (horizon, row)


@PROPERTY
@given(weighted_sets())
def test_kernel_matches_scalar_replication(case):
    curve, scenario_set = case
    horizon = scenario_set.horizon
    k_flow = 8.0 * (horizon + 2) * EPS
    results = evaluate_set(scenario_set, curve)
    for i, flows in enumerate(scenario_set.flows.tolist()):
        total_outlay, ce_outlay = reference.replication(flows, curve)
        scale = abs(flows[0]) + math.fsum(map(abs, reference.discounted(flows[1:], curve)))
        assert abs(results.npv[i] - (ce_outlay - total_outlay)) <= k_flow * scale
        assert abs(results.total_outlay[i] - total_outlay) <= k_flow * scale

        fv_plus = reference.future_value(reference.split(flows)[1], curve)
        ratio = fv_plus / total_outlay
        mu = ratio ** (1.0 / horizon) - 1.0 if ratio > 0.0 else -1.0
        assert abs(results.annualized_return[i] - mu) <= k_flow * (1.0 + abs(mu))


@PROPERTY
@given(weighted_sets())
def test_replicate_is_the_kernel_one_row_case(case):
    curve, scenario_set = case
    for scenario in scenario_set.scenarios:
        rep, result = replicate(scenario, curve), evaluate(scenario, curve)
        assert _bits_of(rep.total_outlay) == _bits_of(result.total_outlay)
        assert _bits_of(rep.npv) == _bits_of(result.npv)


@PROPERTY
@given(weighted_sets(max_n=40), st.data())
def test_set_rows_equal_single_evaluation_bitwise_on_any_chunking(case, data):
    curve, scenario_set = case
    n = len(scenario_set)
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else set())
    chunks = [
        evaluate_set(ScenarioSet.uniform("chunk", rows), curve)
        for rows in np.split(scenario_set.flows, cuts)
    ]
    chunked = [chunk.row(j) for chunk in chunks for j in range(len(chunk.npv))]
    whole = evaluate_set(scenario_set, curve)
    for i, scenario in enumerate(scenario_set.scenarios):
        single = _bits(evaluate(scenario, curve))
        assert _bits(whole.row(i)) == single
        assert _bits(chunked[i]) == single


def test_large_set_rows_equal_single_evaluation_bitwise():
    rng = np.random.default_rng(7)
    n, horizon = 50_000, 30
    curve = YieldCurve(tuple(rng.uniform(0.01, 0.06, horizon).tolist()))
    flows = rng.normal(0.0, 100.0, (n, horizon + 1))
    flows[:, 0] = -rng.uniform(500.0, 1500.0, n)
    scenario_set = ScenarioSet.uniform("large", flows)
    whole = evaluate_set(scenario_set, curve)
    for i in range(0, n, 250):
        single = evaluate(flows[i], curve)
        assert _bits(whole.row(i)) == _bits(single)
