"""The columnar evaluation kernel against the single-scenario reference path.

The reference is the paper's decomposition: ``replicate`` for NPV and total
outlay, and the inflows rolled at the locked forwards
(``ForwardCurve.future_value``) for the annualized return. Tolerances are
ulp-level: 8 (T+2) eps times the magnitude of the discounted terms.
"""

import math
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invomega import (
    CashFlowScenario,
    ScenarioSet,
    YieldCurve,
    evaluate,
    evaluate_set,
    replicate,
    split,
)

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
    # one-period forwards >= -5% keep (1+r_T)^T / (1+r_t)^t >= 0.95^29: the forward-roll
    # reference stores that factor minus 1, which costs it relative accuracy as it nears 0
    forwards = draw(hnp.arrays(float, horizon, elements=st.floats(-0.05, 0.5)))
    rates = np.cumprod(1.0 + forwards) ** (1.0 / np.arange(1, horizon + 1)) - 1.0
    flows = np.column_stack(
        (
            -draw(hnp.arrays(float, n, elements=st.floats(1e-6, 1e6))),
            draw(hnp.arrays(float, (n, horizon), elements=later_flow)),
        )
    )
    raw = draw(hnp.arrays(float, n, elements=st.floats(0.01, 1.0)))
    return YieldCurve(tuple(rates.tolist())), ScenarioSet("p", flows, raw / math.fsum(raw.tolist()))


def _bits(result) -> list[int]:
    values = [getattr(result, f.name) for f in fields(result)]
    return np.array(values, dtype=float).view(np.uint64).tolist()


@PROPERTY
@given(weighted_sets())
def test_kernel_matches_scalar_replication(case):
    curve, scenario_set = case
    horizon = scenario_set.horizon
    k_flow = 8.0 * (horizon + 2) * EPS
    results = evaluate_set(scenario_set, curve)
    for i, scenario in enumerate(scenario_set.scenarios):
        rep = replicate(scenario, curve)
        scale = abs(scenario.flows[0]) + math.fsum(
            abs(f) / curve.growth_factor(t) for t, f in enumerate(scenario.flows[1:], start=1)
        )
        npv = rep.certainty_equivalent_outlay - rep.total_outlay
        assert abs(results.npv[i] - npv) <= k_flow * scale
        assert abs(results.total_outlay[i] - rep.total_outlay) <= k_flow * scale

        fv_plus = curve.forward_curve(horizon).future_value(split(scenario).positive)
        ratio = fv_plus / rep.total_outlay
        mu = ratio ** (1.0 / horizon) - 1.0 if ratio > 0.0 else -1.0
        assert abs(results.annualized_return[i] - mu) <= k_flow * (1.0 + abs(mu))


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
        single = evaluate(CashFlowScenario(tuple(flows[i])), curve)
        assert _bits(whole.row(i)) == _bits(single)
