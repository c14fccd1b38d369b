"""The paper ranks "projects of different nature, scale and lifespan"; these gates pin all three.

Nature: a generated project and its ``simulate`` CSV twin are one project, so
they rank to the same ``rank.json`` bytes (repr round-trips every flow).

Scale: multiplying every flow by 2^k is exact in binary floating point (no
value here comes near overflow or the subnormals), and every quantity of the
pipeline is homogeneous of degree 1 (NPV, outlays, NPV*, call, put) or 0
(mu, Omega, the order, the mu* brackets) in the flows. So the degree-1
quantities scale by exactly 2^k and the degree-0 ones are bitwise equal.

A general factor c > 0 rounds once per scaled flow, so the pipeline keeps
scale only within rounding. The bound, K = 8 (T+2) eps, is that of the
lifespan gate: per scenario, NPV and total outlay are within K c M of c times
their base values, M being the magnitude |F_0| + sum_t |F_t| / (1+r_t)^t, and
mu is within K (1 + |mu|) of its base value (every sum of the return has
terms >= 0). Let s = c on the npv metric and 1 on mu, D the largest sample
move |x' - s x| and dL the threshold move |L' - s L| (itself within K s |L|).
x -> (x - L)+ moves by at most D + dL, and the engine's call and put are
within 8 eps of their exact sums (``test_omega_engine``), so |call' - s call|
and |put' - s put| are within D + dL + 16 eps (call' + s call), with Omega
inside the ratio of those bounds. The order is the same, and each crossing
bracket lies within one bracket width (grid step / 1024) of its base bracket.

Lifespan: zero flows after T add nothing to the replication, so padding a
project to a longer horizon T' on a curve that reaches T' leaves every NPV
and total outlay within the kernel tolerance of ``test_evaluation_kernel``,
8 (T'+2) eps times the magnitude of the discounted terms (the padded sums
may group their terms differently). A delta_mu = 0 hurdle is mu* = r_T,
whose NPV equivalent (1+r_T)^T / (1+r_T)^T - 1 times the basis is exactly
0.0 on every horizon. At delta_mu > 0 on a flat curve at r, the NPV
threshold, the basis times (1 + r + delta_mu)^T / (1 + r)^T - 1, grows
with T while the NPVs stay put: the padded project must earn the premium
over more periods, so its threshold is strictly larger and its Omega there
no larger.
"""

import json
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invomega import (
    GeneratorSpec,
    HurdleSpec,
    ScenarioSet,
    YieldCurve,
    evaluate_project,
    evaluate_set,
    generate,
    rank,
    rank_with_crossings,
    read_project,
)
from invomega.cli import main

from conftest import DEMO_DIR

PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)
EPS = float(np.finfo(float).eps)
LONGEST = 30
GRID = [0.05 + 0.01 * i for i in range(21)]
HURDLE = HurdleSpec("delta_mu", 0.10)


def _rank_args(right, out):
    return [
        "rank", "--projects", str(right), str(DEMO_DIR / "project_left.json"),
        "--curve", str(DEMO_DIR / "curve_flat5.csv"), "--delta-mu", "0.10",
        "--grid", "0.05:0.25:0.01", "--out", str(out),
    ]


def test_generated_project_and_its_simulated_twin_rank_identically(tmp_path):
    descriptor = json.loads((DEMO_DIR / "project_right.json").read_text())
    descriptor["generator"].update(n=20_000, seed=5)
    generated = tmp_path / "generated.json"
    generated.write_text(json.dumps(descriptor))
    twin_csv = tmp_path / "twin.csv"
    argv = ["simulate", "--spec", str(DEMO_DIR / "project_right.json"), "--n", "20000", "--seed", "5"]
    assert main([*argv, "--out", str(twin_csv)]) == 0
    twin = tmp_path / "twin.json"
    twin.write_text(json.dumps({"id": descriptor["id"], "horizon": 2, "scenario_file": twin_csv.name}))
    # the two routes of the descriptor grammar
    assert isinstance(read_project(generated)[2], GeneratorSpec)
    assert read_project(twin) == (descriptor["id"], 2, twin_csv.resolve())

    assert main(_rank_args(generated, tmp_path / "generated_rank.json")) == 0
    assert main(_rank_args(twin, tmp_path / "twin_rank.json")) == 0
    report = (tmp_path / "generated_rank.json").read_bytes()
    assert json.loads(report)["crossings"][0]["brackets"]  # the pair swaps rank on the grid
    assert report == (tmp_path / "twin_rank.json").read_bytes()


@cache
def _demo_pair() -> tuple[ScenarioSet, ...]:
    specs = (read_project(DEMO_DIR / f"project_{side}.json") for side in ("right", "left"))
    return tuple(generate(replace(spec, n=5_000), pid) for pid, _, spec in specs)


def _scaled(scenario_set: ScenarioSet, factor: float) -> ScenarioSet:
    return ScenarioSet(scenario_set.project_id, scenario_set.flows * factor, scenario_set.weights)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _brackets(report) -> list:
    return [(c.project_a, c.project_b, _bits(c.brackets)) for c in report.crossings]


def _report(sets, metric, curve):
    projects = [evaluate_project(s, curve, metric) for s in sets]
    return rank_with_crossings(projects, HURDLE, GRID)


@PROPERTY
@given(st.integers(-3, 5))
def test_scaling_every_flow_by_a_power_of_two(k):
    curve = YieldCurve.from_csv(DEMO_DIR / "curve_flat5.csv")
    factor = 2.0**k
    base_sets = _demo_pair()
    scaled_sets = tuple(_scaled(s, factor) for s in base_sets)
    for base, scaled in zip(base_sets, scaled_sets):
        assert _bits(evaluate_set(scaled, curve).annualized_return) == _bits(
            evaluate_set(base, curve).annualized_return
        )
    for metric in ("npv", "mu"):
        base, scaled = _report(base_sets, metric, curve), _report(scaled_sets, metric, curve)
        assert base.crossings[0].brackets  # the property is not vacuous
        assert scaled.order == base.order
        assert _brackets(scaled) == _brackets(base)
        for b, s in zip(base.entries, scaled.entries):
            assert _bits([s.omega]) == _bits([b.omega])
            if metric == "npv":
                assert _bits([s.threshold, s.call, s.put]) == _bits(
                    [factor * b.threshold, factor * b.call, factor * b.put]
                )
            else:
                assert _bits([s.threshold]) == _bits([b.threshold])


@pytest.mark.parametrize("factor", [3.0, 0.7, 1e3])
def test_scaling_every_flow_by_a_general_factor(factor):
    curve = YieldCurve.from_csv(DEMO_DIR / "curve_flat5.csv")
    base_sets = _demo_pair()
    scaled_sets = tuple(_scaled(s, factor) for s in base_sets)
    k = 8 * (base_sets[0].horizon + 2) * EPS
    for base, scaled in zip(base_sets, scaled_sets):
        growth = np.array(curve.growth_factors[: base.horizon])
        magnitude = np.abs(base.flows[:, 0]) + np.abs(base.flows[:, 1:] / growth).sum(axis=1)
        b, s = evaluate_set(base, curve), evaluate_set(scaled, curve)
        for name in ("npv", "total_outlay"):
            assert np.all(np.abs(getattr(s, name) - factor * getattr(b, name)) <= k * factor * magnitude)
        mu_base = b.annualized_return
        assert np.all(np.abs(s.annualized_return - mu_base) <= k * (1.0 + np.abs(mu_base)))
    for metric, scale in (("npv", factor), ("mu", 1.0)):
        base_projects = [evaluate_project(x, curve, metric) for x in base_sets]
        scaled_projects = [evaluate_project(x, curve, metric) for x in scaled_sets]
        base = rank_with_crossings(base_projects, HURDLE, GRID)
        scaled = rank_with_crossings(scaled_projects, HURDLE, GRID)
        assert scaled.order == base.order
        entries = {e.project_id: e for e in scaled.entries}
        for b, bp, sp in zip(base.entries, base_projects, scaled_projects):
            s = entries[b.project_id]
            moved = float(np.max(np.abs(sp.distribution.values - scale * bp.distribution.values)))
            threshold_moved = abs(s.threshold - scale * b.threshold)
            assert threshold_moved <= k * scale * abs(b.threshold)
            bounds = [moved + threshold_moved + 16 * EPS * (new + scale * old)
                      for new, old in ((s.call, b.call), (s.put, b.put))]
            assert abs(s.call - scale * b.call) <= bounds[0]
            assert abs(s.put - scale * b.put) <= bounds[1]
            rel_call, rel_put = bounds[0] / (scale * b.call), bounds[1] / (scale * b.put)
            assert abs(s.omega - b.omega) <= b.omega * (rel_call + rel_put + 2 * EPS) / (1.0 - rel_put)
        width = (GRID[1] - GRID[0]) / 1024.0
        for bc, sc in zip(base.crossings, scaled.crossings):
            assert bc.brackets  # the property is not vacuous
            assert len(sc.brackets) == len(bc.brackets)
            for (lo, hi), (slo, shi) in zip(bc.brackets, sc.brackets):
                assert max(lo, slo) - min(hi, shi) <= width


@st.composite
def long_curves(draw) -> YieldCurve:
    """A curve over tenors 1..30 from one-period forwards in [-50%, 50%]."""
    forwards = draw(hnp.arrays(float, LONGEST, elements=st.floats(-0.5, 0.5)))
    rates = np.cumprod(1.0 + forwards) ** (1.0 / np.arange(1, LONGEST + 1)) - 1.0
    return YieldCurve(tuple(rates.tolist()))


def _padded(scenario_set: ScenarioSet, horizon: int) -> ScenarioSet:
    flows = np.zeros((len(scenario_set), horizon + 1))
    flows[:, : scenario_set.horizon + 1] = scenario_set.flows
    return ScenarioSet(scenario_set.project_id, flows, scenario_set.weights)


@PROPERTY
@given(long_curves(), st.integers(3, LONGEST))
def test_zero_padding_to_a_longer_lifespan(curve, horizon):
    delta_mu_zero = HurdleSpec("delta_mu", 0.0)
    for base in _demo_pair():
        padded = _padded(base, horizon)
        short, long = evaluate_set(base, curve), evaluate_set(padded, curve)
        growth = np.array(curve.growth_factors[: base.horizon])
        magnitude = np.abs(base.flows[:, 0]) + np.abs(base.flows[:, 1:] / growth).sum(axis=1)
        tolerance = 8 * (horizon + 2) * EPS * magnitude
        assert np.all(np.abs(long.npv - short.npv) <= tolerance)
        assert np.all(np.abs(long.total_outlay - short.total_outlay) <= tolerance)
        for scenario_set in (base, padded):
            project = evaluate_project(scenario_set, curve, "npv")
            assert rank([project], delta_mu_zero).entries[0].threshold == 0.0


@pytest.mark.parametrize("rate", [-0.20, 0.0, 0.05, 0.30])
def test_zero_padding_raises_the_npv_threshold_at_a_positive_premium(rate):
    curve = YieldCurve.flat(rate, LONGEST)
    for base in _demo_pair():
        short = evaluate_project(base, curve, "npv")
        for horizon in (3, 5, 12, LONGEST):
            long = evaluate_project(_padded(base, horizon), curve, "npv")
            for delta_mu in (0.01, 0.10, 0.50):
                hurdle = HurdleSpec("delta_mu", delta_mu)
                short_entry, long_entry = (rank([p], hurdle).entries[0] for p in (short, long))
                assert long_entry.threshold > short_entry.threshold
                assert long_entry.omega <= short_entry.omega
