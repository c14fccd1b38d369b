import math
import random

import numpy as np
import pytest

from invomega import (
    CashFlowScenario,
    HorizonMismatchError,
    InputError,
    ScenarioSet,
    YieldCurve,
    present_value,
    replicate,
    split,
)


def random_scenario(rng: random.Random, horizon: int) -> CashFlowScenario:
    flows = [-rng.uniform(1, 500)]
    flows += [rng.uniform(-300, 500) for _ in range(horizon)]
    return CashFlowScenario(tuple(flows))


class TestSplit:
    def test_mixed_stream(self, mixed_stream):
        parts = split(mixed_stream)
        assert parts.initial_outlay == 200.0
        assert parts.positive == (350.0, 0.0)
        assert parts.negative == (0.0, 100.0)

    def test_outlay_only(self):
        parts = split(CashFlowScenario((-100.0, 0.0, 0.0)))
        assert parts.initial_outlay == 100.0
        assert parts.positive == (0.0, 0.0)
        assert parts.negative == (0.0, 0.0)

    def test_zero_initial_flow(self):
        parts = split(CashFlowScenario((0.0, -50.0, 50.0)))
        assert parts.initial_outlay == 0.0
        assert parts.positive == (0.0, 50.0)
        assert parts.negative == (50.0, 0.0)

    def test_recombine_is_identity(self):
        rng = random.Random(23)
        for _ in range(200):
            scenario = random_scenario(rng, rng.randint(1, 8))
            parts = split(scenario)
            for t in range(1, scenario.horizon + 1):
                plus, minus = parts.positive[t - 1], parts.negative[t - 1]
                assert plus - minus == scenario.flows[t]
                assert plus * minus == 0.0
                assert plus >= 0.0 and minus >= 0.0


class TestReplicate:
    def test_reference_decomposition(self, mixed_stream, flat5):
        rep = replicate(mixed_stream, flat5)
        assert rep.additional_outlay == pytest.approx(100.0 / 1.05**2, rel=1e-15)
        assert rep.total_outlay == pytest.approx(200.0 + 100.0 / 1.05**2, rel=1e-15)
        assert f"{rep.additional_outlay:.4f}" == "90.7029"
        assert f"{rep.total_outlay:.4f}" == "290.7029"
        assert rep.bond_notionals[0] == pytest.approx(350.0 / 1.05, rel=1e-15)
        assert rep.bond_notionals[1] == 0.0
        assert rep.certainty_equivalent_outlay == pytest.approx(350.0 / 1.05, rel=1e-15)

    def test_all_positive_stream(self, flat5):
        rep = replicate(CashFlowScenario((-50.0, 10.0, 20.0)), flat5)
        assert rep.additional_outlay == 0.0
        assert rep.total_outlay == 50.0

    def test_zero_rate_curve(self):
        curve = YieldCurve.flat(0.0, 2)
        rep = replicate(CashFlowScenario((-10.0, 0.0, -100.0)), curve)
        assert rep.additional_outlay == 100.0

    def test_portfolio_reproduces_flows(self, flat5):
        # each partial outlay / bond notional grows back to the flow it covers
        rng = random.Random(31)
        for _ in range(100):
            horizon = rng.randint(1, 10)
            curve = YieldCurve(tuple(rng.uniform(-0.3, 0.8) for _ in range(horizon)))
            scenario = random_scenario(rng, horizon)
            parts = split(scenario)
            rep = replicate(scenario, curve)
            for t in range(1, horizon + 1):
                growth = curve.growth_factor(t)
                assert rep.partial_outlays[t - 1] * growth == pytest.approx(
                    parts.negative[t - 1], rel=1e-10, abs=1e-10
                )
                assert rep.bond_notionals[t - 1] * growth == pytest.approx(
                    parts.positive[t - 1], rel=1e-10, abs=1e-10
                )
            assert rep.total_outlay == pytest.approx(
                parts.initial_outlay + math.fsum(rep.partial_outlays), rel=1e-12
            )

    def test_horizon_mismatch(self, mixed_stream):
        with pytest.raises(HorizonMismatchError, match="tenor 2"):
            replicate(mixed_stream, YieldCurve.flat(0.05, 1))

    def test_weight_independent(self, mixed_stream, flat5):
        # the decomposition only sees the scenario, never the set weights
        assert replicate(mixed_stream, flat5) == replicate(mixed_stream, flat5)


class TestPresentValue:
    def test_reference(self, flat5):
        assert present_value((350.0, 0.0), flat5) == pytest.approx(350.0 / 1.05, rel=1e-15)

    def test_zeros(self, flat5):
        assert present_value((0.0, 0.0), flat5) == 0.0

    def test_one_period_round_number(self):
        assert present_value((105.0,), YieldCurve.flat(0.05, 1)) == pytest.approx(
            100.0, abs=1e-12
        )

    def test_horizon_mismatch(self, flat5):
        with pytest.raises(HorizonMismatchError):
            present_value((1.0, 2.0, 3.0), flat5)


def test_pv_fv_consistency():
    # reinvesting the inflows to the horizon must be worth their PV grown at r_T
    rng = random.Random(47)
    for _ in range(200):
        horizon = rng.randint(1, 10)
        curve = YieldCurve(tuple(rng.uniform(-0.3, 0.8) for _ in range(horizon)))
        scenario = random_scenario(rng, horizon)
        parts = split(scenario)
        fv = curve.forward_curve(horizon).future_value(parts.positive)
        pv = present_value(parts.positive, curve)
        assert fv == pytest.approx(pv * curve.growth_factor(horizon), rel=1e-10, abs=1e-9)


class TestScenarioValidation:
    def test_positive_initial_flow_rejected(self):
        with pytest.raises(InputError, match="F_0"):
            CashFlowScenario((10.0, 50.0))

    def test_too_short(self):
        with pytest.raises(InputError):
            CashFlowScenario((-10.0,))

    def test_non_finite(self):
        with pytest.raises(InputError):
            CashFlowScenario((-10.0, math.inf))


class TestScenarioSet:
    def test_uniform_weights(self):
        scenarios = [(-1.0, 1.0) for _ in range(4)]
        ss = ScenarioSet.uniform("p", scenarios)
        assert ss.weights.tolist() == [0.25] * 4
        assert len(ss) == 4
        assert ss.horizon == 1

    def test_weights_must_sum_to_one(self):
        scenarios = ((-1.0, 1.0), (-1.0, 2.0))
        with pytest.raises(InputError, match="sum to 1"):
            ScenarioSet("p", scenarios, (0.3, 0.3))

    def test_negative_weight(self):
        scenarios = ((-1.0, 1.0), (-1.0, 2.0))
        with pytest.raises(InputError):
            ScenarioSet("p", scenarios, (-0.5, 1.5))

    def test_mixed_horizons_rejected(self):
        scenarios = ((-1.0, 1.0), (-1.0, 1.0, 2.0))
        with pytest.raises(HorizonMismatchError):
            ScenarioSet.uniform("p", scenarios)

    def test_empty(self):
        with pytest.raises(InputError):
            ScenarioSet.uniform("p", [])

    def test_read_only_flows_kept_writeable_flows_copied(self):
        flows = np.array([[-1.0, 1.0], [-1.0, 2.0]])
        copied = ScenarioSet.uniform("p", flows)
        assert not np.shares_memory(copied.flows, flows) and flows.flags.writeable
        flows.setflags(write=False)
        assert ScenarioSet.uniform("p", flows).flows is flows
        assert ScenarioSet.uniform("p", flows.astype(np.float32)).flows.dtype == np.float64

    def test_large_uniform_set_passes_weight_check(self):
        n = 99999
        scenarios = [(-1.0, 1.0)] * n
        assert len(ScenarioSet.uniform("p", scenarios)) == n

    @pytest.mark.parametrize(
        "flows, weights, message",
        [
            ([(-1.0, 2.0), (-1.0, math.nan)], None, "line 11: flow at t=1 is not finite: nan"),
            ([(-1.0, 2.0), (3.0, 2.0)], None, "line 11: F_0 must be the initial outlay (<= 0), got 3.0"),
            ([(-1.0, 2.0), (-1.0, 3.0)], (1.5, -0.5), "line 11: weight must be finite and >= 0, got -0.5"),
            ([(-1.0, 2.0), (-1.0, 3.0, 4.0)], None, "line 11 has horizon 2, expected 1"),
        ],
        ids=["non-finite", "positive-F0", "weight", "ragged"],
    )
    def test_row_name_names_the_row_in_every_check(self, flows, weights, message):
        with pytest.raises(InputError) as exc:
            ScenarioSet("p", flows, weights, lambda i: f"line {10 + i}")
        assert str(exc.value) == message

    def test_default_row_name_is_the_index(self):
        with pytest.raises(InputError, match=r"^scenario 1: weight must be finite"):
            ScenarioSet("p", [(-1.0, 2.0), (-1.0, 3.0)], (1.0, math.nan))
