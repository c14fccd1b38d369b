"""The riskless replication of one flow row, ``replicate``, against the scalar
references in ``reference.py``, and the checks of ``ScenarioSet``."""

import math
import random

import numpy as np
import pytest

from invomega import InputError, ScenarioSet, YieldCurve, replicate

import reference

EPS = math.ulp(1.0)
ZERO2 = YieldCurve.flat(0.0, 2)


def random_scenario(rng: random.Random, horizon: int) -> tuple[float, ...]:
    flows = [-rng.uniform(1, 500)]
    flows += [rng.uniform(-300, 500) for _ in range(horizon)]
    return tuple(flows)


def random_curve(rng: random.Random, horizon: int) -> YieldCurve:
    return YieldCurve(tuple(rng.uniform(-0.3, 0.8) for _ in range(horizon)))


class TestSplit:
    """At zero rates every growth factor is 1, so the replication sums are the
    sums of the sign split: the outflows for the zero coupons, the inflows for
    the bonds."""

    def test_mixed_stream(self, mixed_stream):
        assert reference.split(mixed_stream) == (200.0, [350.0, 0.0], [0.0, 100.0])
        rep = replicate(mixed_stream, ZERO2)
        assert (rep.additional_outlay, rep.total_outlay, rep.certainty_equivalent_outlay) == (
            100.0, 300.0, 350.0
        )

    def test_outlay_only(self):
        rep = replicate((-100.0, 0.0, 0.0), ZERO2)
        assert (rep.additional_outlay, rep.total_outlay, rep.certainty_equivalent_outlay) == (
            0.0, 100.0, 0.0
        )

    def test_zero_initial_flow(self):
        rep = replicate((0.0, -50.0, 50.0), ZERO2)
        assert (rep.additional_outlay, rep.total_outlay, rep.certainty_equivalent_outlay) == (
            50.0, 50.0, 50.0
        )

    def test_recombine_is_identity(self):
        rng = random.Random(23)
        for _ in range(200):
            horizon = rng.randint(1, 8)
            flows = random_scenario(rng, horizon)
            outlay, plus, minus = reference.split(flows)
            for t in range(1, horizon + 1):
                assert plus[t - 1] - minus[t - 1] == flows[t]
                assert plus[t - 1] * minus[t - 1] == 0.0
                assert plus[t - 1] >= 0.0 and minus[t - 1] >= 0.0
            rep = replicate(flows, YieldCurve.flat(0.0, horizon))
            tolerance = horizon * EPS * (math.fsum(plus) + math.fsum(minus))
            assert abs(rep.certainty_equivalent_outlay - math.fsum(plus)) <= tolerance
            assert abs(rep.additional_outlay - math.fsum(minus)) <= tolerance
            assert rep.total_outlay == outlay + rep.additional_outlay


class TestReplicate:
    def test_reference_decomposition(self, mixed_stream, flat5):
        rep = replicate(mixed_stream, flat5)
        assert rep.additional_outlay == pytest.approx(100.0 / 1.05**2, rel=1e-15)
        assert rep.total_outlay == pytest.approx(200.0 + 100.0 / 1.05**2, rel=1e-15)
        assert f"{rep.additional_outlay:.4f}" == "90.7029"
        assert f"{rep.total_outlay:.4f}" == "290.7029"
        assert rep.certainty_equivalent_outlay == pytest.approx(350.0 / 1.05, rel=1e-15)

    def test_all_positive_stream(self, flat5):
        rep = replicate((-50.0, 10.0, 20.0), flat5)
        assert rep.additional_outlay == 0.0
        assert rep.total_outlay == 50.0

    def test_zero_rate_curve(self):
        rep = replicate((-10.0, 0.0, -100.0), ZERO2)
        assert rep.additional_outlay == 100.0

    def test_portfolio_reproduces_flows(self):
        # the zero coupons and bonds cost what the reference prices each flow at, within
        # 8 (T+2) eps of the magnitude of the discounted terms
        rng = random.Random(31)
        for _ in range(100):
            horizon = rng.randint(1, 10)
            curve = random_curve(rng, horizon)
            flows = random_scenario(rng, horizon)
            total_outlay, ce_outlay = reference.replication(flows, curve)
            scale = abs(flows[0]) + math.fsum(map(abs, reference.discounted(flows[1:], curve)))
            rep = replicate(flows, curve)
            assert abs(rep.total_outlay - total_outlay) <= 8 * (horizon + 2) * EPS * scale
            assert abs(rep.certainty_equivalent_outlay - ce_outlay) <= 8 * (horizon + 2) * EPS * scale

    def test_horizon_mismatch(self, mixed_stream):
        with pytest.raises(InputError, match="^curve covers tenors 1..1 but the scenario needs tenor 2$"):
            replicate(mixed_stream, YieldCurve.flat(0.05, 1))

    def test_weight_independent(self, mixed_stream, flat5):
        # the decomposition only sees the scenario, never the set weights
        assert replicate(mixed_stream, flat5) == replicate(mixed_stream, flat5)


class TestPresentValue:
    """The present value of inflows F_1..F_T is the certainty-equivalent outlay of
    the row with F_0 = 0."""

    def test_reference(self, flat5):
        pv = replicate((0.0, 350.0, 0.0), flat5).certainty_equivalent_outlay
        assert pv == pytest.approx(350.0 / 1.05, rel=1e-15)

    def test_zeros(self, flat5):
        rep = replicate((0.0, 0.0, 0.0), flat5)
        assert rep.certainty_equivalent_outlay == 0.0 and rep.total_outlay == 0.0

    def test_one_period_round_number(self):
        pv = replicate((0.0, 105.0), YieldCurve.flat(0.05, 1)).certainty_equivalent_outlay
        assert pv == pytest.approx(100.0, abs=1e-12)

    def test_horizon_mismatch(self, flat5):
        with pytest.raises(InputError, match="^curve covers tenors 1..2 but the scenario needs tenor 3$"):
            replicate((0.0, 1.0, 2.0, 3.0), flat5)


def test_pv_fv_consistency():
    # the inflows rolled to the horizon by the locked factors are worth their PV grown at
    # r_T, and both agree with the reference roll
    rng = random.Random(47)
    for _ in range(200):
        horizon = rng.randint(1, 10)
        curve = random_curve(rng, horizon)
        flows = random_scenario(rng, horizon)
        positive = reference.split(flows)[1]
        fv = math.fsum(f * g for f, g in zip(positive, curve.forward_curve(horizon)))
        grown = replicate(flows, curve).certainty_equivalent_outlay * curve.growth_factor(horizon)
        assert fv == pytest.approx(grown, rel=1e-10, abs=1e-9)
        assert fv == reference.future_value(positive, curve)


class TestScenarioValidation:
    """``replicate`` checks its row as ``ScenarioSet`` checks its row 0."""

    def test_positive_initial_flow_rejected(self):
        with pytest.raises(InputError) as exc:
            replicate((10.0, 50.0), YieldCurve.flat(0.05, 1))
        assert str(exc.value) == "scenario 0: F_0 must be the initial outlay (<= 0), got 10.0"

    def test_too_short(self):
        with pytest.raises(InputError, match="T >= 1"):
            replicate((-10.0,), YieldCurve.flat(0.05, 1))

    def test_non_finite(self):
        with pytest.raises(InputError) as exc:
            replicate((-10.0, math.inf), YieldCurve.flat(0.05, 1))
        assert str(exc.value) == "scenario 0: flow at t=1 is not finite: inf"


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
        with pytest.raises(InputError, match="^scenario 1 has horizon 2, expected 1$"):
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
