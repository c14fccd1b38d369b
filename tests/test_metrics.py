import math
import random

import pytest

from invomega import (
    DomainError,
    HurdleSpec,
    InputError,
    ScenarioSet,
    YieldCurve,
    evaluate_set,
    thresholds,
)
from invomega.distributions import weighted_mean
from invomega.metrics import HURDLE_KINDS, metric_thresholds
from invomega.ranking import evaluate_project, rank

from conftest import evaluate_row as evaluate
from reference import mirr


def mu_from_npv(npv: float, basis: float, curve: YieldCurve, horizon: int) -> float:
    """The mu* of one NPV floor: the one-value call of ``metric_thresholds``."""
    return metric_thresholds("npv_star", [npv], "mu", basis, curve, horizon)[0]


def npv_from_mu(mu: float, basis: float, curve: YieldCurve, horizon: int) -> float:
    """The NPV* of one return floor: the one-value call of ``metric_thresholds``."""
    return metric_thresholds("mu_star", [mu], "npv", basis, curve, horizon)[0]


def random_mixed_scenario(rng: random.Random, horizon: int) -> tuple[float, ...]:
    flows = [-rng.uniform(50, 500)]
    flows += [rng.uniform(-200, 600) for _ in range(horizon)]
    # guarantee at least one inflow so returns stay defined
    flows[rng.randint(1, horizon)] = rng.uniform(50, 600)
    return tuple(flows)


class TestEvaluate:
    def test_reference_stream(self, mixed_stream, flat5):
        r = evaluate(mixed_stream, flat5)
        outlay = 200.0 + 100.0 / 1.05**2
        assert r.npv == pytest.approx(350.0 / 1.05 - outlay, rel=1e-14)
        assert r.npv == pytest.approx(42.63, abs=5e-3)
        assert r.terminal_profit == pytest.approx(350.0 * 1.05 - outlay, rel=1e-14)
        assert r.annualized_return == pytest.approx(
            math.sqrt(350.0 * 1.05 / outlay) - 1.0, rel=1e-14
        )
        assert r.annualized_return == pytest.approx(0.1244, abs=5e-5)
        assert r.profitability_index == pytest.approx(0.1466, abs=5e-5)
        assert r.premium_return == pytest.approx(0.1617, abs=5e-5)

    def test_internal_identities(self, flat5):
        rng = random.Random(5)
        for _ in range(300):
            horizon = rng.randint(1, 9)
            curve = YieldCurve(tuple(rng.uniform(-0.2, 0.6) for _ in range(horizon)))
            scenario = random_mixed_scenario(rng, horizon)
            r = evaluate(scenario, curve)
            growth_T = curve.growth_factor(horizon)
            assert (1.0 + r.annualized_return) ** horizon == pytest.approx(
                1.0 + r.terminal_return, rel=1e-10
            )
            assert r.premium_return == pytest.approx(
                growth_T * r.profitability_index, rel=1e-10
            )
            # the premium is exactly the terminal return above the riskless one
            assert r.terminal_return == pytest.approx(
                (growth_T - 1.0) + r.premium_return, rel=1e-10, abs=1e-10
            )
            assert r.terminal_profit == pytest.approx(
                math.fsum(
                    max(f, 0.0) * g for f, g in zip(scenario[1:], curve.forward_curve(horizon))
                )
                - r.total_outlay,
                rel=1e-8,
                abs=1e-8,
            )
            # both NPV forms: PV(F+|R) - I0tot and PV(F|R) - I0
            pv_all = math.fsum(
                f / curve.growth_factor(t) for t, f in enumerate(scenario[1:], 1)
            )
            assert r.npv == pytest.approx(pv_all + scenario[0], rel=1e-10, abs=1e-8)

    def test_pure_riskless_replication_has_zero_premium(self):
        curve = YieldCurve((0.03, 0.05, 0.04))
        notionals = (10.0, 20.0, 30.0)
        flows = [-math.fsum(notionals)]
        flows += [b * curve.growth_factor(t) for t, b in enumerate(notionals, start=1)]
        r = evaluate(flows, curve)
        assert r.npv == pytest.approx(0.0, abs=1e-10)
        assert r.premium_return == pytest.approx(0.0, abs=1e-12)
        assert r.annualized_return == pytest.approx(curve.annual_rate(3), rel=1e-12)

    def test_left_median_stream(self, flat5):
        r = evaluate((-200.0, 370.0, -100.0), flat5)
        assert r.npv == pytest.approx(61.68, abs=5e-3)

    def test_total_loss_reports_minus_one(self, flat5):
        r = evaluate((-100.0, 0.0, -50.0), flat5)
        assert r.terminal_return == -1.0
        assert r.annualized_return == -1.0

    def test_zero_total_outlay(self, flat5):
        with pytest.raises(DomainError, match="^scenario 0: total outlay is zero: returns and PI are undefined$"):
            evaluate((0.0, 50.0, 50.0), flat5)

    def test_curve_too_short(self, mixed_stream):
        with pytest.raises(InputError, match="^curve covers tenors 1..1 but the scenario needs tenor 2$"):
            evaluate(mixed_stream, YieldCurve.flat(0.05, 1))

    def test_npv_monotonic_in_flows(self, flat5):
        base = (-200.0, 350.0, -100.0)
        r0 = evaluate(base, flat5).npv
        for t in (1, 2):
            flows = list(base)
            flows[t] += 10.0
            assert evaluate(flows, flat5).npv > r0
        bigger_outlay = list(base)
        bigger_outlay[0] -= 10.0
        assert evaluate(bigger_outlay, flat5).npv < r0


class TestMuNpvConversion:
    def test_zero_npv_gives_riskless_rate(self, flat5):
        assert mu_from_npv(0.0, 123.0, flat5, 2) == pytest.approx(0.05, rel=1e-14)

    def test_reference_point(self, flat5):
        outlay = 200.0 + 100.0 / 1.05**2
        npv = 350.0 / 1.05 - outlay
        assert mu_from_npv(npv, outlay, flat5, 2) == pytest.approx(0.1244, abs=5e-5)

    def test_threshold_reference(self, flat5):
        outlay = 200.0 + 100.0 / 1.05**2
        npv_star = (1.15**2 / 1.05**2 - 1.0) * outlay
        assert npv_star == pytest.approx(58.01, abs=5e-3)
        assert mu_from_npv(npv_star, outlay, flat5, 2) == pytest.approx(0.15, abs=1e-12)

    def test_monotone_in_npv(self, flat5):
        values = [mu_from_npv(x, 290.7, flat5, 2) for x in (-50.0, 0.0, 25.0, 58.0, 120.0)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(300):
            horizon = rng.randint(1, 10)
            curve = YieldCurve(tuple(rng.uniform(-0.2, 0.6) for _ in range(horizon)))
            basis = rng.uniform(1, 1000)
            npv = rng.uniform(-0.9 * basis, 3 * basis)
            mu = mu_from_npv(npv, basis, curve, horizon)
            back = npv_from_mu(mu, basis, curve, horizon)
            assert back == pytest.approx(npv, rel=1e-10, abs=1e-9)

    def test_batch_is_the_python_float_formula_bitwise(self):
        rng = random.Random(29)
        for _ in range(50):
            horizon = rng.randint(1, 30)
            curve = YieldCurve(tuple(rng.uniform(-0.2, 0.6) for _ in range(horizon)))
            basis = rng.uniform(1, 1000)
            mus = [rng.uniform(-0.99, 2.0) for _ in range(20)]
            g = curve.growth_factor(horizon)
            expected = [((1.0 + mu) ** horizon / g - 1.0) * basis for mu in mus]
            assert metric_thresholds("mu_star", mus, "npv", basis, curve, horizon) == expected
            assert [npv_from_mu(mu, basis, curve, horizon) for mu in mus] == expected
            # every kind on both metrics: the list conversion is its one-value calls, bitwise
            npvs = [mu * basis for mu in mus]  # 1 + npv/basis = 1 + mu > 0
            assert metric_thresholds("npv_star", npvs, "mu", basis, curve, horizon) == [
                mu_from_npv(npv, basis, curve, horizon) for npv in npvs
            ]
            rate = curve.annual_rate(horizon)
            values = {
                "delta_mu": [mu - rate for mu in mus],
                "mu_star": mus,
                "npv_star": npvs,
                "profit_star": [(npv + basis) * g - basis for npv in npvs],
            }
            for kind in HURDLE_KINDS:
                for metric in ("mu", "npv"):
                    got = metric_thresholds(kind, values[kind], metric, basis, curve, horizon)
                    one = [metric_thresholds(kind, [v], metric, basis, curve, horizon)[0]
                           for v in values[kind]]
                    assert [x.hex() for x in got] == [x.hex() for x in one]

    @pytest.mark.parametrize(
        "mus, error, named, says",
        [
            ([0.1, -1.0, 1e200], DomainError, "-1.0", "^annualized return must exceed -1, got -1.0$"),
            ([0.1, 1e200, -2.0], InputError, "1e+200", r"^annualized return 1e\+200 overflows"),
        ],
    )
    def test_batch_error_names_the_first_failing_mu(self, flat5, mus, error, named, says):
        with pytest.raises(error, match=says) as batch:
            metric_thresholds("mu_star", mus, "npv", 290.7, flat5, 2)
        with pytest.raises(error) as scalar:
            npv_from_mu(float(named), 290.7, flat5, 2)
        assert named in str(batch.value)
        assert str(batch.value) == str(scalar.value)

    def test_undefined_when_loss_exceeds_outlay(self, flat5):
        with pytest.raises(DomainError, match=r"^return undefined: 1 \+ npv/outlay = -1.0 is not positive$"):
            mu_from_npv(-200.0, 100.0, flat5, 2)

    def test_basis_must_be_positive(self, flat5):
        with pytest.raises(DomainError, match="^basis outlay must be positive, got 0.0$"):
            mu_from_npv(10.0, 0.0, flat5, 2)


class TestThresholds:
    def test_reference_values(self, flat5):
        outlay = 200.0 + 100.0 / 1.05**2
        ts = thresholds(HurdleSpec("delta_mu", 0.10), outlay, flat5, 2)
        assert ts.mu_star == pytest.approx(0.15, abs=1e-12)
        assert ts.npv_star == pytest.approx((1.15**2 / 1.05**2 - 1.0) * outlay, rel=1e-12)
        assert ts.npv_star == pytest.approx(58.01, abs=5e-3)

    def test_zero_premium(self, flat5):
        ts = thresholds(HurdleSpec("delta_mu", 0.0), 290.7, flat5, 2)
        assert ts.mu_star == pytest.approx(0.05, abs=1e-15)
        assert ts.npv_star == pytest.approx(0.0, abs=1e-10)

    def test_npv_star_inverse_direction(self, flat5):
        ts = thresholds(HurdleSpec("npv_star", 0.0), 290.7, flat5, 2)
        assert ts.mu_star == pytest.approx(0.05, rel=1e-12)  # delta_mu = 0

    def test_mu_star_kind(self, flat5):
        ts = thresholds(HurdleSpec("mu_star", 0.15), 290.7, flat5, 2)
        assert ts.npv_star == pytest.approx((1.15**2 / 1.05**2 - 1.0) * 290.7, rel=1e-12)

    def test_profit_star_kind(self, flat5):
        outlay = 290.7
        npv_ref = 40.0
        profit = (npv_ref + outlay) * 1.05**2 - outlay
        ts = thresholds(HurdleSpec("profit_star", profit), outlay, flat5, 2)
        assert ts.npv_star == pytest.approx(npv_ref, rel=1e-12)
        npv = metric_thresholds("profit_star", [profit], "npv", outlay, flat5, 2)[0]
        assert npv == pytest.approx(npv_ref, rel=1e-12)

    def test_pair_is_consistent(self, flat5):
        rng = random.Random(29)
        for _ in range(100):
            outlay = rng.uniform(10, 1000)
            delta = rng.uniform(0.0, 0.5)
            ts = thresholds(HurdleSpec("delta_mu", delta), outlay, flat5, 2)
            lhs = (1.0 + ts.mu_star) ** 2
            rhs = 1.05**2 * (ts.npv_star / outlay + 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            HurdleSpec("irr_star", 0.1)


def test_threshold_equivalence_per_trajectory(flat5):
    # NPV above its threshold exactly when mu is above its threshold,
    # using each scenario's own outlay basis
    rng = random.Random(37)
    for _ in range(200):
        horizon = rng.randint(1, 6)
        curve = YieldCurve(tuple(rng.uniform(-0.1, 0.4) for _ in range(horizon)))
        scenario = random_mixed_scenario(rng, horizon)
        r = evaluate(scenario, curve)
        ts = thresholds(
            HurdleSpec("delta_mu", rng.uniform(0.0, 0.3)),
            r.total_outlay,
            curve,
            horizon,
        )
        if r.npv == ts.npv_star:
            continue
        assert (r.npv > ts.npv_star) == (r.annualized_return > ts.mu_star)


def test_mean_basis_hurdle_disagrees_on_rows_below_the_basis(flat5):
    # a negative draw adds a zero coupon to its own row's total outlay, so the threshold
    # basis, the weighted mean outlay, lies above the outlay B0 of every other row. A row
    # whose NPV lies between NPV*(B0) and NPV*(basis) clears mu* but not NPV*.
    flows = [(-200.0, x, -100.0) for x in (-100.0, 300.0, 367.0, 369.0, 400.0)]
    scenario_set = ScenarioSet.uniform("stochastic-outlay", flows)
    hurdle = HurdleSpec("delta_mu", 0.10)
    results = evaluate_set(scenario_set, flat5)
    ts = thresholds(hurdle, weighted_mean(results.total_outlay, scenario_set.weights), flat5, 2)
    own = thresholds(hurdle, results.total_outlay[1], flat5, 2)
    assert own.npv_star < 58.01 < ts.npv_star
    disagree = (results.annualized_return > ts.mu_star) & (results.npv < ts.npv_star)
    assert disagree.tolist() == [False, False, True, True, False]
    # the ranking layer converts the hurdle on the same basis
    for metric, threshold in (("npv", ts.npv_star), ("mu", ts.mu_star)):
        project = evaluate_project(scenario_set, flat5, metric)
        assert rank([project], hurdle).entries[0].threshold == threshold


def test_npv_sweep_across_threshold(flat5):
    # sweep the risky inflow so NPV crosses the threshold exactly once
    outlay = 200.0 + 100.0 / 1.05**2
    ts = thresholds(HurdleSpec("delta_mu", 0.10), outlay, flat5, 2)
    for inflow in (300.0, 340.0, 366.0, 366.2, 400.0, 430.0):
        r = evaluate((-200.0, inflow, -100.0), flat5)
        assert (r.npv > ts.npv_star) == (r.annualized_return > ts.mu_star)


class TestMirr:
    def test_reference_streams(self, flat5):
        right = mirr((-200.0, 350.0, -100.0), 0.15, 0.15)
        oracle = math.sqrt(350.0 * 1.15 / (200.0 + 100.0 / 1.15**2)) - 1.0
        assert right == pytest.approx(oracle, rel=1e-14)
        assert right == pytest.approx(0.2085, abs=1e-4)
        left = mirr((-200.0, 355.0, -100.0), 0.15, 0.15)
        assert left == pytest.approx(0.2171, abs=1e-4)

    def test_single_flow(self):
        flows = (-100.0, 110.0)
        assert mirr(flows, 0.15, 0.15) == pytest.approx(0.10, abs=1e-12)
        assert mirr(flows, 0.02, 0.40) == pytest.approx(0.10, abs=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            mirr((0.0, 100.0), 0.1, 0.1)

    @pytest.mark.parametrize(
        "flows",
        [
            (-1e-320, 1.0, 1.0),  # a subnormal outlay: the ratio overflows
            (-1e308, -1e308, 1.0),  # the financed total overflows
        ],
    )
    def test_ratio_outside_the_float_range_raises(self, flows):
        with pytest.raises(OverflowError):
            mirr(flows, 0.15, 0.15)

    def test_rate_bounds(self, mixed_stream):
        with pytest.raises(InputError):
            mirr(mixed_stream, -1.0, 0.1)

    def test_flat_curve_mu_equals_mirr(self):
        rng = random.Random(41)
        for _ in range(300):
            horizon = rng.randint(1, 8)
            rate = rng.uniform(-0.2, 0.5)
            curve = YieldCurve.flat(rate, horizon)
            scenario = random_mixed_scenario(rng, horizon)
            mu = evaluate(scenario, curve).annualized_return
            assert mu == pytest.approx(mirr(scenario, rate, rate), rel=1e-10, abs=1e-12)
