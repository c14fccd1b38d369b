import math
import random

import numpy as np
import pytest

from invomega import (
    DomainError,
    InputError,
    ScenarioSet,
    YieldCurve,
    radr_valuation,
    vertical_average,
)
from invomega.radr import MODE_CANONICAL, MODE_TABLE4
from reference import mean_flows, mean_npv_at_r, mirr, npv_at_k, radr_tolerance


def single(flows, project_id="p") -> ScenarioSet:
    return ScenarioSet.uniform(project_id, [flows])


def random_canonical_set(rng: random.Random) -> ScenarioSet:
    horizon = rng.randint(1, 6)
    n = rng.randint(1, 5)
    scenarios = []
    for _ in range(n):
        flows = [-rng.uniform(10, 500)]
        flows += [rng.uniform(0, 300) for _ in range(horizon)]
        scenarios.append(flows)
    return ScenarioSet.uniform("p", scenarios)


def random_weighted_set(rng: random.Random, mixed: bool) -> ScenarioSet:
    """N <= 40 weighted rows over T = 1..30; later flows of both signs when ``mixed``."""
    horizon = rng.randint(1, 30)
    n = rng.randint(1, 40)
    low = -250.0 if mixed else 0.0
    scenarios = [[-rng.uniform(10, 500)] + [rng.uniform(low, 300) for _ in range(horizon)] for _ in range(n)]
    raw = [rng.uniform(0.1, 2.0) for _ in range(n)]
    total = math.fsum(raw)
    return ScenarioSet("p", scenarios, [w / total for w in raw])


class TestVerticalAverage:
    def test_midpoint(self):
        ss = ScenarioSet.uniform(
            "p",
            [
                (-200.0, 300.0, -100.0),
                (-200.0, 400.0, -100.0),
            ],
        )
        assert vertical_average(ss) == (-200.0, 350.0, -100.0)

    def test_single_scenario_is_itself(self):
        ss = single((-10.0, 5.0, 7.0))
        assert vertical_average(ss) == (-10.0, 5.0, 7.0)

    def test_weighted(self):
        ss = ScenarioSet(
            "p",
            ((-100.0, 0.0), (-100.0, 400.0)),
            (0.75, 0.25),
        )
        assert vertical_average(ss) == (-100.0, 100.0)

    def test_generated_sample_mean_within_three_standard_errors(self):
        from invomega import GeneratorSpec, generate

        spec = GeneratorSpec(
            family="shifted_lognormal",
            mean=350.0,
            std=40.0,
            skew=2.7,
            template=(-200.0, None, -100.0),
            n=1000,
            seed=555,
        )
        means = vertical_average(generate(spec))
        assert means[0] == -200.0 and means[2] == -100.0
        assert abs(means[1] - 350.0) <= 4.0  # 3 * sigma / sqrt(n) with sigma = 40


class TestRadrValuation:
    def test_canonical_reference(self):
        result = radr_valuation(single((-200.0, 350.0)), riskless_rate=0.05, radr_rate=0.15)
        assert result.mean_npv_at_r == pytest.approx(-200.0 + 350.0 / 1.05, rel=1e-14)
        assert result.mean_npv_at_r == pytest.approx(133.33, abs=5e-3)
        assert result.lambda_radr == pytest.approx(
            (1.0 - 1.05 / 1.15) * 350.0 / 1.05, rel=1e-14
        )
        assert result.lambda_radr == pytest.approx(28.99, abs=5e-3)
        assert result.npv_at_k == pytest.approx(-200.0 + 350.0 / 1.15, rel=1e-14)
        assert result.npv_at_k == pytest.approx(104.35, abs=5e-3)
        assert result.accept

    def test_identity_mean_premium_minus_lambda(self):
        rng = random.Random(61)
        for _ in range(200):
            ss = random_canonical_set(rng)
            r = rng.uniform(-0.1, 0.2)
            k = r + rng.uniform(0.0, 0.4)
            result = radr_valuation(ss, r, k)
            assert result.mean_npv_at_r - result.lambda_radr == pytest.approx(
                result.npv_at_k, rel=1e-10, abs=1e-9
            )

    def test_alpha_in_unit_interval(self):
        result = radr_valuation(single((-10.0, 5.0, 5.0, 5.0)), riskless_rate=0.02, radr_rate=0.3)
        for t, a in enumerate(result.alpha_factors, start=1):
            assert 0.0 < a <= 1.0
            assert a == pytest.approx((1.02 / 1.3) ** t, rel=1e-14)

    def test_k_equals_r_degenerates(self):
        result = radr_valuation(single((-50.0, 60.0)), 0.05, 0.05)
        assert result.alpha_factors == (1.0,)
        assert result.lambda_radr == 0.0
        assert result.npv_at_k == pytest.approx(result.mean_npv_at_r, rel=1e-14)

    def test_certainty_equivalent_pv_identity(self):
        # mean flow discounted at k equals its riskless part discounted at r
        rng = random.Random(67)
        for _ in range(100):
            ss = random_canonical_set(rng)
            r = rng.uniform(-0.05, 0.15)
            k = r + rng.uniform(0.0, 0.3)
            result = radr_valuation(ss, r, k)
            for t, (a, f) in enumerate(zip(result.alpha_factors, vertical_average(ss)[1:]), 1):
                assert f / (1.0 + k) ** t == pytest.approx(
                    a * f / (1.0 + r) ** t, rel=1e-12, abs=1e-12
                )
                # riskless + risky parts recombine to the full flow
                assert a * f + (1.0 - a) * f == pytest.approx(f, rel=1e-14, abs=1e-14)

    def test_lambda_nonnegative_and_zero_iff_no_spread(self):
        rng = random.Random(71)
        for _ in range(100):
            ss = random_canonical_set(rng)
            r = rng.uniform(-0.05, 0.15)
            k = r + rng.uniform(0.0, 0.3)
            result = radr_valuation(ss, r, k)
            assert result.lambda_radr >= -1e-12
            if k > r and any(f > 0.0 for f in vertical_average(ss)[1:]):
                assert result.lambda_radr > 0.0

    def test_table4_mode_mixed_stream(self):
        result = radr_valuation(single((-200.0, 350.0, -100.0)), 0.05, 0.15, mode=MODE_TABLE4)
        expected = -200.0 + 350.0 / 1.15 - 100.0 / 1.15**2
        assert result.npv_at_k == pytest.approx(expected, rel=1e-14)
        assert round(result.npv_at_k) == 29
        assert result.mirr_at_k == pytest.approx(
            math.sqrt(350.0 * 1.15 / (200.0 + 100.0 / 1.15**2)) - 1.0, rel=1e-14
        )
        assert result.mean_npv_at_r - result.lambda_radr == pytest.approx(
            result.npv_at_k, rel=1e-12
        )

    def test_table4_mode_left_stream(self):
        result = radr_valuation(single((-200.0, 355.0, -100.0)), 0.05, 0.15, mode=MODE_TABLE4)
        assert round(result.npv_at_k) == 33
        assert result.mirr_at_k == pytest.approx(0.2171, abs=1e-4)

    def test_canonical_mode_rejects_mixed_stream(self):
        with pytest.raises(DomainError, match=r"^scenario 0 has negative flow -100.0 at t=2; only a t=0 outlay may be negative$"):
            radr_valuation(single((-200.0, 350.0, -100.0)), 0.05, 0.15)

    def test_rate_validation(self):
        ss = single((-10.0, 20.0))
        with pytest.raises(InputError):
            radr_valuation(ss, 0.10, 0.05)  # k < r
        with pytest.raises(InputError):
            radr_valuation(ss, -1.5, 0.05)
        with pytest.raises(InputError):
            radr_valuation(ss, 0.05, 0.15, mode="fancy")

    def test_mirr_at_k_is_the_reference_mirr_of_the_mean_flows(self):
        # the kernel's mu of the mean flows on the flat-k curve against the scalar MIRR(k, k);
        # canonical sets in both modes, sets with later outflows in paper-table4
        rng = random.Random(79)
        for i in range(600):
            ss = random_canonical_set(rng)
            mode = MODE_CANONICAL if i % 3 == 0 else MODE_TABLE4
            if i % 3 == 2:
                flows = ss.flows.copy()
                flows[:, 1:] -= [[rng.uniform(0, 250) for _ in range(ss.horizon)] for _ in range(len(ss))]
                ss = ScenarioSet.uniform("mixed", flows)
            r = rng.uniform(-0.1, 0.2)
            k = r + rng.uniform(0.0, 0.4)
            expected = mirr(vertical_average(ss), k, k)
            assert radr_valuation(ss, r, k, mode).mirr_at_k == pytest.approx(expected, rel=1e-10)

    def test_npvs_are_the_reference_sums_of_the_mean_flows(self):
        # linearity: the kernel's NPV at r of the mean flows is the weighted mean of the scenario
        # NPVs at r, and its NPV at k is the fsum of the mean flows over the growth factors;
        # weighted canonical sets in both modes, sets with later outflows in paper-table4
        rng = random.Random(83)
        for i in range(600):
            ss = random_weighted_set(rng, mixed=i % 3 == 2)
            mode = MODE_CANONICAL if i % 3 == 0 else MODE_TABLE4
            r = rng.uniform(-0.1, 0.2)
            k = r + rng.uniform(0.0, 0.4)
            curve_r, curve_k = YieldCurve.flat(r, ss.horizon), YieldCurve.flat(k, ss.horizon)
            flows, weights = ss.flows.tolist(), ss.weights.tolist()
            means, means_abs = mean_flows(flows, weights), mean_flows(np.abs(ss.flows).tolist(), weights)
            result = radr_valuation(ss, r, k, mode)
            assert abs(result.mean_npv_at_r - mean_npv_at_r(ss.flows, ss.weights, curve_r)) <= (
                radr_tolerance(means_abs, curve_r)
            )
            assert abs(result.npv_at_k - npv_at_k(means, curve_k)) <= radr_tolerance(means_abs, curve_k)


def chain_margins(ss: ScenarioSet, r: float, k: float) -> tuple[float, float, float]:
    """The margins of the three acceptance predicates on ``radr_valuation``'s output:
    NPV(mean|k), MIRR(mean|k) - k and mean NPV(r) - lambda_radr."""
    v = radr_valuation(ss, r, k)
    return v.npv_at_k, v.mirr_at_k - k, v.mean_npv_at_r - v.lambda_radr


class TestEquivalenceChain:
    """On canonical flows NPV(mean|k) > 0 <=> MIRR(mean|k) > k <=> mean NPV(r) > lambda_radr."""

    def test_reference_case_all_true(self):
        radr_input = (single((-200.0, 350.0)), 0.05, 0.15)
        assert all(m > 0.0 for m in chain_margins(*radr_input))
        assert radr_valuation(*radr_input).accept

    def test_boundary_all_false_at_equality(self):
        radr_input = (single((-200.0, 200.0)), 0.0, 0.0)
        assert chain_margins(*radr_input) == (0.0, 0.0, 0.0)
        assert not radr_valuation(*radr_input).accept

    def test_randomized_canonical_chain(self):
        rng = random.Random(73)
        for _ in range(1000):
            ss = random_canonical_set(rng)
            r = rng.uniform(-0.05, 0.15)
            k = r + rng.uniform(0.0, 0.35)
            margins = chain_margins(ss, r, k)
            assert len({m > 0.0 for m in margins}) == 1, margins
            # brute-force re-evaluation of the first predicate
            means = vertical_average(ss)
            npv_k = means[0] + sum(
                f / (1.0 + k) ** t for t, f in enumerate(means[1:], 1)
            )
            assert (margins[0] > 0.0) == (npv_k > 0.0)


def test_modes_agree_on_canonical_flows():
    ss = single((-120.0, 60.0, 80.0))
    strict = radr_valuation(ss, 0.03, 0.12, mode=MODE_CANONICAL)
    loose = radr_valuation(ss, 0.03, 0.12, mode=MODE_TABLE4)
    assert strict.npv_at_k == loose.npv_at_k
    assert strict.mirr_at_k == loose.mirr_at_k
    assert strict.lambda_radr == loose.lambda_radr
