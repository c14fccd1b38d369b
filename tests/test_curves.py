import math
import random
from fractions import Fraction

import pytest

from invomega import ForwardCurve, InputError, TenorOutOfRangeError, YieldCurve


def random_curve(rng: random.Random, horizon: int) -> YieldCurve:
    return YieldCurve(tuple(rng.uniform(-0.5, 1.0) for _ in range(horizon)))


class TestCumulativeRate:
    def test_one_period_equals_annual(self, flat5):
        assert flat5.cumulative_rate(1) == pytest.approx(0.05, rel=1e-15)

    def test_two_periods_compound(self, flat5):
        assert flat5.cumulative_rate(2) == pytest.approx(0.1025, abs=1e-15)

    def test_zero_rate_curve(self):
        curve = YieldCurve.flat(0.0, 5)
        for t in range(1, 6):
            assert curve.cumulative_rate(t) == 0.0

    def test_out_of_range(self, flat5):
        with pytest.raises(TenorOutOfRangeError):
            flat5.cumulative_rate(3)
        with pytest.raises(TenorOutOfRangeError):
            flat5.cumulative_rate(0)


class TestDiscountFactor:
    def test_reference(self, flat5):
        assert flat5.discount_factor(2) == pytest.approx(1.0 / 1.05**2, rel=1e-15)
        assert f"{flat5.discount_factor(2):.6f}" == "0.907029"

    def test_time_zero_is_one(self, flat5):
        assert flat5.discount_factor(0) == 1.0

    def test_zero_rate_curve(self):
        assert YieldCurve.flat(0.0, 7).discount_factor(7) == 1.0

    def test_positive(self):
        rng = random.Random(4)
        for _ in range(100):
            curve = random_curve(rng, rng.randint(1, 10))
            for t in range(curve.horizon + 1):
                assert curve.discount_factor(t) > 0.0


class TestForwardCurve:
    def test_flat_one_period(self, flat5):
        fwd = flat5.forward_curve(2)
        assert fwd.rate_from(1) == pytest.approx(0.05, rel=1e-12)

    def test_steep_curve(self):
        curve = YieldCurve((0.04, 0.05))
        fwd = curve.forward_curve(2)
        assert fwd.rate_from(1) == pytest.approx(1.05**2 / 1.04 - 1.0, rel=1e-15)
        assert fwd.rate_from(1) == pytest.approx(0.0600961538, abs=1e-9)

    def test_maturity_leg_is_exactly_zero(self):
        rng = random.Random(7)
        for _ in range(20):
            curve = random_curve(rng, rng.randint(1, 8))
            assert curve.forward_curve(curve.horizon).rate_from(curve.horizon) == 0.0

    def test_horizon_out_of_range(self, flat5):
        with pytest.raises(TenorOutOfRangeError):
            flat5.forward_curve(3)

    def test_replication_identity(self):
        # (1+r_t)^t * (1+Rf_{T-t}) must equal (1+r_T)^T for every tenor
        rng = random.Random(11)
        for _ in range(200):
            curve = random_curve(rng, rng.randint(1, 12))
            horizon = rng.randint(1, curve.horizon)
            fwd = curve.forward_curve(horizon)
            top = curve.growth_factor(horizon)
            for t in range(1, horizon + 1):
                lhs = curve.growth_factor(t) * (1.0 + fwd.rate_from(t))
                assert lhs == pytest.approx(top, rel=1e-12)

    def test_roll_keeps_full_precision_on_a_falling_curve(self):
        # g_12 / g_t is far below 1 for t >= 8: rolling by 1 plus a stored rate g_12 / g_t - 1
        # would lose relative precision there (5.5e-12 at t = 8)
        rates = [0.05] * 12
        rates[7], rates[11] = 0.5, -0.5
        curve = YieldCurve(tuple(rates))
        fwd = curve.forward_curve(12)
        eps = Fraction(math.ulp(1.0))
        for t in range(1, 13):
            unit = [0.0] * 12
            unit[t - 1] = 1.0
            exact = Fraction(curve.growth_factor(12)) / Fraction(curve.growth_factor(t))
            assert abs(Fraction(fwd.future_value(unit)) - exact) <= 4 * eps * exact, t

    def test_flat_curve_forwards(self):
        curve = YieldCurve.flat(0.07, 6)
        fwd = curve.forward_curve(6)
        for t in range(1, 7):
            assert fwd.rate_from(t) == pytest.approx(1.07 ** (6 - t) - 1.0, rel=1e-12)


class TestFutureValue:
    def test_single_early_inflow(self, flat5):
        assert flat5.forward_curve(2).future_value((350.0, 0.0)) == pytest.approx(
            367.5, rel=1e-15
        )

    def test_all_zero(self, flat5):
        assert flat5.forward_curve(2).future_value((0.0, 0.0)) == 0.0

    def test_maturity_cash_not_reinvested(self):
        rng = random.Random(3)
        for _ in range(20):
            curve = random_curve(rng, rng.randint(2, 8))
            fwd = curve.forward_curve(curve.horizon)
            flows = [0.0] * curve.horizon
            flows[-1] = 123.456
            assert fwd.future_value(flows) == 123.456

    def test_length_mismatch(self, flat5):
        with pytest.raises(InputError):
            flat5.forward_curve(2).future_value((1.0, 2.0, 3.0))

    def test_negative_flow_rejected(self, flat5):
        with pytest.raises(InputError):
            flat5.forward_curve(2).future_value((-1.0, 0.0))

    def test_linearity(self):
        rng = random.Random(19)
        for _ in range(100):
            curve = random_curve(rng, rng.randint(1, 8))
            fwd = curve.forward_curve(curve.horizon)
            f = [rng.uniform(0, 500) for _ in range(curve.horizon)]
            g = [rng.uniform(0, 500) for _ in range(curve.horizon)]
            a, b = rng.uniform(0, 3), rng.uniform(0, 3)
            combined = fwd.future_value([a * x + b * y for x, y in zip(f, g)])
            expected = a * fwd.future_value(f) + b * fwd.future_value(g)
            assert combined == pytest.approx(expected, rel=1e-12, abs=1e-9)


class TestValidation:
    def test_empty_curve(self):
        with pytest.raises(InputError):
            YieldCurve(())

    def test_rate_at_or_below_minus_one(self):
        with pytest.raises(InputError):
            YieldCurve((-1.0,))
        with pytest.raises(InputError):
            YieldCurve((0.05, -1.5))

    def test_non_finite_rate(self):
        with pytest.raises(InputError):
            YieldCurve((math.nan,))

    def test_growth_factor_overflow(self):
        with pytest.raises(InputError, match="tenor 1208"):
            YieldCurve.flat(0.8, 1300)

    def test_growth_factors_are_python_powers(self):
        rng = random.Random(9)
        curve = random_curve(rng, 30)
        assert curve.growth_factors == tuple(
            (1.0 + r) ** t for t, r in enumerate(curve.rates, start=1)
        )

    def test_forward_curve_maturity_leg_enforced(self):
        with pytest.raises(InputError):
            ForwardCurve(horizon=2, factors=(1.05, 1.01))


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("tenor,rate\n1,0.04\n2,0.05\n3,0.055\n")
        curve = YieldCurve.from_csv(path)
        assert curve.rates == (0.04, 0.05, 0.055)

    def test_rows_any_order(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("tenor,rate\n2,0.05\n1,0.04\n")
        assert YieldCurve.from_csv(path).rates == (0.04, 0.05)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "curve.csv"
        # an extra header column is refused even over two-cell rows
        for text in ("maturity,rate\n1,0.04\n", "tenor,rate,extra\n1,0.04\n"):
            path.write_text(text)
            with pytest.raises(InputError, match="expected header 'tenor,rate'"):
                YieldCurve.from_csv(path)

    def test_gap_in_tenors(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("tenor,rate\n1,0.04\n3,0.05\n")
        with pytest.raises(InputError, match="contiguous"):
            YieldCurve.from_csv(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("tenor,rate\n1,abc\n")
        with pytest.raises(InputError, match="row 2"):
            YieldCurve.from_csv(path)

    def test_refused_rate_names_the_file(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("tenor,rate\n1,0.05\n2,-2\n")
        with pytest.raises(InputError) as exc:
            YieldCurve.from_csv(path)
        assert str(exc.value).startswith(f"{path}: rate at tenor 2 must exceed -1")
