import math
import random
from fractions import Fraction

import pytest

from invomega import InputError, YieldCurve, load_scenarios

from conftest import evaluate_row


def random_curve(rng: random.Random, horizon: int) -> YieldCurve:
    return YieldCurve(tuple(rng.uniform(-0.5, 1.0) for _ in range(horizon)))


def rolled(inflows, curve: YieldCurve) -> float:
    """Inflows F_1..F_T rolled to T by the locked factors of ``forward_curve(T)``."""
    return math.fsum(f * g for f, g in zip(inflows, curve.forward_curve(len(inflows))))


def kernel_future_value(flows, curve: YieldCurve) -> float:
    """FV+ of one row as the evaluation kernel reaches it: terminal profit plus total outlay."""
    result = evaluate_row(flows, curve)
    return result.terminal_profit + result.total_outlay


class TestCumulativeRate:
    """The cumulative rate R_t = (1+r_t)^t - 1 is the growth factor less one."""

    def test_one_period_equals_annual(self, flat5):
        assert flat5.growth_factor(1) - 1.0 == pytest.approx(0.05, rel=1e-15)

    def test_two_periods_compound(self, flat5):
        assert flat5.growth_factor(2) - 1.0 == pytest.approx(0.1025, abs=1e-15)

    def test_zero_rate_curve(self):
        curve = YieldCurve.flat(0.0, 5)
        for t in range(1, 6):
            assert curve.growth_factor(t) == 1.0

    def test_out_of_range(self, flat5):
        with pytest.raises(InputError, match=r"^tenor 3 outside curve range 1\.\.2$"):
            flat5.growth_factor(3)
        with pytest.raises(InputError, match=r"^tenor -1 outside curve range 1\.\.2$"):
            flat5.growth_factor(-1)
        with pytest.raises(InputError, match=r"^tenor 0 outside curve range 1\.\.2$"):
            flat5.growth_factor(0)


class TestDiscountFactor:
    """The discount factor of tenor t is 1 / (1+r_t)^t."""

    def test_reference(self, flat5):
        assert 1.0 / flat5.growth_factor(2) == pytest.approx(1.0 / 1.05**2, rel=1e-15)
        assert f"{1.0 / flat5.growth_factor(2):.6f}" == "0.907029"

    def test_zero_rate_curve(self):
        assert YieldCurve.flat(0.0, 7).growth_factor(7) == 1.0

    def test_positive(self):
        rng = random.Random(4)
        for _ in range(100):
            curve = random_curve(rng, rng.randint(1, 10))
            for t in range(1, curve.horizon + 1):
                assert 0.0 < curve.growth_factor(t) < math.inf


class TestForwardCurve:
    def test_flat_one_period(self, flat5):
        assert flat5.forward_curve(2)[0] - 1.0 == pytest.approx(0.05, rel=1e-12)

    def test_steep_curve(self):
        factors = YieldCurve((0.04, 0.05)).forward_curve(2)
        assert factors[0] - 1.0 == pytest.approx(1.05**2 / 1.04 - 1.0, rel=1e-15)
        assert factors[0] - 1.0 == pytest.approx(0.0600961538, abs=1e-9)

    def test_maturity_leg_is_exactly_zero(self):
        rng = random.Random(7)
        for _ in range(20):
            curve = random_curve(rng, rng.randint(1, 8))
            for horizon in range(1, curve.horizon + 1):
                factors = curve.forward_curve(horizon)
                assert len(factors) == horizon and factors[-1] == 1.0

    def test_horizon_out_of_range(self, flat5):
        with pytest.raises(InputError, match=r"^tenor 3 outside curve range 1\.\.2$"):
            flat5.forward_curve(3)

    def test_replication_identity(self):
        # (1+r_t)^t * (1+Rf_{T-t}) must equal (1+r_T)^T for every tenor
        rng = random.Random(11)
        for _ in range(200):
            curve = random_curve(rng, rng.randint(1, 12))
            horizon = rng.randint(1, curve.horizon)
            factors = curve.forward_curve(horizon)
            top = curve.growth_factor(horizon)
            for t in range(1, horizon + 1):
                assert curve.growth_factor(t) * factors[t - 1] == pytest.approx(top, rel=1e-12)

    def test_roll_keeps_full_precision_on_a_falling_curve(self):
        # g_12 / g_t is far below 1 for t >= 8: rolling by 1 plus a stored rate g_12 / g_t - 1
        # would lose relative precision there (5.5e-12 at t = 8)
        rates = [0.05] * 12
        rates[7], rates[11] = 0.5, -0.5
        curve = YieldCurve(tuple(rates))
        factors = curve.forward_curve(12)
        eps = Fraction(math.ulp(1.0))
        for t in range(1, 13):
            exact = Fraction(curve.growth_factor(12)) / Fraction(curve.growth_factor(t))
            assert abs(Fraction(factors[t - 1]) - exact) <= 4 * eps * exact, t

    def test_flat_curve_forwards(self):
        factors = YieldCurve.flat(0.07, 6).forward_curve(6)
        for t in range(1, 7):
            assert factors[t - 1] - 1.0 == pytest.approx(1.07 ** (6 - t) - 1.0, rel=1e-12)


class TestFutureValue:
    """The horizon value FV+ of the inflows: rolled by the locked factors, and as the
    kernel reaches it, the inflows' present value grown at (1+r_T)^T."""

    def test_single_early_inflow(self, flat5):
        assert rolled((350.0, 0.0), flat5) == pytest.approx(367.5, rel=1e-15)
        assert kernel_future_value((-100.0, 350.0, 0.0), flat5) == pytest.approx(367.5, rel=1e-14)

    def test_all_zero(self, flat5):
        assert rolled((0.0, 0.0), flat5) == 0.0
        result = evaluate_row((-100.0, 0.0, 0.0), flat5)
        assert result.terminal_return == -1.0  # no inflow reaches the horizon

    def test_maturity_cash_not_reinvested(self):
        rng = random.Random(3)
        for _ in range(20):
            curve = random_curve(rng, rng.randint(2, 8))
            flows = [0.0] * curve.horizon
            flows[-1] = 123.456
            assert rolled(flows, curve) == 123.456
            assert kernel_future_value((-1.0, *flows), curve) == pytest.approx(123.456, rel=1e-14)

    def test_linearity(self):
        rng = random.Random(19)
        for _ in range(100):
            curve = random_curve(rng, rng.randint(1, 8))
            f = [rng.uniform(0, 500) for _ in range(curve.horizon)]
            g = [rng.uniform(0, 500) for _ in range(curve.horizon)]
            a, b = rng.uniform(0, 3), rng.uniform(0, 3)
            combined = [a * x + b * y for x, y in zip(f, g)]
            expected = a * rolled(f, curve) + b * rolled(g, curve)
            assert rolled(combined, curve) == pytest.approx(expected, rel=1e-12, abs=1e-9)
            assert kernel_future_value((-1.0, *combined), curve) == pytest.approx(
                expected, rel=1e-12, abs=1e-9
            )


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
        # extreme rates, near -1 and near the overflow bound, still leave the horizon's
        # own factor exactly 1: cash received at the horizon is never reinvested
        for rates in ((-0.999999, 0.8), (0.8,) * 1200, (0.3, -0.999999, 5.0)):
            curve = YieldCurve(rates)
            for horizon in (1, curve.horizon):
                factors = curve.forward_curve(horizon)
                assert len(factors) == horizon and factors[-1] == 1.0
                assert all(0.0 < f < math.inf for f in factors)


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

    def test_whole_tenors_read_in_any_float_spelling(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("tenor,rate\n2.0,0.05\n1,0.04\n3e0,0.055\n")
        assert YieldCurve.from_csv(path).rates == (0.04, 0.05, 0.055)

    def test_fractional_tenor_is_not_contiguous(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("tenor,rate\n1,0.04\n1.5,0.05\n")
        with pytest.raises(InputError, match=r"^.*: tenors must be contiguous 1\.\.T, got \[1\.0, 1\.5\]$"):
            YieldCurve.from_csv(path)

    @pytest.mark.parametrize("cell,bad", [("abc", "abc"), ("", ""), ("0x10", "0x10"), ('"1,5"', "1,5")],
                             ids=["word", "empty", "hex", "quoted-comma"])
    def test_both_readers_name_a_bad_cell_alike(self, tmp_path, cell, bad):
        curve, scenarios = tmp_path / "curve.csv", tmp_path / "s.csv"
        curve.write_text(f"tenor,rate\n1,0.05\n2,{cell}\n")
        scenarios.write_text(f"t0,t1\n-1,2\n-1,{cell}\n")
        for read, path in ((YieldCurve.from_csv, curve), (load_scenarios, scenarios)):
            with pytest.raises(InputError) as exc:
                read(path)
            assert str(exc.value) == f"{path}: row 3: non-numeric value {bad!r}"

    def test_refused_rate_names_the_file(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("tenor,rate\n1,0.05\n2,-2\n")
        with pytest.raises(InputError) as exc:
            YieldCurve.from_csv(path)
        assert str(exc.value).startswith(f"{path}: rate at tenor 2 must exceed -1")
