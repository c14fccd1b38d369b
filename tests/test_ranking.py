import math
import sys
import warnings

import numpy as np
import pytest

from invomega import (
    DomainError,
    EmpiricalDistribution,
    EngineError,
    GeneratorSpec,
    HurdleSpec,
    InputError,
    ScenarioSet,
    YieldCurve,
    evaluate_project,
    generate,
    hurdle_crossings,
    omega,
    omega_vs_hurdle,
    rank,
    rank_with_crossings,
    thresholds,
)
from invomega import ranking
from invomega.metrics import HURDLE_KINDS, metric_thresholds
from invomega.ranking import ProjectEvaluation, write_ranking_csv

import reference
from reference import rows
from conftest import hurdle_threshold


def project_from_dist(pid, values, basis=100.0, horizon=2, metric="npv", weights=None,
                      curve=YieldCurve.flat(0.05, 2)):  # the flat5 fixture's curve
    return ProjectEvaluation(
        project_id=pid,
        metric=metric,
        distribution=EmpiricalDistribution(values, weights),
        basis_outlay=basis,
        horizon=horizon,
        curve=curve,
    )


def mu_project(pid, mean, std, n=4000, seed=1) -> GeneratorSpec:
    """One-period project whose mu distribution is Normal(mean-1, std) in return terms."""
    return GeneratorSpec(
        family="normal",
        mean=mean,
        std=std,
        template=(-100.0, None),
        n=n,
        seed=seed,
        skew=0.0,
    )


class TestEvaluateProject:
    def test_npv_metric_collects_npvs(self, flat5):
        ss = ScenarioSet.uniform(
            "p",
            [(-200.0, 350.0, -100.0), (-200.0, 300.0, -100.0)],
        )
        project = evaluate_project(ss, flat5, "npv")
        outlay = 200.0 + 100.0 / 1.05**2
        expected = sorted([350.0 / 1.05 - outlay, 300.0 / 1.05 - outlay])
        assert project.distribution.sorted_values.tolist() == pytest.approx(expected)
        assert project.basis_outlay == pytest.approx(outlay, rel=1e-14)
        assert project.horizon == 2

    def test_unknown_metric(self, flat5):
        ss = ScenarioSet.uniform("p", [(-1.0, 2.0)])
        with pytest.raises(InputError):
            evaluate_project(ss, flat5, "irr")

    def test_hand_built_unknown_metric(self):
        # every metric but "mu" would convert hurdles as npv, so the evaluation refuses it
        with pytest.raises(InputError, match="unknown metric 'irr'"):
            project_from_dist("p", [0.0, 1.0], metric="irr")


class TestOwnCurve:
    """A project converts every hurdle on the curve it was evaluated on."""

    SLOPED = YieldCurve((0.02, 0.06))

    @pytest.mark.parametrize("metric", ["npv", "mu"])
    def test_threshold_is_the_conversion_on_the_evaluation_curve(self, metric):
        ss = ScenarioSet.uniform("p", [(-200.0, 350.0, -100.0), (-200.0, 300.0, -100.0)])
        project = evaluate_project(ss, self.SLOPED, metric)
        assert project.curve is self.SLOPED
        hurdle = HurdleSpec("delta_mu", 0.1)

        def converted(curve):
            return metric_thresholds(
                "delta_mu", [0.1], project.metric, project.basis_outlay, curve, project.horizon
            )[0]

        lam = rank([project], hurdle).entries[0].threshold
        assert lam.hex() == converted(self.SLOPED).hex()
        assert lam != converted(YieldCurve.flat(0.05, 2))


class TestRank:
    def test_single_project(self):
        project = project_from_dist("only", [0.0, 100.0])
        report = rank([project], HurdleSpec("npv_star", 25.0))
        assert report.order == ("only",)
        assert report.entries[0].omega == pytest.approx(3.0)
        assert report.entries[0].accept

    def test_std_undefined_where_the_variance_overflows(self):
        report = rank([project_from_dist("wide", [-1e200, 1e200])], HurdleSpec("npv_star", 0.0))
        assert report.to_dict()["entries"][0]["summary"] == {
            "mean": 0.0, "median": -1e200, "std": None, "skewness": None,
        }

    def test_duplicate_project_ties_break_on_id(self):
        a = project_from_dist("beta", [0.0, 100.0])
        b = project_from_dist("alpha", [0.0, 100.0])
        report = rank([a, b], HurdleSpec("npv_star", 25.0))
        assert report.order == ("alpha", "beta")
        assert report.entries[0].omega == report.entries[1].omega

    @pytest.mark.parametrize("grid", [None, [0.05, 0.1]])
    def test_duplicate_ids_are_refused(self, grid):
        # the id is the last tie-break of the order, so the report needs unique ids
        a = project_from_dist("same", [0.0, 100.0])
        b = project_from_dist("same", [10.0, 50.0])
        hurdle = HurdleSpec("npv_star", 25.0)
        with pytest.raises(InputError, match="two projects have the id 'same'"):
            rank([a, b], hurdle) if grid is None else rank_with_crossings([a, b], hurdle, grid)

    def test_equal_omega_breaks_on_higher_mean(self):
        # B = 25 + 2*(A - 25) scales both call and put by 2: same omega, higher mean
        a = project_from_dist("a", [0.0, 100.0])
        b = project_from_dist("b", [-25.0, 175.0])
        report = rank([a, b], HurdleSpec("npv_star", 25.0))
        assert report.entries[0].omega == report.entries[1].omega
        assert report.order == ("b", "a")

    def test_infinite_sorts_above_finite(self):
        fin = project_from_dist("finite", [0.0, 100.0])
        inf = project_from_dist("sure", [10.0, 10.0])
        report = rank([fin, inf], HurdleSpec("npv_star", 5.0))
        assert report.order == ("sure", "finite")
        assert math.isinf(report.entries[0].omega)
        assert report.entries[0].accept

    def test_two_infinities_break_on_call(self):
        small = project_from_dist("small", [10.0, 10.0])
        large = project_from_dist("large", [20.0, 20.0])
        report = rank([small, large], HurdleSpec("npv_star", 5.0))
        assert report.order == ("large", "small")

    def test_indeterminate_excluded_without_warning(self):
        degenerate = project_from_dist("flatline", [5.0, 5.0])
        normal = project_from_dist("normal", [0.0, 100.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = rank([degenerate, normal], HurdleSpec("npv_star", 5.0))
        assert report.order == ("normal",)
        assert report.excluded == ("flatline",)

    def test_acceptance_flag_is_omega_at_least_one(self):
        rich = project_from_dist("rich", [90.0, 110.0])  # mean 100 >> threshold
        poor = project_from_dist("poor", [-90.0, 10.0])
        report = rank([rich, poor], HurdleSpec("npv_star", 20.0))
        by_id = {e.project_id: e for e in report.entries}
        assert by_id["rich"].accept
        assert not by_id["poor"].accept

    def test_metric_mismatch(self):
        # thresholds on two metrics share no scale: the ranking names both projects
        on_npv = project_from_dist("p", [0.0, 1.0])
        on_mu = project_from_dist("q", [0.0, 1.0], metric="mu")
        for projects in ([on_npv, on_mu], [on_mu, on_npv]):
            with pytest.raises(InputError, match="different metrics") as refused:
                rank(projects, HurdleSpec("delta_mu", 0.1))
            assert "'p'" in str(refused.value) and "'q'" in str(refused.value)

    def test_input_order_invariance(self):
        projects = [
            project_from_dist("a", [0.0, 100.0]),
            project_from_dist("b", [-25.0, 175.0]),
            project_from_dist("c", [40.0, 60.0]),
        ]
        hurdle = HurdleSpec("npv_star", 30.0)
        forward = rank(projects, hurdle)
        backward = rank(list(reversed(projects)), hurdle)
        assert forward.order == backward.order

    def test_omega_descending_along_order(self):
        projects = [
            project_from_dist("a", [0.0, 100.0]),
            project_from_dist("b", [20.0, 90.0]),
            project_from_dist("c", [40.0, 60.0]),
        ]
        report = rank(projects, HurdleSpec("npv_star", 45.0))
        omegas = [e.omega for e in report.entries]
        assert omegas == sorted(omegas, reverse=True)

    def test_empty_project_list(self):
        with pytest.raises(InputError):
            rank([], HurdleSpec("npv_star", 0.0))


def test_shared_delta_mu_maps_to_project_specific_npv_thresholds():
    small = project_from_dist("small", [0.0, 1.0], basis=100.0)
    large = project_from_dist("large", [0.0, 1.0], basis=300.0)
    hurdle = HurdleSpec("delta_mu", 0.10)
    lam_small, lam_large = (rank([p], hurdle).entries[0].threshold for p in (small, large))
    assert lam_large == pytest.approx(3.0 * lam_small, rel=1e-12)
    on_mu = project_from_dist("m", [0.0], basis=100.0, metric="mu")
    mu_small = rank([on_mu], hurdle).entries[0].threshold
    assert mu_small == pytest.approx(0.15, abs=1e-12)


@pytest.mark.parametrize("kind", HURDLE_KINDS)
@pytest.mark.parametrize("value", [30.0, 0.0, -50.0, -100.0, -2000.0])
def test_npv_floor_needs_no_return_threshold(flat5, kind, value):
    # at or below minus the outlay of 100 no mu* exists, but the NPV threshold does
    project, hurdle = project_from_dist("p", [0.0, 1.0], basis=100.0), HurdleSpec(kind, value)
    on_mu = project_from_dist("p", [0.0, 1.0], basis=100.0, metric="mu")
    if kind in ("npv_star", "profit_star"):
        lam = rank([project], hurdle).entries[0].threshold
        if value > -100.0:
            assert lam == thresholds(hurdle, 100.0, flat5, 2).npv_star
        else:
            with pytest.raises(DomainError, match=r"^return undefined: 1 \+ npv/outlay = .* is not positive$"):
                thresholds(hurdle, 100.0, flat5, 2)
            assert lam == (value if kind == "npv_star" else (value + 100.0) / flat5.growth_factor(2) - 100.0)
    # one conversion: each metric's threshold is bitwise the field of ``thresholds``, and a
    # hurdle it refuses is refused on the mu metric (on both, for a return hurdle) naming p
    try:
        expected = thresholds(hurdle, 100.0, flat5, 2)
    except EngineError as exc:
        for refusing in (on_mu, project) if kind in ("delta_mu", "mu_star") else (on_mu,):
            with pytest.raises(EngineError) as refused:
                rank([refusing], hurdle)
            assert type(refused.value) is type(exc)
            assert str(refused.value) == f"p: {exc}"
        return
    for p, field in ((project, expected.npv_star), (on_mu, expected.mu_star)):
        assert rank([p], hurdle).entries[0].threshold.hex() == field.hex()


def test_first_order_dominance_implies_omega_dominance():
    base = EmpiricalDistribution([3.0, 10.0, 25.0, 60.0])
    better = EmpiricalDistribution([8.0, 15.0, 30.0, 65.0])  # base + 5
    for lam in np.linspace(0.0, 70.0, 29):
        a, b = omega(base, float(lam)), omega(better, float(lam))
        if a.is_indeterminate or b.is_indeterminate:
            continue
        if np.isinf(b.omega):
            continue
        assert not np.isinf(a.omega)
        assert b.omega >= a.omega


class TestOmegaVsHurdle:
    def test_riskless_degenerate_project(self, flat5):
        # a pure replication has a point-mass mu distribution at r_T
        notionals = (10.0, 20.0)
        flows = [-30.0] + [b * flat5.growth_factor(t) for t, b in enumerate(notionals, 1)]
        ss = ScenarioSet.uniform("riskless", [flows] * 2)
        project = evaluate_project(ss, flat5, "mu")
        points = rows(omega_vs_hurdle(project, [0.03, 0.07]))
        assert np.isinf(points[0].omega)  # below r_T
        assert points[1].omega == 0.0  # above r_T: no upside left

    def test_riskless_point_mass_exact_on_zero_curve(self):
        # at zero rates the replication round-trips exactly, so mu == r_T == 0
        curve = YieldCurve.flat(0.0, 2)
        ss = ScenarioSet.uniform("riskless", [(-30.0, 10.0, 20.0)] * 2)
        project = evaluate_project(ss, curve, "mu")
        points = rows(omega_vs_hurdle(project, [-0.01, 0.0, 0.01]))
        assert np.isinf(points[0].omega)
        assert points[1].is_indeterminate
        assert points[2].omega == 0.0

    def test_curve_nonincreasing_both_metrics(self, flat5):
        ss = generate(
            GeneratorSpec(
                family="shifted_lognormal",
                mean=350.0,
                std=40.0,
                skew=2.7,
                template=(-200.0, None, -100.0),
                n=2000,
                seed=3,
            ),
            project_id="demo",
        )
        for metric in ("npv", "mu"):
            project = evaluate_project(ss, flat5, metric)
            points = rows(omega_vs_hurdle(project, np.arange(0.0, 0.25, 0.02).tolist()))
            finite = [p.omega for p in points if not np.isinf(p.omega)]
            assert finite == sorted(finite, reverse=True)

    @pytest.mark.parametrize("metric", ["mu", "npv"])
    def test_both_metrics_reject_the_same_hurdles(self, metric):
        # mu* <= -1 has no NPV equivalent and (1+mu*)^T overflows at 1e200, on either metric
        a = project_from_dist("a", [0.0, 1.0], metric=metric)
        b = project_from_dist("b", [0.5, 0.6], metric=metric)
        for grid, error, says in (
            ([-2.0, 0.1], DomainError, "annualized return must exceed -1, got -2.0$"),
            ([0.1, 1e200], InputError, r"annualized return 1e\+200 overflows \(1\+mu\)\^2$"),
        ):
            with pytest.raises(error, match=says):
                omega_vs_hurdle(a, grid)
            with pytest.raises(error, match=says):
                hurdle_crossings(a, b, grid)

    @pytest.mark.parametrize("metric", ["mu", "npv"])
    def test_points_are_omega_at_each_metric_threshold(self, metric):
        project = project_from_dist("p", [-40.0, 0.05, 0.1, 25.0], metric=metric)
        grid = [0.0, 0.05, 0.1, 0.2]
        points = rows(omega_vs_hurdle(project, grid))
        for mu_star, point in zip(grid, points):
            lam = hurdle_threshold(project, HurdleSpec("mu_star", mu_star))
            assert point == omega(project.distribution, lam)

    def test_grid_validation(self):
        project = project_from_dist("p", [0.0, 1.0], metric="mu")
        with pytest.raises(InputError):
            omega_vs_hurdle(project, [])
        with pytest.raises(InputError):
            omega_vs_hurdle(project, [0.1, 0.1])


class TestHurdleCrossings:
    @pytest.mark.parametrize("id_b", ["a", "b"])
    def test_refuses_two_metrics_as_rank_does(self, id_b):
        # Omega on npv and Omega on mu do not compare, so their brackets would mean nothing
        a = project_from_dist("a", [0.0, 1.0], metric="npv")
        b = project_from_dist(id_b, [0.5, 0.6], metric="mu")
        says = f"projects 'a' and '{id_b}' were evaluated on different metrics, 'npv' and 'mu'"
        for refused in (lambda: rank([a, b], HurdleSpec("mu_star", 0.1)),
                        lambda: hurdle_crossings(a, b, [0.0, 0.1, 0.2, 0.3])):
            with pytest.raises(InputError) as exc:
                refused()
            assert type(exc.value) is InputError and str(exc.value) == says

    def test_synthetic_pair_single_flip(self):
        curve = YieldCurve.flat(0.05, 1)
        narrow = evaluate_project(
            generate(mu_project("narrow", 110.0, 1.0, seed=31), "narrow"), curve, "mu"
        )
        wide = evaluate_project(
            generate(mu_project("wide", 112.0, 6.0, seed=32), "wide"), curve, "mu"
        )
        grid = np.arange(0.06, 0.161, 0.005).tolist()
        brackets = hurdle_crossings(narrow, wide, grid)
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert hi - lo <= 0.005 / 1024.0
        # verify the flip by direct omega evaluation at the bracket ends
        def omegas(mu_star):
            ln = hurdle_threshold(narrow, HurdleSpec("mu_star", mu_star))
            lw = hurdle_threshold(wide, HurdleSpec("mu_star", mu_star))
            return omega(narrow.distribution, ln), omega(wide.distribution, lw)

        at_lo = omegas(lo)
        at_hi = omegas(hi)
        assert at_lo[0].omega > at_lo[1].omega
        assert at_hi[0].omega <= at_hi[1].omega

    def test_rank_with_crossings_report(self):
        curve = YieldCurve.flat(0.05, 1)
        narrow = evaluate_project(
            generate(mu_project("narrow", 110.0, 1.0, seed=31), "narrow"), curve, "mu"
        )
        wide = evaluate_project(
            generate(mu_project("wide", 112.0, 6.0, seed=32), "wide"), curve, "mu"
        )
        grid = np.arange(0.06, 0.161, 0.005).tolist()
        report = rank_with_crossings([narrow, wide], HurdleSpec("mu_star", 0.08), grid)
        assert len(report.crossings) == 1
        assert report.crossings[0].project_a == "narrow"
        assert len(report.crossings[0].brackets) == 1
        # below the flip the narrow project must rank first
        assert report.order[0] == "narrow"

    def test_single_project_grid_is_checked(self):
        # one project makes no pair, but crossing_on_grid checks the grid before it looks
        project = project_from_dist("only", [0.0, 100.0])
        for grid, message in (([], "empty"), ([0.2, 0.1], "strictly increasing")):
            with pytest.raises(InputError, match=message):
                rank_with_crossings([project], HurdleSpec("npv_star", 25.0), grid)

    @pytest.mark.parametrize("ids", [("short", "long"), ("short", "other", "long")])
    def test_a_later_project_refusing_a_grid_point_is_named(self, ids):
        # (1+mu)^5 overflows at mu = 1e70 where (1+mu)^2 does not: only the last project refuses
        curve = YieldCurve.flat(0.05, 5)
        projects = [
            project_from_dist(pid, [0.0, 1.0], metric="mu", horizon=5 if pid == "long" else 2, curve=curve)
            for pid in ids
        ]
        with pytest.raises(InputError) as excinfo:
            rank_with_crossings(projects, HurdleSpec("mu_star", 0.1), [1e70, 2e70])
        assert type(excinfo.value) is InputError
        assert str(excinfo.value) == "long: annualized return 1e+70 overflows (1+mu)^5"

    @pytest.mark.parametrize("metric", ["mu", "npv"])
    def test_midpoints_refuse_no_hurdle_the_grid_accepted(self, monkeypatch, metric):
        # the grid's ends are the first and last mu* that the five-period project accepts;
        # every hurdle converted after the grid lies between them, so none is refused
        curve = YieldCurve.flat(0.05, 5)
        long = project_from_dist("long", [-0.5, 0.1, 0.12, 0.3], horizon=5, metric=metric, curve=curve)

        def refused(mu):
            try:
                omega_vs_hurdle(long, [mu])
            except EngineError:
                return True
            return False

        accepted, top = 1.0, 2.0 * sys.float_info.max ** 0.2  # bisect for the last accepted mu*
        while math.nextafter(accepted, top) < top:
            mid = 0.5 * (accepted + top)
            accepted, top = (accepted, mid) if refused(mid) else (mid, top)
        bottom = math.nextafter(-1.0, 0.0)
        assert refused(-1.0) and not refused(bottom) and not refused(accepted) and refused(top)
        specs = [("narrow", 110.0, 1.0, 31), ("wide", 112.0, 6.0, 32), ("medium", 111.0, 3.0, 33)]
        projects = [
            evaluate_project(generate(mu_project(pid, mean, std, n=2000, seed=seed), pid),
                             YieldCurve.flat(0.05, 1), metric)
            for pid, mean, std, seed in specs
        ]
        grid = [bottom, *np.arange(0.06, 0.161, 0.005).tolist(), accepted]
        converted = []

        def spy(kind, values, *args):
            converted.append(values)
            return metric_thresholds(kind, values, *args)

        monkeypatch.setattr(ranking, "metric_thresholds", spy)
        report = rank_with_crossings([*projects, long], HurdleSpec("mu_star", 0.08), grid)
        assert sum(len(pair.brackets) for pair in report.crossings) >= 2
        # one conversion per project at the hurdle, then one on the grid, then the midpoints
        assert converted[4:8] == [grid] * 4
        midpoints = [v for values in converted[8:] for v in values]
        assert midpoints and all(grid[0] < v < grid[-1] for v in midpoints)

    def test_swept_without_pairs_is_not_unswept(self):
        # one project has no pairs: the sweep's report keeps an empty crossings key
        project = project_from_dist("only", [0.0, 100.0])
        hurdle = HurdleSpec("npv_star", 25.0)
        swept = rank_with_crossings([project], hurdle, [0.1, 0.2])
        assert swept.crossings == () and swept.to_dict()["crossings"] == ()
        unswept = rank([project], hurdle)
        assert unswept.crossings is None and "crossings" not in unswept.to_dict()

    @pytest.mark.parametrize("metric", ["mu", "npv"])
    def test_shared_curves_give_the_per_pair_brackets(self, metric):
        # the report's brackets, from the array solver, must equal those of the
        # scalar reference, which makes one Omega lookup per point and project
        curve = YieldCurve.flat(0.05, 1)
        specs = [
            ("narrow", mu_project("narrow", 110.0, 1.0, n=3000, seed=31)),
            ("wide", mu_project("wide", 112.0, 6.0, n=3000, seed=32)),
            ("medium", mu_project("medium", 111.0, 3.0, n=3000, seed=33)),
            (
                "two-point",
                GeneratorSpec("discrete", 111.5, 4.0, 0.5, (-100.0, None), 3000, 34),
            ),
        ]
        projects = [evaluate_project(generate(spec, pid), curve, metric) for pid, spec in specs]
        grid = np.arange(0.06, 0.161, 0.005).tolist()
        report = rank_with_crossings(projects, HurdleSpec("mu_star", 0.08), grid)

        def at(project):
            return lambda m: omega(
                project.distribution, hurdle_threshold(project, HurdleSpec("mu_star", m))
            )

        pairs = [(a, b) for i, a in enumerate(projects) for b in projects[i + 1:]]
        assert len(report.crossings) == len(pairs)
        for pair, (a, b) in zip(report.crossings, pairs):
            assert (pair.project_a, pair.project_b) == (a.project_id, b.project_id)
            assert list(pair.brackets) == reference.crossing_on_grid(grid, at(a), at(b))
        assert sum(len(pair.brackets) for pair in report.crossings) >= 3


def test_ranking_csv_layout(tmp_path):
    report = rank(
        [project_from_dist("a", [0.0, 100.0]), project_from_dist("b", [40.0, 60.0])],
        HurdleSpec("npv_star", 45.0),
    )
    path = tmp_path / "rank.csv"
    write_ranking_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,project,omega,call,put,threshold,accept"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


def test_report_json_round_trip():
    import json

    report = rank([project_from_dist("a", [0.0, 100.0])], HurdleSpec("delta_mu", 0.1))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["order"] == ["a"]
    assert payload["hurdle"] == {"kind": "delta_mu", "value": 0.1}
    assert payload["entries"][0]["project_id"] == "a"
