import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from invomega import (
    EmpiricalDistribution,
    GeneratorSpec,
    HorizonMismatchError,
    InputError,
    ScenarioParseError,
    SeededStream,
    generate,
    load_project,
    load_scenarios,
    moment_match,
    read_project,
    summarize,
    write_scenarios,
)
import invomega
from invomega import DomainError
from invomega.scenarios import _lognormal_w, _ndtri, _scan_table, generator_spec_from_dict


def spec_right(n=100, seed=555) -> GeneratorSpec:
    return GeneratorSpec(
        family="shifted_lognormal",
        target_mean=350.0,
        target_std=40.0,
        target_skewness=2.7,
        flow_template=(-200.0, None, -100.0),
        n_scenarios=n,
        seed=seed,
    )


class TestSeededStream:
    def test_pure_function_of_seed_and_index(self):
        a = SeededStream(42).raw(range(10))
        b = SeededStream(42).raw(range(10))
        assert np.array_equal(a, b)

    def test_partitioning_matches_serial(self):
        serial = SeededStream(7).raw(range(100))
        left = SeededStream(7).raw(range(50))
        right = SeededStream(7).raw(range(50, 100))
        assert np.array_equal(serial, np.concatenate([left, right]))

    def test_index_order_irrelevant(self):
        stream = SeededStream(9)
        forward = stream.raw([0, 1, 2, 3])
        shuffled = stream.raw([3, 1, 0, 2])
        assert np.array_equal(np.sort(forward), np.sort(shuffled))
        assert forward[1] == shuffled[1]

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededStream(1).raw(range(8)), SeededStream(2).raw(range(8)))

    def test_draw_dimension(self):
        stream = SeededStream(5)
        assert not np.array_equal(stream.raw(range(8), draw=0), stream.raw(range(8), draw=1))

    def test_uniforms_strictly_inside_unit_interval(self):
        u = SeededStream(11).uniforms(range(10000))
        assert u.min() > 0.0 and u.max() < 1.0

    def test_normals_are_standardish(self):
        z = SeededStream(13).normals(range(200000))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_seed_must_be_int(self):
        with pytest.raises(InputError):
            SeededStream(1.5)

    @pytest.mark.parametrize("seed", [True, False])
    def test_boolean_seed_refused(self, seed):
        with pytest.raises(InputError, match="bool"):
            SeededStream(seed)


class TestNdtri:
    """The Cephes port against scipy.special.ndtri, which wraps the C original."""

    @staticmethod
    def assert_bitwise(u):
        ndtri = pytest.importorskip("scipy.special").ndtri
        ours, ref = _ndtri(u), ndtri(u)
        assert ours.dtype == np.float64 and ours.shape == ref.shape
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64))

    def test_counter_draws(self):
        self.assert_bitwise(SeededStream(2).uniforms(np.arange(1_000_000)))

    def test_branch_edges(self):
        e = math.exp(-2.0)
        points = [e, 1.0 - e, math.exp(-32.0), 0.5, 2.0**-54, 1.0 - 2.0**-53, 5e-324]
        for p in points[:3]:
            points += [np.nextafter(p, 0.0), np.nextafter(p, 1.0)]
        self.assert_bitwise(np.array(points))

    def test_log_spaced_sweep(self):
        # reaches the far tail (u < exp(-32)), which counter draws almost never hit
        u = np.geomspace(5e-324, 0.5, 20_000)
        self.assert_bitwise(np.concatenate((u, 1.0 - u)))

    def test_outside_the_open_interval(self):
        z = _ndtri(np.array([0.0, 1.0, -0.0, -1e-300, 1.0 + 2.0**-52, -np.inf, np.inf, np.nan]))
        assert z[:3].tolist() == [-np.inf, np.inf, -np.inf]
        assert np.isnan(z[3:]).all()


class TestMomentMatch:
    @pytest.mark.parametrize(
        "family,mean,std,skew",
        [
            ("shifted_lognormal", 350.0, 40.0, 2.7),
            ("shifted_lognormal", 355.0, 40.0, -2.8),
            ("mirrored_shifted_lognormal", 355.0, 40.0, -2.8),
            ("mirrored_shifted_lognormal", 350.0, 40.0, 2.7),  # mirrors by the sign of skew only
            ("shifted_lognormal", -10.0, 3.0, 0.4),
            ("shifted_lognormal", 0.0, 1.0, 8.0),
            ("normal", 5.0, 2.0, 0.0),
            ("discrete", 350.0, 40.0, 2.7),
            ("discrete", 10.0, 5.0, -1.3),
            ("discrete", 0.0, 1.0, 0.0),
        ],
    )
    def test_analytic_moments_hit_targets(self, family, mean, std, skew):
        matched = moment_match(family, mean, std, skew)
        m, s, g = matched.analytic_moments()
        assert m == pytest.approx(mean, rel=1e-9, abs=1e-9)
        assert s == pytest.approx(std, rel=1e-9)
        assert g == pytest.approx(skew, rel=1e-9, abs=1e-9)

    def test_negative_skew_sets_mirror(self):
        matched = moment_match("shifted_lognormal", 355.0, 40.0, -2.8)
        assert matched.mirror_center is not None
        plain = moment_match("shifted_lognormal", 355.0, 40.0, 2.8)
        assert plain.mirror_center is None
        assert plain.sigma_log == matched.sigma_log

    def test_small_skew_degenerates_toward_normal(self):
        tiny = moment_match("shifted_lognormal", 0.0, 1.0, 1e-3)
        small = moment_match("shifted_lognormal", 0.0, 1.0, 0.1)
        large = moment_match("shifted_lognormal", 0.0, 1.0, 1.0)
        assert tiny.sigma_log < 1e-3
        assert tiny.sigma_log < small.sigma_log < large.sigma_log

    def test_lognormal_rejects_zero_skew(self):
        with pytest.raises(InputError):
            moment_match("shifted_lognormal", 0.0, 1.0, 0.0)

    def test_normal_rejects_nonzero_skew(self):
        with pytest.raises(InputError):
            moment_match("normal", 0.0, 1.0, 0.5)

    def test_std_must_be_positive(self):
        with pytest.raises(InputError):
            moment_match("normal", 0.0, 0.0, 0.0)

    def test_unknown_family(self):
        with pytest.raises(InputError, match="family"):
            moment_match("triangular", 0.0, 1.0, 0.0)

    def test_discrete_support_is_two_points(self):
        matched = moment_match("discrete", 10.0, 5.0, 1.0)
        samples = matched.sample(SeededStream(3), np.arange(1000))
        assert set(np.unique(samples)) == {matched.low, matched.high}

    def test_lognormal_moments_against_quadrature(self):
        # numerical integration of the matched density as an independent oracle
        from scipy.integrate import quad

        matched = moment_match("shifted_lognormal", 350.0, 40.0, 2.7)
        sigma, scale, shift = matched.sigma_log, np.exp(matched.mu_log), matched.shift

        def density(x):
            y = x - shift
            return np.exp(-((np.log(y / scale)) ** 2) / (2 * sigma**2)) / (
                y * sigma * np.sqrt(2 * np.pi)
            )

        def moment(fn):
            value, _ = quad(lambda x: fn(x) * density(x), shift + 1e-12, np.inf, limit=300)
            return value

        mass = moment(lambda x: 1.0)
        mean = moment(lambda x: x)
        var = moment(lambda x: (x - 350.0) ** 2)
        third = moment(lambda x: (x - 350.0) ** 3)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(350.0, rel=1e-7)
        assert np.sqrt(var) == pytest.approx(40.0, rel=1e-6)
        assert third / var**1.5 == pytest.approx(2.7, rel=1e-5)

    def test_lognormal_w_closed_form_against_brentq(self):
        # the bracketed root finder that the closed form replaced, as the reference
        from scipy.optimize import brentq

        def residual(w, skew):
            return (w + 2.0) * math.sqrt(w - 1.0) - skew

        eps = float(np.finfo(float).eps)
        for skew in np.logspace(-6, 8, 141).tolist():
            hi = 2.0
            while residual(hi, skew) < 0.0:
                hi *= 2.0
            reference = brentq(residual, 1.0 + 1e-15, hi, args=(skew,), xtol=1e-300, rtol=8.9e-16)
            w = _lognormal_w(skew)
            assert abs(residual(w, skew)) <= abs(residual(reference, skew)) + 16 * eps * skew
        for skew in (1.5, 2.0, 2.7, 3.0):
            hi = 2.0
            reference = brentq(residual, 1.0 + 1e-15, hi, args=(skew,), xtol=1e-300, rtol=8.9e-16)
            assert _lognormal_w(skew) == reference

    def test_lognormal_w_out_of_range(self):
        with pytest.raises(DomainError, match="no lognormal solution"):
            moment_match("shifted_lognormal", 0.0, 1.0, 1e19)

    @pytest.mark.parametrize(
        "family, mean, std, skew, field",
        [
            ("triangular", 0.0, 1.0, 0.0, "family"),
            ("normal", math.nan, 1.0, 0.0, "mean"),
            ("normal", 0.0, 0.0, 0.0, "std"),
            ("normal", 0.0, 1.0, 0.5, "skew"),
            ("shifted_lognormal", 0.0, 1.0, 0.0, "skew"),
            ("mirrored_shifted_lognormal", 0.0, 1.0, 0.0, "skew"),
            ("mirrored_shifted_lognormal", 0.0, 1.0, -1e19, "skew"),
        ],
    )
    def test_errors_name_the_generator_field(self, family, mean, std, skew, field):
        with pytest.raises((InputError, DomainError), match=f"^field '{field}': "):
            moment_match(family, mean, std, skew)


DEMO = Path(__file__).resolve().parent.parent / "demo"
GENERATING_COMMANDS = [
    ["simulate", "--spec", str(DEMO / "project_right.json"), "--n", "1000", "--out", "right.csv"],
    [
        "rank", "--projects", str(DEMO / "project_left.json"), str(DEMO / "project_right.json"),
        "--curve", str(DEMO / "curve_flat5.csv"), "--delta-mu", "0.10", "--out", "rank.json",
    ],
]


def test_cli_import_loads_no_scipy(tmp_path):
    src = Path(invomega.__file__).resolve().parents[1]
    for commands in ([], GENERATING_COMMANDS):
        code = (
            "import sys\n"
            "from invomega.cli import main\n"
            f"assert [main(argv) for argv in {commands!r}] == {[0] * len(commands)!r}\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.stdout.splitlines()[-1] == "[]", commands


class TestGenerate:
    def test_single_scenario_deterministic(self):
        a = generate(spec_right(n=1))
        b = generate(spec_right(n=1))
        assert a.scenarios[0].flows == b.scenarios[0].flows

    def test_same_spec_bit_identical_csv(self):
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_scenarios(generate(spec_right(n=500)), buf_a)
        write_scenarios(generate(spec_right(n=500)), buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_template_fixed_slots_preserved(self):
        ss = generate(spec_right(n=20))
        for s in ss.scenarios:
            assert s.flows[0] == -200.0
            assert s.flows[2] == -100.0

    def test_mirroring_property(self):
        base = GeneratorSpec(
            family="shifted_lognormal",
            target_mean=355.0,
            target_std=40.0,
            target_skewness=2.8,
            flow_template=(-200.0, None, -100.0),
            n_scenarios=200,
            seed=99,
        )
        mirrored = GeneratorSpec(
            family="mirrored_shifted_lognormal",
            target_mean=355.0,
            target_std=40.0,
            target_skewness=-2.8,
            flow_template=(-200.0, None, -100.0),
            n_scenarios=200,
            seed=99,
        )
        plain_flows = [s.flows[1] for s in generate(base).scenarios]
        mirror_flows = [s.flows[1] for s in generate(mirrored).scenarios]
        for p, m in zip(plain_flows, mirror_flows):
            assert m == 2.0 * 355.0 - p

    def test_sample_moments_near_targets(self):
        # frozen seed; statistical tolerance of 2% relative at N = 100000
        ss = generate(spec_right(n=100000, seed=555))
        stats = summarize(EmpiricalDistribution([s.flows[1] for s in ss.scenarios]))
        assert stats.mean == pytest.approx(350.0, rel=0.02)
        assert stats.std_dev == pytest.approx(40.0, rel=0.02)
        assert stats.skewness == pytest.approx(2.7, rel=0.02)

    def test_normal_family(self):
        spec = GeneratorSpec(
            family="normal",
            target_mean=110.0,
            target_std=1.0,
            target_skewness=0.0,
            flow_template=(-100.0, None),
            n_scenarios=50000,
            seed=21,
        )
        stats = summarize(
            EmpiricalDistribution([s.flows[1] for s in generate(spec).scenarios])
        )
        assert stats.mean == pytest.approx(110.0, abs=0.05)
        assert stats.std_dev == pytest.approx(1.0, abs=0.02)

    def test_template_validation(self):
        with pytest.raises(InputError, match="exactly one"):
            GeneratorSpec("normal", 0.0, 1.0, 0.0, (-1.0, None, None), 1, 0)
        with pytest.raises(InputError, match="t >= 1"):
            GeneratorSpec("normal", 0.0, 1.0, 0.0, (None, 1.0), 1, 0)
        with pytest.raises(InputError):
            GeneratorSpec("normal", 0.0, 1.0, 0.0, (-1.0, None), 0, 0)

    @pytest.mark.parametrize(
        "field, change",
        [
            ("family", {"family": "cauchy"}),
            ("mean", {"target_mean": True}),
            ("mean", {"target_mean": "350"}),
            ("mean", {"target_mean": 10**400}),
            ("std", {"target_std": False}),
            ("skew", {"target_skewness": None}),
            ("template", {"flow_template": (-1.0, True)}),
            ("template", {"flow_template": (-1.0, None, math.inf)}),
            ("n", {"n_scenarios": True}),
            ("n", {"n_scenarios": 5.0}),
            ("seed", {"seed": False}),
        ],
    )
    def test_fields_checked_in_json_terms(self, field, change):
        fields = {**vars(spec_right()), **change}
        with pytest.raises(InputError, match=f"field '{field}'"):
            GeneratorSpec(**fields)

    def test_json_integers_become_floats(self):
        spec = GeneratorSpec("normal", 110, 1, 0, (-100, None), 5, 21)
        assert [type(v) for v in (spec.target_mean, spec.target_std, spec.target_skewness)] == [float] * 3
        assert spec.flow_template == (-100.0, None) and type(spec.flow_template[0]) is float


class TestScenarioCsv:
    def test_load_two_rows(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t0,t1,t2\n-200,350,-100\n-200,300,-100\n")
        ss = load_scenarios(path)
        assert len(ss) == 2 and ss.horizon == 2
        assert ss.weights.tolist() == [0.5, 0.5]
        assert ss.project_id == "s"

    def test_weight_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("weight,t0,t1\n0.25,-10,5\n0.75,-10,20\n")
        ss = load_scenarios(path)
        assert ss.weights.tolist() == [0.25, 0.75]

    def test_ragged_row_names_location(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t0,t1,t2\n-200,350,-100\n-200,300\n")
        with pytest.raises(ScenarioParseError, match="row 3"):
            load_scenarios(path)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("t0,t1\n-1,2\n\n3,4\n", "row 4: F_0 must be the initial outlay"),
            ("t0,t1\n-1,2\n-1,inf\n", "row 3: flow at t=1 is not finite"),
            ("t0,t1\n-1,nan\n", "row 2: flow at t=1 is not finite"),
            ("weight,t0,t1\n0.5,-1,2\nnan,-1,3\n", "row 3: weight must be finite and >= 0"),
            # a blank line before the bad row, on the single-parse and the csv-scan paths
            ("t0,t1\n-1,2\n\n-1,abc\n", "row 4: non-numeric value 'abc'"),
            ("t0,t1\n-1,2\n  \n-1\n", "row 4: expected 2 columns, got 1"),
            ("t0,t1\r\n-1,2\r\n\r\n-1,2,3\r\n", "row 4: expected 2 columns, got 3"),
            ('t0,t1\n"-1",2\n\n5,1\n', "row 4: F_0 must be the initial outlay"),
            ("weight,t0,t1\r\n0.5,-1,2\r\n\r\n-0.5,-1,3\r\n", "row 4: weight must be"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        with pytest.raises(InputError) as exc:
            load_scenarios(path)
        assert str(exc.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize(
        "text",
        [
            "t0,t1\n-1,2\n   \n-1,3\n",
            "t0,t1,t2\n-1,2,3\n,,\n-1,3,4\n",
            't0,t1\n"-1","2"\n-1,3\n',
            "weight,t0,t1\r\n0.25,-1,2\r\n0.75,-1,3\r\n",
            "weight,t0,t1\n0.25,-1,2\n\n0.75,-1,3",
        ],
        ids=["whitespace-line", "empty-row", "quoted", "crlf", "blank-line"],
    )
    def test_loads_as_the_csv_scan(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        ss = load_scenarios(path)
        weighted = text.startswith("weight")
        table = _scan_table(path, ss.horizon + 1 + weighted)
        assert len(ss) == 2
        assert ss.flows.tolist() == table[:, weighted:].tolist()
        if weighted:
            assert ss.weights.tolist() == table[:, 0].tolist()

    def test_header_only(self, tmp_path, capfd):
        path = tmp_path / "s.csv"
        path.write_text("t0,t1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioParseError, match="no scenario rows"):
                load_scenarios(path)
        assert capfd.readouterr().err == ""

    def test_weighted_load_peak_memory(self, tmp_path):
        # the parse used to hold every cell as a Python string (about 10x the table)
        rng = np.random.default_rng(3)
        n, horizon = 10_000, 30
        weights = rng.uniform(0.5, 1.5, n)
        weights /= math.fsum(weights.tolist())
        flows = rng.normal(100.0, 40.0, (n, horizon + 1)).round(2)
        flows[:, 0] = -1000.0
        lines = ["weight," + ",".join(f"t{t}" for t in range(horizon + 1))]
        lines += [",".join(map(repr, [w, *row])) for w, row in zip(weights.tolist(), flows.tolist())]
        path = tmp_path / "s.csv"
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            ss = load_scenarios(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ss.flows.tolist() == flows.tolist()
        assert peak < 2 * (ss.flows.nbytes + ss.weights.nbytes)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t0,t1\n-200,abc\n")
        with pytest.raises(ScenarioParseError, match="'abc'"):
            load_scenarios(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("flow0,flow1\n-200,350\n")
        with pytest.raises(ScenarioParseError, match="header"):
            load_scenarios(path)

    def test_horizon_mismatch(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t0,t1\n-200,350\n")
        with pytest.raises(HorizonMismatchError):
            load_scenarios(path, horizon=2)

    def test_weight_sum_violation(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("weight,t0,t1\n0.3,-10,5\n0.3,-10,20\n")
        with pytest.raises(InputError, match="sum to 1"):
            load_scenarios(path)

    def test_round_trip_uniform(self, tmp_path):
        ss = generate(spec_right(n=7))
        path = tmp_path / "out.csv"
        write_scenarios(ss, path)
        loaded = load_scenarios(path, horizon=2)
        assert loaded.weights.tolist() == ss.weights.tolist()
        for a, b in zip(loaded.scenarios, ss.scenarios):
            assert a.flows == b.flows

    def test_round_trip_weighted(self, tmp_path):
        from invomega import ScenarioSet

        ss = ScenarioSet(
            "w",
            ((-1.0, 2.0), (-1.0, 3.0)),
            (0.125, 0.875),
        )
        path = tmp_path / "out.csv"
        write_scenarios(ss, path)
        assert path.read_text().startswith("weight,t0,t1\n")
        loaded = load_scenarios(path)
        assert loaded.weights.tolist() == [0.125, 0.875]


class TestProjectDescriptor:
    def test_generator_route(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps(
                {
                    "id": "demo",
                    "horizon": 2,
                    "generator": {
                        "family": "shifted_lognormal",
                        "mean": 350.0,
                        "std": 40.0,
                        "skew": 2.7,
                        "template": [-200.0, None, -100.0],
                        "n": 10,
                        "seed": 1,
                    },
                }
            )
        )
        ss = load_project(path)
        assert ss.project_id == "demo" and len(ss) == 10

    def test_scenario_file_route_relative(self, tmp_path):
        (tmp_path / "flows.csv").write_text("t0,t1\n-10,20\n")
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"id": "f", "horizon": 1, "scenario_file": "flows.csv"}))
        ss = load_project(path)
        assert ss.project_id == "f" and len(ss) == 1

    def test_needs_exactly_one_source(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"id": "x", "horizon": 1}))
        with pytest.raises(InputError, match="exactly one"):
            load_project(path)

    def test_read_project_routes(self, tmp_path):
        (tmp_path / "flows.csv").write_text("t0,t1\n-10,20\n")
        (tmp_path / "f.json").write_text(json.dumps({"id": "f", "horizon": 1, "scenario_file": "flows.csv"}))
        assert read_project(tmp_path / "f.json") == ("f", 1, (tmp_path / "flows.csv").resolve())
        block = {"family": "normal", "mean": 0.0, "std": 1.0, "skew": 0.0, "template": [-1.0, None, 0.0], "n": 3, "seed": 1}
        (tmp_path / "bare.json").write_text(json.dumps(block))
        project_id, horizon, spec = read_project(tmp_path / "bare.json")
        assert (project_id, horizon, spec.n_scenarios) == ("bare", 2, 3)

    @pytest.mark.parametrize("project_id", [None, 7, ["a"]])
    def test_id_must_be_a_string(self, tmp_path, project_id):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"id": project_id, "horizon": 1, "scenario_file": "flows.csv"}))
        with pytest.raises(InputError, match="field 'id'"):
            read_project(path)

    def test_integer_past_the_digit_limit(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"id": "p", "horizon": 1' + "0" * 5000 + "}")
        with pytest.raises(InputError, match="invalid JSON"):
            read_project(path)

    def test_template_horizon_must_match(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps(
                {
                    "id": "demo",
                    "horizon": 3,
                    "generator": {
                        "family": "normal",
                        "mean": 0.0,
                        "std": 1.0,
                        "skew": 0.0,
                        "template": [-1.0, None],
                        "n": 5,
                        "seed": 1,
                    },
                }
            )
        )
        with pytest.raises(HorizonMismatchError):
            load_project(path)


class TestGeneratorBlockParsing:
    def test_missing_field_named(self):
        block = {"family": "normal", "mean": 0.0, "std": 1.0, "skew": 0.0, "n": 5, "seed": 1}
        with pytest.raises(InputError, match="'template'"):
            generator_spec_from_dict(block)

    def test_unknown_family_names_field(self):
        block = {
            "family": "cauchy",
            "mean": 0.0,
            "std": 1.0,
            "skew": 0.0,
            "template": [-1.0, None],
            "n": 5,
            "seed": 1,
        }
        with pytest.raises(InputError, match="family"):
            generator_spec_from_dict(block)

    def test_unknown_extra_field(self):
        block = {
            "family": "normal",
            "mean": 0.0,
            "std": 1.0,
            "skew": 0.0,
            "template": [-1.0, None],
            "n": 5,
            "seed": 1,
            "mode": "fast",
        }
        with pytest.raises(InputError, match="unknown fields"):
            generator_spec_from_dict(block)

    def test_non_integer_n(self):
        block = {
            "family": "normal",
            "mean": 0.0,
            "std": 1.0,
            "skew": 0.0,
            "template": [-1.0, None],
            "n": 2.5,
            "seed": 1,
        }
        with pytest.raises(InputError, match="'n'"):
            generator_spec_from_dict(block)
