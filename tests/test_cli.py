import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invomega
from invomega.cli import main


@pytest.fixture
def workspace(tmp_path: Path) -> Path:
    (tmp_path / "curve.csv").write_text("tenor,rate\n1,0.05\n2,0.05\n")
    (tmp_path / "short_curve.csv").write_text("tenor,rate\n1,0.05\n")
    generator_project = {
        "id": "right-skewed",
        "horizon": 2,
        "generator": {
            "family": "shifted_lognormal",
            "mean": 350.0,
            "std": 40.0,
            "skew": 2.7,
            "template": [-200.0, None, -100.0],
            "n": 400,
            "seed": 555,
        },
    }
    (tmp_path / "right.json").write_text(json.dumps(generator_project))
    left = json.loads(json.dumps(generator_project))
    left["id"] = "left-skewed"
    left["generator"].update({"family": "mirrored_shifted_lognormal", "mean": 355.0, "skew": -2.8, "seed": 777})
    (tmp_path / "left.json").write_text(json.dumps(left))
    (tmp_path / "mean_right.csv").write_text("t0,t1,t2\n-200.0,350.0,-100.0\n")
    (tmp_path / "mean_right.json").write_text(
        json.dumps({"id": "mean-right", "horizon": 2, "scenario_file": "mean_right.csv"})
    )
    (tmp_path / "single.csv").write_text("t0,t1,t2\n-200.0,350.0,-100.0\n")
    (tmp_path / "single.json").write_text(
        json.dumps({"id": "single", "horizon": 2, "scenario_file": "single.csv"})
    )
    # NPVs of +-1e308: their spread leaves the float range, so no distribution accepts them
    (tmp_path / "overflow.csv").write_text("t0,t1,t2\n-1.0,1e308,0.0\n-1e308,0.0,0.0\n")
    (tmp_path / "overflow.json").write_text(
        json.dumps({"id": "overflow", "horizon": 2, "scenario_file": "overflow.csv"})
    )
    return tmp_path


def run_cli(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """The CLI as a child process, so that an uncaught exception shows as a traceback."""
    src = Path(invomega.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "invomega.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        **kwargs,
    )


def cap_address_space() -> None:
    """Limit the child to 1 GiB of address space, so that a runaway allocation fails fast."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def strict_json(text: str):
    """json.loads that refuses the bare Infinity, -Infinity and NaN constants."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestSimulate:
    def test_byte_identical_runs(self, workspace, capsys):
        out_a = workspace / "a.csv"
        out_b = workspace / "b.csv"
        assert main(["simulate", "--spec", str(workspace / "right.json"), "--out", str(out_a)]) == 0
        assert main(["simulate", "--spec", str(workspace / "right.json"), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        captured = capsys.readouterr()
        assert "400 scenarios" in captured.out
        assert "mean=" in captured.out

    def test_n_and_seed_overrides(self, workspace):
        out_a = workspace / "a.csv"
        out_b = workspace / "b.csv"
        main(["simulate", "--spec", str(workspace / "right.json"), "--n", "50", "--out", str(out_a)])
        assert len(out_a.read_text().splitlines()) == 51
        main(
            [
                "simulate",
                "--spec",
                str(workspace / "right.json"),
                "--n",
                "50",
                "--seed",
                "9",
                "--out",
                str(out_b),
            ]
        )
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_invalid_family_exit_2(self, workspace, capsys):
        bad = workspace / "bad.json"
        spec = json.loads((workspace / "right.json").read_text())
        spec["generator"]["family"] = "cauchy"
        bad.write_text(json.dumps(spec))
        code = main(["simulate", "--spec", str(bad), "--out", str(workspace / "x.csv")])
        assert code == 2
        assert "family" in capsys.readouterr().err

    def test_missing_file_exit_2(self, workspace, capsys):
        code = main(["simulate", "--spec", str(workspace / "nope.json"), "--out", str(workspace / "x.csv")])
        assert code == 2

    def test_bare_generator_block(self, workspace):
        block = json.loads((workspace / "right.json").read_text())["generator"]
        bare = workspace / "bare.json"
        bare.write_text(json.dumps(block))
        assert main(["simulate", "--spec", str(bare), "--out", str(workspace / "bare.csv")]) == 0

    def test_descriptor_without_horizon_exit_2(self, workspace, capsys):
        spec = json.loads((workspace / "right.json").read_text())
        del spec["horizon"]
        (workspace / "bad.json").write_text(json.dumps(spec))
        assert main(["simulate", "--spec", str(workspace / "bad.json"), "--out", str(workspace / "x.csv")]) == 2
        assert "'horizon'" in capsys.readouterr().err

    def test_template_horizon_mismatch_exit_2(self, workspace, capsys):
        spec = json.loads((workspace / "right.json").read_text())
        spec["horizon"] = 3
        (workspace / "bad.json").write_text(json.dumps(spec))
        assert main(["simulate", "--spec", str(workspace / "bad.json"), "--out", str(workspace / "x.csv")]) == 2
        assert "template horizon 2" in capsys.readouterr().err

    def test_scenario_file_descriptor_exit_2(self, workspace, capsys):
        code = main(["simulate", "--spec", str(workspace / "single.json"), "--out", str(workspace / "x.csv")])
        assert code == 2
        assert "generator block" in capsys.readouterr().err


class TestEvaluate:
    def test_bare_generator_block_named_by_file_stem(self, workspace, capsys):
        block = json.loads((workspace / "right.json").read_text())["generator"]
        (workspace / "bare.json").write_text(json.dumps(block))
        argv = ["--project", str(workspace / "bare.json"), "--curve", str(workspace / "curve.csv")]
        assert main(["evaluate", *argv, "--out-dir", str(workspace / "r")]) == 0
        assert "evaluated 400 scenarios of 'bare'" in capsys.readouterr().out

    def test_deterministic_single_scenario(self, workspace):
        out_dir = workspace / "report"
        code = main(
            [
                "evaluate",
                "--project",
                str(workspace / "single.json"),
                "--curve",
                str(workspace / "curve.csv"),
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        rows = (out_dir / "evaluation.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header == [
            "scenario",
            "npv",
            "profit",
            "terminal_return",
            "mu",
            "pi",
            "premium_npv",
            "premium_return",
            "total_outlay",
        ]
        cells = rows[1].split(",")
        assert float(cells[1]) == 350.0 / 1.05 - (200.0 + 100.0 / 1.05**2)  # full precision
        assert cells[header.index("premium_npv")] == cells[1]
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "metric,mean,median,std,skewness"
        assert summary[1].startswith("npv,")
        assert summary[2].startswith("mu,")

    def test_missing_curve_tenor_exit_2(self, workspace, capsys):
        code = main(
            [
                "evaluate",
                "--project",
                str(workspace / "single.json"),
                "--curve",
                str(workspace / "short_curve.csv"),
                "--out-dir",
                str(workspace / "r"),
            ]
        )
        assert code == 2
        assert "tenor 2" in capsys.readouterr().err

    def test_overflowing_curve_exit_2_without_traceback(self, workspace):
        rows = "".join(f"{t},0.8\n" for t in range(1, 1301))
        (workspace / "steep.csv").write_text("tenor,rate\n" + rows)
        proc = run_cli(
            "evaluate",
            "--project",
            str(workspace / "single.json"),
            "--curve",
            str(workspace / "steep.csv"),
            "--out-dir",
            str(workspace / "r"),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "growth factor" in proc.stderr

    def test_refused_distribution_leaves_no_report(self, workspace, capsys):
        out_dir = workspace / "report"
        argv = ["--project", str(workspace / "overflow.json"), "--curve", str(workspace / "curve.csv")]
        assert main(["evaluate", *argv, "--out-dir", str(out_dir)]) == 2
        assert "spread x_max - x_min must be finite" in capsys.readouterr().err
        assert not (out_dir / "evaluation.csv").exists()
        assert not (out_dir / "summary.csv").exists()

    def test_stdout_summary(self, workspace, capsys):
        main(
            [
                "evaluate",
                "--project",
                str(workspace / "right.json"),
                "--curve",
                str(workspace / "curve.csv"),
                "--out-dir",
                str(workspace / "r2"),
            ]
        )
        out = capsys.readouterr().out
        assert "npv: mean=" in out and "mu: mean=" in out


class TestRank:
    def test_rank_writes_json_and_csv(self, workspace, capsys):
        out = workspace / "rank.json"
        out_csv = workspace / "rank.csv"
        code = main(
            [
                "rank",
                "--projects",
                str(workspace / "right.json"),
                str(workspace / "left.json"),
                "--curve",
                str(workspace / "curve.csv"),
                "--delta-mu",
                "0.10",
                "--metric",
                "npv",
                "--out",
                str(out),
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report["order"]) == {"right-skewed", "left-skewed"}
        assert report["hurdle"] == {"kind": "delta_mu", "value": 0.10}
        assert out_csv.read_text().startswith("rank,project,omega,call,put,threshold,accept\n")
        assert "1." in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key, value, code, message",
        [
            ("template", None, 2, "generator block missing field 'template'"),
            ("std", 0.0, 2, "field 'std': must be positive, got 0.0"),
            ("skew", 1e19, 1, "field 'skew': no lognormal solution for skewness 1e+19"),
            ("skew", 0.0, 2, "field 'skew': lognormal families need nonzero skewness (use family 'normal' instead)"),
        ],
    )
    def test_generator_error_names_its_descriptor(self, workspace, capsys, key, value, code, message):
        spec = json.loads((workspace / "right.json").read_text())
        if value is None:
            del spec["generator"][key]
        else:
            spec["generator"][key] = value
        (workspace / "bad.json").write_text(json.dumps(spec))
        projects = [str(workspace / name) for name in ("left.json", "bad.json", "right.json")]
        argv = ["rank", "--projects", *projects, "--curve", str(workspace / "curve.csv")]
        assert main([*argv, "--delta-mu", "0.1", "--out", str(workspace / "rank.json")]) == code
        assert capsys.readouterr().err == f"error: {projects[1]}: {message}\n"

    def test_distribution_error_names_its_descriptor(self, workspace, demo_dir, capsys):
        overflow = str(workspace / "overflow.json")
        argv = ["--projects", str(demo_dir / "project_left.json"), overflow,
                "--curve", str(demo_dir / "curve_flat5.csv"), "--delta-mu", "0.1", "--metric", "npv"]
        assert main(["rank", *argv, "--out", str(workspace / "rank.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {overflow}: samples and their spread") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", [(), ("--grid", "0.0:0.1:0.05")])
    def test_excluded_project_is_reported_once(self, workspace, grid):
        # NPV is 0 in every scenario: a point mass at the threshold, so Omega is indeterminate
        (workspace / "zero_curve.csv").write_text("tenor,rate\n1,0.0\n2,0.0\n")
        (workspace / "flatline.csv").write_text("t0,t1,t2\n-100,100,0\n-100,100,0\n")
        (workspace / "flatline.json").write_text(
            json.dumps({"id": "flatline", "horizon": 2, "scenario_file": "flatline.csv"})
        )
        proc = run_cli(
            "rank", "--projects", str(workspace / "flatline.json"), "--curve", str(workspace / "zero_curve.csv"),
            "--metric", "npv", "--npv-star", "0", *grid, "--out", str(workspace / "rank.json"),
        )
        assert proc.returncode == 0, proc.stderr
        assert "excluded (indeterminate omega): flatline" in proc.stdout
        assert proc.stderr == ""
        assert strict_json((workspace / "rank.json").read_text())["excluded"] == ["flatline"]

    def test_rank_with_grid_includes_crossings(self, workspace):
        out = workspace / "rank.json"
        code = main(
            [
                "rank",
                "--projects",
                str(workspace / "right.json"),
                str(workspace / "left.json"),
                "--curve",
                str(workspace / "curve.csv"),
                "--mu-star",
                "0.15",
                "--metric",
                "mu",
                "--grid",
                "0.05:0.25:0.01",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert "crossings" in report
        assert report["crossings"][0]["project_a"] == "right-skewed"

    def test_infinite_omega_serialization(self, workspace):
        # a sure thing above the hurdle has no downside mass: omega is infinite
        (workspace / "sure.csv").write_text("t0,t1,t2\n-100.0,0.0,200.0\n")
        (workspace / "sure.json").write_text(
            json.dumps({"id": "sure", "horizon": 2, "scenario_file": "sure.csv"})
        )
        out = workspace / "inf.json"
        out_csv = workspace / "inf.csv"
        code = main(
            [
                "rank",
                "--projects",
                str(workspace / "sure.json"),
                str(workspace / "right.json"),
                "--curve",
                str(workspace / "curve.csv"),
                "--mu-star",
                "0.10",
                "--out",
                str(out),
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["order"][0] == "sure"
        assert report["entries"][0]["omega"] == "inf"  # the CSV spelling, not bare Infinity
        assert ",inf," in out_csv.read_text()

    def test_report_is_strict_json(self, workspace):
        # an infinite Omega, a crossing sweep and an undefined skewness in one report
        (workspace / "sure.csv").write_text("t0,t1,t2\n-100.0,0.0,200.0\n")
        (workspace / "sure.json").write_text(
            json.dumps({"id": "sure", "horizon": 2, "scenario_file": "sure.csv"})
        )
        out = workspace / "strict.json"
        code = main(
            [
                "rank",
                "--projects",
                str(workspace / "sure.json"),
                str(workspace / "right.json"),
                "--curve",
                str(workspace / "curve.csv"),
                "--mu-star",
                "0.10",
                "--grid",
                "0.0:0.3:0.05",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = strict_json(out.read_text())
        assert report["entries"][0]["omega"] == "inf"
        assert report["entries"][0]["summary"]["skewness"] is None
        assert "crossings" in report

    def test_metric_defaults_to_mu(self, workspace):
        out = workspace / "default_metric.json"
        code = main(
            [
                "rank",
                "--projects",
                str(workspace / "right.json"),
                "--curve",
                str(workspace / "curve.csv"),
                "--delta-mu",
                "0.10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["metric"] == "mu"

    def test_overflowing_hurdle_exit_2_without_traceback(self, workspace):
        proc = run_cli(
            "rank",
            "--projects",
            str(workspace / "mean_right.json"),
            "--curve",
            str(workspace / "curve.csv"),
            "--metric",
            "npv",
            "--mu-star",
            "1e200",
            "--out",
            str(workspace / "rank.json"),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "overflows" in proc.stderr

    def test_hurdle_flags_are_exclusive(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "rank",
                    "--projects",
                    str(workspace / "right.json"),
                    "--curve",
                    str(workspace / "curve.csv"),
                    "--delta-mu",
                    "0.1",
                    "--mu-star",
                    "0.15",
                    "--out",
                    str(workspace / "r.json"),
                ]
            )
        assert exc.value.code == 2

    def test_hurdle_required(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "rank",
                    "--projects",
                    str(workspace / "right.json"),
                    "--curve",
                    str(workspace / "curve.csv"),
                    "--out",
                    str(workspace / "r.json"),
                ]
            )
        assert exc.value.code == 2


class TestOmegaCurve:
    def test_writes_curve_csv(self, workspace):
        out = workspace / "curve_out.csv"
        code = main(
            [
                "omega-curve",
                "--project",
                str(workspace / "right.json"),
                "--curve",
                str(workspace / "curve.csv"),
                "--metric",
                "mu",
                "--grid",
                "0.00:0.30:0.01",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold,call,put,omega"
        assert len(lines) == 32

    def test_constant_distribution_flags_in_csv(self, workspace):
        out = workspace / "flags.csv"
        code = main(
            [
                "omega-curve",
                "--project",
                str(workspace / "single.json"),
                "--curve",
                str(workspace / "curve.csv"),
                "--metric",
                "mu",
                "--grid",
                "0.04:0.20:0.04",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        body = out.read_text()
        assert "inf" in body  # hurdles below the point mass
        assert body.splitlines()[-1].endswith("0.0")  # above it

    def test_demo_pair_full_grid_monotone(self, workspace):
        # both skewed projects over a fine hurdle grid: curves come out monotone
        for name in ("right", "left"):
            out = workspace / f"{name}_full.csv"
            code = main(
                [
                    "omega-curve",
                    "--project",
                    str(workspace / f"{name}.json"),
                    "--curve",
                    str(workspace / "curve.csv"),
                    "--metric",
                    "mu",
                    "--grid",
                    "0.00:0.25:0.005",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            omegas = [float(r.split(",")[3]) for r in out.read_text().splitlines()[1:]]
            finite = [v for v in omegas if v == v and v != float("inf")]
            assert finite == sorted(finite, reverse=True)

    def test_bad_grid_exit_2(self, workspace, capsys):
        code = main(
            [
                "omega-curve",
                "--project",
                str(workspace / "right.json"),
                "--curve",
                str(workspace / "curve.csv"),
                "--grid",
                "0.3:0.1:0.01",
                "--out",
                str(workspace / "x.csv"),
            ]
        )
        assert code == 2
        assert "grid" in capsys.readouterr().err


class TestInputBounds:
    @pytest.mark.parametrize(
        "grid",
        ["0:inf:0.1", "0:nan:0.1", "-inf:1:0.1", "0:1:inf", "-1e308:1e308:1e306", "0:1:1e-12"],
    )
    def test_bad_grid_exit_2_without_traceback(self, workspace, grid):
        # the child's address space is capped: 0:1:1e-12 must be refused before any point is built
        proc = run_cli(
            "rank",
            "--projects",
            str(workspace / "mean_right.json"),
            "--curve",
            str(workspace / "curve.csv"),
            "--mu-star",
            "0.1",
            f"--grid={grid}",
            "--out",
            str(workspace / "rank.json"),
            preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "grid" in proc.stderr

    def test_grid_point_cap(self):
        from invomega.cli import MAX_GRID_POINTS, _parse_grid

        assert len(_parse_grid("0:0.999999:0.000001")) == MAX_GRID_POINTS
        with pytest.raises(invomega.InputError, match="more than"):
            _parse_grid("0:1:0.000001")

    @pytest.mark.parametrize("bad", ["scenario", "curve", "descriptor"])
    def test_non_utf8_input_exit_2_naming_the_file(self, workspace, bad):
        (workspace / "bad.csv").write_bytes(b"t0,t1,t2\n-200.0,3\xff0.0,-100.0\n")
        (workspace / "bad_curve.csv").write_bytes(b"tenor,rate\n1,0.05\n2,0.0\xff5\n")
        (workspace / "bad.json").write_bytes(
            b'{"id": "bad", "horizon": 2, "scenario_file": "bad.csv"}'
        )
        (workspace / "bad_id.json").write_bytes(
            b'{"id": "\xff", "horizon": 2, "scenario_file": "single.csv"}'
        )
        project, curve, named = {
            "scenario": ("bad.json", "curve.csv", "bad.csv"),
            "curve": ("single.json", "bad_curve.csv", "bad_curve.csv"),
            "descriptor": ("bad_id.json", "curve.csv", "bad_id.json"),
        }[bad]
        proc = run_cli(
            "evaluate",
            "--project",
            str(workspace / project),
            "--curve",
            str(workspace / curve),
            "--out-dir",
            str(workspace / "r"),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr

    @pytest.mark.parametrize(
        "field, descriptor",
        [
            ("scenario_file", {"id": "p", "horizon": 2, "scenario_file": None}),
            ("scenario_file", {"id": "p", "horizon": 2, "scenario_file": 5}),
            ("horizon", {"id": "p", "horizon": True, "scenario_file": "single.csv"}),
            ("n", {"id": "p", "horizon": 1, "generator": {"n": True, "seed": 1}}),
            ("seed", {"id": "p", "horizon": 1, "generator": {"n": 5, "seed": False}}),
            ("id", {"id": None, "horizon": 1, "generator": {}}),
            ("id", {"id": [1, 2], "horizon": 1, "generator": {}}),
            ("mean", {"id": "p", "horizon": 1, "generator": {"mean": True}}),
            ("std", {"id": "p", "horizon": 1, "generator": {"std": True}}),
            ("template", {"id": "p", "horizon": 1, "generator": {"template": [-1.0, True]}}),
            ("mean", {"id": "p", "horizon": 1, "generator": {"mean": "350"}}),
        ],
    )
    def test_descriptor_field_types_exit_2_without_traceback(self, workspace, field, descriptor):
        if "generator" in descriptor:
            normal = {"family": "normal", "mean": 1.0, "std": 1.0, "skew": 0.0, "template": [-1.0, None]}
            descriptor = {**descriptor, "generator": {**normal, "n": 5, "seed": 1, **descriptor["generator"]}}
        typed = str(workspace / "typed.json")
        (workspace / "typed.json").write_text(json.dumps(descriptor))
        for argv in (
            ("evaluate", "--project", typed, "--curve", str(workspace / "curve.csv"), "--out-dir", str(workspace / "r")),
            ("simulate", "--spec", typed, "--out", str(workspace / "typed.csv")),
        ):
            proc = run_cli(*argv)
            assert proc.returncode == 2, argv[0]
            assert "Traceback" not in proc.stderr
            assert f"'{field}'" in proc.stderr

    @pytest.mark.parametrize(
        "command, source, code, named",
        [
            # std**3 underflows to 0 (a subnormal weight) or overflows (flows of 1e150)
            ("evaluate", "subnormal.json", 0, "skewness=n/a"),
            ("rank", "subnormal.json", 0, "1. subnormal"),
            ("evaluate", "huge_flows.json", 0, "skewness=n/a"),
            ("rank", "huge_flows.json", 0, "1. huge"),
            # numpy refuses these counts before it allocates anything
            ("evaluate", "huge_n.json", 2, "n = 10"),
            ("rank", "huge_n.json", 2, "n = 10"),
            ("simulate", "huge_n.json", 2, "n = 10"),
            ("simulate --n 1" + "0" * 30, "right.json", 2, "n = 10"),
            ("simulate --n 0", "right.json", 2, "--n"),
            # NPVs of +-1e308: their spread leaves the float range
            ("evaluate", "overflow.json", 2, "spread x_max - x_min must be finite"),
            ("rank", "overflow.json", 2, "spread x_max - x_min must be finite"),
            # NPVs of +-1e200: the variance leaves the float range, so std is undefined
            ("evaluate", "wide.json", 0, "std=n/a skewness=n/a"),
            # finite flows whose present-value sums overflow
            ("evaluate", "sum_overflow.json", 2, "sum_overflow.json: the replication sums"),
            ("rank", "sum_overflow.json", 2, "sum_overflow.json: the replication sums"),
            ("omega-curve", "sum_overflow.json", 2, "sum_overflow.json: the replication sums"),
            ("radr-compare", "sum_overflow.json", 2, "sum_overflow.json: the valuations"),
            # a subnormal outlay: the returns relative to it overflow
            ("evaluate", "tiny_outlay.json", 2, "tiny_outlay.json: the replication sums"),
            ("rank", "tiny_outlay.json", 2, "tiny_outlay.json: the replication sums"),
            ("omega-curve", "tiny_outlay.json", 2, "tiny_outlay.json: the replication sums"),
        ],
    )
    def test_exit_code_contract_without_traceback(self, workspace, command, source, code, named):
        (workspace / "subnormal.csv").write_text("weight,t0,t1,t2\n1e-320,-200.0,0.0,0.0\n1.0,-200.0,350.0,-100.0\n")
        (workspace / "huge_flows.csv").write_text("t0,t1,t2\n-1.0,1e150,0.0\n-1e150,0.0,0.0\n")
        (workspace / "wide.csv").write_text("t0,t1,t2\n-1.0,1e200,0.0\n-1e200,0.0,0.0\n")
        (workspace / "sum_overflow.csv").write_text("t0,t1,t2\n-100,1e308,1e308\n")
        (workspace / "tiny_outlay.csv").write_text("t0,t1,t2\n-1e-320,1,1\n")
        for stem in ("subnormal", "huge_flows", "wide", "sum_overflow", "tiny_outlay"):
            (workspace / f"{stem}.json").write_text(
                json.dumps({"id": stem.replace("_flows", ""), "horizon": 2, "scenario_file": f"{stem}.csv"})
            )
        spec = json.loads((workspace / "right.json").read_text())
        spec["generator"]["n"] = 10**30
        (workspace / "huge_n.json").write_text(json.dumps(spec))
        name, *flags = command.split()
        path, curve, out = str(workspace / source), str(workspace / "curve.csv"), str(workspace / "out")
        argv = {
            "evaluate": ("--project", path, "--curve", curve, "--out-dir", out),
            "rank": ("--projects", path, "--curve", curve, "--metric", "npv", "--mu-star", "0.1", "--out", out + ".json"),
            "simulate": ("--spec", path, "--out", out + ".csv"),
            "omega-curve": ("--project", path, "--curve", curve, "--grid", "0:0.2:0.1", "--out", out + ".csv"),
            "radr-compare": ("--project", path, "--r", "0.05", "--k", "0.15", "--out", out + ".json"),
        }[name]
        proc = run_cli(name, *flags, *argv, preexec_fn=cap_address_space)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert named in (proc.stdout if code == 0 else proc.stderr)
        if code == 0:
            assert proc.stderr == ""
        else:  # one error line, no warning
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestRadrCompare:
    def test_reference_mode(self, workspace, capsys):
        out = workspace / "radr.json"
        code = main(
            [
                "radr-compare",
                "--project",
                str(workspace / "mean_right.json"),
                "--r",
                "0.05",
                "--k",
                "0.15",
                "--mode",
                "paper-table4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["npv_at_k"] == pytest.approx(28.73, abs=5e-3)
        assert report["mirr_at_k"] == pytest.approx(0.2085, abs=1e-4)
        assert report["accept"] is True
        assert report["mode"] == "paper-table4"
        assert len(report["alpha_factors"]) == 2
        stdout = capsys.readouterr().out
        assert "NPV(mean|k)=29" in stdout
        assert "MIRR=20.8%" in stdout

    def test_canonical_mode_rejects_mixed_flows_exit_1(self, workspace, capsys):
        code = main(
            [
                "radr-compare",
                "--project",
                str(workspace / "mean_right.json"),
                "--r",
                "0.05",
                "--k",
                "0.15",
                "--out",
                str(workspace / "radr.json"),
            ]
        )
        assert code == 1
        assert "negative flow" in capsys.readouterr().err

    def test_k_below_r_exit_2(self, workspace):
        code = main(
            [
                "radr-compare",
                "--project",
                str(workspace / "mean_right.json"),
                "--r",
                "0.15",
                "--k",
                "0.05",
                "--mode",
                "paper-table4",
                "--out",
                str(workspace / "radr.json"),
            ]
        )
        assert code == 2

    def test_overflowing_rates_exit_2_without_traceback(self, workspace):
        proc = run_cli(
            "radr-compare",
            "--project",
            str(workspace / "mean_right.json"),
            "--r",
            "1e200",
            "--k",
            "1e200",
            "--mode",
            "paper-table4",
            "--out",
            str(workspace / "radr.json"),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "growth factor" in proc.stderr


def key_paths(node, path: str = ""):
    """Each object key of a JSON document as a dotted path, in document order; list
    items add ``[]``, so every entry of a list of objects yields the same paths."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield f"{path}{key}"
            yield from key_paths(value, f"{path}{key}.")
    elif isinstance(node, list):
        for item in node:
            yield from key_paths(item, f"{path[:-1]}[].")


RANK_JSON_PATHS = [
    "hurdle", "hurdle.kind", "hurdle.value", "metric", "entries",
    "entries[].project_id", "entries[].threshold", "entries[].omega", "entries[].call",
    "entries[].put", "entries[].accept", "entries[].summary", "entries[].summary.mean",
    "entries[].summary.median", "entries[].summary.std", "entries[].summary.skewness",
    "order", "excluded",
]


def test_quick_start_report_layouts(tmp_path, demo_dir):
    """The README quick-start commands write these exact CSV headers and JSON key paths.

    The reports take their layout from the result types' fields, so this pins a
    field rename or reorder as a change of a machine output.
    """
    demo = {name: str(demo_dir / f"{name}.json") for name in ("project_right", "project_left", "project_long")}
    curve, curve_5y = str(demo_dir / "curve_flat5.csv"), str(demo_dir / "curve_flat5_5y.csv")
    out = {name: str(tmp_path / name) for name in ("right.csv", "rank.json", "rank.csv", "grid.json", "curve.csv", "radr.json")}
    for argv in (
        ["simulate", "--spec", demo["project_right"], "--n", "1000", "--seed", "42", "--out", out["right.csv"]],
        ["evaluate", "--project", demo["project_right"], "--curve", curve, "--out-dir", str(tmp_path / "report")],
        ["rank", "--projects", demo["project_right"], demo["project_left"], "--curve", curve,
         "--delta-mu", "0.10", "--metric", "npv", "--out", out["rank.json"], "--out-csv", out["rank.csv"]],
        ["rank", "--projects", demo["project_long"], demo["project_left"], "--curve", curve_5y,
         "--delta-mu", "0.10", "--grid", "0.05:0.25:0.01", "--out", out["grid.json"]],
        ["omega-curve", "--project", demo["project_right"], "--curve", curve,
         "--metric", "mu", "--grid", "0.00:0.25:0.005", "--out", out["curve.csv"]],
        ["radr-compare", "--project", str(demo_dir / "mean_right.json"), "--r", "0.05", "--k", "0.15",
         "--mode", "paper-table4", "--out", out["radr.json"]],
    ):
        assert main(argv) == 0, argv[0]

    def header(path) -> str:
        with open(path) as handle:
            return handle.readline()

    assert header(out["right.csv"]) == "t0,t1,t2\n"
    assert header(tmp_path / "report" / "evaluation.csv") == (
        "scenario,npv,profit,terminal_return,mu,pi,premium_npv,premium_return,total_outlay\n"
    )
    assert header(tmp_path / "report" / "summary.csv") == "metric,mean,median,std,skewness\n"
    assert header(out["curve.csv"]) == "threshold,call,put,omega\n"
    assert header(out["rank.csv"]) == "rank,project,omega,call,put,threshold,accept\n"

    def paths(path) -> list[str]:
        return list(dict.fromkeys(key_paths(strict_json(Path(path).read_text()))))

    assert paths(out["rank.json"]) == RANK_JSON_PATHS
    assert paths(out["grid.json"]) == [
        *RANK_JSON_PATHS, "crossings", "crossings[].project_a", "crossings[].project_b", "crossings[].brackets",
    ]
    assert paths(out["radr.json"]) == [
        "npv_at_k", "mirr_at_k", "mean_npv_at_r", "lambda_radr", "alpha_factors", "accept", "mode",
    ]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
