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
        ],
    )
    def test_exit_code_contract_without_traceback(self, workspace, command, source, code, named):
        (workspace / "subnormal.csv").write_text("weight,t0,t1,t2\n1e-320,-200.0,0.0,0.0\n1.0,-200.0,350.0,-100.0\n")
        (workspace / "huge_flows.csv").write_text("t0,t1,t2\n-1.0,1e150,0.0\n-1e150,0.0,0.0\n")
        (workspace / "overflow.csv").write_text("t0,t1,t2\n-1.0,1e308,0.0\n-1e308,0.0,0.0\n")
        (workspace / "wide.csv").write_text("t0,t1,t2\n-1.0,1e200,0.0\n-1e200,0.0,0.0\n")
        for stem in ("subnormal", "huge_flows", "overflow", "wide"):
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
