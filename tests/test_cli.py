import errno
import json
import math
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invomega
import reference
from invomega import InputError, ScenarioSet, YieldCurve, cli
from invomega.cli import build_parser, main
from invomega.metrics import HURDLE_KINDS, HurdleSpec


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

    def test_overrides_match_the_block_keys_they_set(self, workspace):
        # --n/--seed set the generator block's keys of the same names
        descriptor = json.loads((workspace / "right.json").read_text())
        descriptor["generator"].update({"n": 50, "seed": 9})
        (workspace / "right_50_9.json").write_text(json.dumps(descriptor))
        out_flags, out_block = workspace / "flags.csv", workspace / "block.csv"
        assert main(["simulate", "--spec", str(workspace / "right.json"), "--n", "50", "--seed", "9",
                     "--out", str(out_flags)]) == 0
        assert main(["simulate", "--spec", str(workspace / "right_50_9.json"), "--out", str(out_block)]) == 0
        assert out_flags.read_bytes() == out_block.read_bytes()

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


    @pytest.mark.parametrize(
        "family, skew, message",
        [
            pytest.param("shifted_lognormal", 1e-9,
                         "1e-09 is too close to zero for a lognormal match (use family 'normal' instead)",
                         id="lognormal-w-rounds-to-one"),
            pytest.param("mirrored_shifted_lognormal", -1e-300,
                         "-1e-300 is too close to zero for a lognormal match (use family 'normal' instead)",
                         id="mirrored-lognormal-w-rounds-to-one"),
            pytest.param("discrete", 1e20, "1e+20 gives one of the two points a probability below 2^-53",
                         id="two-point-p-high-rounds-to-zero"),
            pytest.param("discrete", 1e200, "1e+200 gives one of the two points a probability below 2^-53",
                         id="two-point-skew-squared-overflows"),
            pytest.param("discrete", 1e8, "100000000.0 gives one of the two points a probability below 2^-53",
                         id="two-point-high-point-never-drawn"),
        ],
    )
    def test_unmatchable_skew_exit_2(self, tmp_path, capsys, family, skew, message):
        spec = tmp_path / "block.json"
        spec.write_text(json.dumps({"family": family, "mean": 350, "std": 40, "skew": skew,
                                    "template": [-200, None, -100], "n": 10, "seed": 1}))
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == f"error: {spec}: field 'skew': {message}\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "family, std, skew, message",
        [
            pytest.param("normal", 1.7976931348622157e308, 0.0, "scenario 5: flow at t=1 is not finite: inf",
                         id="normal-product-overflows"),
            pytest.param("shifted_lognormal", 1e308, 5.0, "scenario 5: flow at t=1 is not finite: inf",
                         id="lognormal-exp-overflows"),
            pytest.param("mirrored_shifted_lognormal", 1e308, -5.0, "scenario 5: flow at t=1 is not finite: -inf",
                         id="mirrored-lognormal-exp-overflows"),
            pytest.param("shifted_lognormal", 1e308, 1.0, "scenario 0: flow at t=1 is not finite: nan",
                         id="lognormal-scale-overflows"),
        ],
    )
    def test_draws_past_the_float_range_exit_2_without_a_warning(self, tmp_path, capsys, family, std, skew, message):
        # the draw that leaves the float range is the row ScenarioSet refuses; numpy must not
        # warn about it first (a warning is an error in the test suite, and a second stderr
        # line from the CLI)
        spec = tmp_path / "block.json"
        spec.write_text(json.dumps({"family": family, "mean": 0.0, "std": std, "skew": skew,
                                    "template": [-1.0, None], "n": 100, "seed": 1}))
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == f"error: {spec}: {message}\n"
        assert not (tmp_path / "s.csv").exists()


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
        # full precision: the exactly rounded sum of F_0 and the discounted later flows
        assert float(cells[1]) == math.fsum([-200.0, 350.0 / 1.05, -100.0 / 1.05**2])
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
            ("skew", 1e19, 2, "field 'skew': no lognormal solution for skewness 1e+19"),
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

    @pytest.mark.parametrize("metric, code", [("npv", 0), ("mu", 1)])
    def test_npv_floor_below_minus_the_outlay(self, workspace, demo_dir, capsys, metric, code):
        # an NPV floor of -2000 is a valid NPV threshold, but no return reaches it
        out = workspace / "rank.json"
        projects = [str(demo_dir / f"project_{side}.json") for side in ("left", "right")]
        argv = ["rank", "--projects", *projects, "--curve", str(demo_dir / "curve_flat5.csv"),
                "--metric", metric, "--npv-star", "-2000", "--out", str(out)]
        assert main(argv) == code
        if code == 0:
            assert [e["threshold"] for e in json.loads(out.read_text())["entries"]] == [-2000.0] * 2
        else:
            assert capsys.readouterr().err.startswith("error: left-skewed: return undefined: ")

    @pytest.mark.parametrize(
        "command, flags, code, message",
        [
            ("rank", ("--grid=-2:0.1:0.1",), 1, "left-skewed: annualized return must exceed -1, got -2.0"),
            ("omega-curve", ("--grid=-3:0.3:0.5",), 1, "right-skewed: annualized return must exceed -1, got -3.0"),
            ("rank", ("--metric", "npv", "--grid", "0:1e200:1e199"), 2,
             "left-skewed: annualized return 1e+199 overflows (1+mu)^2"),
            ("rank", ("--metric", "mu", "--grid", "0:1e200:1e199"), 2,
             "left-skewed: annualized return 1e+199 overflows (1+mu)^2"),
        ],
    )
    def test_grid_hurdle_refusal_names_its_project(self, workspace, demo_dir, capsys, command, flags, code, message):
        # every grid point is converted, on either metric, under the project's id
        curve, out = str(demo_dir / "curve_flat5.csv"), str(workspace / "out")
        if command == "rank":
            projects = [str(demo_dir / f"project_{side}.json") for side in ("left", "right")]
            argv = ["rank", "--projects", *projects, "--curve", curve, "--delta-mu", "0.1", "--out", out]
        else:
            argv = ["omega-curve", "--project", str(demo_dir / "project_right.json"), "--curve", curve, "--out", out]
        assert main([*argv, *flags]) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_npv_threshold_of_the_right_demo_project_is_c2s(self, demo_dir, tmp_path):
        # the demo's outlays are deterministic, so the basis, their weighted mean over 1e5
        # rows, is the one outlay exactly and the threshold is C2's to the bit
        out = tmp_path / "rank.json"
        assert main(["rank", "--projects", str(demo_dir / "project_right.json"), "--curve",
                     str(demo_dir / "curve_flat5.csv"), "--delta-mu", "0.10", "--metric", "npv",
                     "--out", str(out)]) == 0
        curve = YieldCurve.flat(0.05, 2)
        basis = invomega.replicate((-200.0, 350.0, -100.0), curve).total_outlay
        c2 = invomega.thresholds(invomega.HurdleSpec("delta_mu", 0.10), basis, curve, 2)
        assert json.loads(out.read_text())["entries"][0]["threshold"] == c2.npv_star

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

    def test_rank_with_grid_on_one_project_writes_empty_crossings(self, workspace):
        # swept with no pairs: the key is there, unlike a run without --grid
        out = workspace / "rank.json"
        base = ["rank", "--projects", str(workspace / "right.json"), "--curve", str(workspace / "curve.csv"),
                "--mu-star", "0.15", "--out", str(out)]
        assert main([*base, "--grid", "0.05:0.25:0.01"]) == 0
        assert strict_json(out.read_text())["crossings"] == []
        assert main(base) == 0
        assert "crossings" not in strict_json(out.read_text())

    def test_rank_with_grid_on_one_project_converts_no_grid_point(self, demo_dir, tmp_path, capsys):
        # no pair, so no curve is evaluated: the mu* = -2 grid point is never refused
        out = tmp_path / "rank.json"
        assert main(["rank", "--projects", str(demo_dir / "project_right.json"),
                     "--curve", str(demo_dir / "curve_flat5.csv"), "--delta-mu", "0.1",
                     "--grid=-2:0.1:0.1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert strict_json(out.read_text())["crossings"] == []

    @pytest.mark.parametrize(
        "flag, kind, value",
        [("--delta-mu", "delta_mu", 0.1), ("--mu-star", "mu_star", 0.15), ("--npv-star", "npv_star", 20.0)],
    )
    def test_hurdle_flag_writes_its_kind_and_value(self, workspace, flag, kind, value):
        out = workspace / "rank.json"
        assert main(["rank", "--projects", str(workspace / "right.json"), "--curve", str(workspace / "curve.csv"),
                     flag, str(value), "--out", str(out)]) == 0
        assert strict_json(out.read_text())["hurdle"] == {"kind": kind, "value": value}

    def test_hurdle_group_dests_are_hurdle_kinds(self):
        # _cmd_rank reads the hurdle by its kind's name, so the flags' dests must be kinds
        rank_parser = build_parser()._subparsers._group_actions[0].choices["rank"]
        (group,) = rank_parser._mutually_exclusive_groups
        assert group.required
        assert tuple(action.dest for action in group._group_actions) == HURDLE_KINDS[:3]

    def test_duplicate_project_ids_exit_2(self, workspace, capsys):
        twin = json.loads((workspace / "left.json").read_text())
        twin["id"] = "right-skewed"
        (workspace / "twin.json").write_text(json.dumps(twin))
        out = workspace / "rank.json"
        code = main([
            "rank", "--projects", str(workspace / "twin.json"), str(workspace / "right.json"),
            "--curve", str(workspace / "curve.csv"), "--delta-mu", "0.1", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: two projects have the id 'right-skewed'\n"
        assert not out.exists()

    def test_grid_finer_than_the_float_spacing_ends(self, demo_dir, tmp_path):
        # the demo pair crosses near mu* = 0.15408151861672; a 1e-15 step there is a
        # few float spacings, so its bracket ends as two adjacent floats
        paths = []
        for side in ("left", "right"):
            descriptor = json.loads((demo_dir / f"project_{side}.json").read_text())
            descriptor["generator"]["n"] = 10000
            paths.append(tmp_path / f"{side}.json")
            paths[-1].write_text(json.dumps(descriptor))
        out = tmp_path / "rank.json"
        proc = run_cli(
            "rank", "--projects", *map(str, paths), "--curve", str(demo_dir / "curve_flat5.csv"),
            "--delta-mu", "0.1", "--grid", "0.1540815186:0.1540815187:1e-15", "--out", str(out),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        (pair,) = strict_json(out.read_text())["crossings"]
        (lo, hi), = pair["brackets"]
        assert lo < hi and math.nextafter(lo, hi) == hi

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
    @pytest.mark.parametrize("run,text", [
        (lambda: ScenarioSet("p", [(-1.0, 2.0)], [0.5, 0.5]), "2 weights for 1 samples"),
        (lambda: HurdleSpec("mu_star", math.inf), "hurdle value must be finite, got inf"),
        (lambda: YieldCurve.flat(0.05, 0), "horizon must be >= 1, got 0"),
        (["evaluate", "--project", "{dir}/mean_right.json", "--curve", "{dir}/no_rows.csv",
          "--out-dir", "{dir}/out"], "{dir}/no_rows.csv: no curve rows"),
        (["evaluate", "--project", "{dir}/generator_3.json", "--curve", "{dir}/curve.csv",
          "--out-dir", "{dir}/out"], "{dir}/generator_3.json: generator block must be a JSON object"),
        (["evaluate", "--project", "{dir}/file_3.json", "--curve", "{dir}/curve.csv",
          "--out-dir", "{dir}/out"], "{dir}/file_3.json: field 'scenario_file' must be a string, got 3"),
        (["evaluate", "--project", "{dir}/empty.json", "--curve", "{dir}/curve.csv",
          "--out-dir", "{dir}/out"], "{dir}/empty.csv: empty file"),
        (["omega-curve", "--project", "{dir}/mean_right.json", "--curve", "{dir}/curve.csv",
          "--grid=a:b:c", "--out", "{dir}/c.csv"], "grid must be numeric lo:hi:step, got 'a:b:c'"),
        (["omega-curve", "--project", "{dir}/mean_right.json", "--curve", "{dir}/curve.csv",
          "--grid=0:inf:1", "--out", "{dir}/c.csv"],
         "grid lo, hi, step and hi - lo must be finite, got '0:inf:1'"),
    ], ids=["weights", "hurdle", "horizon", "curve-rows", "generator", "scenario-file",
            "empty-csv", "grid-text", "grid-range"])
    def test_refusal_text(self, workspace, capsys, run, text):
        # a library call raises InputError with the text; a command exits 2 with one line
        if callable(run):
            with pytest.raises(InputError) as exc:
                run()
            assert type(exc.value) is InputError and str(exc.value) == text
        else:
            root = workspace.resolve()  # scenario_file paths are resolved
            (root / "no_rows.csv").write_text("tenor,rate\n")
            (root / "empty.csv").write_text("")
            for name, descriptor in (("generator_3", {"generator": 3}), ("file_3", {"scenario_file": 3}),
                                     ("empty", {"scenario_file": "empty.csv"})):
                (root / f"{name}.json").write_text(json.dumps({"id": "p", "horizon": 2, **descriptor}))
            assert main([arg.replace("{dir}", str(root)) for arg in run]) == 2
            assert capsys.readouterr().err == f"error: {text.replace('{dir}', str(root))}\n"

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

    def test_weights_summing_past_the_float_range_exit_2(self, workspace, capsys):
        # math.fsum raises OverflowError on these finite weights; it must not escape
        (workspace / "huge.csv").write_text("weight,t0,t1,t2\n1e308,-200,350,-100\n1e308,-200,300,-100\n")
        (workspace / "huge.json").write_text(
            json.dumps({"id": "huge", "horizon": 2, "scenario_file": "huge.csv"}))
        argv = ["evaluate", "--project", str(workspace / "huge.json"), "--curve",
                str(workspace / "curve.csv"), "--out-dir", str(workspace / "r")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {workspace / 'huge.csv'}: weights must sum to 1 within 1e-12, got nan\n")

    @pytest.mark.parametrize(
        "rows, metric",
        [
            # two equal outlays at the float limit average to that limit exactly, whatever
            # the weights; plain fsum of w * x overflowed here into a traceback
            (("0.5000000000001", "0.5"), "mu"),
            # the NPV threshold of about 1.7e307 lies that far above both NPVs of -1.8e308, so
            # call is 0 and Omega is 0, while the put (L - x) W passes the float range
            (("0.5000000000001", "0.5"), "npv"),
            (("0.5", "0.5"), "npv"),
        ],
        ids=["unequal-weights-mu", "unequal-weights-npv", "equal-weights-npv"],
    )
    def test_outlays_at_the_float_limit_exit_0_or_2(self, tmp_path, capsys, rows, metric):
        (tmp_path / "c.csv").write_text("tenor,rate\n1,0.05\n")
        (tmp_path / "p.csv").write_text(
            "weight,t0,t1\n" + "".join(f"{w},-1.7976931348623157e308,0.0\n" for w in rows))
        (tmp_path / "p.json").write_text(json.dumps({"id": "p", "horizon": 1, "scenario_file": "p.csv"}))
        out = tmp_path / "r.json"
        argv = ["rank", "--projects", str(tmp_path / "p.json"), "--curve", str(tmp_path / "c.csv"),
                "--delta-mu", "0.1", "--metric", metric, "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        if metric == "npv":
            entry = json.loads(out.read_text())["entries"][0]
            assert {name: entry[name] for name in ("threshold", "omega", "call", "put", "accept")} == {
                "threshold": 1.71208869986887e307, "omega": 0.0, "call": 0.0, "put": "inf",
                "accept": False}

    @pytest.mark.parametrize("metric, message", [
        ("mu", "the terms of a weighted mean leave the float range"),
        ("npv", "the partial moments of these samples leave the float range"),
    ])
    def test_weights_past_one_at_the_float_limit_exit_2(self, tmp_path, capsys, metric, message):
        # weights may sum to 1 + 1e-12, so the mean of two finite outlays can overflow, and so
        # can W_k times a gap of the NPV samples
        (tmp_path / "c.csv").write_text("tenor,rate\n1,0.05\n")
        (tmp_path / "p.csv").write_text("weight,t0,t1\n0.0,-1.0,0.0\n1.0000000000005,-1.7976931348623157e308,0.0\n")
        project = tmp_path / "p.json"
        project.write_text(json.dumps({"id": "p", "horizon": 1, "scenario_file": "p.csv"}))
        argv = ["rank", "--projects", str(project), "--curve", str(tmp_path / "c.csv"),
                "--mu-star", "0.1", "--metric", metric, "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {project}: {message}\n"

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
            ("evaluate", "huge_n.json", 2, "huge_n.json: n = 10"),
            ("rank", "huge_n.json", 2, "huge_n.json: n = 10"),
            ("simulate", "huge_n.json", 2, "huge_n.json: n = 10"),
            ("simulate --n 1" + "0" * 30, "right.json", 2, "right.json: n = 10"),
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
            ("radr-compare", "sum_overflow.json", 2, "sum_overflow.json: the replication sums"),
            # a subnormal outlay: the returns relative to it overflow
            ("evaluate", "tiny_outlay.json", 2, "tiny_outlay.json: the replication sums"),
            ("rank", "tiny_outlay.json", 2, "tiny_outlay.json: the replication sums"),
            ("omega-curve", "tiny_outlay.json", 2, "tiny_outlay.json: the replication sums"),
            ("radr-compare", "tiny_outlay.json", 2, "tiny_outlay.json: the replication sums"),
            ("radr-compare --mode paper-table4", "tiny_outlay.json", 2, "tiny_outlay.json: the replication sums"),
            # canonical-strict refuses the negative flow at t=2, naming its scenario CSV line
            ("radr-compare", "mean_right.json", 1, "mean_right.json: row 2 has negative flow"),
            ("radr-compare", "mixed.json", 1, "mixed.json: row 4 has negative flow -5.0 at t=2"),
            # a zero total outlay names its scenario CSV line after loading
            ("evaluate", "zero_outlay.json", 1, "zero_outlay.json: row 4: total outlay is zero"),
            ("rank", "zero_outlay.json", 1, "zero_outlay.json: row 4: total outlay is zero"),
        ],
    )
    def test_exit_code_contract_without_traceback(self, workspace, command, source, code, named):
        (workspace / "subnormal.csv").write_text("weight,t0,t1,t2\n1e-320,-200.0,0.0,0.0\n1.0,-200.0,350.0,-100.0\n")
        (workspace / "huge_flows.csv").write_text("t0,t1,t2\n-1.0,1e150,0.0\n-1e150,0.0,0.0\n")
        (workspace / "wide.csv").write_text("t0,t1,t2\n-1.0,1e200,0.0\n-1e200,0.0,0.0\n")
        (workspace / "sum_overflow.csv").write_text("t0,t1,t2\n-100,1e308,1e308\n")
        (workspace / "tiny_outlay.csv").write_text("t0,t1,t2\n-1e-320,1,1\n")
        (workspace / "zero_outlay.csv").write_text("t0,t1,t2\n-1,2,0\n\n0,0,0\n")
        (workspace / "mixed.csv").write_text("t0,t1,t2\n-1,2,3\n\n-1,2,-5\n")
        for stem in ("subnormal", "huge_flows", "wide", "sum_overflow", "tiny_outlay", "zero_outlay", "mixed"):
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

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            (("--r", "0.15", "--k", "0.05"), 2, "risk-adjusted rate 0.05 must be >= riskless rate 0.15"),
            (("--r", "-1.5", "--k", "0.15"), 2, "rate r: rate at tenor 1 must exceed -1, got -1.5"),
            (("--r", "0.05", "--k", "inf"), 2, "rate k: rate at tenor 1 is not finite: inf"),
            (("--r", "nan", "--k", "0.15"), 2, "rate r: rate at tenor 1 is not finite: nan"),
            (("--r", "0.05", "--k", "1e308", "--mode", "paper-table4"), 2,
             "rate k: growth factor (1+r_t)^t at tenor 2 is out of range: inf"),
            (("--r", "0.05", "--k", "0.15"), 1,
             "scenario 0 has negative flow -100.0 at t=2; only a t=0 outlay may be negative"),
        ],
    )
    def test_refusals_in_check_order(self, demo_dir, tmp_path, monkeypatch, capsys, flags, code, message):
        # the mode, then each rate as a flat curve, then k >= r, then the flows: the first
        # case fails both the rate order and the canonical-flow check
        monkeypatch.chdir(demo_dir.parent)
        argv = ["radr-compare", "--project", "demo/project_right.json", *flags,
                "--out", str(tmp_path / "radr.json")]
        assert main(argv) == code
        assert capsys.readouterr().err == f"error: demo/project_right.json: {message}\n"
        assert not (tmp_path / "radr.json").exists()

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

    def test_mean_flows_without_outlay_exit_1_naming_them(self, tmp_path, capsys):
        # canonical flows whose t0 are all 0: the mean flows have a zero total outlay, so their
        # MIRR, the kernel's mu at flat k, is undefined
        (tmp_path / "free.csv").write_text("t0,t1,t2\n0,10,20\n0,30,0\n")
        project = tmp_path / "free.json"
        project.write_text(json.dumps({"id": "free", "horizon": 2, "scenario_file": "free.csv"}))
        argv = ["radr-compare", "--project", str(project), "--r", "0.05", "--k", "0.15",
                "--out", str(tmp_path / "radr.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {project}: the mean flows: total outlay is zero: returns and PI are undefined\n"
        )
        assert not (tmp_path / "radr.json").exists()

    def test_mean_flows_in_range_exit_0_where_a_scenario_overflows(self, tmp_path, capsys):
        # the first scenario's NPV at r leaves the float range, the mean flows' does not: RADR
        # values only the mean flows, so it exits 0, while evaluate prices every scenario
        (tmp_path / "big.csv").write_text("t0,t1,t2\n-100,1e308,1e308\n-100,0,0\n")
        project = tmp_path / "big.json"
        project.write_text(json.dumps({"id": "big", "horizon": 2, "scenario_file": "big.csv"}))
        (tmp_path / "curve.csv").write_text("tenor,rate\n1,0.05\n2,0.05\n")
        out = tmp_path / "radr.json"
        argv = ["radr-compare", "--project", str(project), "--r", "0.05", "--k", "0.15", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        values = [report[name] for name in ("npv_at_k", "mirr_at_k", "mean_npv_at_r", "lambda_radr")]
        assert all(isinstance(v, float) and math.isfinite(v) for v in values + report["alpha_factors"])
        assert report["accept"] is True
        argv = ["evaluate", "--project", str(project), "--curve", str(tmp_path / "curve.csv"),
                "--out-dir", str(tmp_path / "report")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {project}: the replication sums or returns of these flows leave the float range\n"
        )

    def test_mean_flow_column_with_infinite_spread_exit_2(self, tmp_path, capsys):
        # the mean flows are anchored at each column's smallest flow, so a column of +-1e308
        # is refused with one error line, although its plain fsum of w * x is 0
        (tmp_path / "wide.csv").write_text("t0,t1,t2\n-1,1e308,1\n-1,-1e308,1\n")
        project = tmp_path / "wide.json"
        project.write_text(json.dumps({"id": "wide", "horizon": 2, "scenario_file": "wide.csv"}))
        argv = ["radr-compare", "--project", str(project), "--r", "0.05", "--k", "0.15",
                "--mode", "paper-table4", "--out", str(tmp_path / "radr.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {project}: the terms of a weighted mean leave the float range\n"

    def test_mean_flows_past_the_float_range_at_r_exit_2(self, tmp_path, capsys):
        # at r = -0.99 the present values of +-1e307 at t = 1 and 2 overflow to +-inf: the
        # kernel row at r refuses them before lambda_radr would sum inf and -inf
        (tmp_path / "big.csv").write_text("t0,t1,t2\n-1,1e307,-1e307\n")
        project = tmp_path / "big.json"
        project.write_text(json.dumps({"id": "big", "horizon": 2, "scenario_file": "big.csv"}))
        argv = ["radr-compare", "--project", str(project), "--r", "-0.99", "--k", "0",
                "--mode", "paper-table4", "--out", str(tmp_path / "radr.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {project}: the replication sums or returns of these flows leave the float range\n")
        assert not (tmp_path / "radr.json").exists()

    def test_every_field_matches_the_reference(self, tmp_path):
        # a weighted T = 30 CSV with construction outflows at t = 1..3, in paper-table4 mode
        rng = random.Random(97)
        horizon, n, r, k = 30, 300, 0.0209, 0.0743
        flows = [[-rng.uniform(800.0, 1200.0)] + [-rng.uniform(50.0, 150.0) for _ in range(3)]
                 + [rng.lognormvariate(math.log(120.0), 0.3) for _ in range(horizon - 3)] for _ in range(n)]
        raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
        total = math.fsum(raw)
        weights = [w / total for w in raw]
        header = "weight," + ",".join(f"t{t}" for t in range(horizon + 1))
        rows = [",".join(map(repr, [w, *row])) for w, row in zip(weights, flows)]
        (tmp_path / "long.csv").write_text("\n".join([header, *rows]) + "\n")
        project = tmp_path / "long.json"
        project.write_text(json.dumps({"id": "long", "horizon": horizon, "scenario_file": "long.csv"}))
        out = tmp_path / "radr.json"
        argv = ["radr-compare", "--project", str(project), "--r", repr(r), "--k", repr(k),
                "--mode", "paper-table4", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        curve_r, curve_k = YieldCurve.flat(r, horizon), YieldCurve.flat(k, horizon)
        means = reference.mean_flows(flows, weights)
        means_abs = reference.mean_flows([[abs(f) for f in row] for row in flows], weights)
        tol_r, tol_k = reference.radr_tolerance(means_abs, curve_r), reference.radr_tolerance(means_abs, curve_k)
        npv_at_k = reference.npv_at_k(means, curve_k)
        assert abs(report["npv_at_k"] - npv_at_k) <= tol_k
        assert report["mirr_at_k"] == pytest.approx(reference.mirr(means, k, k), rel=1e-10)
        mean_npv_at_r = reference.mean_npv_at_r(np.array(flows), np.array(weights), curve_r)
        assert abs(report["mean_npv_at_r"] - mean_npv_at_r) <= tol_r
        assert abs(report["lambda_radr"] - reference.lambda_radr(means, curve_r, curve_k)) <= tol_r
        alpha = reference.alpha_factors(curve_r, curve_k)
        assert report["alpha_factors"] == pytest.approx(alpha, rel=8 * (horizon + 2) * math.ulp(1.0))
        assert report["accept"] is (npv_at_k > 0.0)
        assert report["mode"] == "paper-table4"


class TestCommit:
    """A command writes all of its outputs or none, and leaves no temporary behind."""

    def rank_argv(self, workspace: Path, *outputs: str) -> list[str]:
        return ["rank", "--projects", str(workspace / "right.json"), "--curve", str(workspace / "curve.csv"),
                "--delta-mu", "0.1", *outputs]

    def test_directory_target_leaves_no_evaluation_csv(self, workspace, capsys):
        out_dir = workspace / "report"
        (out_dir / "summary.csv").mkdir(parents=True)
        argv = ["evaluate", "--project", str(workspace / "right.json"), "--curve", str(workspace / "curve.csv"),
                "--out-dir", str(out_dir)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{out_dir / 'summary.csv'}'\n")
        assert [p.name for p in out_dir.iterdir()] == ["summary.csv"]

    def test_file_in_the_csv_path_leaves_no_json(self, workspace, capsys):
        blocker = workspace / "blocker"
        blocker.write_text("a file, not a directory\n")
        before = sorted(workspace.iterdir())
        argv = self.rank_argv(workspace, "--out", str(workspace / "rank.json"), "--out-csv", str(blocker / "rank.csv"))
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 17] File exists: '{blocker}'\n")
        assert sorted(workspace.iterdir()) == before

    def test_refused_summary_names_the_spec_and_writes_no_csv(self, tmp_path, capsys):
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps({"family": "normal", "mean": 0, "std": 7e307, "skew": 0,
                                    "template": [-200, None, -100], "n": 10, "seed": 1}))
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "s.csv")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {spec}: samples and their spread x_max - x_min must be finite, got ")
        assert [p.name for p in tmp_path.iterdir()] == ["huge.json"]

    def test_failing_writer_leaves_the_previous_outputs(self, workspace, monkeypatch, capsys):
        out, out_csv = workspace / "rank.json", workspace / "rank.csv"
        out.write_text("previous report\n")
        out_csv.write_text("previous table\n")
        before = sorted(workspace.iterdir())

        def write_half_then_fail(report, path):
            Path(path).write_text("rank,project,")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(cli, "write_ranking_csv", write_half_then_fail)
        assert main(self.rank_argv(workspace, "--out", str(out), "--out-csv", str(out_csv))) == 2
        # the error names the output, not its temporary
        assert capsys.readouterr() == ("", f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{out_csv}'\n")
        assert (out.read_text(), out_csv.read_text()) == ("previous report\n", "previous table\n")
        assert sorted(workspace.iterdir()) == before

    @pytest.mark.parametrize("second", ["f", "sub/../f"])
    def test_two_outputs_naming_one_file_exit_2(self, workspace, capsys, second):
        argv = self.rank_argv(workspace, "--out", str(workspace / "f"), "--out-csv", str(workspace / second))
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: two outputs name the file '{workspace / second}'\n")
        assert not (workspace / "f").exists()

    @pytest.mark.parametrize("out, out_csv, error", [
        ("new/sub/r.json", "existing_dir", "[Errno 21] Is a directory: '{}'"),
        ("a/r.json", "a/r.json", "two outputs name the file '{}'"),
    ], ids=["directory", "duplicate"])
    def test_refused_outputs_make_no_directories(self, workspace, capsys, out, out_csv, error):
        (workspace / "existing_dir").mkdir()
        before = sorted(workspace.rglob("*"))
        assert main(self.rank_argv(workspace, "--out", str(workspace / out), "--out-csv", str(workspace / out_csv))) == 2
        assert capsys.readouterr() == ("", f"error: {error.format(workspace / out_csv)}\n")
        assert sorted(workspace.rglob("*")) == before

    def test_blocked_directory_removes_the_directories_it_made(self, workspace, capsys):
        blocker = workspace / "blocker"
        blocker.write_text("a file, not a directory\n")
        before = sorted(workspace.rglob("*"))
        argv = self.rank_argv(workspace, "--out", str(workspace / "new/sub/r.json"),
                              "--out-csv", str(blocker / "r.csv"))
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 17] File exists: '{blocker}'\n")
        assert sorted(workspace.rglob("*")) == before

    def test_failing_writer_removes_the_directories_it_made(self, workspace, monkeypatch, capsys):
        def fail(report, path):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(cli, "write_ranking_csv", fail)
        (workspace / "old").mkdir()
        before = sorted(workspace.rglob("*"))
        argv = self.rank_argv(workspace, "--out", str(workspace / "old/new/r.json"),
                              "--out-csv", str(workspace / "old/new/deeper/r.csv"))
        assert main(argv) == 2
        assert capsys.readouterr()[0] == ""
        assert sorted(workspace.rglob("*")) == before

    @pytest.mark.parametrize("kind", ["fifo", "symlink to a file", "symlink to /dev/null"])
    def test_symlink_device_or_fifo_target_is_written_in_place(self, workspace, capsys, kind):
        """Moving a temporary onto such a target would replace the entry itself."""
        plain, target, linked = workspace / "plain.json", workspace / "target.json", workspace / "linked.json"
        assert main(self.rank_argv(workspace, "--out", str(plain))) == 0
        if kind == "fifo":
            os.mkfifo(target)
            reader = os.open(target, os.O_RDONLY | os.O_NONBLOCK)  # so that the writer's open returns
        else:
            linked.write_text("previous report\n")
            os.symlink(os.devnull if kind == "symlink to /dev/null" else linked, target)
        entry_type = stat.S_IFMT(os.lstat(target).st_mode)
        assert main(self.rank_argv(workspace, "--out", str(target), "--out-csv", str(workspace / "rank.csv"))) == 0
        assert stat.S_IFMT(os.lstat(target).st_mode) == entry_type
        if kind == "fifo":
            try:
                assert os.read(reader, 1 << 20) == plain.read_bytes()
            finally:
                os.close(reader)
        elif kind == "symlink to a file":
            assert (os.readlink(target), linked.read_bytes()) == (str(linked), plain.read_bytes())
        else:
            assert os.readlink(target) == os.devnull and stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert (workspace / "rank.csv").exists() and not list(workspace.glob(".*.tmp"))
        capsys.readouterr()


# fixed before the test was first run; each sample is new draws, not a search for a failure
PERMUTATION_SEEDS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)


def test_row_order_does_not_change_any_weighted_report(tmp_path, capsys):
    """Permuting the rows of a weighted scenario CSV leaves every report but the per-row
    evaluation.csv byte-identical: summary.csv, rank.json on both metrics and radr.json. Of
    the 50 rows, 4 values are each shared by 3 rows of unequal weights, so a sum over the
    sorted samples meets tied rows in input order."""
    (tmp_path / "curve.csv").write_text("tenor,rate\n1,0.05\n2,0.05\n3,0.05\n")
    for seed in PERMUTATION_SEEDS:
        rng = np.random.default_rng(seed)
        flows = np.column_stack((
            -rng.uniform(150.0, 250.0, 50), rng.normal(350.0, 40.0, 50),
            rng.normal(0.0, 60.0, 50), -rng.uniform(0.0, 100.0, 50),
        )).round(2)
        for first in range(10, 22, 3):
            flows[first:first + 3] = flows[first]
        raw = rng.uniform(0.5, 1.5, 50)
        table = np.column_stack((raw / math.fsum(raw.tolist()), flows))
        reports = []
        for rows in (table, table[rng.permutation(50)]):
            run = tmp_path / f"{seed}-{len(reports)}"
            run.mkdir()
            (run / "p.csv").write_text("weight,t0,t1,t2,t3\n" + "".join(
                ",".join(map(repr, row)) + "\n" for row in rows.tolist()))
            (run / "p.json").write_text(json.dumps({"id": "p", "horizon": 3, "scenario_file": "p.csv"}))
            project, curve = str(run / "p.json"), str(tmp_path / "curve.csv")
            for argv in (
                ["evaluate", "--project", project, "--curve", curve, "--out-dir", str(run / "report")],
                *(["rank", "--projects", project, "--curve", curve, "--delta-mu", "0.05",
                   "--metric", metric, "--out", str(run / f"rank_{metric}.json")] for metric in ("mu", "npv")),
                ["radr-compare", "--project", project, "--r", "0.05", "--k", "0.15",
                 "--mode", "paper-table4", "--out", str(run / "radr.json")],
            ):
                assert main(argv) == 0, (seed, argv[0])
            reports.append([(run / name).read_bytes() for name in (
                "report/summary.csv", "rank_mu.json", "rank_npv.json", "radr.json")])
        assert reports[0] == reports[1], seed
    capsys.readouterr()


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
