"""The benchmark's traced run wraps the module attributes named in
``perfbench/tracing.py`` ``HOOKS``, and its probes call a few names more. A
rename must fail here, not only as ``missing_hooks`` in a traced benchmark run.
The name checks load the file by path and only read it; the smoke test runs it
as a child process on a small project."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from operator import attrgetter
from pathlib import Path

import pytest

import invomega
from conftest import DEMO_DIR

TRACING = DEMO_DIR.parent / "perfbench" / "tracing.py"


def _tracing_hooks() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def test_every_hook_resolves_to_a_callable():
    hooks = _tracing_hooks()
    assert hooks
    gone = [f"{m}.{a}" for m, a, _, _ in hooks if not callable(getattr(importlib.import_module(m), a, None))]
    assert gone == []


@pytest.mark.parametrize(
    "module, name",
    [
        ("invomega.cashflows", "ScenarioSet.scenarios"),
        ("invomega.cashflows", "replicate"),
        ("invomega.distributions", "omega"),
        ("invomega.scenarios", "write_scenarios"),
        ("invomega.curves", "YieldCurve.forward_curve"),
        ("invomega.curves", "YieldCurve.growth_factor"),
    ],
)
def test_the_probes_call_names_that_exist(module, name):
    attrgetter(name)(importlib.import_module(module))


def test_traced_evaluate_runs_every_probe(tmp_path):
    # the probes call replicate, ScenarioSet.scenarios and forward_curve with what the
    # library returns, so a traced evaluate must end with every hook and probe span
    descriptor = json.loads((DEMO_DIR / "project_right.json").read_text())
    descriptor["generator"]["n"] = 500
    project = tmp_path / "project.json"
    project.write_text(json.dumps(descriptor))
    spans = tmp_path / "spans.json"
    argv = ["evaluate", "--project", str(project), "--curve", str(DEMO_DIR / "curve_flat5.csv"),
            "--out-dir", str(tmp_path / "report")]
    proc = subprocess.run(
        [sys.executable, str(TRACING), "--name", "evaluate", "--spans", str(spans),
         "--probe-dir", str(tmp_path / "probe"), "--", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(invomega.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["missing_hooks"] == []
    probes = Counter(s["name"] for s in record["spans"] if s.get("probe"))
    assert probes["cashflows.replicate"] == 200
    assert probes["curves.forward_curve"] == 200
    # the writer's span reads its bytes from the path it was given, the output's temporary
    (written,) = [s for s in record["spans"] if s["name"] == "metrics.write_evaluation_csv"]
    assert written["bytes"] == (tmp_path / "report" / "evaluation.csv").stat().st_size > 0


def _traced_spans(tmp_path, argv: list[str]) -> list[dict]:
    """The spans of one traced CLI run, after checking that it succeeded with every hook."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACING), "--name", argv[0], "--spans", str(spans),
         "--probe-dir", str(tmp_path / "probe"), "--", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(invomega.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["missing_hooks"] == []
    return record["spans"]


def test_traced_radr_compare_spans_the_valuation_and_its_mean_flows(tmp_path):
    argv = ["radr-compare", "--project", str(DEMO_DIR / "mean_right.json"), "--r", "0.05",
            "--k", "0.15", "--mode", "paper-table4", "--out", str(tmp_path / "radr.json")]
    spans = _traced_spans(tmp_path, argv)
    (valuation,) = [s for s in spans if s["name"] == "radr.radr_valuation"]
    assert [s["name"] for s in spans if s["parent"] == valuation["id"]] == ["radr.vertical_average"]


def test_traced_rank_sweep_spans_rank_and_no_pair_call_under_the_sweep(tmp_path):
    # the sweep solves all pairs in one crossing_on_grid call, so no hurdle_crossings span
    projects = []
    for side in ("left", "right", "long"):
        descriptor = json.loads((DEMO_DIR / f"project_{side}.json").read_text())
        descriptor["generator"]["n"] = 500
        projects.append(tmp_path / f"{side}.json")
        projects[-1].write_text(json.dumps(descriptor))
    argv = ["rank", "--projects", *map(str, projects), "--curve", str(DEMO_DIR / "curve_flat5_5y.csv"),
            "--delta-mu", "0.1", "--grid", "0.05:0.25:0.01", "--out", str(tmp_path / "rank.json")]
    spans = _traced_spans(tmp_path, argv)
    (sweep,) = [s for s in spans if s["name"] == "ranking.rank_with_crossings"]
    names = Counter(s["name"] for s in spans if s["name"] in ("ranking.rank", "ranking.hurdle_crossings"))
    assert names == {"ranking.rank": 1}
    assert all(s["parent"] == sweep["id"] for s in spans if s["name"] in names)
