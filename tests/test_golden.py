"""Golden output hashes: every output byte of the README demo commands and of the
benchmark's two gated workloads, as a standing test.

``golden.json`` holds, for each command, its exit code and the sha256 of its
stdout, its stderr and each file it wrote. Each command runs through
``cli.main`` in a fresh temporary directory, with relative paths: the demo
commands on a copy of ``demo/``, the workload commands on inputs that
``perfbench/workloads.py`` writes from the workload's default seed. A change
that moves output bytes rewrites the file with

    PYTHONPATH=src python tests/test_golden.py --write

and says in CHANGES.md which hashes moved and why. The bytes are pinned for
x86-64 with glibc (README "Everything is deterministic"); elsewhere the test
is skipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from invomega import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
PERFBENCH = ROOT / "perfbench"

# the README quick-start commands, the canonical-strict RADR that exits 1, and the
# horizon-5 crossing example
DEMO_COMMANDS = {
    "simulate": "simulate --spec demo/project_right.json --n 1000 --seed 42 --out right.csv",
    "evaluate": "evaluate --project demo/project_right.json --curve demo/curve_flat5.csv "
                "--out-dir report/",
    "rank-npv": "rank --projects demo/project_right.json demo/project_left.json "
                "--curve demo/curve_flat5.csv --delta-mu 0.10 --metric npv --out rank.json",
    "omega-curve": "omega-curve --project demo/project_right.json --curve demo/curve_flat5.csv "
                   "--metric mu --grid 0.00:0.25:0.005 --out curve.csv",
    "radr-table4": "radr-compare --project demo/mean_right.json --r 0.05 --k 0.15 "
                   "--mode paper-table4 --out radr.json",
    "radr-strict": "radr-compare --project demo/mean_right.json --r 0.05 --k 0.15 "
                   "--mode canonical-strict --out radr.json",
    "rank-horizons": "rank --projects demo/project_long.json demo/project_left.json "
                     "--curve demo/curve_flat5_5y.csv --delta-mu 0.10 --grid 0.05:0.25:0.01 "
                     "--out rank.json",
}
WORKLOAD_SEEDS = {"rank-sweep-8x1e4": 2, "csv-long-horizon-1e4": 3}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _workloads():
    """``perfbench/workloads.py`` loaded by path (its dataclasses need it in ``sys.modules``);
    it imports ``oracle`` by bare name."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module.WORKLOADS


def _files(cwd: Path) -> list[Path]:
    return sorted(p for p in cwd.rglob("*") if p.is_file())


def _run(argv: list[str], cwd: Path) -> dict:
    """Exit code and sha256 of stdout, stderr and every file that the command made under ``cwd``."""
    before = _files(cwd)
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    return {
        "argv": " ".join(argv),
        "exit": code,
        "stdout": _sha256(out.getvalue().encode()),
        "stderr": _sha256(err.getvalue().encode()),
        "outputs": {p.relative_to(cwd).as_posix(): _sha256(p.read_bytes())
                    for p in _files(cwd) if p not in before},
    }


def record(tmp: Path) -> dict:
    """The golden record of every command, each run in its own directory under ``tmp``."""
    commands = {}
    for name, line in DEMO_COMMANDS.items():
        cwd = tmp / name
        shutil.copytree(ROOT / "demo", cwd / "demo")
        commands[name] = _run(line.split(), cwd)
    workloads = _workloads()
    for workload_name, seed in WORKLOAD_SEEDS.items():
        workload = workloads[workload_name]
        cwd = tmp / workload_name
        (cwd / "in").mkdir(parents=True)
        params = workload.write_inputs(seed, cwd / "in", None)
        for command in workload.commands(params, Path("in"), Path("out")):
            commands[f"{workload_name}/{command.name}"] = _run(list(command.argv), cwd)
    return {"numpy": np.__version__, "commands": commands}


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or platform.libc_ver()[0] != "glibc",
    reason="golden.json pins the output bytes on x86-64 with glibc only; another C library "
           "or architecture may round a libm call differently",
)
def test_outputs_match_golden_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text())["commands"]
    got = record(tmp_path)["commands"]
    assert list(got) == list(golden)
    for name, expected in golden.items():
        assert got[name] == expected, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(record(Path(tmp)), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
