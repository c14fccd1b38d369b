"""Self-test of the output oracle: injected defects must count as failed operations.

    python3 perfbench/selftest.py

Runs the simulate-evaluate and rank-sweep command sequences at N = 2000 on
real CLI children, requires the oracle to pass their outputs, then injects
four defects, each of which must be counted as a failed operation:

1. one NPV in a copy of evaluation.csv nudged by 1e-6;
2. one crossing bracket in a copy of rank.json widened past step/1024;
3. a CLI child that exits with a non-zero status;
4. an empty evaluation.csv, which the oracle cannot read at all.

Exits 0 only when the clean outputs pass and every defect is caught.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

from run import OUT_ROOT, SRC, Operation, Runner, check_first_sequence
from workloads import RANK_GRID, WORKLOADS
import oracle

SMALL_N = 2000
SEED = 7


def _produce(runner: Runner, name: str, root):
    workload = WORKLOADS[name]
    in_dir, out_dir = root / name / "inputs", root / name / "out"
    in_dir.mkdir(parents=True)
    params = workload.write_inputs(SEED, in_dir, SMALL_N)
    ops = runner.sequence(workload.commands(params, in_dir, out_dir))
    check_first_sequence(workload, params, in_dir, out_dir, ops)
    return workload, params, in_dir, out_dir, ops


def _recheck(workload, params, in_dir, defect_dir) -> list[Operation]:
    """The oracle's verdict on a modified copy, as fresh operations."""
    ops = [Operation(c.name) for c in workload.commands(params, in_dir, defect_dir)]
    check_first_sequence(workload, params, in_dir, defect_dir, ops)
    return ops


def nudge_npv(path) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[1][1] = repr(float(rows[1][1]) + 1e-6)
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def widen_bracket(path) -> None:
    report = json.loads(path.read_text())
    grid = oracle.parse_grid(RANK_GRID)
    pair = next(c for c in report["crossings"] if c["brackets"])
    lo, hi = pair["brackets"][0]
    pair["brackets"][0] = [lo, hi + (grid[1] - grid[0]) / 1024.0]
    path.write_text(json.dumps(report, indent=2) + "\n")


def main() -> int:
    if not (SRC / "invomega" / "cli.py").is_file():
        print(f"error: {SRC / 'invomega'} not found", file=sys.stderr)
        return 2
    root = OUT_ROOT / "work" / f"selftest-{os.getpid()}"
    (root / "logs").mkdir(parents=True)
    outcomes = []
    try:
        runner = Runner(root / "logs")
        produced = {name: _produce(runner, name, root)
                    for name in ("simulate-evaluate-1e5", "rank-sweep-8x1e4")}
        for name, (*_, ops) in produced.items():
            problems = [p for op in ops for p in op.problems]
            outcomes.append((f"clean {name} outputs pass", not problems, problems))

        workload, params, in_dir, out_dir, _ = produced["simulate-evaluate-1e5"]
        copy = root / "defect-npv"
        shutil.copytree(out_dir, copy)
        nudge_npv(copy / "report" / "evaluation.csv")
        ops = _recheck(workload, params, in_dir, copy)
        caught = [p for op in ops if op.name == "evaluate" for p in op.problems]
        outcomes.append(("NPV nudged by 1e-6 fails evaluate", bool(caught), caught))

        workload, params, in_dir, out_dir, _ = produced["rank-sweep-8x1e4"]
        copy = root / "defect-bracket"
        shutil.copytree(out_dir, copy)
        widen_bracket(copy / "rank.json")
        ops = _recheck(workload, params, in_dir, copy)
        caught = [p for op in ops for p in op.problems]
        outcomes.append(("bracket widened past step/1024 fails rank", bool(caught), caught))

        workload, params, in_dir, out_dir, _ = produced["simulate-evaluate-1e5"]
        copy = root / "defect-empty"
        shutil.copytree(out_dir, copy)
        (copy / "report" / "evaluation.csv").write_text("")
        ops = _recheck(workload, params, in_dir, copy)
        caught = [p for op in ops if op.name == "evaluate" for p in op.problems]
        outcomes.append(("empty evaluation.csv fails evaluate", bool(caught), caught))

        op = runner.run("evaluate", ["evaluate", "--project", str(root / "missing.json"),
                                     "--curve", str(in_dir / "curve.csv"), "--out-dir", str(copy)])
        outcomes.append(("non-zero exit fails the operation", bool(op.problems), op.problems))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    for label, ok, detail in outcomes:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        for line in detail[:3]:
            print(f"        {line[:200]}")
    return 0 if all(ok for _, ok, _ in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
