"""End-to-end and per-layer benchmark of the invomega CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program under test is ``src/invomega`` of
this checkout, run as ``python -m invomega.cli`` with ``src`` first on
PYTHONPATH; nothing is installed. Inputs are written from ``--seed`` into
``.perfbench/work``; results and spans go to ``.perfbench/results``.

After the inputs and the set-up samples, a run measures for ``--seconds``:

--trace 0: untraced CLI children, one at a time. A *sequence* is the
workload's command list; sequences repeat while one more of the mean length
fits in the window (at least two). Reports the end-to-end metrics.

--trace 1: pairs of an untraced and a traced sequence while one more fits
in the window (at least three). A traced command is a ``tracing.py`` child
that runs ``invomega.cli.main`` with the same argv and records a span per
public call. Reports the per-layer metrics.

Every operation (CLI child or traced command) fails on a non-zero exit, a
traceback on stderr, an oracle mismatch or an output that differs byte for
byte from the first run's. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench"
SETUP_REPS = 3  # before the window; one more precedes each untraced sequence
MIN_PAIRS = 3  # untraced + traced sequence pairs in a trace run
CHILD_TIMEOUT_S = 60.0


@dataclass
class Operation:
    """One CLI child or traced command and what went wrong with it."""

    name: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    max_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs ``python -m invomega.cli`` children (or traced ones) one at a time and keeps every operation."""

    def __init__(self, log_dir: Path):
        self.log_dir = log_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.operations: list[Operation] = []

    def run(self, name: str, argv: tuple[str, ...] | list[str],
            program: tuple[str, ...] = ("-m", "invomega.cli")) -> Operation:
        op = Operation(name)
        self.operations.append(op)
        log = self.log_dir / f"{len(self.operations):04d}-{name}"
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *program, *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=self.log_dir)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
            op.wall_s = time.perf_counter() - start
        op.cpu_s = usage.ru_utime + usage.ru_stime
        op.max_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        stderr = Path(f"{log}.err").read_text(errors="replace")
        if proc.returncode != 0:
            op.problems.append(f"exit status {proc.returncode}: {stderr.strip()[-300:]}")
        elif "Traceback" in stderr:
            op.problems.append(f"traceback on stderr: {stderr.strip()[-300:]}")
        return op

    def sequence(self, commands: list[Command]) -> list[Operation]:
        return [self.run(c.name, c.argv) for c in commands]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_hashes(commands: list[Command], out_dir: Path) -> dict[str, str | None]:
    return {str(p.relative_to(out_dir)): sha256(p) if p.is_file() else None
            for c in commands for p in c.outputs}


def timing_summary(samples: list[float]) -> dict:
    """Median, and the highest nearest-rank percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "n": n, "tail_pct": None, "tail": None}
    if n > 10:
        pct = 100 * (n - 10) // n
        summary["tail_pct"] = pct
        summary["tail"] = ordered[max(1, math.ceil(pct * n / 100)) - 1]
    return summary


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def load_snapshot() -> dict:
    """/proc/loadavg and the machine's cumulative CPU steal time; read only."""
    snapshot = {"loadavg": "unavailable", "steal_s": None}
    try:
        snapshot["loadavg"] = Path("/proc/loadavg").read_text().strip()
        cpu = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        snapshot["steal_s"] = int(cpu[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return snapshot


def environment() -> dict:
    """What the run was measured on; read only, no setting is changed."""
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "invomega").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "load_start": load_snapshot(),
    }


def write_inputs(workload, seed: int, in_dir: Path) -> tuple[dict, dict[str, str]]:
    """Write the inputs twice and require identical bytes: inputs are a function of the seed."""
    hashes = []
    for attempt in (in_dir.with_name("inputs-check"), in_dir):
        attempt.mkdir(parents=True)
        params = workload.write_inputs(seed, attempt, None)
        hashes.append({p.name: sha256(p) for p in sorted(attempt.iterdir())})
    shutil.rmtree(in_dir.with_name("inputs-check"))
    if hashes[0] != hashes[1]:
        raise RuntimeError(f"inputs of seed {seed} are not reproducible: {hashes}")
    return params, hashes[1]


def check_first_sequence(workload, params, in_dir, out_dir, ops: list[Operation]) -> None:
    """Run the oracle on the first sequence's outputs; a mismatch fails its command."""
    if any(op.problems for op in ops):
        return
    try:
        verdict = workload.check(params, in_dir, out_dir)
    except Exception as exc:  # any unreadable output fails the command, not the benchmark
        verdict = {op.name: [f"oracle could not read the outputs: {exc!r}"] for op in ops}
    for op in ops:
        op.problems += verdict.get(op.name, [])


def fits_another(start: float, durations: list[float], seconds: float) -> bool:
    """True when one more iteration of the mean length so far ends within ``seconds`` of ``start``."""
    return time.perf_counter() - start + statistics.fmean(durations) <= seconds


def measure_untraced(runner: Runner, workload, params, in_dir: Path, run_dir: Path, start: float,
                     seconds: float, min_sequences: int, setup: list[float],
                     after=None) -> tuple[list[list[Operation]], dict]:
    """Sequences while another fits in ``seconds``; each must match the first byte for byte.

    A set-up sample precedes each sequence, so that ``setup_s`` spans the
    window as ``wall_s`` does. ``after(reference)``, if given, runs after
    each sequence, inside the window.
    """
    sequences, reference, durations = [], None, []
    while len(sequences) < min_sequences or fits_another(start, durations, seconds):
        begin = time.perf_counter()
        setup.append(runner.run("version", ["--version"]).wall_s)
        out_dir = run_dir / f"out{len(sequences)}"
        commands = workload.commands(params, in_dir, out_dir)
        ops = runner.sequence(commands)
        hashes = output_hashes(commands, out_dir)
        if reference is None:
            reference = hashes
            check_first_sequence(workload, params, in_dir, out_dir, ops)
        else:
            for op, command in zip(ops, commands):
                names = [str(p.relative_to(out_dir)) for p in command.outputs]
                changed = [name for name in names if hashes[name] != reference[name]]
                if changed:
                    op.problems.append(f"outputs differ from the first run (C6): {changed}")
            shutil.rmtree(out_dir)
        sequences.append(ops)
        if after is not None:
            after(reference)
        durations.append(time.perf_counter() - begin)
    return sequences, reference


def measure_setup(runner: Runner) -> list[float]:
    """``invomega --version``: interpreter start plus package import, after one warm-up."""
    runner.run("version", ["--version"])
    return [runner.run("version", ["--version"]).wall_s for _ in range(SETUP_REPS)]


class TracedSequences:
    """Traced sequences: one ``tracing.py`` child per command, each sequence right after an untraced one.

    Pairing them puts both under the same machine load, so that
    ``cli.unaccounted_s`` (their difference) is taken per pair.
    """

    def __init__(self, runner: Runner, workload, params, in_dir: Path, run_dir: Path, trace_prefix: str):
        self.runner, self.workload, self.params = runner, workload, params
        self.in_dir, self.run_dir, self.trace_prefix = in_dir, run_dir, trace_prefix
        self.ops: list[Operation] = []
        self.per_run: list[dict] = []
        self.spans: list[dict] = []
        self.command_s: list[float] = []
        self.missing: set[str] = set()
        self.origin = time.perf_counter()

    def run(self, reference: dict) -> None:
        trace_id = f"{self.trace_prefix}/traced{len(self.per_run)}"
        out_dir = self.run_dir / f"traced{len(self.per_run)}"
        dump = self.run_dir / "spans.json"
        commands = self.workload.commands(self.params, self.in_dir, out_dir)
        sequence_spans = []
        for command in commands:
            op = self.runner.run(f"traced {command.name}", command.argv,
                                 (str(HERE / "tracing.py"), "--name", command.name, "--spans", str(dump),
                                  "--probe-dir", str(out_dir / "probe"), "--"))
            self.ops.append(op)
            if not dump.is_file():
                op.problems.append("traced command wrote no spans")
                continue
            data = json.loads(dump.read_text())
            dump.unlink()
            self.missing.update(data["missing_hooks"])
            offset = len(sequence_spans)
            for span in data["spans"]:
                span.update(id=span["id"] + offset, trace=trace_id,
                            parent=None if span["parent"] is None else span["parent"] + offset)
            sequence_spans += data["spans"]
        hashes = output_hashes(commands, out_dir)
        if hashes != reference:
            self.ops[-1].problems.append(f"traced outputs differ from the CLI's: {hashes} vs {reference}")
        self.per_run.append(tracing.layer_metrics(sequence_spans))
        self.command_s.append(tracing.command_seconds(sequence_spans))
        for span in sequence_spans:
            span["start_s"], span["end_s"] = span.pop("start") - self.origin, span.pop("end") - self.origin
        self.spans += sequence_spans
        shutil.rmtree(out_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's seed in plan.json")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "invomega" / "cli.py").is_file():
        print(f"error: {SRC / 'invomega'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    plan = json.loads((HERE / "plan.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = WORKLOADS[args.workload]
    seed = plan["workloads"][workload.name]["default_seed"] if args.seed is None else args.seed
    label = f"{workload.name}-seed{seed}-trace{args.trace}"
    run_dir = OUT_ROOT / "work" / f"{label}-{os.getpid()}"
    results_dir = OUT_ROOT / "results"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "logs").mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    try:
        in_dir = run_dir / "inputs"
        params, input_hashes = write_inputs(workload, seed, in_dir)
        runner = Runner(run_dir / "logs")
        setup = measure_setup(runner)
        # the traced run alternates untraced and traced sequences (for cli.unaccounted_s)
        traced = TracedSequences(runner, workload, params, in_dir, run_dir, label) if args.trace else None
        start = time.perf_counter()
        sequences, reference = measure_untraced(runner, workload, params, in_dir, run_dir, start, args.seconds,
                                                MIN_PAIRS if args.trace else 2, setup, traced and traced.run)
        setup_s = statistics.median(setup)
        ops = runner.operations
        record = {"workload": workload.name, "seed": seed, "trace": args.trace,
                  "seconds": args.seconds, "params": params, "inputs_sha256": input_hashes,
                  "outputs_sha256": reference, "environment": env,
                  "setup_s_samples": setup}
        walls = [sum(op.wall_s for op in seq) for seq in sequences]
        if args.trace:
            per_run, spans = traced.per_run, traced.spans
            metrics = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
            for name in ("scenarios.csv_mb_written", "scenarios.csv_mb_read", "metrics.evaluation_csv_mb",
                         "ranking.crossing_pairs", "ranking.crossing_brackets"):
                if len({r[name] for r in per_run}) != 1:
                    traced.ops[-1].problems.append(f"count {name} differs between traced runs")
            n_commands = len(sequences[0])
            metrics["cli.unaccounted_s"] = statistics.median(
                wall - n_commands * setup_s - command for wall, command in zip(walls, traced.command_s))
            record.update(per_run=per_run, traced_command_s=traced.command_s, untraced_wall_s=walls,
                          missing_hooks=sorted(traced.missing))
            record["per_call_us"] = {
                name: timing_summary([1e6 * (s["end_s"] - s["start_s"]) for s in spans if s["name"] == name])
                for name in tracing.PER_CALL_SPANS
            }
            trace_path = results_dir / f"{label}.spans.json"
            trace_path.write_text(json.dumps(spans) + "\n")
            record["spans_file"] = str(trace_path.relative_to(ROOT))
        else:
            samples = {
                "wall_s": walls,
                "cpu_s": [sum(op.cpu_s for op in seq) for seq in sequences],
                "peak_rss_mb": [max(op.max_rss_mb for op in seq) for seq in sequences],
                "setup_s": setup,
            }
            metrics = {name: statistics.median(values) for name, values in samples.items()}
            record["end_to_end"] = {name: {"unit": units[name], **timing_summary(values), "samples": values}
                                    for name, values in samples.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if set(names) != set(metrics):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json names {sorted(names)}")
    metrics = {name: metrics[name] for name in names}
    failed = sum(1 for op in ops if op.problems)
    env["load_end"] = load_snapshot()
    steal = (None if env["load_start"]["steal_s"] is None or env["load_end"]["steal_s"] is None
             else env["load_end"]["steal_s"] - env["load_start"]["steal_s"])
    env["steal_s_during_run"] = steal
    record.update(attempted=len(ops), failed=failed, failed_frac=failed / len(ops),
                  problems=[f"{op.name}: {p}" for op in ops for p in op.problems])
    (results_dir / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {workload.name}  seed {seed}  trace {args.trace}  "
          f"nproc {env['nproc']}  load {env['load_start']['loadavg']} -> {env['load_end']['loadavg']}  "
          f"cpu steal {steal if steal is None else round(steal, 3)} s")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:34s} {value:14.6g} {units[name]}")
        print(f"  cli.unaccounted_s is the median over {len(walls)} pairs of an untraced and a traced sequence, "
              f"with setup_s the median of {len(setup)} samples")
        for hook in record["missing_hooks"]:
            print(f"  WARNING hooked attribute {hook} is gone; its layer reads 0")
        for name, summary in record["per_call_us"].items():
            print(f"  per call {name:25s} median {summary['median']:.6g} us  "
                  f"p{summary['tail_pct']} {summary['tail']:.6g} us  n={summary['n']}")
    else:
        for name, summary in record["end_to_end"].items():
            tail = ("n/a (needs more than 10 samples)" if summary["tail_pct"] is None
                    else f"{summary['tail']:.6g}")
            print(f"  {name:12s} median {summary['median']:10.6g} {summary['unit']:3s} "
                  f"p{summary['tail_pct'] or '-'} {tail}  n={summary['n']}")
    print(f"  {'failed_frac':12s} {failed / len(ops):.6g} frac ({failed} of {len(ops)} operations)")
    for problem in record["problems"][:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
