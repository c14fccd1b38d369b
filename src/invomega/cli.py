"""Command-line front door: simulate, evaluate, rank, omega-curve, radr-compare.

Exit status contract: 0 success, 1 computation-domain error, 2 configuration
or IO error (argparse errors included). Machine outputs (CSV/JSON) keep full
precision; only stdout applies display rounding.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Sequence

# The CLI makes no BLAS call, so it spares each process numpy's idle OpenBLAS
# workers. OpenBLAS reads the variable once, when numpy first loads (the layer
# imports below); a caller's value is kept, and one set here is removed again.
_PIN_BLAS = "OPENBLAS_NUM_THREADS" not in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .curves import YieldCurve
from .distributions import EmpiricalDistribution, summarize, write_omega_curve_csv, write_summary_csv
from .errors import EngineError, InputError, located
from .metrics import HURDLE_KINDS, HurdleSpec, evaluate_set, write_evaluation_csv
from .radr import MODE_CANONICAL, MODES, radr_valuation
from .ranking import (
    METRICS,
    evaluate_project,
    omega_vs_hurdle,
    rank,
    rank_with_crossings,
    write_ranking_csv,
)
from .scenarios import GeneratorSpec, generate, load_project, read_project, write_scenarios
from . import __version__

if _PIN_BLAS:
    del os.environ["OPENBLAS_NUM_THREADS"]

MAX_GRID_POINTS = 1_000_000
# argparse reads "--grid -0.5:..." as an option without its argument
_GRID_FORM = "lo:hi:step (a negative lo needs --grid=lo:hi:step)"


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"grid must be numeric lo:hi:step, got {text!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step, hi - lo))):
        raise InputError(f"grid lo, hi, step and hi - lo must be finite, got {text!r}")
    if step <= 0.0 or hi <= lo:
        raise InputError(f"grid needs hi > lo and step > 0, got {text!r}")
    steps = (hi - lo) / step + 1e-9
    if not steps < MAX_GRID_POINTS:
        raise InputError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return [lo + i * step for i in range(int(steps) + 1)]


def _strict(value):
    """``value`` with each non-finite float spelled as in the CSVs: "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(_strict(payload), indent=2, allow_nan=False) + "\n")


def _shown(stat: float | None, spec: str) -> str:
    """A summary statistic for stdout in the format ``spec``, or ``n/a`` where it is undefined."""
    return "n/a" if stat is None else format(stat, spec)


def _cmd_simulate(args: argparse.Namespace) -> tuple[list, list[str]]:
    project_id, _, spec = read_project(args.spec)
    if not isinstance(spec, GeneratorSpec):
        with located(args.spec):
            raise InputError("simulate needs a generator block, not a 'scenario_file'")
    if args.n is not None and args.n < 1:
        raise InputError(f"--n must be a positive integer, got {args.n}")
    overrides = {key: getattr(args, key) for key in ("n", "seed") if getattr(args, key) is not None}
    spec = replace(spec, **overrides)
    with located(args.spec):
        scenario_set = generate(spec, project_id=project_id)
        stats = summarize(EmpiricalDistribution(scenario_set.flows[:, spec.slot]))
    return [(Path(args.out), lambda path: write_scenarios(scenario_set, path))], [
        f"wrote {len(scenario_set)} scenarios to {Path(args.out)}",
        f"stochastic flow t={spec.slot}: mean={stats.mean:.4f} std={_shown(stats.std, '.4f')} "
        f"skewness={_shown(stats.skewness, '.4f')}",
    ]


def _cmd_evaluate(args: argparse.Namespace) -> tuple[list, list[str]]:
    scenario_set = load_project(Path(args.project))
    curve = YieldCurve.from_csv(args.curve)
    with located(args.project):
        results = evaluate_set(scenario_set, curve)
        npv_stats = summarize(EmpiricalDistribution(results.npv, scenario_set.weights))
        mu_stats = summarize(EmpiricalDistribution(results.annualized_return, scenario_set.weights))
    out_dir = Path(args.out_dir)
    return [
        (out_dir / "evaluation.csv", lambda path: write_evaluation_csv(results, path)),
        (out_dir / "summary.csv", lambda path: write_summary_csv({"npv": npv_stats, "mu": mu_stats}, path)),
    ], [
        f"evaluated {len(scenario_set)} scenarios of {scenario_set.project_id!r}",
        f"npv: mean={npv_stats.mean:.0f} median={npv_stats.median:.0f} "
        f"std={_shown(npv_stats.std, '.0f')} skewness={_shown(npv_stats.skewness, '.2f')}",
        f"mu: mean={mu_stats.mean:.1%} median={mu_stats.median:.1%} "
        f"std={_shown(mu_stats.std, '.1%')} skewness={_shown(mu_stats.skewness, '.2f')}",
    ]


def _cmd_rank(args: argparse.Namespace) -> tuple[list, list[str]]:
    curve = YieldCurve.from_csv(args.curve)
    projects = []
    for path in args.projects:
        scenario_set = load_project(Path(path))
        with located(path):
            projects.append(evaluate_project(scenario_set, curve, args.metric))
    # the hurdle group's dests are hurdle kinds, and argparse sets exactly one of them
    kind = next(kind for kind in HURDLE_KINDS if getattr(args, kind, None) is not None)
    hurdle = HurdleSpec(kind, getattr(args, kind))
    if args.grid is not None:
        report = rank_with_crossings(projects, hurdle, _parse_grid(args.grid))
    else:
        report = rank(projects, hurdle)
    outputs = [(Path(args.out), lambda path: _write_json(report.to_dict(), path))]
    if args.out_csv is not None:
        outputs.append((Path(args.out_csv), lambda path: write_ranking_csv(report, path)))
    lines = [
        f"{position}. {entry.project_id}: omega={entry.omega:.3f} "
        f"({'accept' if entry.accept else 'reject'}, threshold={entry.threshold:.4g})"
        for position, entry in enumerate(report.entries, start=1)
    ]
    lines += [f"excluded (indeterminate omega): {pid}" for pid in report.excluded]
    return outputs, [*lines, f"wrote ranking report to {args.out}"]


def _cmd_omega_curve(args: argparse.Namespace) -> tuple[list, list[str]]:
    curve = YieldCurve.from_csv(args.curve)
    scenario_set = load_project(Path(args.project))
    with located(args.project):
        project = evaluate_project(scenario_set, curve, args.metric)
    grid = _parse_grid(args.grid)
    points = omega_vs_hurdle(project, grid)
    return [(Path(args.out), lambda path: write_omega_curve_csv(points, path))], [
        f"wrote {len(points.omega)} omega-curve points for {project.project_id!r} to {Path(args.out)}"
    ]


def _cmd_radr_compare(args: argparse.Namespace) -> tuple[list, list[str]]:
    scenario_set = load_project(Path(args.project))
    with located(args.project):
        result = radr_valuation(scenario_set, args.r, args.k, args.mode)
    return [(Path(args.out), lambda path: _write_json(asdict(result), path))], [
        f"{scenario_set.project_id}: NPV(mean|k)={result.npv_at_k:.0f} "
        f"MIRR={result.mirr_at_k:.1%} "
        f"mean NPV(r)={result.mean_npv_at_r:.0f} lambda={result.lambda_radr:.0f} "
        f"-> {'accept' if result.accept else 'reject'}",
        f"wrote RADR report to {args.out}",
    ]


def _commit(outputs: list[tuple[Path, Callable[[Path], None]]]) -> None:
    """Write all of ``outputs``, (final path, writer of a path) pairs, or none: refuse a
    duplicate or a directory among them before making any parent directories; then write
    each to a temporary sibling, and move them onto their names only once all are written.
    A symlink, device or FIFO target, which a move would replace (``/dev/null`` included),
    is instead written in place after every temporary."""
    for i, (path, _) in enumerate(outputs):
        if path.resolve() in [earlier.resolve() for earlier, _ in outputs[:i]]:
            raise InputError(f"two outputs name the file {str(path)!r}")
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    for path, _ in outputs:
        path.parent.mkdir(parents=True, exist_ok=True)
    plan = sorted(  # in-place targets last
        ((path, write, path.is_symlink() or path.exists() and not path.is_file())
         for path, write in outputs), key=lambda step: step[2])
    temporaries = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp")
                   for path, _, in_place in plan if not in_place}
    try:
        for path, write, _ in plan:
            target = temporaries.get(path, path)
            try:
                write(target)
            except OSError as exc:  # the error names the output, not its temporary
                exc.filename = str(path) if exc.filename == str(target) else exc.filename
                raise
        for path, temporary in temporaries.items():
            os.replace(temporary, path)
    finally:  # a temporary moved onto its output is gone already
        for temporary in temporaries.values():
            temporary.unlink(missing_ok=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invomega",
        description=(
            "Evaluate risky investment projects against their riskless "
            "replication and rank them by the Omega measure."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a scenario CSV from a generator spec")
    p.add_argument("--spec", required=True, help="JSON project descriptor or generator block")
    p.add_argument("--n", type=int, default=None, help="override scenario count")
    p.add_argument("--seed", type=int, default=None, help="override random seed")
    p.add_argument("--out", required=True, help="output scenario CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evaluate", help="per-scenario metrics and distribution summaries")
    p.add_argument("--project", required=True, help="JSON project descriptor")
    p.add_argument("--curve", required=True, help="riskless curve CSV (tenor,rate)")
    p.add_argument("--out-dir", required=True, help="directory for evaluation.csv and summary.csv")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("rank", help="rank projects by Omega at a shared hurdle")
    p.add_argument("--projects", required=True, nargs="+", help="JSON project descriptors")
    p.add_argument("--curve", required=True, help="riskless curve CSV")
    hurdle = p.add_mutually_exclusive_group(required=True)
    hurdle.add_argument("--delta-mu", type=float, default=None, help="return premium over r_T")
    hurdle.add_argument("--mu-star", type=float, default=None, help="annualized return floor")
    hurdle.add_argument("--npv-star", type=float, default=None, help="NPV floor")
    p.add_argument("--metric", choices=METRICS, default="mu")
    p.add_argument("--grid", default=None, help=f"mu* grid for crossing analysis, {_GRID_FORM}")
    p.add_argument("--out", required=True, help="output JSON report")
    p.add_argument("--out-csv", default=None, help="optional tabular CSV report")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("omega-curve", help="Omega along a grid of hurdle rates")
    p.add_argument("--project", required=True, help="JSON project descriptor")
    p.add_argument("--curve", required=True, help="riskless curve CSV")
    p.add_argument("--metric", choices=METRICS, default="mu")
    p.add_argument("--grid", required=True, help=f"mu* grid {_GRID_FORM}")
    p.add_argument("--out", required=True, help="output CSV (threshold,call,put,omega)")
    p.set_defaults(func=_cmd_omega_curve)

    p = sub.add_parser("radr-compare", help="conventional valuation on mean flows")
    p.add_argument("--project", required=True, help="JSON project descriptor")
    p.add_argument("--r", type=float, required=True, help="flat riskless rate")
    p.add_argument("--k", type=float, required=True, help="risk-adjusted rate (k >= r)")
    p.add_argument("--mode", choices=list(MODES), default=MODE_CANONICAL)
    p.add_argument("--out", required=True, help="output JSON report")
    p.set_defaults(func=_cmd_radr_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outputs, lines = args.func(args)
        _commit(outputs)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:  # DomainError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(*lines, sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
