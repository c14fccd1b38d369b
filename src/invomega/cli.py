"""Command-line front door: simulate, evaluate, rank, omega-curve, radr-compare.

Exit status contract: 0 success, 1 computation-domain error, 2 configuration
or IO error (argparse errors included). Machine outputs (CSV/JSON) keep full
precision; only stdout applies display rounding.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

# The CLI makes no BLAS call, so it spares each process numpy's idle OpenBLAS
# workers. OpenBLAS reads the variable once, when numpy first loads (the layer
# imports below); a caller's value is kept, and one set here is removed again.
_PIN_BLAS = "OPENBLAS_NUM_THREADS" not in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .curves import YieldCurve
from .distributions import EmpiricalDistribution, summarize, write_omega_curve_csv, write_summary_csv
from .errors import EngineError, InputError, located
from .metrics import HurdleSpec, evaluate_set, write_evaluation_csv
from .radr import MODE_CANONICAL, MODES, RadrInput, radr_valuation
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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_strict(payload), indent=2, allow_nan=False) + "\n")


def _shown(stat: float | None, spec: str) -> str:
    """A summary statistic for stdout in the format ``spec``, or ``n/a`` where it is undefined."""
    return "n/a" if stat is None else format(stat, spec)


def _cmd_simulate(args: argparse.Namespace) -> int:
    project_id, _, spec = read_project(args.spec)
    if not isinstance(spec, GeneratorSpec):
        with located(args.spec):
            raise InputError("simulate needs a generator block, not a 'scenario_file'")
    if args.n is not None:
        if args.n < 1:
            raise InputError(f"--n must be a positive integer, got {args.n}")
        spec = replace(spec, n_scenarios=args.n)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    with located(args.spec):
        scenario_set = generate(spec, project_id=project_id)
    out = Path(args.out)
    write_scenarios(scenario_set, out)
    slot = spec.slot
    stats = summarize(EmpiricalDistribution(scenario_set.flows[:, slot]))
    print(f"wrote {len(scenario_set)} scenarios to {out}")
    print(
        f"stochastic flow t={slot}: mean={stats.mean:.4f} std={_shown(stats.std, '.4f')} "
        f"skewness={_shown(stats.skewness, '.4f')}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    scenario_set = load_project(Path(args.project))
    curve = YieldCurve.from_csv(args.curve)
    with located(args.project):
        results = evaluate_set(scenario_set, curve)
        # both summaries before either CSV, so a refused distribution leaves no partial report
        npv_stats = summarize(EmpiricalDistribution(results.npv, scenario_set.weights))
        mu_stats = summarize(EmpiricalDistribution(results.annualized_return, scenario_set.weights))
    out_dir = Path(args.out_dir)
    write_evaluation_csv(results, out_dir / "evaluation.csv")
    write_summary_csv({"npv": npv_stats, "mu": mu_stats}, out_dir / "summary.csv")
    print(f"evaluated {len(scenario_set)} scenarios of {scenario_set.project_id!r}")
    print(
        f"npv: mean={npv_stats.mean:.0f} median={npv_stats.median:.0f} "
        f"std={_shown(npv_stats.std, '.0f')} skewness={_shown(npv_stats.skewness, '.2f')}"
    )
    print(
        f"mu: mean={mu_stats.mean:.1%} median={mu_stats.median:.1%} "
        f"std={_shown(mu_stats.std, '.1%')} skewness={_shown(mu_stats.skewness, '.2f')}"
    )
    return 0


def _hurdle_from_args(args: argparse.Namespace) -> HurdleSpec:
    if args.delta_mu is not None:
        return HurdleSpec("delta_mu", args.delta_mu)
    if args.mu_star is not None:
        return HurdleSpec("mu_star", args.mu_star)
    return HurdleSpec("npv_star", args.npv_star)


def _cmd_rank(args: argparse.Namespace) -> int:
    curve = YieldCurve.from_csv(args.curve)
    projects = []
    for path in args.projects:
        scenario_set = load_project(Path(path))
        with located(path):
            projects.append(evaluate_project(scenario_set, curve, args.metric))
    hurdle = _hurdle_from_args(args)
    if args.grid is not None:
        report = rank_with_crossings(projects, hurdle, _parse_grid(args.grid))
    else:
        report = rank(projects, hurdle)
    _write_json(report.to_dict(), Path(args.out))
    if args.out_csv is not None:
        write_ranking_csv(report, Path(args.out_csv))
    for position, entry in enumerate(report.entries, start=1):
        verdict = "accept" if entry.accept else "reject"
        print(
            f"{position}. {entry.project_id}: omega={entry.omega:.3f} "
            f"({verdict}, threshold={entry.threshold:.4g})"
        )
    for pid in report.excluded:
        print(f"excluded (indeterminate omega): {pid}")
    print(f"wrote ranking report to {args.out}")
    return 0


def _cmd_omega_curve(args: argparse.Namespace) -> int:
    curve = YieldCurve.from_csv(args.curve)
    scenario_set = load_project(Path(args.project))
    with located(args.project):
        project = evaluate_project(scenario_set, curve, args.metric)
    grid = _parse_grid(args.grid)
    points = omega_vs_hurdle(project, grid)
    out = Path(args.out)
    write_omega_curve_csv(points, out)
    print(f"wrote {len(points.omega)} omega-curve points for {project.project_id!r} to {out}")
    return 0


def _cmd_radr_compare(args: argparse.Namespace) -> int:
    scenario_set = load_project(Path(args.project))
    with located(args.project):
        radr_input = RadrInput(scenario_set, riskless_rate=args.r, radr_rate=args.k, mode=args.mode)
        result = radr_valuation(radr_input)
    _write_json(result.to_dict(), Path(args.out))
    verdict = "accept" if result.accept else "reject"
    print(
        f"{scenario_set.project_id}: NPV(mean|k)={result.npv_at_k:.0f} "
        f"MIRR={result.mirr_at_k:.1%} "
        f"mean NPV(r)={result.mean_npv_at_r:.0f} lambda={result.lambda_radr:.0f} "
        f"-> {verdict}"
    )
    print(f"wrote RADR report to {args.out}")
    return 0


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
    p.add_argument("--grid", default=None, help="mu* grid lo:hi:step for crossing analysis")
    p.add_argument("--out", required=True, help="output JSON report")
    p.add_argument("--out-csv", default=None, help="optional tabular CSV report")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("omega-curve", help="Omega along a grid of hurdle rates")
    p.add_argument("--project", required=True, help="JSON project descriptor")
    p.add_argument("--curve", required=True, help="riskless curve CSV")
    p.add_argument("--metric", choices=METRICS, default="mu")
    p.add_argument("--grid", required=True, help="mu* grid lo:hi:step")
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
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:  # DomainError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
