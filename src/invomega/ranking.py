"""Project ranking by the Omega measure at an investor hurdle.

Every project is reduced to the empirical distribution of one metric (NPV or
annualized return mu). A shared hurdle is converted per project into a
threshold on that metric, Omega is evaluated there, and projects are ordered
by decreasing Omega. The hurdle sweep produces Omega-vs-hurdle curves whose
ranking flips can be localized exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .cashflows import ScenarioSet
from .csvio import write_csv
from .curves import YieldCurve
from .distributions import (
    EmpiricalDistribution,
    OmegaResult,
    SummaryStats,
    _check_grid,
    _omega_at,
    crossing_on_grid,
    omega,
    summarize,
)
from .errors import InputError, located
from .metrics import HurdleSpec, evaluate_set, mean_basis_outlay, metric_thresholds

METRICS = ("npv", "mu")


@dataclass(frozen=True)
class ProjectEvaluation:
    """One project's metric distribution and the basis, horizon and curve of its hurdles."""

    project_id: str
    metric: str
    distribution: EmpiricalDistribution
    basis_outlay: float
    horizon: int
    curve: YieldCurve

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InputError(f"unknown metric {self.metric!r}, expected one of {METRICS}")


def evaluate_project(
    scenario_set: ScenarioSet, curve: YieldCurve, metric: str
) -> ProjectEvaluation:
    """Evaluate all scenarios and collect the chosen metric's distribution.

    The threshold basis is the weighted mean of the per-scenario total
    outlays (a single number when the negative flows are deterministic).
    """
    results = evaluate_set(scenario_set, curve)
    samples = results.npv if metric == "npv" else results.annualized_return
    return ProjectEvaluation(
        project_id=scenario_set.project_id,
        metric=metric,
        distribution=EmpiricalDistribution(samples, scenario_set.weights),
        basis_outlay=mean_basis_outlay(results, scenario_set.weights),
        horizon=scenario_set.horizon,
        curve=curve,
    )


def _thresholds(project: ProjectEvaluation, kind: str, values: Sequence[float]) -> list[float]:
    """``metrics.metric_thresholds`` of the project, on its own curve, at each hurdle value of
    one kind, as Python floats (libm ``pow``), with every refusal naming the project."""
    with located(project.project_id):
        return metric_thresholds(
            kind, np.asarray(values, dtype=float).tolist(), project.metric,
            project.basis_outlay, project.curve, project.horizon,
        )


def metric_threshold(project: ProjectEvaluation, hurdle: HurdleSpec) -> float:
    """The hurdle expressed on the project's metric scale."""
    return _thresholds(project, hurdle.kind, [hurdle.value])[0]


# The fields of the report types below, in order, are the rank.json layout.
@dataclass(frozen=True)
class RankingEntry:
    """One ranked project: Omega with its call and put at the project's threshold."""

    project_id: str
    threshold: float
    omega: float
    call: float
    put: float
    accept: bool
    summary: SummaryStats


@dataclass(frozen=True)
class PairCrossings:
    """Refined hurdle brackets where two projects swap rank."""

    project_a: str
    project_b: str
    brackets: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class RankingReport:
    hurdle: HurdleSpec
    metric: str
    entries: tuple[RankingEntry, ...]
    order: tuple[str, ...]
    excluded: tuple[str, ...]
    crossings: tuple[PairCrossings, ...] = ()

    def to_dict(self) -> dict:
        """The fields in order, nested dataclasses as dicts; ``crossings`` only when swept."""
        payload = asdict(self)
        if not self.crossings:
            del payload["crossings"]
        return payload


def _sort_key(entry: RankingEntry):
    # Best first: higher Omega (+inf above every finite value; among infinite
    # Omegas, higher call), then higher mean, lower std, project id.
    std = entry.summary.std if entry.summary.std is not None else 0.0
    return (
        -entry.omega,
        -entry.call if math.isinf(entry.omega) else 0.0,
        -entry.summary.mean,
        std,
        entry.project_id,
    )


def rank(projects: Sequence[ProjectEvaluation], hurdle: HurdleSpec) -> RankingReport:
    """Rank projects, all evaluated on one metric, by Omega at the hurdle, best first.

    A project is flagged accepted when its Omega is at least 1. Projects whose
    Omega is indeterminate at the threshold (no mass on either side) are left
    out of the order and listed in ``excluded``.
    """
    if not projects:
        raise InputError("need at least one project to rank")
    metric = projects[0].metric
    for p in projects:
        if p.metric != metric:
            raise InputError(
                f"projects {projects[0].project_id!r} and {p.project_id!r} were evaluated on "
                f"different metrics, {metric!r} and {p.metric!r}"
            )
    ranked: list[RankingEntry] = []
    excluded: list[str] = []
    for p in projects:
        lam = metric_threshold(p, hurdle)
        result = omega(p.distribution, lam)
        if result.is_indeterminate:
            excluded.append(p.project_id)
            continue
        ranked.append(RankingEntry(
            p.project_id, lam, result.omega, result.call, result.put,
            accept=result.omega >= 1.0, summary=summarize(p.distribution),
        ))
    ranked.sort(key=_sort_key)
    return RankingReport(
        hurdle=hurdle,
        metric=metric,
        entries=tuple(ranked),
        order=tuple(e.project_id for e in ranked),
        excluded=tuple(excluded),
    )


def omega_vs_hurdle(project: ProjectEvaluation, mu_grid: Sequence[float]) -> OmegaResult:
    """Omega along a grid of annualized-return hurdles mu*, one row per point.

    For the npv metric each mu* is first converted to its NPV threshold on the
    project's outlay basis (the result's ``threshold``); either way the curve
    is nonincreasing in mu*.
    """
    _check_grid(mu_grid)
    return _omega_at(project.distribution, _thresholds(project, "mu_star", mu_grid))


def hurdle_crossings(
    project_a: ProjectEvaluation, project_b: ProjectEvaluation, mu_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Hurdle intervals (width <= grid step / 1024) where the pair's ranking flips."""
    omega_a, omega_b = (
        lambda mus, p=p: _omega_at(p.distribution, _thresholds(p, "mu_star", mus)).omega
        for p in (project_a, project_b)
    )
    return crossing_on_grid(mu_grid, omega_a, omega_b)


def rank_with_crossings(
    projects: Sequence[ProjectEvaluation], hurdle: HurdleSpec, mu_grid: Sequence[float]
) -> RankingReport:
    """rank() plus pairwise ranking-flip brackets over a shared mu* grid."""
    report = rank(projects, hurdle)
    _check_grid(mu_grid)
    pairs = tuple(
        PairCrossings(a.project_id, b.project_id, tuple(hurdle_crossings(a, b, mu_grid)))
        for i, a in enumerate(projects)
        for b in projects[i + 1:]
    )
    return replace(report, crossings=pairs)


def write_ranking_csv(report: RankingReport, target: str | Path | IO[str]) -> None:
    """Tabular ranking: ``rank,project,omega,call,put,threshold,accept``."""
    entries = report.entries
    write_csv(target, {
        "rank": range(1, len(entries) + 1),
        "project": [e.project_id for e in entries],
        **{name: [getattr(e, name) for e in entries]
           for name in ("omega", "call", "put", "threshold", "accept")},
    })
