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
from typing import Sequence

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
    record_row,
    summarize,
    weighted_mean,
)
from .errors import InputError, located
from .metrics import HurdleSpec, evaluate_set, metric_thresholds

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
        basis_outlay=weighted_mean(results.total_outlay, scenario_set.weights),
        horizon=scenario_set.horizon,
        curve=curve,
    )


def _omega_on(project: ProjectEvaluation, kind: str, values: Sequence[float]) -> OmegaResult:
    """Omega at each hurdle value of one kind, converted by ``metrics.metric_thresholds`` on
    the project's basis, horizon and curve, every refusal naming the project: the only path
    from hurdles to Omega."""
    with located(project.project_id):
        lam = metric_thresholds(
            kind, np.asarray(values, dtype=float).tolist(), project.metric,
            project.basis_outlay, project.curve, project.horizon,
        )
        return _omega_at(project.distribution, lam)


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
    crossings: tuple[PairCrossings, ...] | None = None  # None: not swept

    def to_dict(self) -> dict:
        """The fields in order, nested dataclasses as dicts; ``crossings`` only when swept."""
        payload = asdict(self)
        if self.crossings is None:
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


def _one_metric(projects: Sequence[ProjectEvaluation]) -> str:
    """The metric all of ``projects`` were evaluated on: Omegas on two metrics do not compare."""
    if not projects:
        raise InputError("need at least one project to rank")
    for p in projects:
        if p.metric != projects[0].metric:
            raise InputError(
                f"projects {projects[0].project_id!r} and {p.project_id!r} were evaluated on "
                f"different metrics, {projects[0].metric!r} and {p.metric!r}"
            )
    return projects[0].metric


def rank(projects: Sequence[ProjectEvaluation], hurdle: HurdleSpec) -> RankingReport:
    """Rank projects (one metric, distinct ids) by Omega at the hurdle, best first.

    A project is flagged accepted when its Omega is at least 1. Projects whose
    Omega is indeterminate at the threshold (no mass on either side) are left
    out of the order and listed in ``excluded``.
    """
    metric = _one_metric(projects)
    ids: set[str] = set()
    for p in projects:
        if p.project_id in ids:
            raise InputError(f"two projects have the id {p.project_id!r}")
        ids.add(p.project_id)
    ranked: list[RankingEntry] = []
    excluded: list[str] = []
    for p in projects:
        result = record_row(_omega_on(p, hurdle.kind, [hurdle.value]), 0)
        if result.is_indeterminate:
            excluded.append(p.project_id)
            continue
        ranked.append(RankingEntry(
            p.project_id, result.threshold, result.omega, result.call, result.put,
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
    return _omega_on(project, "mu_star", mu_grid)


def _mu_curves(projects: Sequence[ProjectEvaluation]) -> list:
    """Each project's Omega as a function of an array of mu* hurdles, for ``crossing_on_grid``."""
    return [lambda mus, p=p: _omega_on(p, "mu_star", mus).omega for p in projects]


def hurdle_crossings(
    project_a: ProjectEvaluation, project_b: ProjectEvaluation, mu_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Hurdle intervals (width <= grid step / 1024) where the pair's ranking flips."""
    _one_metric([project_a, project_b])
    return crossing_on_grid(mu_grid, _mu_curves([project_a, project_b]))[0]


def rank_with_crossings(
    projects: Sequence[ProjectEvaluation], hurdle: HurdleSpec, mu_grid: Sequence[float]
) -> RankingReport:
    """rank() plus pairwise ranking-flip brackets over a shared mu* grid."""
    report = rank(projects, hurdle)
    pairs = zip(*np.triu_indices(len(projects), 1), crossing_on_grid(mu_grid, _mu_curves(projects)))
    return replace(report, crossings=tuple(
        PairCrossings(projects[i].project_id, projects[j].project_id, tuple(b)) for i, j, b in pairs
    ))


def write_ranking_csv(report: RankingReport, path: str | Path) -> None:
    """Tabular ranking: ``rank,project,omega,call,put,threshold,accept``."""
    entries = report.entries
    write_csv(path, {
        "rank": range(1, len(entries) + 1),
        "project": [e.project_id for e in entries],
        **{name: [getattr(e, name) for e in entries]
           for name in ("omega", "call", "put", "threshold", "accept")},
    })
