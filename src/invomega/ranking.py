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
from functools import partial
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
from .errors import InputError
from .metrics import HurdleSpec, evaluate_set, mean_basis_outlay, npv_from_mus, thresholds

METRICS = ("npv", "mu")


@dataclass(frozen=True)
class ProjectEvaluation:
    """One project's metric distribution plus what hurdle conversion needs."""

    project_id: str
    metric: str
    distribution: EmpiricalDistribution
    basis_outlay: float
    horizon: int


def evaluate_project(
    scenario_set: ScenarioSet, curve: YieldCurve, metric: str
) -> ProjectEvaluation:
    """Evaluate all scenarios and collect the chosen metric's distribution.

    The threshold basis is the weighted mean of the per-scenario total
    outlays (a single number when the negative flows are deterministic).
    """
    if metric not in METRICS:
        raise InputError(f"unknown metric {metric!r}, expected one of {METRICS}")
    results = evaluate_set(scenario_set, curve)
    samples = results.npv if metric == "npv" else results.annualized_return
    return ProjectEvaluation(
        project_id=scenario_set.project_id,
        metric=metric,
        distribution=EmpiricalDistribution(samples, scenario_set.weights),
        basis_outlay=mean_basis_outlay(results, scenario_set.weights),
        horizon=scenario_set.horizon,
    )


def metric_threshold(project: ProjectEvaluation, hurdle: HurdleSpec, curve: YieldCurve) -> float:
    """The hurdle expressed on the project's metric scale."""
    ts = thresholds(hurdle, project.basis_outlay, curve, project.horizon)
    return ts.npv_star if project.metric == "npv" else ts.mu_star


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


def rank(
    projects: Sequence[ProjectEvaluation],
    hurdle: HurdleSpec,
    metric: str,
    curve: YieldCurve,
) -> RankingReport:
    """Rank projects by Omega at the hurdle, best first.

    A project is flagged accepted when its Omega is at least 1. Projects whose
    Omega is indeterminate at the threshold (no mass on either side) are left
    out of the order and listed in ``excluded``.
    """
    if metric not in METRICS:
        raise InputError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if not projects:
        raise InputError("need at least one project to rank")
    for p in projects:
        if p.metric != metric:
            raise InputError(
                f"project {p.project_id!r} was evaluated on metric {p.metric!r}, "
                f"but the ranking metric is {metric!r}"
            )
    ranked: list[RankingEntry] = []
    excluded: list[str] = []
    for p in projects:
        lam = metric_threshold(p, hurdle, curve)
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


def omega_vs_hurdle(
    project: ProjectEvaluation, curve: YieldCurve, mu_grid: Sequence[float]
) -> OmegaResult:
    """Omega along a grid of annualized-return hurdles mu*, one row per point.

    For the npv metric each mu* is first converted to its NPV threshold on the
    project's outlay basis (the result's ``threshold``); either way the curve
    is nonincreasing in mu*.
    """
    _check_grid(mu_grid)
    return _omega_at(project.distribution, _thresholds_at(project, curve, mu_grid))


def _thresholds_at(
    project: ProjectEvaluation, curve: YieldCurve, mu_stars: Sequence[float]
) -> np.ndarray:
    """The project's metric threshold at each mu* hurdle: mu* itself, or its NPV
    equivalent from ``npv_from_mus`` (Python floats, libm ``pow``).

    The conversion is increasing in mu*, so on the mu metric converting only
    the smallest and the largest mu* rejects the same hurdles as converting all.
    """
    mus = np.array(mu_stars, dtype=float)
    on_mu = project.metric == "mu"
    points = [float(mus.min()), float(mus.max())] if on_mu else mus.tolist()
    npv = npv_from_mus(points, project.basis_outlay, curve, project.horizon)
    return mus if on_mu else np.array(npv)


def _hurdle_omega(
    project: ProjectEvaluation, curve: YieldCurve, mu_stars: np.ndarray
) -> np.ndarray:
    return _omega_at(project.distribution, _thresholds_at(project, curve, mu_stars)).omega


def hurdle_crossings(
    project_a: ProjectEvaluation,
    project_b: ProjectEvaluation,
    curve: YieldCurve,
    mu_grid: Sequence[float],
) -> list[tuple[float, float]]:
    """Hurdle intervals (width <= grid step / 1024) where the pair's ranking flips."""
    omega_a, omega_b = (partial(_hurdle_omega, p, curve) for p in (project_a, project_b))
    return crossing_on_grid(mu_grid, omega_a, omega_b)


def rank_with_crossings(
    projects: Sequence[ProjectEvaluation],
    hurdle: HurdleSpec,
    metric: str,
    curve: YieldCurve,
    mu_grid: Sequence[float],
) -> RankingReport:
    """rank() plus pairwise ranking-flip brackets over a shared mu* grid."""
    report = rank(projects, hurdle, metric, curve)
    _check_grid(mu_grid)
    pairs = tuple(
        PairCrossings(a.project_id, b.project_id, tuple(hurdle_crossings(a, b, curve, mu_grid)))
        for i, a in enumerate(projects)
        for b in projects[i + 1:]
    )
    return replace(report, crossings=pairs)


def write_ranking_csv(report: RankingReport, target: str | Path | IO[str]) -> None:
    """Tabular ranking: ``rank,project,omega,call,put,threshold,accept``."""
    write_csv(
        target,
        ["rank", "project", "omega", "call", "put", "threshold", "accept"],
        (
            [i, e.project_id, e.omega, e.call, e.put, e.threshold, e.accept]
            for i, e in enumerate(report.entries, start=1)
        ),
    )
