"""Cash-flow streams, scenario sets and the riskless replication of a stream.

A scenario is the full vector F_0..F_T with F_0 <= 0 the initial flow.
Splitting separates the later flows into inflows F+ and outflows F-; the
replication prices the riskless portfolio that reproduces both sides:
zero-coupon outlays covering every F- and bond notionals paying every F+.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .curves import YieldCurve
from .distributions import record_row, validated_weights
from .errors import HorizonMismatchError, InputError


@dataclass(frozen=True)
class CashFlowScenario:
    """One realization F_0..F_T of a project's cash flows (T >= 1)."""

    flows: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "flows", tuple(_flow_array([tuple(self.flows)])[0].tolist()))

    @property
    def horizon(self) -> int:
        return len(self.flows) - 1

    @property
    def initial_outlay(self) -> float:
        return -self.flows[0]


@dataclass(frozen=True)
class SplitStream:
    """Sign split of the t >= 1 flows plus the initial outlay."""

    initial_outlay: float
    positive: tuple[float, ...]
    negative: tuple[float, ...]


@dataclass(frozen=True)
class ReplicationDecomposition:
    """Riskless portfolio replicating one scenario, or each row of a flow array.

    ``partial_outlays`` are the zero-coupon purchases I0^(t) guaranteeing each
    future outflow; ``bond_notionals`` B_t pay each inflow at maturity.
    ``total_outlay`` is the initial outlay plus the cost of covering the
    outflows; ``certainty_equivalent_outlay`` is the riskless investment that
    generates the same inflow pattern. For one scenario the sums are floats and
    the per-tenor parts tuples; over N rows they are (N,) and (N, T) arrays.
    """

    additional_outlay: np.ndarray | float
    partial_outlays: np.ndarray | tuple[float, ...]
    total_outlay: np.ndarray | float
    bond_notionals: np.ndarray | tuple[float, ...]
    certainty_equivalent_outlay: np.ndarray | float


def split(scenario: CashFlowScenario) -> SplitStream:
    """Separate flows for t >= 1 into non-negative inflow/outflow parts."""
    later = scenario.flows[1:]
    return SplitStream(
        initial_outlay=max(-scenario.flows[0], 0.0),
        positive=tuple(max(f, 0.0) for f in later),
        negative=tuple(max(-f, 0.0) for f in later),
    )


def _discounted(later: np.ndarray, curve: YieldCurve) -> np.ndarray:
    """Flows at tenors 1..T (the last axis) divided by the growth factors (1+r_t)^t."""
    horizon = later.shape[-1]
    if curve.horizon < horizon:
        raise HorizonMismatchError(
            f"curve covers tenors 1..{curve.horizon} but the scenario needs tenor {horizon}"
        )
    return later / np.array(curve.growth_factors[:horizon])


def _replicate_rows(flows: np.ndarray, curve: YieldCurve) -> ReplicationDecomposition:
    """The replication of every flow row F_0..F_T of ``flows``, shape (N, T+1).

    The discounted later flows split by sign: the positive ones are the bond
    notionals, the negated negative ones the zero-coupon outlays.
    """
    pv = _discounted(flows[:, 1:], curve)
    partial_outlays = np.maximum(-pv, 0.0)
    bond_notionals = np.maximum(pv, 0.0)
    additional = partial_outlays.sum(axis=1)
    return ReplicationDecomposition(
        additional_outlay=additional,
        partial_outlays=partial_outlays,
        total_outlay=-flows[:, 0] + additional,
        bond_notionals=bond_notionals,
        certainty_equivalent_outlay=bond_notionals.sum(axis=1),
    )


def replicate(scenario: CashFlowScenario, curve: YieldCurve) -> ReplicationDecomposition:
    """Price the riskless portfolio replicating ``scenario`` on ``curve``.

    It is the one-row case of the evaluation kernel's replication, so
    ``certainty_equivalent_outlay - total_outlay`` is bitwise ``evaluate``'s NPV.
    """
    return record_row(_replicate_rows(np.array([scenario.flows]), curve), 0)


def present_value(flows: Sequence[float] | Iterable[float], curve: YieldCurve) -> float:
    """Present value of flows indexed by tenor 1..T on ``curve``."""
    return float(_discounted(np.array([float(f) for f in flows]), curve).sum())


def _flow_array(rows: Iterable[Sequence[float]] | np.ndarray) -> np.ndarray:
    """Validated float flow rows F_0..F_T, shape (N, T+1).

    An array already marked read-only is kept as it is, without a copy;
    anything else is copied.
    """
    if isinstance(rows, np.ndarray):
        flows = rows.astype(float, copy=rows.flags.writeable)
    else:
        rows = list(rows)
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise HorizonMismatchError(
                    f"scenario {i} has horizon {len(row) - 1}, expected {len(rows[0]) - 1}"
                )
        flows = np.array(rows, dtype=float)
    if flows.ndim != 2 or len(flows) == 0:
        raise InputError("a scenario set needs at least one scenario")
    if flows.shape[1] < 2:
        raise InputError("a scenario needs flows F_0..F_T with T >= 1")
    check_flow_rows(flows)
    return flows


def check_flow_rows(
    flows: np.ndarray, where: Callable[[int], str] = lambda i: f"scenario {i}"
) -> None:
    """Every flow finite and F_0 <= 0; ``where(i)`` names row i in the error."""
    bad = np.argwhere(~np.isfinite(flows))
    if bad.size:
        i, t = bad[0]
        raise InputError(f"{where(i)}: flow at t={t} is not finite: {float(flows[i, t])!r}")
    bad = np.flatnonzero(flows[:, 0] > 0.0)
    if bad.size:
        raise InputError(
            f"{where(bad[0])}: F_0 must be the initial outlay (<= 0), got {float(flows[bad[0], 0])}"
        )


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Weighted scenarios sharing one horizon, stored as columns.

    ``flows`` is a read-only (N, T+1) array whose row i holds F_0..F_T of
    scenario i; ``weights`` is a read-only (N,) array of probabilities
    (uniform when given as None).
    """

    project_id: str
    flows: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        flows = _flow_array(self.flows)
        weights = validated_weights(self.weights, len(flows))
        for name, array in (("flows", flows), ("weights", weights)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def uniform(
        cls, project_id: str, flows: Iterable[Sequence[float]] | np.ndarray
    ) -> "ScenarioSet":
        return cls(project_id, flows, None)

    @property
    def scenarios(self) -> tuple[CashFlowScenario, ...]:
        """The rows as scalar scenarios, for the single-scenario reference path."""
        return tuple(CashFlowScenario(tuple(row)) for row in self.flows.tolist())

    @property
    def horizon(self) -> int:
        return self.flows.shape[1] - 1

    def __len__(self) -> int:
        return len(self.flows)
