"""Cash-flow streams, scenario sets and the riskless replication of a stream.

A scenario is the full vector F_0..F_T with F_0 <= 0 the initial flow. The
replication splits the later flows into inflows F+ and outflows F- and prices
the riskless portfolio that reproduces both sides: zero-coupon outlays
covering every F- and bond notionals paying every F+.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .curves import YieldCurve
from .distributions import _two_sum, record_row, validated_weights
from .errors import InputError


@dataclass(frozen=True)
class ReplicationDecomposition:
    """Riskless portfolio replicating one flow row, or each row of a flow array.

    ``additional_outlay`` is the cost of the zero-coupon bonds covering the later
    outflows; ``total_outlay`` adds the initial outlay to it; ``certainty_equivalent_outlay``
    is the cost of the bonds paying the inflows (the riskless investment with the same inflow
    pattern); ``npv`` is F_0 plus every later flow's present value. For one row they are
    floats; over N rows they are (N,) arrays.
    """

    additional_outlay: np.ndarray | float
    total_outlay: np.ndarray | float
    certainty_equivalent_outlay: np.ndarray | float
    npv: np.ndarray | float


def _replicate_rows(flows: np.ndarray, curve: YieldCurve) -> ReplicationDecomposition:
    """The replication of every flow row F_0..F_T of ``flows``, shape (N, T+1).

    One pass over the tenors adds each pv = F_t / (1+r_t)^t to three ``_two_sum`` sums:
    the NPV F_0 + sum pv, the bond cost sum max(pv, 0) and the outlays sum max(-pv, 0).
    """
    horizon = flows.shape[1] - 1
    if curve.horizon < horizon:
        raise InputError(
            f"curve covers tenors 1..{curve.horizon} but the scenario needs tenor {horizon}"
        )
    sums, errors = [flows[:, 0], 0.0, 0.0], [0.0, 0.0, 0.0]  # NPV, bond cost, outlays
    for t, growth in enumerate(curve.growth_factors[:horizon], start=1):
        pv = flows[:, t] / growth
        for k, term in enumerate((pv, np.maximum(pv, 0.0), np.maximum(-pv, 0.0))):
            sums[k], error = _two_sum(sums[k], term)
            errors[k] = errors[k] + error
    npv, bond_cost, additional = map(np.add, sums, errors)
    return ReplicationDecomposition(additional, -flows[:, 0] + additional, bond_cost, npv)


def replicate(flows: Sequence[float], curve: YieldCurve) -> ReplicationDecomposition:
    """Price the riskless portfolio replicating one flow row F_0..F_T on ``curve``.

    It is the one-row case of the evaluation kernel's replication, checked as
    ``ScenarioSet`` checks its row 0, so its ``npv`` and ``total_outlay`` are
    bitwise ``evaluate_set``'s.
    """
    return record_row(_replicate_rows(_flow_array([flows]), curve), 0)


def _scenario_name(i: int) -> str:
    return f"scenario {i}"


def _flow_array(
    rows: Iterable[Sequence[float]] | np.ndarray, row_name: Callable[[int], str] = _scenario_name
) -> np.ndarray:
    """Validated float flow rows F_0..F_T, shape (N, T+1): every flow finite and
    F_0 <= 0, with ``row_name(i)`` naming row i in the error.

    An array already marked read-only is kept as it is, without a copy;
    anything else is copied.
    """
    if isinstance(rows, np.ndarray):
        flows = rows.astype(float, copy=rows.flags.writeable)
    else:
        rows = list(rows)
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise InputError(
                    f"{row_name(i)} has horizon {len(row) - 1}, expected {len(rows[0]) - 1}"
                )
        flows = np.array(rows, dtype=float)
    if flows.ndim != 2 or len(flows) == 0:
        raise InputError("a scenario set needs at least one scenario")
    if flows.shape[1] < 2:
        raise InputError("a scenario needs flows F_0..F_T with T >= 1")
    bad = np.argwhere(~np.isfinite(flows))
    if bad.size:
        i, t = bad[0]
        raise InputError(f"{row_name(i)}: flow at t={t} is not finite: {float(flows[i, t])!r}")
    bad = np.flatnonzero(flows[:, 0] > 0.0)
    if bad.size:
        i = bad[0]
        raise InputError(
            f"{row_name(i)}: F_0 must be the initial outlay (<= 0), got {float(flows[i, 0])}"
        )
    return flows


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Weighted scenarios sharing one horizon, stored as columns: the one check of
    scenario flows and weights.

    ``flows`` is a read-only (N, T+1) array whose row i holds F_0..F_T of
    scenario i; ``weights`` is a read-only (N,) array of probabilities
    (uniform when given as None). ``row_name(i)`` names row i in every error
    about it, here and in the layers that read the set: ``scenario i``,
    unless its maker names rows otherwise (a loaded file's lines, RADR's mean flows).
    """

    project_id: str
    flows: np.ndarray
    weights: np.ndarray
    row_name: Callable[[int], str] = field(default=_scenario_name, repr=False)

    def __post_init__(self) -> None:
        flows = _flow_array(self.flows, self.row_name)
        weights = validated_weights(self.weights, len(flows), lambda i: f"{self.row_name(i)}: weight")
        for name, array in (("flows", flows), ("weights", weights)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def uniform(
        cls, project_id: str, flows: Iterable[Sequence[float]] | np.ndarray
    ) -> "ScenarioSet":
        return cls(project_id, flows, None)

    @property
    def scenarios(self) -> tuple[tuple[float, ...], ...]:
        """The rows F_0..F_T as tuples of Python floats."""
        return tuple(map(tuple, self.flows.tolist()))

    @property
    def horizon(self) -> int:
        return self.flows.shape[1] - 1

    def __len__(self) -> int:
        return len(self.flows)
