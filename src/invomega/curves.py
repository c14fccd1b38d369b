"""Riskless term structure: zero rates, growth factors and reinvestment forwards.

The time grid is integer periods 1..horizon. Rates are stored annualized;
growth factors (1+r_t)^t are derived from them once. There is no
extrapolation: asking for a tenor beyond the curve horizon is an error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .csvio import scan_table
from .errors import InputError, located


@dataclass(frozen=True)
class YieldCurve:
    """Annualized riskless zero rates r_t on contiguous integer tenors 1..horizon.

    ``growth_factors`` holds (1+r_t)^t for t = 1..horizon, computed once here.
    """

    rates: tuple[float, ...]
    growth_factors: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rates = tuple(float(r) for r in self.rates)
        if not rates:
            raise InputError("yield curve needs at least one tenor")
        growth = []
        for t, r in enumerate(rates, start=1):
            if not math.isfinite(r):
                raise InputError(f"rate at tenor {t} is not finite: {r!r}")
            if r <= -1.0:
                raise InputError(f"rate at tenor {t} must exceed -1, got {r}")
            try:
                g = (1.0 + r) ** t
            except OverflowError:
                g = math.inf
            if not 0.0 < g < math.inf:
                raise InputError(f"growth factor (1+r_t)^t at tenor {t} is out of range: {g!r}")
            growth.append(g)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "growth_factors", tuple(growth))

    @classmethod
    def flat(cls, rate: float, horizon: int) -> "YieldCurve":
        if horizon < 1:
            raise InputError(f"horizon must be >= 1, got {horizon}")
        return cls((float(rate),) * horizon)

    @classmethod
    def from_csv(cls, path: str | Path) -> "YieldCurve":
        """Load a curve from CSV with header ``tenor,rate`` and whole tenors 1..T (``2.0`` is 2)."""
        with located(path), open(path, newline="") as handle:
            header = next(csv.reader(handle), None)
            if header is None or [h.strip().lower() for h in header] != ["tenor", "rate"]:
                raise InputError(f"expected header 'tenor,rate', got {header!r}")
            table = scan_table(path, 2)
            if not len(table):
                raise InputError("no curve rows")
            tenors, rates = table[table[:, 0].argsort(kind="stable")].T.tolist()
            if tenors != list(range(1, len(tenors) + 1)):
                raise InputError(f"tenors must be contiguous 1..T, got {tenors}")
            return cls(tuple(rates))

    @property
    def horizon(self) -> int:
        return len(self.rates)

    def _check_tenor(self, t: int) -> None:
        if not 1 <= t <= self.horizon:
            raise InputError(f"tenor {t} outside curve range 1..{self.horizon}")

    def annual_rate(self, t: int) -> float:
        self._check_tenor(t)
        return self.rates[t - 1]

    def growth_factor(self, t: int) -> float:
        """Total growth (1+r_t)^t of one unit held to tenor t."""
        self._check_tenor(t)
        return self.growth_factors[t - 1]

    def forward_curve(self, horizon: int) -> tuple[float, ...]:
        """Reinvestment factors locked today for rolling each tenor t = 1..horizon to it.

        The factor from tenor t is 1 + R^f with (1+r_t)^t * (1+R^f) = (1+r_T)^T,
        i.e. reinvesting a tenor-t payoff forward must replicate a direct hold
        to T. Each is (1+r_T)^T / (1+r_t)^t rounded once, so the roll keeps full
        relative precision however small the factor is; cash received at the
        horizon is not reinvested (factor exactly 1).
        """
        self._check_tenor(horizon)
        top = self.growth_factors[horizon - 1]
        return tuple(top / g for g in self.growth_factors[:horizon])
