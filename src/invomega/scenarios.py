"""Scenario loading and reproducible synthetic scenario generation.

Synthetic sets fill one stochastic slot of a fixed flow template with draws
from a distribution moment-matched to a target mean/std/skewness. Randomness
is counter-based: draw i is a pure function of (seed, i), so output never
depends on evaluation order, chunking or worker count.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from contextlib import suppress
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .cashflows import ScenarioSet
from .csvio import data_rows, write_csv
from .distributions import _libm
from .errors import HorizonMismatchError, InputError, ScenarioParseError, located

FAMILIES = ("shifted_lognormal", "mirrored_shifted_lognormal", "normal", "discrete")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_EXP_MAX = 709.782712893384  # the largest float z with a finite exp(z); math.exp raises above


def _is_int(value: object) -> bool:
    """A JSON integer: ``int`` but not ``bool``, which JSON ``true``/``false`` load as."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value: object, field: str) -> float:
    """``value`` as a float if it is a finite JSON number (not a boolean)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with suppress(OverflowError):  # an integer beyond the float range
            if math.isfinite(number := float(value)):
                return number
    raise InputError(f"{field}: must be a finite number, got {value!r}")


def _finalize(z: np.ndarray) -> np.ndarray:
    # SplitMix64 output mixing
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class SeededStream:
    """Counter-based random stream: value(i) depends only on (seed, i)."""

    def __init__(self, seed: int):
        if not _is_int(seed):
            raise InputError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = seed
        self._key = np.uint64(seed % 2**64)

    def raw(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.uint64)
        substream = _finalize(self._key + (idx + np.uint64(1)) * _GOLDEN)
        return _finalize(substream + _GOLDEN)

    def uniforms(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Uniform draws strictly inside (0, 1)."""
        bits = self.raw(indices) >> np.uint64(11)
        return (bits.astype(np.float64) + 0.5) * 2.0**-53


# Cephes ndtri (S. L. Moshier, "Methods and Programs for Mathematical
# Functions", 1989): sqrt(2 pi), exp(-2), and the rational approximations for
# |y - 1/2| <= 3/8 (P0/Q0), for z = sqrt(-2 log y) in [2, 8) (P1/Q1) and in
# [8, 64] (P2/Q2), highest power first; the Q tables omit their leading 1.
# np.polyval runs Cephes' polevl/p1evl Horner order: acc = acc * x + c.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each u, ported from Cephes ``ndtri``.

    Same branches, tables and evaluation order as the C code, with libm logs,
    so the result is bitwise that of ``scipy.special.ndtri``: -inf at 0, +inf
    at 1, nan outside [0, 1].
    """
    u = np.asarray(u, dtype=np.float64)
    x = np.full(u.shape, np.nan)
    x[u == 0.0] = -np.inf
    x[u == 1.0] = np.inf
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    inside = (u > 0.0) & (u < 1.0)
    central = inside & (y > _EXP_M2)
    yc = y[central] - 0.5
    y2 = yc * yc
    x[central] = (yc + yc * (y2 * np.polyval(_P0, y2) / np.polyval((1.0, *_Q0), y2))) * _S2PI
    tail = inside & ~central
    s = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    s0 = s - _libm(math.log, s) / s
    z = 1.0 / s
    s1 = z * np.polyval(_P1, z) / np.polyval((1.0, *_Q1), z)
    far = s >= 8.0  # y <= exp(-32)
    zf = z[far]
    s1[far] = zf * np.polyval(_P2, zf) / np.polyval((1.0, *_Q2), zf)
    d = s0 - s1
    x[tail] = np.where(upper[tail], d, -d)
    return x


@dataclass(frozen=True)
class ShiftedLognormal:
    """shift + exp(mu_log + sigma_log * Z); mirror_center set when reflected.

    A non-None mirror_center produces the negatively skewed variant
    2*mirror_center - X, where the center equals the matched mean.
    """

    shift: float
    mu_log: float
    sigma_log: float
    mirror_center: float | None = None

    def sample(self, u: np.ndarray) -> np.ndarray:
        z = self.mu_log + self.sigma_log * _ndtri(u)
        base = self.shift + np.where(z > _EXP_MAX, np.inf, _libm(math.exp, np.minimum(z, _EXP_MAX)))
        if self.mirror_center is None:
            return base
        return 2.0 * self.mirror_center - base


@dataclass(frozen=True)
class MatchedNormal:
    mean: float
    std: float

    def sample(self, u: np.ndarray) -> np.ndarray:
        return self.mean + self.std * _ndtri(u)


@dataclass(frozen=True)
class MatchedTwoPoint:
    """Two-point distribution; the unique such match for any target skewness."""

    low: float
    high: float
    p_high: float

    def sample(self, u: np.ndarray) -> np.ndarray:
        return np.where(u < self.p_high, self.high, self.low)


MatchedDistribution = ShiftedLognormal | MatchedNormal | MatchedTwoPoint


def _lognormal_w(skew_abs: float) -> float:
    """Solve (w+2)*sqrt(w-1) = skew for w = exp(sigma_log^2).

    With y = sqrt(w-1) this is the depressed cubic y^3 + 3y - skew = 0, whose
    one real root is y = 2 sinh(asinh(skew/2) / 3).
    """
    y = 2.0 * math.sinh(math.asinh(skew_abs / 2.0) / 3.0)
    w = 1.0 + y * y
    if w > 1e12:
        raise InputError(f"field 'skew': no lognormal solution for skewness {skew_abs}")
    return w


def moment_match(family: str, mean: float, std: float, skew: float) -> MatchedDistribution:
    """Parameters of ``family`` whose analytic mean/std/skewness equal the targets.

    Errors name the field of a JSON generator block that holds the bad target.
    """
    if family not in FAMILIES:
        raise InputError(f"field 'family': unknown family {family!r}, expected one of {FAMILIES}")
    for name, value in (("mean", mean), ("std", std), ("skew", skew)):
        if not math.isfinite(value):
            raise InputError(f"field '{name}': must be finite, got {value!r}")
    if std <= 0.0:
        raise InputError(f"field 'std': must be positive, got {std}")

    if family in ("shifted_lognormal", "mirrored_shifted_lognormal"):
        if skew == 0.0:
            raise InputError(
                "field 'skew': lognormal families need nonzero skewness (use family 'normal' instead)"
            )
        w = _lognormal_w(abs(skew))
        if w == 1.0:  # the skewness rounds away in w = exp(sigma_log^2)
            raise InputError(f"field 'skew': {skew} is too close to zero for a lognormal match "
                             "(use family 'normal' instead)")
        sigma_log = math.sqrt(math.log(w))
        scale = std / math.sqrt(w * (w - 1.0))
        shift = mean - scale * math.sqrt(w)
        return ShiftedLognormal(
            shift=shift,
            mu_log=math.log(scale),
            sigma_log=sigma_log,
            mirror_center=mean if skew < 0.0 else None,
        )
    if family == "normal":
        if skew != 0.0:
            raise InputError(f"field 'skew': family 'normal' requires zero skewness, got {skew}")
        return MatchedNormal(mean=mean, std=std)
    # discrete: two-point distribution with exact first three moments; a point of probability
    # below 2^-53, the spacing of the uniform draws, would not be drawn with that probability
    try:
        q = skew / math.sqrt(4.0 + skew**2)
    except OverflowError:  # skew**2 beyond the float range
        q = math.copysign(1.0, skew)
    p_high = (1.0 - q) / 2.0
    if min(p_high, 1.0 - p_high) < 2.0**-53:
        raise InputError(f"field 'skew': {skew} gives one of the two points a probability below 2^-53")
    high = mean + std * math.sqrt((1.0 - p_high) / p_high)
    low = mean - std * math.sqrt(p_high / (1.0 - p_high))
    return MatchedTwoPoint(low=low, high=high, p_high=p_high)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a synthetic scenario set with one stochastic flow: the one check on
    generator fields, named as the keys of a JSON generator block, and the
    distribution they moment-match (``matched``, computed once here)."""

    family: str
    mean: float
    std: float
    skew: float
    template: tuple[float | None, ...]
    n: int
    seed: int
    matched: MatchedDistribution = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for key in ("mean", "std", "skew"):
            object.__setattr__(self, key, _number(getattr(self, key), f"field '{key}'"))
        matched = moment_match(self.family, self.mean, self.std, self.skew)
        template = tuple(
            None if f is None else _number(f, f"field 'template' at t={t}")
            for t, f in enumerate(self.template)
        )
        if len(template) < 2:
            raise InputError("field 'template': needs entries for t=0..T with T >= 1")
        slots = [t for t, f in enumerate(template) if f is None]
        if len(slots) != 1:
            raise InputError(
                f"field 'template': must have exactly one stochastic slot (null), got {len(slots)}"
            )
        if slots[0] == 0:
            raise InputError("field 'template': the stochastic slot must be at a tenor t >= 1")
        if not _is_int(self.n) or self.n < 1:
            raise InputError(f"field 'n': must be a positive integer, got {self.n!r}")
        if not _is_int(self.seed):
            raise InputError(f"field 'seed': must be an integer, got {self.seed!r}")
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "matched", matched)

    @property
    def slot(self) -> int:
        return self.template.index(None)

    @property
    def horizon(self) -> int:
        return len(self.template) - 1


def generator_spec_from_dict(block: dict) -> GeneratorSpec:
    """Build a GeneratorSpec from a JSON generator block, whose keys are its init fields."""
    if not isinstance(block, dict):
        raise InputError("generator block must be a JSON object")
    keys = [f.name for f in fields(GeneratorSpec) if f.init]
    for key in keys:
        if key not in block:
            raise InputError(f"generator block missing field '{key}'")
    unknown = set(block) - set(keys)
    if unknown:
        raise InputError(f"generator block has unknown fields {sorted(unknown)}")
    if not isinstance(block["template"], list):
        raise InputError("field 'template': must be a list with one null slot")
    return GeneratorSpec(**block)


def generate(spec: GeneratorSpec, project_id: str = "generated") -> ScenarioSet:
    """Deterministically generate the scenario set described by ``spec``: scenario i's
    stochastic flow is the matched family's ``sample`` of the stream's uniform i."""
    template = [0.0 if f is None else f for f in spec.template]
    try:
        flows = np.tile(template, (spec.n, 1))
    except (OverflowError, ValueError, MemoryError) as exc:  # numpy refuses before allocating
        raise InputError(f"n = {spec.n} scenarios do not fit in one array: {exc}") from None
    u = SeededStream(spec.seed).uniforms(np.arange(spec.n, dtype=np.uint64))
    with np.errstate(over="ignore", invalid="ignore"):  # ScenarioSet refuses an inf or nan draw
        flows[:, spec.slot] = spec.matched.sample(u)
    flows.setflags(write=False)  # so that the ScenarioSet keeps it without a copy
    return ScenarioSet.uniform(project_id, flows)


def load_scenarios(
    path: str | Path, horizon: int | None = None, project_id: str | None = None
) -> ScenarioSet:
    """Load a scenario CSV (header ``t0,...,tT`` with optional leading ``weight``)."""
    path = Path(path)
    with located(path), open(path, newline="") as handle:
        first = handle.readline()
        if not first:
            raise ScenarioParseError("empty file")
        header = [h.strip() for h in next(csv.reader([first]), [])]
        has_weights = bool(header) and header[0] == "weight"
        flow_names = header[1:] if has_weights else header
        expected = [f"t{i}" for i in range(len(flow_names))]
        if not flow_names or flow_names != expected:
            raise ScenarioParseError(
                f"header must be {'weight,' if has_weights else ''}t0,...,tT, "
                f"got {','.join(header)}"
            )
        file_horizon = len(flow_names) - 1
        if horizon is not None and file_horizon != horizon:
            raise HorizonMismatchError(
                f"file horizon {file_horizon} does not match expected {horizon}"
            )
        n_cols = len(header)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2, dtype=float)
            if len(table) and table.shape[1] != n_cols:
                raise ValueError  # the scan names the line with the wrong column count
        except ValueError:
            table = _scan_table(path, n_cols)
        if not len(table):
            raise ScenarioParseError("no scenario rows")

        linenos: list[int] = []  # file line of each data row, found only when an error needs it

        def row_name(i: int) -> str:
            if not linenos:
                linenos.extend(lineno for lineno, _ in data_rows(path, n_cols))
            return f"row {linenos[i]}"

        table.setflags(write=False)  # so that the ScenarioSet keeps it without a copy
        flows, weights = (table[:, 1:], table[:, 0]) if has_weights else (table, None)
        pid = project_id if project_id is not None else path.stem
        return ScenarioSet(pid, flows, weights, row_name)


def _scan_table(path: Path, n_cols: int) -> np.ndarray:
    # np.loadtxt refuses a few inputs that the csv grammar accepts (whitespace-only
    # lines, all-empty rows such as ",,", quoted cells); this row-by-row scan parses
    # those and names the line of the first bad row in any other refusal.
    numbered = list(data_rows(path, n_cols))
    try:
        return np.array([row for _, row in numbered], dtype=float)
    except ValueError:
        lineno, bad = next((n, c) for n, row in numbered for c in row if not _is_float(c))
        raise ScenarioParseError(f"row {lineno}: non-numeric value {bad!r}") from None


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def write_scenarios(scenario_set: ScenarioSet, target: str | Path | IO[str]) -> None:
    """Write the standard scenario CSV (weight column only when non-uniform)."""
    weights = scenario_set.weights
    columns = {} if np.all(weights == 1.0 / len(weights)) else {"weight": weights}
    columns.update((f"t{i}", column) for i, column in enumerate(scenario_set.flows.T))
    write_csv(target, columns)


def read_project(path: str | Path) -> tuple[str, int, GeneratorSpec | Path]:
    """The ``(id, horizon, source)`` of the project descriptor JSON at ``path``.

    One grammar for every command: a full descriptor has a string ``id``, a
    positive integer ``horizon`` and one of ``scenario_file`` (relative to the
    descriptor) or a ``generator`` block; a bare generator block (any of its
    keys at the top level) is the project named by the file stem. ``source``
    is the GeneratorSpec or the resolved scenario CSV path.
    """
    path = Path(path)
    with located(path):
        text = path.read_text()  # outside the try: a UnicodeDecodeError is a ValueError too
        try:
            data = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
            raise InputError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError("descriptor must be a JSON object")
        if not data.keys().isdisjoint(f.name for f in fields(GeneratorSpec) if f.init):
            spec = generator_spec_from_dict(data)
            return path.stem, spec.horizon, spec
        for key in ("id", "horizon"):
            if key not in data:
                raise InputError(f"missing field '{key}'")
        project_id, horizon = data["id"], data["horizon"]
        if not isinstance(project_id, str):
            raise InputError(f"field 'id' must be a string, got {project_id!r}")
        if not _is_int(horizon) or horizon < 1:
            raise InputError(f"field 'horizon' must be a positive integer, got {horizon!r}")
        if ("scenario_file" in data) == ("generator" in data):
            raise InputError("need exactly one of 'scenario_file' or 'generator'")
        if "scenario_file" in data:
            scenario_file = data["scenario_file"]
            if not isinstance(scenario_file, str):
                raise InputError(f"field 'scenario_file' must be a string, got {scenario_file!r}")
            return project_id, horizon, (path.parent / scenario_file).resolve()
        spec = generator_spec_from_dict(data["generator"])
        if spec.horizon != horizon:
            raise HorizonMismatchError(
                f"template horizon {spec.horizon} does not match 'horizon' {horizon}"
            )
        return project_id, horizon, spec


def load_project(path: str | Path) -> ScenarioSet:
    """The scenario set of the project descriptor at ``path`` (see ``read_project``):
    generated from its generator block, or loaded from its scenario CSV."""
    project_id, horizon, source = read_project(path)
    if isinstance(source, GeneratorSpec):
        with located(path):
            return generate(source, project_id=project_id)
    return load_scenarios(source, horizon=horizon, project_id=project_id)
