"""Output oracle: recomputes the engine's results in numpy from the inputs.

Nothing here imports ``invomega``. Scenario draws are regenerated from the
descriptor's documented recipe (counter-based SplitMix64 stream, moment
matching in closed form), and every reported number is recomputed from its
definition. Each check returns a list of problems; an empty list is a pass.

Tolerances are ulp-level: a count of EPS (2**-52) times a scale that bounds
the magnitude of the terms summed.

- scenario draws:         K_DRAW * EPS * (|x| + 2 |mean|); fixed flows exact
- npv and total_outlay:   8 * (T + 2) * EPS * (|F0| + sum_t |F_t| / (1 + r_t)^t)
- mu:                     8 * (T + 2) * EPS * (1 + |mu|)
- weighted mean, std,
  call and put:           K_SUM(N) * EPS * sum_i w_i (|x_i| + |L|),
                          K_SUM(N) = 64 * (log2 N + 4)
- crossing brackets:      width <= (grid step) / 1024, exactly as computed; a ranking
                          sign is left undecided where |Omega_a - Omega_b| is within
                          the two Omegas' summation and draw error bounds
- RADR npv_at_k:          8 * (T + 2) * EPS * sum_t sum_i w_i |F_it| / (1 + k)^t
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtri

EPS = float(np.finfo(float).eps)
K_DRAW = 64
MAX_REPORTED = 5

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def k_sum(n: int) -> float:
    return 64.0 * (math.log2(max(n, 2)) + 4.0)


# --- inputs ----------------------------------------------------------------

def read_curve(path: Path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(data[:, 0], np.arange(1, len(data) + 1)):
        raise ValueError(f"{path}: tenors are not 1..T")
    return data[:, 1]


def read_scenarios(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Flows (N, T+1) and weights (N,) of a scenario CSV."""
    with open(path, newline="") as handle:
        header = next(csv.reader(handle))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if header[0] == "weight":
        return data[:, 1:], data[:, 0]
    return data, np.full(len(data), 1.0 / len(data))


def _splitmix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, n: int) -> np.ndarray:
    """Draw 0 of the counter-based stream: u_i depends only on (seed, i)."""
    key = np.uint64(seed % 2**64)
    index = np.arange(n, dtype=np.uint64)
    raw = _splitmix(_splitmix(key + (index + np.uint64(1)) * _GOLDEN) + _GOLDEN)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def draws(block: dict) -> np.ndarray:
    """The stochastic flow of a generator block, matched to its mean/std/skew."""
    family, mean, std, skew = block["family"], block["mean"], block["std"], block["skew"]
    u = _uniforms(block["seed"], block["n"])
    if family == "discrete":
        q = skew / math.sqrt(4.0 + skew**2)
        p = (1.0 - q) / 2.0
        high = mean + std * math.sqrt((1.0 - p) / p)
        low = mean - std * math.sqrt(p / (1.0 - p))
        return np.where(u < p, high, low)
    z = ndtri(u)
    if family == "normal":
        return mean + std * z
    # lognormal skewness (w + 2) sqrt(w - 1) = |skew| with y = sqrt(w - 1) is the
    # cubic y^3 + 3y - |skew| = 0, solved by Cardano's formula
    a = abs(skew) / 2.0
    c = np.cbrt(a + math.sqrt(a * a + 1.0))
    y2 = float(c - 1.0 / c) ** 2
    w = 1.0 + y2
    scale = std / math.sqrt(w * y2)
    x = mean - scale * math.sqrt(w) + scale * np.exp(math.sqrt(math.log(w)) * z)
    return 2.0 * mean - x if family == "mirrored_shifted_lognormal" else x


def generated_flows(block: dict) -> tuple[np.ndarray, np.ndarray]:
    template = block["template"]
    slot = template.index(None)
    flows = np.tile(np.array([0.0 if f is None else f for f in template]), (block["n"], 1))
    flows[:, slot] = draws(block)
    return flows, np.full(block["n"], 1.0 / block["n"])


# --- closed forms ----------------------------------------------------------

def closed_form(flows: np.ndarray, rates: np.ndarray) -> dict[str, np.ndarray]:
    """NPV, total outlay and annualized return mu of each scenario.

    PV+ and PV- are the discounted inflows and outflows; total outlay is
    -F0 + PV-, NPV = PV+ - total outlay, and mu solves
    (1 + mu)^T = (1 + r_T)^T * PV+ / total outlay (FV+ = PV+ (1 + r_T)^T).
    """
    horizon = flows.shape[1] - 1
    growth = (1.0 + rates[:horizon]) ** np.arange(1, horizon + 1)
    pv = flows[:, 1:] / growth
    pv_plus = np.where(pv > 0.0, pv, 0.0).sum(axis=1)
    outlay = -flows[:, 0] + np.where(pv < 0.0, -pv, 0.0).sum(axis=1)
    ratio = growth[-1] * pv_plus / outlay
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(ratio > 0.0, ratio ** (1.0 / horizon) - 1.0, -1.0)
    return {
        "npv": pv_plus - outlay,
        "total_outlay": outlay,
        "mu": mu,
        "scale": np.abs(flows[:, 0]) + np.abs(pv).sum(axis=1),
        "horizon": horizon,
    }


def _compare(name: str, got: np.ndarray, want: np.ndarray, tol: np.ndarray) -> list[str]:
    bad = np.flatnonzero(~(np.abs(got - want) <= tol))
    if bad.size == 0:
        return []
    shown = ", ".join(
        f"row {i}: {float(got[i])!r} vs {float(want[i])!r} (tol {float(np.broadcast_to(tol, got.shape)[i]):.3g})"
        for i in bad[:MAX_REPORTED]
    )
    return [f"{name}: {bad.size} of {got.size} values outside tolerance; {shown}"]


def _weighted_mean_std(x: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    mean = math.fsum((w * x).tolist())
    return mean, math.sqrt(math.fsum((w * (x - mean) ** 2).tolist()))


def _check_mean_std(name: str, mean: float, std: float | None, x: np.ndarray, w: np.ndarray) -> list[str]:
    want_mean, want_std = _weighted_mean_std(x, w)
    tol = k_sum(x.size) * EPS * (math.fsum((w * np.abs(x)).tolist()) + abs(float(x.min())))
    problems = []
    if not abs(mean - want_mean) <= tol:
        problems.append(f"{name} mean {mean!r} vs {want_mean!r} (tol {tol:.3g})")
    std_tol = k_sum(x.size) * EPS * want_std
    if std is None or not abs(std - want_std) <= std_tol:
        problems.append(f"{name} std {std!r} vs {want_std!r} (tol {std_tol:.3g})")
    return problems


# --- per-command checks ----------------------------------------------------

def check_scenario_csv(path: Path, block: dict) -> list[str]:
    """``simulate`` output against the regenerated draws of ``block``."""
    flows, _ = generated_flows(block)
    got, weights = read_scenarios(path)
    if got.shape != flows.shape:
        return [f"{path.name}: shape {got.shape}, expected {flows.shape}"]
    if not np.all(weights == weights[0]):
        return [f"{path.name}: unexpected weight column"]
    tol = np.zeros(flows.shape)
    slot = block["template"].index(None)
    tol[:, slot] = K_DRAW * EPS * (np.abs(flows[:, slot]) + 2.0 * abs(block["mean"]))
    return _compare(path.name, got, flows, tol)


EVALUATION_HEADER = [
    "scenario", "npv", "profit", "terminal_return", "mu", "pi",
    "premium_npv", "premium_return", "total_outlay",
]


def check_evaluation(report_dir: Path, flows: np.ndarray, weights: np.ndarray, rates: np.ndarray) -> list[str]:
    """``evaluate`` outputs: every evaluation.csv row and the summary mean/std."""
    path = report_dir / "evaluation.csv"
    with open(path, newline="") as handle:
        header = next(csv.reader(handle))
    if header != EVALUATION_HEADER:
        return [f"evaluation.csv header {header}"]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[0] != flows.shape[0]:
        return [f"evaluation.csv has {table.shape[0]} rows, expected {flows.shape[0]}"]
    column = {name: table[:, i] for i, name in enumerate(EVALUATION_HEADER)}
    want = closed_form(flows, rates)
    k_flow = 8.0 * (want["horizon"] + 2)
    problems = []
    if not np.array_equal(column["scenario"], np.arange(flows.shape[0])):
        problems.append("evaluation.csv scenario column is not 0..N-1")
    problems += _compare("npv", column["npv"], want["npv"], k_flow * EPS * want["scale"])
    problems += _compare("total_outlay", column["total_outlay"], want["total_outlay"],
                         k_flow * EPS * want["scale"])
    problems += _compare("mu", column["mu"], want["mu"], k_flow * EPS * (1.0 + np.abs(want["mu"])))

    rows = {}
    with open(report_dir / "summary.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            rows[row["metric"]] = row
    for metric in ("npv", "mu"):
        if metric not in rows:
            problems.append(f"summary.csv has no {metric} row")
            continue
        std = float(rows[metric]["std"])
        problems += _check_mean_std(f"summary {metric}", float(rows[metric]["mean"]),
                                    None if math.isnan(std) else std, column[metric], weights)
    return problems


def parse_grid(text: str) -> list[float]:
    """The CLI's ``lo:hi:step`` grid: lo + i*step for i = 0..floor((hi-lo)/step)."""
    lo, hi, step = (float(p) for p in text.split(":"))
    return [lo + i * step for i in range(int((hi - lo) / step + 1e-9) + 1)]


class _OmegaOracle:
    """Omega of one weighted sample with an error bound, for sign comparisons."""

    def __init__(self, x: np.ndarray, w: np.ndarray):
        self.x, self.w = x, w
        # bound on |x_oracle - x_engine| (draw and closed-form error) plus summation error
        self.dx = 8.0 * K_DRAW * EPS * float(np.max(1.0 + np.abs(x)))
        self.rel = 4.0 * x.size * EPS

    def at(self, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Omega and its error bound; +inf without downside mass, nan without either."""
        call, put = np.empty(thresholds.size), np.empty(thresholds.size)
        for i in range(0, thresholds.size, 64):  # bounded (64, N) temporaries
            diff = self.x[None, :] - thresholds[i:i + 64, None]
            call[i:i + 64] = np.maximum(diff, 0.0) @ self.w
            put[i:i + 64] = np.maximum(-diff, 0.0) @ self.w
        below = thresholds > self.x.min()
        above = thresholds < self.x.max()
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.where(below, call / put, np.where(above, np.inf, np.nan))
            err = np.where(below, self.rel * value + self.dx * (1.0 + value) / put, 0.0)
        return value, err


def _signs(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Sign of Omega_a - Omega_b as the engine defines it; 2 where too close to call."""
    (va, ea), (vb, eb) = a, b
    out = np.zeros(va.shape, dtype=int)
    for i in range(va.size):
        x, y = va[i], vb[i]
        if math.isnan(x) or math.isnan(y) or (math.isinf(x) and math.isinf(y)):
            continue
        if math.isinf(x) or math.isinf(y):
            out[i] = 1 if math.isinf(x) else -1
        elif abs(x - y) <= ea[i] + eb[i]:
            out[i] = 2
        else:
            out[i] = 1 if x > y else -1
    return out


def check_rank(report: dict, samples: dict[str, tuple[np.ndarray, np.ndarray]],
               rates: np.ndarray, delta_mu: float, grid_text: str) -> list[str]:
    """``rank --metric mu --grid`` output: entries, parity and crossing brackets."""
    problems = []
    lam = float(rates[-1]) + delta_mu
    ids = list(samples)
    if sorted(e["project_id"] for e in report["entries"]) != sorted(ids) or report["excluded"]:
        return [f"ranked {[e['project_id'] for e in report['entries']]}, excluded {report['excluded']}"]
    omegas = []
    for entry in report["entries"]:
        pid = entry["project_id"]
        x, w = samples[pid]
        tol = k_sum(x.size) * EPS * math.fsum((w * (np.abs(x) + abs(lam))).tolist())
        want_call = math.fsum((w * np.maximum(x - lam, 0.0)).tolist())
        want_put = math.fsum((w * np.maximum(lam - x, 0.0)).tolist())
        call, put, mean = entry["call"], entry["put"], entry["summary"]["mean"]
        if entry["threshold"] != lam:
            problems.append(f"{pid}: threshold {entry['threshold']!r} vs mu* {lam!r}")
        if not abs(call - want_call) <= tol:
            problems.append(f"{pid}: call {call!r} vs {want_call!r} (tol {tol:.3g})")
        if not abs(put - want_put) <= tol:
            problems.append(f"{pid}: put {put!r} vs {want_put!r} (tol {tol:.3g})")
        if not abs((call - put) - (mean - lam)) <= tol:
            problems.append(f"{pid}: put-call parity call-put={call - put!r} vs mean-L={mean - lam!r}")
        if put > 0.0 and entry["omega"] != call / put:
            problems.append(f"{pid}: omega {entry['omega']!r} is not call/put")
        problems += _check_mean_std(pid, mean, entry["summary"]["std"], x, w)
        omegas.append(entry["omega"])
    if any(a < b for a, b in zip(omegas, omegas[1:])):
        problems.append(f"entries not in decreasing Omega order: {omegas}")

    grid = parse_grid(grid_text)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    crossings = report.get("crossings", [])
    if [(c["project_a"], c["project_b"]) for c in crossings] != pairs:
        return problems + [f"crossing pairs {[(c['project_a'], c['project_b']) for c in crossings]}, expected {pairs}"]
    oracles = {pid: _OmegaOracle(*samples[pid]) for pid in ids}
    on_grid = {pid: o.at(np.array(grid)) for pid, o in oracles.items()}
    for c in crossings:
        a, b = c["project_a"], c["project_b"]
        signs = _signs(on_grid[a], on_grid[b])
        found = [0] * (len(grid) - 1)
        for lo, hi in c["brackets"]:
            k = int(np.searchsorted(grid, lo, side="right")) - 1
            if not (0 <= k < len(grid) - 1 and grid[k] <= lo < hi <= grid[k + 1]):
                problems.append(f"{a}/{b}: bracket [{lo!r}, {hi!r}] not inside one grid step")
                continue
            found[k] += 1
            if not hi - lo <= (grid[k + 1] - grid[k]) / 1024.0:
                problems.append(f"{a}/{b}: bracket [{lo!r}, {hi!r}] wider than step/1024")
            ends = np.array([lo, hi])
            s_lo, s_hi = _signs(oracles[a].at(ends), oracles[b].at(ends))
            if s_lo == 0 or (s_lo != 2 and s_hi != 2 and s_hi == s_lo):
                problems.append(f"{a}/{b}: ranking does not flip across [{lo!r}, {hi!r}]")
        for k in range(len(grid) - 1):
            s_lo, s_hi = signs[k], signs[k + 1]
            if 2 in (s_lo, s_hi):
                continue
            flips = s_lo * s_hi < 0
            if found[k] != (1 if flips else 0):
                problems.append(f"{a}/{b}: {found[k]} brackets in grid step {k} with signs {s_lo}, {s_hi}")
    return problems


def check_radr(report: dict, flows: np.ndarray, weights: np.ndarray, r: float, k: float) -> list[str]:
    """``radr-compare`` npv_at_k and mean_npv_at_r by discounting directly."""
    horizon = flows.shape[1] - 1
    t = np.arange(horizon + 1)
    means = np.array([math.fsum((weights * flows[:, j]).tolist()) for j in t])
    abs_means = np.array([math.fsum((weights * np.abs(flows[:, j])).tolist()) for j in t])
    k_flow = 8.0 * (horizon + 2) * EPS
    problems = []
    disc_k = (1.0 + k) ** -t
    want = math.fsum((means * disc_k).tolist())
    tol = k_flow * float(abs_means @ disc_k)
    if not abs(report["npv_at_k"] - want) <= tol:
        problems.append(f"npv_at_k {report['npv_at_k']!r} vs {want!r} (tol {tol:.3g})")
    disc_r = (1.0 + r) ** -t
    want = math.fsum((weights * (flows @ disc_r)).tolist())
    tol = k_flow * float(abs_means @ disc_r)
    if not abs(report["mean_npv_at_r"] - want) <= tol:
        problems.append(f"mean_npv_at_r {report['mean_npv_at_r']!r} vs {want!r} (tol {tol:.3g})")
    if report["mode"] != "paper-table4":
        problems.append(f"mode {report['mode']!r}")
    return problems
