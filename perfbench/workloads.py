"""Seeded inputs and CLI command sequences of the benchmark workloads.

Every input file the program reads is written here from the workload seed
alone (numpy ``default_rng``), so the same seed gives byte-identical inputs.
The program never sees the demo files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

T2_TEMPLATE = [-200.0, None, -100.0]
RANK_GRID = "0.00:0.40:0.001"
RANK_DELTA_MU = 0.10
RADR_MODE = "paper-table4"


@dataclass(frozen=True)
class Command:
    """One ``invomega`` CLI call and the files it must produce."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    write_inputs: Callable[[int, Path, int | None], dict]
    commands: Callable[[dict, Path, Path], list[Command]]
    check: Callable[[dict, Path, Path], dict[str, list[str]]]


def _write_flat_curve(path: Path, rate: float, horizon: int) -> None:
    path.write_text("tenor,rate\n" + "".join(f"{t},{rate!r}\n" for t in range(1, horizon + 1)))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


# --- simulate-evaluate-1e5 -------------------------------------------------

def _se_inputs(seed: int, in_dir: Path, n: int | None) -> dict:
    rng = np.random.default_rng(seed)
    n = 100_000 if n is None else n
    gen_seed = int(rng.integers(1, 2**31 - 1))
    _write_flat_curve(in_dir / "curve.csv", 0.05, 2)
    _write_json(in_dir / "project.json", {
        "id": "right-skewed",
        "horizon": 2,
        "generator": {
            "family": "shifted_lognormal", "mean": 350.0, "std": 40.0, "skew": 2.7,
            "template": T2_TEMPLATE, "n": n, "seed": gen_seed,
        },
    })
    return {"n": n, "gen_seed": gen_seed}


def _se_commands(params: dict, in_dir: Path, out_dir: Path) -> list[Command]:
    project, curve = str(in_dir / "project.json"), str(in_dir / "curve.csv")
    scen, report = out_dir / "scenarios.csv", out_dir / "report"
    return [
        Command("simulate", ("simulate", "--spec", project, "--n", str(params["n"]),
                             "--seed", str(params["gen_seed"]), "--out", str(scen)), (scen,)),
        Command("evaluate", ("evaluate", "--project", project, "--curve", curve,
                             "--out-dir", str(report)),
                (report / "evaluation.csv", report / "summary.csv")),
    ]


def _se_check(params: dict, in_dir: Path, out_dir: Path) -> dict[str, list[str]]:
    block = json.loads((in_dir / "project.json").read_text())["generator"]
    flows, weights = oracle.generated_flows(block)
    rates = oracle.read_curve(in_dir / "curve.csv")
    return {
        "simulate": oracle.check_scenario_csv(out_dir / "scenarios.csv", block),
        "evaluate": oracle.check_evaluation(out_dir / "report", flows, weights, rates),
    }


# --- rank-sweep-8x1e4 ------------------------------------------------------

RANK_FAMILIES = (
    "shifted_lognormal", "shifted_lognormal",
    "mirrored_shifted_lognormal", "mirrored_shifted_lognormal",
    "normal", "normal", "discrete", "discrete",
)


def _rs_inputs(seed: int, in_dir: Path, n: int | None) -> dict:
    rng = np.random.default_rng(seed)
    n = 10_000 if n is None else n
    _write_flat_curve(in_dir / "curve.csv", 0.05, 2)
    names = []
    for i, family in enumerate(RANK_FAMILIES, start=1):
        if family == "shifted_lognormal":
            skew = round(float(rng.uniform(1.5, 3.0)), 3)
        elif family == "mirrored_shifted_lognormal":
            skew = -round(float(rng.uniform(1.5, 3.0)), 3)
        elif family == "normal":
            skew = 0.0
        else:
            skew = round(float(rng.uniform(-1.5, 1.5)), 3)
        name = f"p{i}"
        _write_json(in_dir / f"{name}.json", {
            "id": f"{name}-{family}",
            "horizon": 2,
            "generator": {
                "family": family,
                "mean": round(float(rng.uniform(340.0, 360.0)), 2),
                "std": round(float(rng.uniform(30.0, 50.0)), 2),
                "skew": skew,
                "template": T2_TEMPLATE,
                "n": n,
                "seed": int(rng.integers(1, 2**31 - 1)),
            },
        })
        names.append(name)
    return {"n": n, "projects": names}


def _rs_commands(params: dict, in_dir: Path, out_dir: Path) -> list[Command]:
    projects = [str(in_dir / f"{p}.json") for p in params["projects"]]
    out = out_dir / "rank.json"
    return [Command("rank", ("rank", "--projects", *projects, "--curve", str(in_dir / "curve.csv"),
                             "--metric", "mu", "--delta-mu", repr(RANK_DELTA_MU),
                             "--grid", RANK_GRID, "--out", str(out)), (out,))]


def _rs_check(params: dict, in_dir: Path, out_dir: Path) -> dict[str, list[str]]:
    rates = oracle.read_curve(in_dir / "curve.csv")
    samples = {}
    for p in params["projects"]:
        descriptor = json.loads((in_dir / f"{p}.json").read_text())
        flows, weights = oracle.generated_flows(descriptor["generator"])
        samples[descriptor["id"]] = (oracle.closed_form(flows, rates)["mu"], weights)
    report = json.loads((out_dir / "rank.json").read_text())
    return {"rank": oracle.check_rank(report, samples, rates, RANK_DELTA_MU, RANK_GRID)}


# --- csv-long-horizon-1e4 --------------------------------------------------

LONG_T = 30


def _lh_inputs(seed: int, in_dir: Path, n: int | None) -> dict:
    rng = np.random.default_rng(seed)
    n = 10_000 if n is None else n
    t = LONG_T
    r0 = float(rng.uniform(0.02, 0.03))
    slope = float(rng.uniform(0.005, 0.02))
    rates = [round(r0 + slope * (k - 1) / (t - 1), 6) for k in range(1, t + 1)]
    (in_dir / "curve.csv").write_text(
        "tenor,rate\n" + "".join(f"{k},{r!r}\n" for k, r in enumerate(rates, start=1))
    )
    flows = np.empty((n, t + 1))
    flows[:, 0] = -rng.uniform(800.0, 1200.0, n)
    flows[:, 1:4] = -rng.uniform(50.0, 150.0, (n, 3))  # construction outflows: non-canonical
    level = rng.lognormal(math.log(120.0), 0.3, n)
    growth = rng.normal(0.02, 0.01, n)
    ages = np.arange(t - 3)
    flows[:, 4:] = level[:, None] * (1.0 + growth[:, None]) ** ages * rng.lognormal(0.0, 0.15, (n, t - 3))
    flows = np.round(flows, 2)
    raw = rng.uniform(0.5, 1.5, n)
    weights = raw / math.fsum(raw.tolist())
    lines = ["weight," + ",".join(f"t{k}" for k in range(t + 1))]
    lines += [",".join(map(repr, [w, *row])) for w, row in zip(weights.tolist(), flows.tolist())]
    (in_dir / "scenarios.csv").write_text("\n".join(lines) + "\n")
    _write_json(in_dir / "project.json",
                {"id": "long-horizon", "horizon": t, "scenario_file": "scenarios.csv"})
    r = round(r0, 4)
    return {"n": n, "r": r, "k": round(r + float(rng.uniform(0.04, 0.08)), 4)}


def _lh_commands(params: dict, in_dir: Path, out_dir: Path) -> list[Command]:
    project = str(in_dir / "project.json")
    report, radr = out_dir / "report", out_dir / "radr.json"
    return [
        Command("evaluate", ("evaluate", "--project", project, "--curve", str(in_dir / "curve.csv"),
                             "--out-dir", str(report)),
                (report / "evaluation.csv", report / "summary.csv")),
        Command("radr-compare", ("radr-compare", "--project", project, "--r", repr(params["r"]),
                                 "--k", repr(params["k"]), "--mode", RADR_MODE, "--out", str(radr)),
                (radr,)),
    ]


def _lh_check(params: dict, in_dir: Path, out_dir: Path) -> dict[str, list[str]]:
    flows, weights = oracle.read_scenarios(in_dir / "scenarios.csv")
    rates = oracle.read_curve(in_dir / "curve.csv")
    radr = json.loads((out_dir / "radr.json").read_text())
    return {
        "evaluate": oracle.check_evaluation(out_dir / "report", flows, weights, rates),
        "radr-compare": oracle.check_radr(radr, flows, weights, params["r"], params["k"]),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-evaluate-1e5", _se_inputs, _se_commands, _se_check),
        Workload("rank-sweep-8x1e4", _rs_inputs, _rs_commands, _rs_check),
        Workload("csv-long-horizon-1e4", _lh_inputs, _lh_commands, _lh_check),
    )
}
