"""End-to-end verification gates for the whole engine.

Each test prints one [PASS]/[FAIL] line per gate (visible with ``pytest -s``,
or automatically on failure) and then asserts that all its gates hold.

Known-unmet gates: in ``test_c4_omega_reference_values`` the left-skewed
project's Omega expectation and the two ordering expectations are frozen
reference values that the documented moment-matched lognormal scenario family
does not reproduce (three matched moments do not pin the tail shape that
drives Omega at thresholds above the mean). They are asserted as stated
rather than loosened; see README "Known limitations" for the measured values.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from invomega import (
    EmpiricalDistribution,
    GeneratorSpec,
    HurdleSpec,
    ScenarioSet,
    SeededStream,
    YieldCurve,
    evaluate_set,
    generate,
    omega,
    radr_valuation,
    rank,
    replicate,
    summarize,
    thresholds,
)
from invomega.cli import main
from invomega.distributions import omega_curve
from invomega.metrics import metric_thresholds
from invomega.ranking import evaluate_project, hurdle_crossings
from invomega.scenarios import _ndtri
from conftest import DEMO_DIR, evaluate_row as evaluate, hurdle_threshold
from reference import future_value, mirr, rows, split

CURVE = YieldCurve.flat(0.05, 2)
RIGHT_SPEC = GeneratorSpec(
    family="shifted_lognormal",
    mean=350.0,
    std=40.0,
    skew=2.7,
    template=(-200.0, None, -100.0),
    n=100000,
    seed=555,
)
LEFT_SPEC = GeneratorSpec(
    family="mirrored_shifted_lognormal",
    mean=355.0,
    std=40.0,
    skew=-2.8,
    template=(-200.0, None, -100.0),
    n=100000,
    seed=777,
)


def check(gates: list, label: str, ok: bool, detail: str = "") -> None:
    print(f"  [{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    gates.append((label, bool(ok)))


def finish(gates: list) -> None:
    failed = [label for label, ok in gates if not ok]
    assert not failed, f"failed gates: {failed}"


@pytest.fixture(scope="module")
def skewed_pair():
    """Both demo projects evaluated at N = 100000 (shared across criteria)."""
    pair = {}
    for name, spec in (("right", RIGHT_SPEC), ("left", LEFT_SPEC)):
        scenario_set = generate(spec, project_id=name)
        results = evaluate_set(scenario_set, CURVE)
        pair[name] = {
            "set": scenario_set,
            "results": results,
            "npv": EmpiricalDistribution(results.npv),
            "mu": EmpiricalDistribution(results.annualized_return),
        }
    return pair


def test_c1_radr_reference_projects(tmp_path, demo_dir):
    """Mean-flow valuation at k=15% on the two demo streams, via the CLI."""
    gates = []
    expectations = {
        "mean_right.json": (28.74, 0.208),
        "mean_left.json": (33.08, 0.217),
    }
    for filename, (npv_ref, mirr_ref) in expectations.items():
        out = tmp_path / f"{filename}.radr.json"
        code = main(
            [
                "radr-compare",
                "--project",
                str(demo_dir / filename),
                "--r",
                "0.05",
                "--k",
                "0.15",
                "--mode",
                "paper-table4",
                "--out",
                str(out),
            ]
        )
        check(gates, f"{filename}: radr-compare exits 0", code == 0)
        report = json.loads(out.read_text())
        check(
            gates,
            f"{filename}: NPV at k within 0.5 of {npv_ref}",
            abs(report["npv_at_k"] - npv_ref) <= 0.5,
            f"got {report['npv_at_k']:.4f}",
        )
        check(
            gates,
            f"{filename}: MIRR within 0.05pp of {mirr_ref:.1%}",
            abs(report["mirr_at_k"] - mirr_ref) <= 5e-4,
            f"got {report['mirr_at_k']:.4%}",
        )
    finish(gates)


def test_c2_threshold_reference_values():
    """A 10% return premium converts to mu*=15% and an NPV floor of 58."""
    gates = []
    basis = replicate((-200.0, 350.0, -100.0), CURVE).total_outlay
    ts = thresholds(HurdleSpec("delta_mu", 0.10), basis, CURVE, 2)
    check(gates, "mu* equals 15% exactly", abs(ts.mu_star - 0.15) <= 1e-12, f"{ts.mu_star}")
    check(
        gates,
        "NPV* within 0.5 of 58",
        abs(ts.npv_star - 58.0) <= 0.5,
        f"got {ts.npv_star:.4f}",
    )
    check(
        gates,
        "NPV* hits the exact closed form",
        ts.npv_star == pytest.approx((1.15**2 / 1.05**2 - 1.0) * basis, rel=1e-12),
    )
    finish(gates)


def test_c3_distribution_statistics(skewed_pair):
    """Moment-matched generation reproduces the reference NPV/mu statistics."""
    gates = []
    expectations = {
        "right": {"npv_mean": 42.0, "npv_std": 38.0, "npv_skew": 2.7, "mu_mean": 0.123},
        "left": {"npv_mean": 47.0, "npv_std": 37.0, "npv_skew": -2.8, "mu_mean": 0.130},
    }
    for name, want in expectations.items():
        npv = summarize(skewed_pair[name]["npv"])
        mu = summarize(skewed_pair[name]["mu"])
        check(
            gates,
            f"{name}: NPV mean {want['npv_mean']} +-1",
            abs(npv.mean - want["npv_mean"]) <= 1.0,
            f"got {npv.mean:.3f}",
        )
        check(
            gates,
            f"{name}: NPV std {want['npv_std']} +-2",
            abs(npv.std - want["npv_std"]) <= 2.0,
            f"got {npv.std:.3f}",
        )
        check(
            gates,
            f"{name}: NPV skewness {want['npv_skew']} +-0.3",
            abs(npv.skewness - want["npv_skew"]) <= 0.3,
            f"got {npv.skewness:.3f}",
        )
        check(
            gates,
            f"{name}: mu mean {want['mu_mean']:.1%} +-0.3pp",
            abs(mu.mean - want["mu_mean"]) <= 0.003,
            f"got {mu.mean:.4%}",
        )
    finish(gates)


def test_c4_omega_reference_values(skewed_pair):
    """Omega at the 10% premium hurdle against the frozen reference values.

    Three of these gates are known-unmet with the lognormal family (see the
    module docstring); they are asserted as stated, not weakened.
    """
    gates = []
    basis = replicate((-200.0, 350.0, -100.0), CURVE).total_outlay
    ts = thresholds(HurdleSpec("delta_mu", 0.10), basis, CURVE, 2)
    om_npv = {
        name: omega(skewed_pair[name]["npv"], ts.npv_star) for name in ("right", "left")
    }
    om_mu = {
        name: omega(skewed_pair[name]["mu"], ts.mu_star) for name in ("right", "left")
    }
    check(
        gates,
        "Omega_NPV(right) within 0.05 of 0.4",
        abs(om_npv["right"].omega - 0.4) <= 0.05,
        f"got {om_npv['right'].omega:.4f}",
    )
    check(
        gates,
        "Omega_NPV(left) within 0.05 of 0.3",
        abs(om_npv["left"].omega - 0.3) <= 0.05,
        f"got {om_npv['left'].omega:.4f}",
    )
    projects = [
        evaluate_project(skewed_pair["right"]["set"], CURVE, "npv"),
        evaluate_project(skewed_pair["left"]["set"], CURVE, "npv"),
    ]
    report = rank(projects, HurdleSpec("delta_mu", 0.10))
    check(
        gates,
        "right ranked above left on the npv metric",
        report.order[0] == "right",
        f"order {report.order}",
    )
    check(
        gates,
        "Omega_mu below 1 for both projects",
        om_mu["right"].omega < 1.0 and om_mu["left"].omega < 1.0,
        f"got {om_mu['right'].omega:.4f}/{om_mu['left'].omega:.4f}",
    )
    check(
        gates,
        "Omega_mu(right) above Omega_mu(left)",
        om_mu["right"].omega > om_mu["left"].omega,
        f"got {om_mu['right'].omega:.4f} vs {om_mu['left'].omega:.4f}",
    )
    finish(gates)


def test_c5_property_suite():
    gates = []
    rng = random.Random(20240808)

    def random_curve(horizon):
        return YieldCurve(tuple(rng.uniform(-0.3, 0.8) for _ in range(horizon)))

    def random_dist():
        n = rng.randint(2, 40)
        values = [rng.uniform(-100, 100) for _ in range(n)]
        raw = [rng.uniform(0.1, 1.0) for _ in range(n)]
        total = math.fsum(raw)
        return EmpiricalDistribution(values, [w / total for w in raw])

    # put-call parity: call - put == mean - threshold
    ok = True
    for _ in range(300):
        dist = random_dist()
        lam = rng.uniform(-150, 150)
        result = omega(dist, lam)
        mean = dist.mean()
        ok &= abs(result.call - result.put - (mean - lam)) <= 1e-10 * (
            abs(mean) + abs(lam) + 1.0
        )
    check(gates, "put-call parity exact over 300 random distributions", ok)

    # omega nonincreasing in the threshold
    ok = True
    for _ in range(60):
        dist = random_dist()
        lo = float(dist.sorted_values[0]) - 1.0
        hi = float(dist.sorted_values[-1]) + 1.0
        results = rows(omega_curve(dist, np.linspace(lo, hi, 25).tolist()))
        for later, earlier in zip(results[1:], results[:-1]):
            if later.is_indeterminate or earlier.is_indeterminate:
                continue
            if np.isinf(earlier.omega):
                continue
            ok &= (not np.isinf(later.omega)) and later.omega <= earlier.omega + 1e-12
    check(gates, "omega nonincreasing along threshold grids", ok)

    # omega at the mean is exactly 1
    ok = True
    for _ in range(100):
        dist = random_dist()
        result = omega(dist, dist.mean())
        if result.put > 0.0:
            ok &= abs(result.omega - 1.0) <= 1e-10
    check(gates, "omega(mean) equals 1", ok)

    # translation / positive-scaling invariance
    ok = True
    for _ in range(200):
        dist = random_dist()
        lam = rng.uniform(-120, 120)
        base = omega(dist, lam)
        if base.is_indeterminate or np.isinf(base.omega):
            continue
        c, a = rng.uniform(-50, 50), rng.uniform(0.1, 8.0)
        translated = EmpiricalDistribution(dist.values + c, dist.weights)
        scaled = EmpiricalDistribution(dist.values * a, dist.weights)
        ok &= math.isclose(omega(translated, lam + c).omega, base.omega, rel_tol=1e-9, abs_tol=1e-12)
        ok &= math.isclose(omega(scaled, a * lam).omega, base.omega, rel_tol=1e-9, abs_tol=1e-12)
    check(gates, "omega invariant under translation and positive scaling", ok)

    # forward replication identity
    ok = True
    for _ in range(200):
        curve = random_curve(rng.randint(1, 10))
        horizon = rng.randint(1, curve.horizon)
        factors = curve.forward_curve(horizon)
        top = curve.growth_factor(horizon)
        for t in range(1, horizon + 1):
            lhs = curve.growth_factor(t) * factors[t - 1]
            ok &= abs(lhs - top) <= 1e-12 * abs(top)
    check(gates, "replication identity (1+r_t)^t (1+Rf) == (1+r_T)^T", ok)

    # PV/FV consistency
    ok = True
    for _ in range(200):
        horizon = rng.randint(1, 8)
        curve = random_curve(horizon)
        flows = [-rng.uniform(1, 400)] + [rng.uniform(-200, 500) for _ in range(horizon)]
        positive = split(flows)[1]
        fv = math.fsum(f * g for f, g in zip(positive, curve.forward_curve(horizon)))
        pv = replicate(flows, curve).certainty_equivalent_outlay
        grown = pv * curve.growth_factor(horizon)
        ok &= abs(fv - grown) <= 1e-10 * (abs(grown) + 1.0)
        ok &= fv == future_value(positive, curve)
    check(gates, "FV of inflows equals PV grown at the horizon rate", ok)

    # threshold equivalence: NPV above NPV* iff mu above mu*
    ok = True
    for _ in range(300):
        horizon = rng.randint(1, 6)
        curve = random_curve(horizon)
        flows = [-rng.uniform(50, 400)] + [rng.uniform(-150, 500) for _ in range(horizon)]
        flows[rng.randint(1, horizon)] = rng.uniform(50, 600)
        result = evaluate(flows, curve)
        ts = thresholds(
            HurdleSpec("delta_mu", rng.uniform(0.0, 0.3)),
            result.total_outlay,
            curve,
            horizon,
        )
        if result.npv != ts.npv_star:
            ok &= (result.npv > ts.npv_star) == (result.annualized_return > ts.mu_star)
    check(gates, "NPV > NPV* iff mu > mu* per trajectory", ok)

    # flat-curve mu equals dual-rate MIRR at the same rate
    ok = True
    for _ in range(300):
        horizon = rng.randint(1, 8)
        rate = rng.uniform(-0.2, 0.5)
        flows = [-rng.uniform(50, 400)] + [rng.uniform(-150, 500) for _ in range(horizon)]
        flows[rng.randint(1, horizon)] = rng.uniform(50, 600)
        mu = evaluate(flows, YieldCurve.flat(rate, horizon)).annualized_return
        ok &= math.isclose(mu, mirr(flows, rate, rate), rel_tol=1e-10, abs_tol=1e-12)
    check(gates, "flat-curve mu equals MIRR(r, r)", ok)

    # RADR equivalence chain and identity on 1000 randomized canonical flows
    chain_ok, identity_ok = True, True
    for _ in range(1000):
        horizon = rng.randint(1, 6)
        scenarios = []
        for _ in range(rng.randint(1, 4)):
            flows = [-rng.uniform(10, 500)] + [rng.uniform(0, 300) for _ in range(horizon)]
            scenarios.append(flows)
        scenario_set = ScenarioSet.uniform("p", scenarios)
        r = rng.uniform(-0.05, 0.15)
        k = r + rng.uniform(0.0, 0.35)
        valuation = radr_valuation(scenario_set, r, k)
        margins = (
            valuation.npv_at_k,
            valuation.mirr_at_k - k,
            valuation.mean_npv_at_r - valuation.lambda_radr,
        )
        chain_ok &= len({m > 0.0 for m in margins}) == 1
        identity_ok &= abs(
            valuation.mean_npv_at_r - valuation.lambda_radr - valuation.npv_at_k
        ) <= 1e-10 * (abs(valuation.npv_at_k) + 1.0)
    check(gates, "RADR equivalence chain agrees on 1000 canonical flows", chain_ok)
    check(gates, "RADR identity mean-NPV - lambda == NPV at k (1e-10)", identity_ok)

    # mu <-> NPV round trip
    ok = True
    for _ in range(200):
        horizon = rng.randint(1, 10)
        curve = random_curve(horizon)
        basis = rng.uniform(1, 1000)
        npv = rng.uniform(-0.9 * basis, 3 * basis)
        mu = metric_thresholds("npv_star", [npv], "mu", basis, curve, horizon)[0]
        back = metric_thresholds("mu_star", [mu], "npv", basis, curve, horizon)[0]
        ok &= math.isclose(back, npv, rel_tol=1e-10, abs_tol=1e-9)
    check(gates, "mu/NPV threshold conversions round-trip", ok)

    finish(gates)


def test_c6_determinism(tmp_path):
    """Identical configs produce byte-identical artifacts end to end."""
    gates = []
    project = {
        "id": "det",
        "horizon": 2,
        "generator": {
            "family": "shifted_lognormal",
            "mean": 350.0,
            "std": 40.0,
            "skew": 2.7,
            "template": [-200.0, None, -100.0],
            "n": 2000,
            "seed": 555,
        },
    }
    curve_csv = tmp_path / "curve.csv"
    curve_csv.write_text("tenor,rate\n1,0.05\n2,0.05\n")
    project_path = tmp_path / "p.json"
    project_path.write_text(json.dumps(project))
    twin_path = tmp_path / "twin.json"  # the same project under its own id: ids must be unique
    twin_path.write_text(json.dumps({**project, "id": "det-twin"}))

    artifacts = {}
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        assert main(["simulate", "--spec", str(project_path), "--out", str(base / "s.csv")]) == 0
        assert (
            main(
                [
                    "evaluate",
                    "--project",
                    str(project_path),
                    "--curve",
                    str(curve_csv),
                    "--out-dir",
                    str(base),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "rank",
                    "--projects",
                    str(project_path),
                    str(twin_path),
                    "--curve",
                    str(curve_csv),
                    "--delta-mu",
                    "0.10",
                    "--metric",
                    "npv",
                    "--out",
                    str(base / "rank.json"),
                    "--out-csv",
                    str(base / "rank.csv"),
                ]
            )
            == 0
        )
        artifacts[run] = {
            name: (base / name).read_bytes()
            for name in ("s.csv", "evaluation.csv", "summary.csv", "rank.json", "rank.csv")
        }
    for name in artifacts["one"]:
        check(gates, f"{name} byte-identical across runs", artifacts["one"][name] == artifacts["two"][name])

    # chunked generation equals serial generation (per-scenario counter streams)
    serial = _ndtri(SeededStream(555).uniforms(np.arange(2000)))
    chunked = np.concatenate(
        [_ndtri(SeededStream(555).uniforms(np.arange(lo, lo + 500))) for lo in range(0, 2000, 500)]
    )
    check(gates, "partitioned draws equal serial draws", np.array_equal(serial, chunked))
    finish(gates)


def test_c6_bytes_do_not_depend_on_numpy_simd_dispatch(tmp_path, capsys):
    """A lognormal ``simulate`` and a T = 3 ``evaluate`` and ``radr-compare`` write the same bytes
    when numpy may dispatch its SIMD kernels and when every dispatch target is disabled: the
    lognormal exp, the normal quantile's logs and the T >= 3 root of mu are libm calls, and
    the RADR NPVs go through the evaluation kernel's numpy sums."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    rng = random.Random(3)
    rows = [[-rng.uniform(50, 500)] + [rng.uniform(-100, 400) for _ in range(3)] for _ in range(2000)]
    (tmp_path / "long.csv").write_text("t0,t1,t2,t3\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    (tmp_path / "long.json").write_text(json.dumps({"id": "long", "horizon": 3, "scenario_file": "long.csv"}))
    (tmp_path / "curve.csv").write_text("tenor,rate\n1,0.03\n2,0.04\n3,0.045\n")
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = {}
    for run, disabled in (("dispatched", None), ("baseline", " ".join(__cpu_dispatch__))):
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        out = tmp_path / run
        for argv in (
            ["simulate", "--spec", str(DEMO_DIR / "project_right.json"), "--n", "4000", "--out", str(out / "s.csv")],
            ["evaluate", "--project", str(tmp_path / "long.json"), "--curve", str(tmp_path / "curve.csv"),
             "--out-dir", str(out)],
            ["radr-compare", "--project", str(tmp_path / "long.json"), "--r", "0.03", "--k", "0.12",
             "--mode", "paper-table4", "--out", str(out / "radr.json")],
        ):
            proc = subprocess.run([sys.executable, "-m", "invomega.cli", *argv], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outputs[run] = {name: (out / name).read_bytes()
                        for name in ("s.csv", "evaluation.csv", "summary.csv", "radr.json")}
    if not __cpu_dispatch__:
        with capsys.disabled():
            print("\nnumpy dispatches no CPU target on this machine: the comparison is vacuous")
    assert outputs["dispatched"] == outputs["baseline"]


def test_c7_crossover_localization(tmp_path):
    """A constructed pair with crossing Omega curves is localized to grid/1024."""
    gates = []
    curve_csv = tmp_path / "curve.csv"
    curve_csv.write_text("tenor,rate\n1,0.05\n")
    curve = YieldCurve.flat(0.05, 1)

    def project_json(pid, mean, std, seed):
        path = tmp_path / f"{pid}.json"
        path.write_text(
            json.dumps(
                {
                    "id": pid,
                    "horizon": 1,
                    "generator": {
                        "family": "normal",
                        "mean": mean,
                        "std": std,
                        "skew": 0.0,
                        "template": [-100.0, None],
                        "n": 4000,
                        "seed": seed,
                    },
                }
            )
        )
        return path

    # mu distributions: narrow around 10% vs wide around 12%
    narrow_path = project_json("narrow", 110.0, 1.0, 31)
    wide_path = project_json("wide", 112.0, 6.0, 32)

    curves = {}
    for path, pid in ((narrow_path, "narrow"), (wide_path, "wide")):
        out = tmp_path / f"{pid}.csv"
        code = main(
            [
                "omega-curve",
                "--project",
                str(path),
                "--curve",
                str(curve_csv),
                "--metric",
                "mu",
                "--grid",
                "0.06:0.16:0.005",
                "--out",
                str(out),
            ]
        )
        check(gates, f"omega-curve for {pid} exits 0", code == 0)
        rows = out.read_text().splitlines()[1:]
        curves[pid] = [float(row.split(",")[3]) for row in rows]
        finite = [v for v in curves[pid] if math.isfinite(v)]
        check(gates, f"{pid} curve nonincreasing", finite == sorted(finite, reverse=True))

    narrow = evaluate_project(generate(_spec_from(narrow_path)), curve, "mu")
    wide = evaluate_project(generate(_spec_from(wide_path)), curve, "mu")
    grid = [0.06 + 0.005 * i for i in range(21)]
    brackets = hurdle_crossings(narrow, wide, grid)
    check(gates, "exactly one ranking flip found", len(brackets) == 1, f"{brackets}")
    lo, hi = brackets[0]
    check(gates, "bracket width within grid step / 1024", hi - lo <= 0.005 / 1024.0)

    def sign_at(mu_star: float) -> int:
        ln = hurdle_threshold(narrow, HurdleSpec("mu_star", mu_star))
        lw = hurdle_threshold(wide, HurdleSpec("mu_star", mu_star))
        a, b = omega(narrow.distribution, ln), omega(wide.distribution, lw)
        if np.isinf(a.omega) or np.isinf(b.omega):
            return 1 if np.isinf(a.omega) and not np.isinf(b.omega) else -1
        diff = a.omega - b.omega
        return (diff > 0) - (diff < 0)

    check(
        gates,
        "direct omega evaluation confirms the sign flip across the bracket",
        sign_at(lo) > 0 >= sign_at(hi),
        f"signs {sign_at(lo)}/{sign_at(hi)} on [{lo:.6f}, {hi:.6f}]",
    )
    finish(gates)


def _spec_from(path) -> GeneratorSpec:
    from invomega.scenarios import generator_spec_from_dict

    return generator_spec_from_dict(json.loads(path.read_text())["generator"])
