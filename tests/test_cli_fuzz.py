"""The exit-code contract of every command under random inputs.

Each case writes random project descriptors, generator blocks, scenario CSVs
and a curve into a fresh directory, and runs ``cli.main`` in process on one
of the five commands with random grids, hurdles and RADR rates. Most fields
are valid, and a few are drawn from the edges: +-0, subnormals, 1e308,
integers beyond the float range, inf and nan, booleans, strings and lists.
So a case runs to exit 0 as often as it is refused.

A case passes when ``main`` returns 0, 1 or 2, or argparse exits 2; a
warning is an error here, as everywhere in the suite. After a non-zero exit
from ``main``, stderr holds exactly one line, ``error: ...``, and the case
directory holds its inputs and nothing else: no output and no temporary.
After exit 0, stderr is empty, every output is written and no temporary is
left.

Scenario counts and grid lengths stay at or below 1e4, so a case allocates
little and the test runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from invomega.cli import main
from invomega.scenarios import FAMILIES

MAX_N = 10_000
MAX_GRID_POINTS = 10_000

EDGE_NUMBERS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-9, 1e19, 1e20, 1e200,
    1e308, -1e308, 1.7976931348622157e308, 10**400, -(10**400), True, False, "1", [1.0], None,
]
EDGE_TEXTS = ["0", "-0", "5e-324", "1e-320", "1e308", "-1e308", "1e400", "inf", "-inf", "nan",
              "", "abc", " 1 ", "-1", "-2", "0x10", "1e-9"]
edge_numbers = st.one_of(
    st.sampled_from(EDGE_NUMBERS),
    st.floats(),
    # the top of the float range, where a draw or a sum overflows
    st.floats(1e300, 1.7976931348622157e308),
    st.floats(-1.7976931348622157e308, -1e300),
)
edge_texts = st.one_of(st.sampled_from(EDGE_TEXTS), st.floats().map(repr))


def rarely(valid: st.SearchStrategy, edge: st.SearchStrategy, one_in: int = 30) -> st.SearchStrategy:
    """``valid`` most of the time, and ``edge`` about once in ``one_in`` draws."""
    return st.sampled_from([True] + [False] * (one_in - 1)).flatmap(lambda e: edge if e else valid)


def number(lo: float, hi: float, one_in: int = 30) -> st.SearchStrategy:
    """A JSON number in [lo, hi], or an edge value about once in ``one_in`` draws."""
    return rarely(st.floats(lo, hi), edge_numbers, one_in)


def text(lo: float, hi: float) -> st.SearchStrategy:
    """The text of a number in [lo, hi], or an edge text: a CSV cell or a CLI value."""
    return rarely(st.floats(lo, hi).map(repr), edge_texts)


@st.composite
def generator_blocks(draw, horizon: int) -> dict:
    family = draw(rarely(st.sampled_from(FAMILIES), st.sampled_from(["triangular", 3, None])))
    skew = st.just(0.0) if family == "normal" else st.floats(0.05, 4.0) | st.floats(-4.0, -0.05)
    template = [draw(number(-500.0, 0.0))] + [draw(number(-200.0, 500.0)) for _ in range(horizon)]
    template[draw(st.integers(1, horizon))] = None
    block = {
        "family": family,
        "mean": draw(number(-500.0, 1000.0, 6)),
        "std": draw(number(1.0, 100.0, 6)),
        "skew": draw(rarely(skew, edge_numbers, 6)),
        "template": draw(rarely(st.just(template), st.sampled_from(
            [[None], [None, 1.0], [-1.0, 2.0], [-1.0, None, None], "x", None]))),
        "n": draw(rarely(st.sampled_from([1, 10, 100, 1000]) | st.integers(1, 2000),
                         st.sampled_from([0, -1, 1.5, True, "3", None, MAX_N]))),
        "seed": draw(rarely(st.integers(0, 2**31), st.sampled_from([-1, 2**70, 1.0, "1", True]))),
    }
    if draw(st.integers(0, 29)) == 0:
        del block[draw(st.sampled_from(sorted(block)))]
    if draw(st.integers(0, 29)) == 0:
        block["extra"] = 1
    return block


@st.composite
def scenario_csvs(draw, horizon: int) -> str:
    rows = [
        [draw(text(-500.0, 0.0))] + [draw(text(-200.0, 500.0)) for _ in range(horizon)]
        for _ in range(draw(rarely(st.integers(1, 8), st.sampled_from([0, 40]))))
    ]
    header = [f"t{t}" for t in range(horizon + 1)]
    if draw(st.booleans()):
        header.insert(0, "weight")
        for row in rows:
            row.insert(0, draw(rarely(st.just(repr(1.0 / len(rows))), edge_texts)))
    if draw(st.integers(0, 29)) == 0:
        header = draw(st.sampled_from([["t1", "t0"], ["weight"], [], ["t0", "x"]]))
    if rows and draw(st.integers(0, 29)) == 0:
        rows[-1].append("1")
    lines = [",".join(row) for row in [header, *rows]]
    if draw(st.integers(0, 29)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", ",,"])))
    return "\n".join(lines) + "\n"


@st.composite
def curve_csvs(draw, horizon: int) -> str:
    tenors = draw(rarely(st.just(horizon), st.sampled_from([0, horizon - 1, horizon + 1])))
    rows = [f"{t},{draw(text(-0.05, 0.2))}" for t in range(1, tenors + 1)]
    header = draw(rarely(st.just("tenor,rate"), st.sampled_from(["rate,tenor", "tenor", ""])))
    return "\n".join([header, *rows]) + "\n"


@st.composite
def descriptors(draw, name: str, horizon: int, files: dict,
                kinds: tuple[str, ...] = ("bare", "generator", "csv")) -> str:
    """Write one project descriptor (and its scenario CSV) into ``files``; return its path."""
    kind = draw(st.sampled_from(kinds))
    if kind == "bare":
        payload = draw(generator_blocks(horizon))
    else:
        payload = {
            "id": draw(rarely(st.just(name), st.sampled_from(["same", 7, None]))),
            "horizon": draw(rarely(st.just(horizon), st.sampled_from([0, -1, 1.5, "2", horizon + 1, True]))),
        }
        if kind == "generator":
            payload["generator"] = draw(generator_blocks(horizon))
        else:
            payload["scenario_file"] = f"{name}.csv"
            files[f"{name}.csv"] = draw(scenario_csvs(horizon))
    if draw(st.integers(0, 29)) == 0:
        payload = draw(st.sampled_from([[], "x", {}, {"id": name, "horizon": 2}]))
    files[f"{name}.json"] = json.dumps(payload)
    return f"{{dir}}/{name}.json"


@st.composite
def grids(draw) -> str:
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(["a:b:c", "1:0:1", "0:1:0", "0:1", "0:1e308:1e-308", "nan:1:0.1",
                                     "-1:1:0.5", "-2:-1:0.25", "0:inf:1", "1e300:1e301:1e299"]))
    lo = draw(st.floats(-1.5, 0.5))
    step = draw(st.floats(1e-4, 0.1))
    points = draw(rarely(st.integers(1, 300), st.integers(1, MAX_GRID_POINTS - 1)))
    return f"{lo!r}:{lo + step * points!r}:{step!r}"


@st.composite
def cases(draw) -> tuple[dict, list[str], list[str]]:
    """(input files by name, argv, output names); ``{dir}`` in argv is the case directory."""
    horizon = draw(st.sampled_from([1, 2, 2, 3, 5]))
    files = {"curve.csv": draw(curve_csvs(horizon))}
    curve = "{dir}/curve.csv"
    command = draw(st.sampled_from(["simulate", "evaluate", "rank", "omega-curve", "radr-compare"]))
    kinds = ("bare", "generator", "csv")
    if command == "simulate":  # which refuses a scenario_file descriptor
        kinds = draw(rarely(st.just(("bare", "generator")), st.just(("csv",))))
    project = draw(descriptors("p1", horizon, files, kinds))
    metric = ["--metric", draw(st.sampled_from(["mu", "npv"]))]
    if command == "simulate":
        argv, outputs = ["--spec", project, "--out", "{dir}/out/s.csv"], ["out/s.csv"]
        if draw(st.booleans()):
            argv.append(f"--n={draw(rarely(st.integers(1, MAX_N), st.integers(-1, 0)))}")
        if draw(st.booleans()):
            argv.append(f"--seed={draw(st.integers(-(2**65), 2**65))}")
    elif command == "evaluate":
        argv = ["--project", project, "--curve", curve, "--out-dir", "{dir}/out"]
        outputs = ["out/evaluation.csv", "out/summary.csv"]
    elif command == "rank":
        others = [draw(descriptors(f"p{i}", horizon, files)) for i in range(2, draw(st.integers(1, 3)) + 1)]
        kind = draw(st.sampled_from(["--delta-mu", "--mu-star", "--npv-star"]))
        value = draw(text(-300.0, 300.0) if kind == "--npv-star" else text(-0.5, 0.5))
        argv = ["--projects", project, *others, "--curve", curve, *metric, f"{kind}={value}",
                "--out", "{dir}/out/rank.json"]
        outputs = ["out/rank.json"]
        if draw(st.booleans()):
            argv.append(f"--grid={draw(grids())}")
        if draw(st.booleans()):
            name = draw(rarely(st.just("out/rank.csv"), st.just("out/rank.json")))
            argv.append(f"--out-csv={{dir}}/{name}")
            outputs.append(name)
    elif command == "omega-curve":
        argv = ["--project", project, "--curve", curve, *metric, f"--grid={draw(grids())}",
                "--out", "{dir}/out/curve.csv"]
        outputs = ["out/curve.csv"]
    else:
        argv = ["--project", project, f"--r={draw(text(-0.05, 0.1))}", f"--k={draw(text(0.0, 0.3))}",
                "--mode", draw(st.sampled_from(["canonical-strict", "paper-table4"])),
                "--out", "{dir}/out/radr.json"]
        outputs = ["out/radr.json"]
    return files, [command, *argv], outputs


def run_case(files: dict, argv: list[str], outputs: list[str],
             expected: tuple[int, str] | None = None) -> None:
    """Run one case in a fresh directory and check it against the exit-code contract,
    and against ``expected``, the exit code and stderr (``{dir}`` in it is the directory)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, content in files.items():
            (root / name).write_text(content)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([arg.replace("{dir}", tmp) for arg in argv])
            except SystemExit as exc:  # argparse refuses the arguments
                assert exc.code == 2
                code = None
        left = sorted(str(path.relative_to(root)) for path in root.rglob("*") if path.is_file())
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
            assert sorted({*files, *outputs}) == left
        else:
            assert code in (1, 2, None)
            assert sorted(files) == left
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        if expected is not None:
            assert (code, err) == (expected[0], expected[1].replace("{dir}", tmp))


def _at_the_float_limit(weights: tuple[str, str], metric: str) -> tuple[dict, list[str], list[str]]:
    """A ``rank`` case on two rows whose outlay F_0 is the largest float."""
    rows = "".join(f"{w},-1.7976931348623157e308,0.0\n" for w in weights)
    files = {"curve.csv": "tenor,rate\n1,0.05\n", "o.csv": "weight,t0,t1\n" + rows,
             "o.json": json.dumps({"id": "o", "horizon": 1, "scenario_file": "o.csv"})}
    argv = ["rank", "--projects", "{dir}/o.json", "--curve", "{dir}/curve.csv", "--delta-mu", "0.1",
            "--metric", metric, "--out", "{dir}/out/rank.json"]
    return files, argv, ["out/rank.json"]


def _on_the_curve(rows: str) -> tuple[dict, list[str], list[str]]:
    """An ``evaluate`` case of a two-period generated project on a curve with ``rows``."""
    block = {"family": "normal", "mean": 100.0, "std": 10.0, "skew": 0.0,
             "template": [-100.0, None, 0.0], "n": 10, "seed": 1}
    files = {"curve.csv": "tenor,rate\n" + rows, "p1.json": json.dumps(block)}
    argv = ["evaluate", "--project", "{dir}/p1.json", "--curve", "{dir}/curve.csv", "--out-dir", "{dir}/out"]
    return files, argv, ["out/evaluation.csv", "out/summary.csv"]


@settings(max_examples=500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cases())
# the mean of two unequally weighted outlays at the float limit (once an OverflowError
# traceback), and Omega at a threshold far above both NPVs: 0, with an infinite put (once
# numpy warnings, then exit 2)
@example(_at_the_float_limit(("0.5000000000001", "0.5"), "mu"))
@example(_at_the_float_limit(("0.5", "0.5"), "npv"))
# present values of +-1e307 at r = -0.99 that overflow to +-inf (once a ValueError traceback
# from lambda_radr's fsum)
@example(({"p1.csv": "t0,t1,t2\n-1,1e307,-1e307\n",
           "p1.json": json.dumps({"id": "p1", "horizon": 2, "scenario_file": "p1.csv"})},
          ["radr-compare", "--project", "{dir}/p1.json", "--r=-0.99", "--k=0", "--mode", "paper-table4",
           "--out", "{dir}/out/radr.json"], ["out/radr.json"]))
# curve cells read as in the scenario CSV: a whole tenor in any float spelling, and a bad
# rate named by its row and value (`curve_csvs` draws integer tenors only)
@example((*_on_the_curve("1,0.05\n2.0,0.05\n"), (0, "")))
@example((*_on_the_curve("1,0.05\n2,abc\n"), (2, "error: {dir}/curve.csv: row 3: non-numeric value 'abc'\n")))
def test_every_command_keeps_the_exit_code_contract(case):
    run_case(*case)
