"""Traced run of one invomega CLI command, and the per-layer metrics of its spans.

    python3 perfbench/tracing.py --name NAME --spans OUT.json --probe-dir DIR -- <cli argv>

``src`` must be on PYTHONPATH. The command runs in this process through
``invomega.cli.main`` with the same argv as an untraced CLI child, so it takes
the program's own call path, from a fresh interpreter as the CLI does. Spans
come from wrappers installed on the module attributes that the CLI and the
layers look up (``HOOKS``); no file under ``src/`` changes. A span covers one
whole call (name, start, end, parent span), and its self time is its
duration minus its children's.

After a command that evaluated scenarios, *probes* time calls that run too
often to span one by one (curve lookups at tenor T, replication, Omega at the
workload's N) on the command's own data, and one ``write_scenarios`` of the
evaluated set, which stands in for the layer only on a workload whose
commands write no scenario CSV. Probe spans carry ``probe: true``. Layers the
commands do not call read 0.

The exit status is the command's. Spans go to ``--spans`` as JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

MICRO_CALLS = 200
PER_CALL_SPANS = ("curves.forward_curve", "curves.growth_factor", "cashflows.replicate", "distributions.omega")
OMEGA_CALLS = 51
# what the probes keep of a span name's first call
CAPTURE = {
    "metrics.evaluate_set": lambda args, result: args[:2],
    "distributions.EmpiricalDistribution": lambda args, result: result,
}


def _size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


# (module, attribute, span name, attributes of the span from (args, result))
HOOKS = (
    ("invomega.cli", "load_project", "scenarios.load_project", None),
    ("invomega.cli", "generate", "scenarios.generate", None),
    ("invomega.scenarios", "generate", "scenarios.generate", None),
    ("invomega.scenarios", "load_scenarios", "scenarios.load_scenarios",
     lambda args, result: {"bytes": _size(args[0])}),
    ("invomega.cli", "write_scenarios", "scenarios.write_scenarios",
     lambda args, result: {"bytes": _size(args[1])}),
    ("invomega.cli", "evaluate_set", "metrics.evaluate_set", lambda args, result: {"n": len(args[0])}),
    ("invomega.ranking", "evaluate_set", "metrics.evaluate_set", lambda args, result: {"n": len(args[0])}),
    ("invomega.cli", "write_evaluation_csv", "metrics.write_evaluation_csv",
     lambda args, result: {"bytes": _size(args[1])}),
    ("invomega.cli", "EmpiricalDistribution", "distributions.EmpiricalDistribution", None),
    ("invomega.ranking", "EmpiricalDistribution", "distributions.EmpiricalDistribution", None),
    ("invomega.cli", "summarize", "distributions.summarize", None),
    ("invomega.ranking", "summarize", "distributions.summarize", None),
    ("invomega.cli", "write_summary_csv", "distributions.write_summary_csv", None),
    ("invomega.cli", "evaluate_project", "ranking.evaluate_project", None),
    ("invomega.cli", "rank", "ranking.rank", None),
    ("invomega.ranking", "rank", "ranking.rank", None),
    ("invomega.cli", "rank_with_crossings", "ranking.rank_with_crossings", None),
    ("invomega.ranking", "hurdle_crossings", "ranking.hurdle_crossings",
     lambda args, result: {"brackets": len(result)}),
    ("invomega.cli", "radr_valuation", "radr.radr_valuation", None),
    ("invomega.radr", "vertical_average", "radr.vertical_average", None),
    ("invomega.cli", "_write_json", "cli._write_json", None),
)


class Tracer:
    """Spans kept in memory: [name, parent, start, end, attrs] indexed by span id."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._probe = False
        self.seen: set[str] = set()
        self.captured: dict[str, object] = {}

    def call(self, name: str, fn, *args, attrs_of=None, **kwargs):
        span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0,
                {"probe": True} if self._probe else {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if attrs_of is not None:
            span[4].update(attrs_of(args, result))
        if name not in self.seen:
            self.seen.add(name)
            if name in CAPTURE:
                self.captured[name] = CAPTURE[name](args, result)
        return result

    def install(self) -> list[str]:
        """Put a span-recording wrapper on every hooked attribute; returns the ones that are gone."""
        missing = []
        for module_name, attr, name, attrs_of in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue

            def traced(*args, _fn=fn, _name=name, _attrs_of=attrs_of, **kwargs):
                return self.call(_name, _fn, *args, attrs_of=_attrs_of, **kwargs)

            setattr(module, attr, traced)
        return missing

    def probes(self, out_dir: Path) -> None:
        """Per-call costs and one scenario CSV write on the data of a command that evaluated scenarios."""
        if len(self.captured) < len(CAPTURE):
            return
        self._probe = True
        try:
            self.call("probe", self._probe_calls, out_dir)
        finally:
            self._probe = False

    def _probe_calls(self, out_dir: Path) -> None:
        from invomega.cashflows import replicate
        from invomega.distributions import omega
        from invomega.scenarios import write_scenarios

        scenario_set, curve = self.captured["metrics.evaluate_set"]
        dist = self.captured["distributions.EmpiricalDistribution"]
        horizon = scenario_set.horizon
        for _ in range(MICRO_CALLS):
            self.call("curves.forward_curve", curve.forward_curve, horizon)
            self.call("curves.growth_factor", curve.growth_factor, horizon)
        stride = max(1, len(scenario_set) // MICRO_CALLS)
        for scenario in scenario_set.scenarios[::stride][:MICRO_CALLS]:
            self.call("cashflows.replicate", replicate, scenario, curve)
        values = dist.sorted_values
        for i in range(OMEGA_CALLS):
            self.call("distributions.omega", omega, dist, float(values[(2 * i + 1) * values.size // (2 * OMEGA_CALLS)]))
        out_dir.mkdir(parents=True, exist_ok=True)
        self.call("scenarios.write_scenarios", write_scenarios, scenario_set, out_dir / "probe-scenarios.csv")

    def records(self) -> list[dict]:
        """Spans with self time; start and end are ``time.perf_counter`` readings."""
        self_s = [s[3] - s[2] for s in self.spans]
        for _, parent, start, end, _ in self.spans:
            if parent is not None:
                self_s[parent] -= end - start
        return [{"id": i, "name": name, "parent": parent, "start": start, "end": end, "self_s": self_s[i], **attrs}
                for i, (name, parent, start, end, attrs) in enumerate(self.spans)]


# --- per-layer metrics of a traced sequence (the span records of all its commands) ---

def _spans(spans: list[dict], name: str, probe: bool | None = False) -> list[dict]:
    """Spans of a name: the commands' (default), the probes' (True) or both (None)."""
    return [s for s in spans if s["name"] == name and (probe is None or bool(s.get("probe")) == probe)]


def _total(spans: list[dict], name: str, probe: bool | None = False) -> float:
    return sum(s["end"] - s["start"] for s in _spans(spans, name, probe))


def _attr_sum(spans: list[dict], name: str, key: str) -> float:
    return sum(s.get(key, 0) for s in _spans(spans, name))


def _median_us(spans: list[dict], name: str) -> float:
    durations = [s["end"] - s["start"] for s in _spans(spans, name, None)]
    return 1e6 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Seconds are summed over the commands' spans of a name; ``_us`` are medians per call."""
    evaluate_set_s = _total(spans, "metrics.evaluate_set")
    evaluated = _attr_sum(spans, "metrics.evaluate_set", "n")
    return {
        "scenarios.generate_s": _total(spans, "scenarios.generate"),
        # the probe's write stands in only where the commands write no scenario CSV
        "scenarios.write_scenarios_s": (_total(spans, "scenarios.write_scenarios")
                                        or _total(spans, "scenarios.write_scenarios", probe=True)),
        "scenarios.load_scenarios_s": _total(spans, "scenarios.load_scenarios"),
        "scenarios.csv_mb_written": _attr_sum(spans, "scenarios.write_scenarios", "bytes") / 1e6,
        "scenarios.csv_mb_read": _attr_sum(spans, "scenarios.load_scenarios", "bytes") / 1e6,
        "curves.forward_curve_us": _median_us(spans, "curves.forward_curve"),
        "curves.growth_factor_us": _median_us(spans, "curves.growth_factor"),
        "cashflows.replicate_us": _median_us(spans, "cashflows.replicate"),
        "metrics.evaluate_set_s": evaluate_set_s,
        "metrics.evaluate_us": 1e6 * evaluate_set_s / evaluated if evaluated else 0.0,
        "metrics.write_evaluation_csv_s": _total(spans, "metrics.write_evaluation_csv"),
        "metrics.evaluation_csv_mb": _attr_sum(spans, "metrics.write_evaluation_csv", "bytes") / 1e6,
        "distributions.build_s": _total(spans, "distributions.EmpiricalDistribution"),
        "distributions.summarize_s": _total(spans, "distributions.summarize"),
        "distributions.omega_us": _median_us(spans, "distributions.omega"),
        "ranking.rank_s": _total(spans, "ranking.rank"),
        "ranking.hurdle_crossings_s": _total(spans, "ranking.hurdle_crossings"),
        "ranking.evaluate_project_self_s": sum(s["self_s"] for s in _spans(spans, "ranking.evaluate_project")),
        "ranking.crossing_pairs": len(_spans(spans, "ranking.hurdle_crossings")),
        "ranking.crossing_brackets": _attr_sum(spans, "ranking.hurdle_crossings", "brackets"),
        "radr.vertical_average_s": _total(spans, "radr.vertical_average"),
        "radr.radr_valuation_s": _total(spans, "radr.radr_valuation"),
    }


def command_seconds(spans: list[dict]) -> float:
    """Time of the traced CLI commands: the top-level ``cli.*`` spans."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None and s["name"].startswith("cli."))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--name", required=True, help="the command's name, for its top-level span")
    parser.add_argument("--spans", required=True, help="JSON file for the span records")
    parser.add_argument("--probe-dir", required=True, help="directory for the probe's scenario CSV")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from invomega import cli

    tracer = Tracer()
    missing = tracer.install()
    status = tracer.call(f"cli.{args.name}", cli.main, cli_argv)
    if status == 0:
        tracer.probes(Path(args.probe_dir))
    Path(args.spans).write_text(json.dumps({"spans": tracer.records(), "missing_hooks": missing}) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
