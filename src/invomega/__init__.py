"""Risk profiling and Omega ranking of investment projects against riskless replication.

The namespace is lazy (PEP 562): ``import invomega`` loads no numpy, and each
public name imports its module on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cashflows": ("ReplicationDecomposition", "ScenarioSet", "replicate"),
    "curves": ("YieldCurve",),
    "distributions": (
        "EmpiricalDistribution", "OmegaResult", "SummaryStats", "crossing_on_grid",
        "omega", "omega_curve", "summarize",
    ),
    "errors": ("DomainError", "EngineError", "InputError"),
    "metrics": (
        "EvaluationResult", "HurdleSpec", "ThresholdSet", "evaluate_set", "thresholds",
    ),
    "radr": ("RadrResult", "radr_valuation", "vertical_average"),
    "ranking": (
        "ProjectEvaluation", "RankingReport", "evaluate_project", "hurdle_crossings",
        "omega_vs_hurdle", "rank", "rank_with_crossings",
    ),
    "scenarios": (
        "GeneratorSpec", "SeededStream", "generate", "load_project", "load_scenarios",
        "moment_match", "read_project", "write_scenarios",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
