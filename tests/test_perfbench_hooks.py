"""The benchmark's traced run wraps the module attributes named in
``perfbench/tracing.py`` ``HOOKS``, and its probes call a few names more. A
rename must fail here, not only as ``missing_hooks`` in a traced benchmark run.
The file is loaded by path and only read: no hook is installed."""

import importlib
import importlib.util
from operator import attrgetter

import pytest

from conftest import DEMO_DIR

TRACING = DEMO_DIR.parent / "perfbench" / "tracing.py"


def _tracing_hooks() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def test_every_hook_resolves_to_a_callable():
    hooks = _tracing_hooks()
    assert hooks
    gone = [f"{m}.{a}" for m, a, _, _ in hooks if not callable(getattr(importlib.import_module(m), a, None))]
    assert gone == []


@pytest.mark.parametrize(
    "module, name",
    [
        ("invomega.cashflows", "ScenarioSet.scenarios"),
        ("invomega.cashflows", "replicate"),
        ("invomega.distributions", "omega"),
        ("invomega.scenarios", "write_scenarios"),
        ("invomega.curves", "YieldCurve.forward_curve"),
        ("invomega.curves", "YieldCurve.growth_factor"),
    ],
)
def test_the_probes_call_names_that_exist(module, name):
    attrgetter(name)(importlib.import_module(module))
