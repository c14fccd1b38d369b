from pathlib import Path

import pytest

from invomega import ScenarioSet, YieldCurve, evaluate_set
from invomega.metrics import metric_thresholds

DEMO_DIR = Path(__file__).resolve().parent.parent / "demo"

pytest_plugins = ["pytester"]


def evaluate_row(flows, curve: YieldCurve):
    """The characteristics of one flow row F_0..F_T: row 0 of its one-row set, as floats."""
    return evaluate_set(ScenarioSet.uniform("one", [flows]), curve).row(0)


def hurdle_threshold(project, hurdle) -> float:
    """The hurdle on the project's metric scale: one ``metric_thresholds`` conversion on the
    project's basis, horizon and curve."""
    return metric_thresholds(
        hurdle.kind, [hurdle.value], project.metric, project.basis_outlay, project.curve,
        project.horizon,
    )[0]


@pytest.fixture
def flat5() -> YieldCurve:
    """Flat 5% curve over two periods, the workhorse of the reference cases."""
    return YieldCurve.flat(0.05, 2)


@pytest.fixture
def mixed_stream() -> tuple[float, ...]:
    """Flows F_0..F_2: outlay 200, one risky inflow, one fixed later outflow."""
    return (-200.0, 350.0, -100.0)


@pytest.fixture
def demo_dir() -> Path:
    return DEMO_DIR
