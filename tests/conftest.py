from pathlib import Path

import pytest

from invomega import CashFlowScenario, YieldCurve

DEMO_DIR = Path(__file__).resolve().parent.parent / "demo"

pytest_plugins = ["pytester"]


@pytest.fixture
def flat5() -> YieldCurve:
    """Flat 5% curve over two periods, the workhorse of the reference cases."""
    return YieldCurve.flat(0.05, 2)


@pytest.fixture
def mixed_stream() -> CashFlowScenario:
    """Outlay 200, one risky inflow, one fixed later outflow."""
    return CashFlowScenario((-200.0, 350.0, -100.0))


@pytest.fixture
def demo_dir() -> Path:
    return DEMO_DIR
