"""The test suite's own configuration: its warning filters keep a run going past a failure."""

import json
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_test_leaves_later_tests_reported(pytester):
    # Hypothesis writes a failing-example patch while it reports the failure; the
    # deprecation warnings of that writer must not abort the session under "error"
    filters = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makepyprojecttoml(f"[tool.pytest.ini_options]\nfilterwarnings = {json.dumps(filters)}\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
