"""The test suite's own configuration and the package's lint checks: the warning filters
keep a run going past a failure, and no module imports a name it never uses."""

import ast
import json
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


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


def _unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of ``source`` that its code never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_check_finds_an_unused_name():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd(os)\n"
    assert _unused_imports(source) == ["line 3: b"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: names
        for path in sorted((ROOT / "src" / "invomega").glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert not unused
