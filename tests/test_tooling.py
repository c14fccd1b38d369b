"""The test suite's own configuration and the package's lint checks: the warning filters
keep a run going past a failure, no module imports a name it never uses, and no module
defines a function, class or method that nothing uses."""

import ast
import json
import tomllib
from pathlib import Path

import invomega

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
SRC = ROOT / "src" / "invomega"

# definitions that no module of the package uses and the package does not export, each
# kept for the reason given
UNUSED_KEPT = {
    "cashflows.ScenarioSet.scenarios": "the benchmark's replication probe picks its rows from it",
    "curves.YieldCurve.forward_curve": "the benchmark's curve probe times it; the forward and "
    "PV/FV identities (C5) are stated on its factors",
    "distributions.EmpiricalDistribution.shifted": "Omega's translation invariance (C5)",
    "distributions.EmpiricalDistribution.scaled": "Omega's positive-scaling invariance (C5)",
    "distributions.OmegaResult.is_infinite": "the infinite-Omega flag that the reference "
    "crossing solver and the monotonicity gate (C5) read",
    "metrics.EvaluationResult.row": "the one-row read of a set result, how the library "
    "evaluates one flow row (README \"Library use\")",
    "scenarios.SeededStream.normals": "partitioned draws equal serial draws (C6)",
    "scenarios.ShiftedLognormal.analytic_moments": "moment recovery of the lognormal families",
    "scenarios.MatchedNormal.analytic_moments": "moment recovery of the normal family",
    "scenarios.MatchedTwoPoint.analytic_moments": "moment recovery of the two-point family",
}


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
        for path in sorted(SRC.glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert not unused


def _unused_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """The module-level functions and classes and the class methods of ``sources`` (module
    name to text) that no module reads and that are not in ``exported``, as
    ``module.Class.method``. A function or class is read by its name or as an attribute, a
    method only as an attribute. Dunders are exempt."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names = attributes | {node.id for node in nodes if isinstance(node, ast.Name)}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                unused += [f"{module}.{node.name}"] if node.name not in names else []
            if isinstance(node, ast.ClassDef):
                unused += [
                    f"{module}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name not in attributes
                ]
    return [
        qualified
        for qualified in unused
        if (name := qualified.rsplit(".", 1)[1]) not in exported
        and not (name.startswith("__") and name.endswith("__"))
    ]


def test_unused_definition_check_finds_an_unused_name():
    sources = {
        "a": "def f(): pass\ndef g(): pass\nclass C:\n    def m(self): pass\n    def n(self): pass\n"
        "    def __len__(self): return 0\n",
        "b": "from a import C, f\nf()\nC().m()\nn = 0\n",
    }
    assert _unused_definitions(sources, exported={"C"}) == ["a.g", "a.C.n"]


def test_no_module_defines_a_name_nothing_uses():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unused = _unused_definitions(sources, set(invomega.__all__))
    assert sorted(unused) == sorted(UNUSED_KEPT)
