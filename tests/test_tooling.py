"""The test suite's own configuration and the package's lint checks: the warning filters
keep a run going past a failure, no module imports a name it never uses, no module
defines a function, class or method that nothing uses, only the CLI's commit step
makes directories or moves files onto output names, no module calls a numpy
transcendental function, and only ``errors.py`` defines exception classes."""

import ast
import builtins
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


def _file_moves(tree: ast.AST) -> list[int]:
    """The lines of the calls in ``tree`` that make a directory (any ``mkdir`` or
    ``makedirs``) or move a file onto a name (``os.replace`` or ``os.rename``)."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and (node.func.attr in ("mkdir", "makedirs")
             or (node.func.attr in ("replace", "rename") and isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "os"))
    ]


def test_file_move_check_finds_each_call():
    source = "import os\nos.replace(a, b)\np.parent.mkdir()\nos.makedirs(d)\ns.replace('a', 'b')\nreplace(x)\n"
    assert _file_moves(ast.parse(source)) == [2, 3, 4]


def test_only_the_commit_step_makes_directories_or_moves_files():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    (commit,) = [node for node in trees["cli"].body if isinstance(node, ast.FunctionDef) and node.name == "_commit"]
    inside = _file_moves(commit)
    outside = [f"{module}.py:{line}" for module, tree in trees.items() for line in _file_moves(tree)
               if not (module == "cli" and line in inside)]
    assert inside and outside == []


# numpy's transcendental ufuncs, whose SIMD kernels may round the last bit differently by CPU
NUMPY_TRANSCENDENTALS = {
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "power", "float_power", "cbrt",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh",
    "arcsinh", "arccosh", "arctanh",
}


def _numpy_transcendentals(tree: ast.AST) -> list[int]:
    """The lines of ``tree`` that name a numpy transcendental function (``np.exp`` and the
    like), called or passed on."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_TRANSCENDENTALS
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]


def test_numpy_transcendental_check_finds_each_use():
    source = "np.exp(x)\nmath.exp(x)\nmap(numpy.log1p, x)\nnp.sqrt(x)\nnp.power(x, 2)\nx ** y\n"
    assert _numpy_transcendentals(ast.parse(source)) == [1, 3, 5]


def test_no_module_calls_a_numpy_transcendental():
    """Every exp, log and power on the output path is a libm call (``distributions._libm``),
    so that the output bytes are the same whichever SIMD kernels numpy dispatches. An array
    ``**`` is not seen here: ``test_c6_bytes_do_not_depend_on_numpy_simd_dispatch`` runs the
    commands with and without numpy's dispatch targets and compares their bytes."""
    uses = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in _numpy_transcendentals(ast.parse(path.read_text()))]
    assert uses == []


def _exception_classes(sources: dict[str, str]) -> list[str]:
    """The classes of ``sources`` (module name to text) that derive from a builtin exception,
    from a base named ``*Error`` or ``*Exception``, or from another such class there, as
    ``module.Class``."""
    bases = {
        (module, node.name): {base.id if isinstance(base, ast.Name) else base.attr for base in node.bases
                              if isinstance(base, (ast.Name, ast.Attribute))}
        for module, text in sources.items() for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef)
    }
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    found: set[tuple[str, str]] = set()
    while new := {key for key, names in bases.items() if key not in found
                  and any(name in exceptions or name.endswith(("Error", "Exception")) for name in names)}:
        found |= new
        exceptions |= {name for _, name in new}
    return sorted(f"{module}.{name}" for module, name in found)


def test_exception_class_check_finds_each_class():
    sources = {
        "a": "class A(Exception): pass\nclass B(A): pass\nclass C: pass\nclass D(C, KeyError): pass\n",
        "b": "import a, json\nclass E(a.B): pass\nclass F(json.JSONDecodeError): pass\nclass G(a.C): pass\n"
        "def f():\n    class H(StopIteration): pass\n",
    }
    assert _exception_classes(sources) == ["a.A", "a.B", "a.D", "b.E", "b.F", "b.H"]


def test_only_the_errors_module_defines_exception_classes():
    """Every package error is an InputError (exit 2) or a DomainError (exit 1); its message,
    not a subclass, says which case it is."""
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _exception_classes(sources) == ["errors.DomainError", "errors.EngineError", "errors.InputError"]
