"""The lazy package namespace and the CLI's one-thread OpenBLAS setting."""

import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invomega

SRC = Path(invomega.__file__).resolve().parents[1]

THREADS = "print(open('/proc/self/status').read().split('Threads:')[1].split()[0])\n"


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:
        return False
    return "openblas" in str(blas.get("name", "")).lower()


needs_openblas_threads = pytest.mark.skipif(
    not Path("/proc/self/status").exists() or not _numpy_uses_openblas(),
    reason="needs /proc/self/status and numpy built on OpenBLAS",
)


def run_child(code: str, **env: str) -> list[str]:
    """stdout lines of ``python -c code``, with any inherited OPENBLAS_NUM_THREADS removed."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env
    )
    return proc.stdout.splitlines()


@needs_openblas_threads
def test_cli_process_runs_one_thread():
    # the CLI pins OpenBLAS while numpy loads and leaves the environment as it found it
    code = "import os, invomega.cli, numpy\nprint('OPENBLAS_NUM_THREADS' in os.environ)\n" + THREADS
    assert run_child(code) == ["False", "1"]


@needs_openblas_threads
def test_cli_keeps_a_user_set_thread_count():
    code = "import os, invomega.cli, numpy\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n" + THREADS
    expected = str(min(2, len(os.sched_getaffinity(0))))
    assert run_child(code, OPENBLAS_NUM_THREADS="2") == ["2", expected]


def test_plain_import_loads_no_numpy_and_sets_nothing():
    code = (
        "import os, sys, invomega\n"
        "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ, invomega.__version__)"
    )
    assert run_child(code) == [f"False False {invomega.__version__}"]


def test_public_names_resolve_to_their_defining_objects():
    assert invomega.__all__ == sorted(set(invomega.__all__))
    for name in invomega.__all__:
        obj = getattr(invomega, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(invomega.__all__) <= set(dir(invomega))


def test_the_exported_errors_are_one_class_per_exit_status_and_their_base():
    assert [name for name in invomega.__all__ if name.endswith("Error")] == [
        "DomainError", "EngineError", "InputError"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        invomega.no_such_name
    with pytest.raises(ImportError):
        from invomega import no_such_name  # noqa: F401


def test_readme_library_use_runs_and_shows_what_its_comments_state():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    ns: dict = {}
    exec(block, ns)

    def shown(value: float, text: str) -> bool:
        # a comment's "0.1244..." is the value to within one unit of its last digit
        return abs(value - float(text)) < 10.0 ** -len(text.partition(".")[2])

    result, rep, ts, report, radr = (ns[k] for k in ("result", "rep", "ts", "report", "radr"))
    assert shown(result.npv, "42.63") and shown(result.annualized_return, "0.1244")
    assert shown(rep.total_outlay, "290.70") and shown(rep.certainty_equivalent_outlay, "333.33")
    assert ts.mu_star == pytest.approx(0.15, abs=1e-15) and shown(ts.npv_star, "58.01")
    assert report.order == ("q", "p")
    assert [shown(e.omega, text) for e, text in zip(report.entries, ("0.333", "0.142"))] == [True, True]
    assert all(shown(e.threshold, "28.34") for e in report.entries)
    assert shown(radr.npv_at_k, "-3.87") and radr.accept is False


def test_readme_generator_block_lists_the_spec_fields():
    # the README's generator example names the block's keys, which are GeneratorSpec's init fields
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r'\*\*Project descriptor JSON\*\*.*?`(\{"family":.*?\})`', readme, re.S).group(1)
    keys = re.findall(r'"(\w+)":', example)
    assert keys == [f.name for f in dataclasses.fields(invomega.GeneratorSpec) if f.init]
