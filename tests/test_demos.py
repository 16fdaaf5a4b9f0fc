"""Each demo script runs to completion as a standalone program; the package imports lean."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS  # an empty list would parametrize no test below


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_sparse_unloaded():
    # clique._top_eigenpairs imports scipy.sparse.linalg on first use, and
    # postselect.component_analysis finds components without csgraph, so
    # importing the package stays cheap.
    proc = run_python(
        "-c",
        "import sys, qmoney; print(sorted(m for m in ('scipy.sparse', "
        "'scipy.sparse.linalg', 'scipy.sparse.csgraph') if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
