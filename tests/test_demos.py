"""Each demo script runs to completion as a standalone program."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS  # an empty list would parametrize no test below


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
