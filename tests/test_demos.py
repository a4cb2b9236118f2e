"""The walkthroughs in ``demos/`` run to their end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    """Each demo runs in a process of its own, with this checkout's sources
    first on its path, and prints its walkthrough with no error output."""
    src = str(DEMOS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    got = subprocess.run([sys.executable, str(DEMOS / demo)], env=env, capture_output=True, text=True, timeout=300)
    assert got.returncode == 0, got.stderr
    assert got.stdout and got.stderr == ""
