"""Each demo runs to exit 0 with nothing on stderr, a RuntimeWarning an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS  # an empty parametrization would pass unseen


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          capture_output=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout  # each demo prints what it shows
