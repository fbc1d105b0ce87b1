"""The serving examples run end to end.

Each example asserts its own claims (fields match, nothing lost, a
killed or hung shard heals); this runs them as a user would, in a
fresh interpreter, and fails on a nonzero exit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["serving.py", "serving_fleet.py",
                                    "serving_telemetry.py"])
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
