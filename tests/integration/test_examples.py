"""The off-peak example runs end to end: it is the one example on the Fig. 5 path."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_offpeak_rescheduling_window_example_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "offpeak_rescheduling_window.py")],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert "Achieved FR vs inference delay" in result.stdout
    assert "elbow point" in result.stdout
