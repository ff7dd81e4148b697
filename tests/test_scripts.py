"""The experiment scripts run to completion and report no failure."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("classify_builtins.py", []),
    ("interpolation_sweep.py", ["3"]),
    ("uniform_table.py", []),
])
def test_script_runs_clean(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    bad = [line for line in proc.stdout.splitlines()
           if "FAILED" in line or "VIOLATION" in line]
    assert not bad, bad
