"""Smoke test: the demos run against the current API and print something.

Demo 04 runs Monte Carlo batches for about four seconds (2 vCPUs) and is
marked slow.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_one_bit_information.py", "02_bound_recursions.py",
         "03_steady_state_tradeoffs.py",
         pytest.param("04_estimators_vs_bounds.py", marks=pytest.mark.slow))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
