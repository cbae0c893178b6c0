"""The narrative demos run to completion against the package in src/.

demos/05_sweep.py is left out: it takes longer than the rest together, and
criterion 10 of the acceptance suite already runs a sweep end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_logged_data.py", "02_estimators.py", "03_bounds.py", "04_training.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
