"""The narrative demos and README's library tour run to completion against
the package in src/.

demos/05_sweep.py is left out: it takes longer than the rest together, and
criterion 10 of the acceptance suite already runs a sweep end to end.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_logged_data.py", "02_estimators.py", "03_bounds.py", "04_training.py"]


def run_python(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    run_python(str(ROOT / "demos" / name))


def test_readme_library_tour_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", readme, re.S).group(1)
    expected = ["(6000, 10) 5", "600 True"]
    assert all(f"# {line}" in tour for line in expected)
    assert run_python("-c", tour).stdout.splitlines()[:2] == expected
