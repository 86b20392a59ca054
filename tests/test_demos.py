"""The quick demos run to completion against the library in src/.

Demos 05 and 06 train several full runs each (about 9 s and 4 s) and are
left out; 01-04 take about 1.5 s together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = [
    "01_sensitivity_scoring.py",
    "02_privacy_mechanism.py",
    "03_tiny_model_and_gradients.py",
    "04_memory_sculpting.py",
]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
