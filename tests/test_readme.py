"""The README's library quick start runs as written and prints what its
comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

from scipy.special import lambertw

ROOT = Path(__file__).resolve().parent.parent


def test_library_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    regime, delay, root, kind = proc.stdout.splitlines()[:4]
    assert regime == "Regime.UNSTABLE"
    assert delay == "0.4487989505128276"
    ref = complex(lambertw(-0.7, 0)) / 0.2
    assert abs(complex(root) - ref) <= 1e-12 * abs(ref)
    assert kind == "supercritical"
