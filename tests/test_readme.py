"""The README's library quick start runs as written and prints what its
comments say, and its module table names only entry points that exist."""

import importlib
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


def test_module_table_entry_points_resolve():
    """Each entry point that README's module table names is an attribute of its row's module."""
    rows = re.findall(r"^\| `(ccfmlab\.\w+)` \|[^|]*\| (.*) \|$", (ROOT / "README.md").read_text(), re.M)
    assert len(rows) == 6
    missing = []
    for module, names in rows:
        mod = importlib.import_module(module)
        for name in re.findall(r"`([\w.]+)`", names):
            if name == "ccfm":  # the console command of the CLI row
                continue
            name = name.removeprefix(module + ".")
            if not hasattr(mod, name):
                missing.append(f"{module}.{name}")
    assert missing == []
