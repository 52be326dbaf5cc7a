"""Smoke test: the walkthrough demos still run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# Each demo runs in a temp dir: 03_benchmark.py writes demo_bench.csv/json to its cwd.
@pytest.mark.parametrize("demo", ["01_macs.py", "02_kdfs.py", "03_benchmark.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
