"""The benchmark's smoke run as a test: a renamed field or function that
perfbench/ reads fails here instead of only in a benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_ok():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-4000:]
    assert "smoke: ok" in proc.stdout.splitlines()
