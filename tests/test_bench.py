"""The benchmark's self-test, run as a subprocess the way the benchmark runs.

A package change that breaks a config key, report field or function the
benchmark reads fails here, not only when the benchmark is next run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    res = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
