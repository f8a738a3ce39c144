"""Every deterministic report field of the golden configs, unchanged.

The reports are recomputed in a subprocess with one BLAS thread, so that
no result depends on how many threads the BLAS of this process runs; a
change that means to move a golden number rewrites the file with
tests/golden_reports.py and records why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import golden_reports

SRC = Path(__file__).resolve().parent.parent / "src"


def test_golden_reports_are_unchanged():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    res = subprocess.run([sys.executable, golden_reports.__file__, "--print"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    golden = json.loads(golden_reports.PATH.read_text())
    assert got.keys() == golden["reports"].keys()
    here = golden_reports.environment()
    for name, report in golden["reports"].items():
        assert got[name] == report, (
            f"{name} differs from its golden report (made with "
            f"{golden['environment']}, this run with {here})")
