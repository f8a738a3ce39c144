"""Self-test of the benchmark at tiny trial counts (about half a minute).

    python3 bench/selftest.py

Checks that:
  * BENCHMARK.json lists exactly the workloads of run.py and the per-layer
    metrics of tracer.py;
  * every workload prints every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1) by name with its unit, and passes its checks;
  * a tampered error reference and a tampered rate identity each trip the
    output check;
  * run.py exits non-zero, printing no result, beside nothing but
    BENCHMARK.json and bench/.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

TINY_TRIALS = 3


def fail(msg: str) -> None:
    sys.exit(f"selftest FAILED: {msg}")


def result_line(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "1",
                         "--seconds", "0", "--trace", str(trace)])
    if code != 0:
        fail(f"{workload} --trace {trace} exited {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            line = result_line(w["name"], trace)
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"result keys {sorted(line)}")
            if not line["correct"] or line["failed"]:
                fail(f"{w['name']} --trace {trace} failed its checks")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want:
                fail(f"{w['name']} --trace {trace} metrics differ: "
                     f"{sorted(set(got) ^ set(want))}")
            for k, v in line["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    fail(f"{k} has no numeric value")
            print(f"ok  {w['name']} --trace {trace}: {len(got)} metrics")


def check_tampering() -> None:
    dmc = run.WORKLOADS["dmc-m64"]
    run.WORKLOADS["dmc-m64"] = dataclasses.replace(dmc, reference=((0, 600),))
    line = result_line("dmc-m64", 0)
    run.WORKLOADS["dmc-m64"] = dmc
    if line["correct"] or not line["failed"]:
        fail("a tampered error reference passed the output check")
    print("ok  tampered error reference trips the check")

    rate = run.GAUSS_RATE
    run.GAUSS_RATE = rate * (1 + 1e-9)
    line = result_line("gauss-m256", 0)
    run.GAUSS_RATE = rate
    if line["correct"] or not line["failed"]:
        fail("a tampered rate identity passed the output check")
    print("ok  tampered rate identity trips the check")


def check_bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        res = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "compound-m64",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or res.stdout.strip():
        fail("run.py printed a result without the package beside it")
    print(f"ok  bare directory exits {res.returncode}: {res.stderr.strip()}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    layers = [{"name": n, "unit": u, "better": b}
              for n, u, b in tracer.per_layer_metrics()]
    if spec["per_layer"] != layers:
        fail("BENCHMARK.json per_layer differs from tracer.per_layer_metrics()")
    for name, w in run.WORKLOADS.items():
        run.WORKLOADS[name] = dataclasses.replace(w, trials=TINY_TRIALS)
    check_metrics(spec)
    check_tampering()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
