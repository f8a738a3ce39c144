"""End-to-end benchmark of the Monte Carlo harness.

    python3 bench/run.py --workload gauss-m256 --seed 1 --seconds 40 --trace 0

One run drives ``harness.run_trials`` in this process on one workload (see
WORKLOADS) for ``--seconds`` seconds.  Every config is built from the
workload seed and goes in through ``ExperimentConfig.from_dict``; each pins
``"workers": 1``, so ``ARTIFACT_THREADS`` has no effect.

A report is "cold": every ``cache_clear``-able function in the package is
cleared first, as in a fresh ``artifact simulate`` process.  A run prints,
as its last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts
``run_trials`` calls and ``failed`` those that raised or failed an output
check (so failed/attempted is the failure fraction).

--trace 0 starts with one cold report at the workload's trial count
(warm-up, full-size checks).  Then each iteration times a fixed Fraction
loop (host_probe_s, recorded as a gauge of host speed), a cold one-trial
report, and, in the cache state that report left, pairs of warm calls per
config at 1 and at ``step`` trials.  It reports the end-to-end metrics:
  setup_s           fastest cold one-trial report
  trials_per_s      1 / marginal trial time, where the marginal trial time
                    is (fastest warm call at step trials - fastest warm
                    call at 1 trial) / (step - 1), summed over the configs
  time_to_report_s  setup_s + (trials - 1) * marginal trial time: a cold
                    report at the trial count, built from the two above
  peak_rss_mb       peak resident set of this process, imports included

Fastest, not mean or median: the host's speed drops by up to 2x in
stretches from milliseconds to minutes.  Every unit is short (milliseconds
to a few hundred) and repeats identical inputs, so its fastest repeat is
the one the slow stretches touched least; a mean or median instead follows
how long they held.

--trace 1 alternates untraced and traced cold reports and reports the
per-layer metrics of bench/tracer.py, plus the tracing overhead.

--workload all runs every workload in turn, each in its own process.

Each run writes its provenance, outputs and (traced) spans to
``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Failure tolerance of the error-count check, in standard deviations.
Z_TOLERANCE = 5.0
# glibc moves its mmap and trim thresholds with the sizes freed so far, so
# whether a trial's large arrays came from reused heap or from fresh,
# page-faulted memory varied between runs of the same code (2,500 to 3,800
# faults a warm gauss-m256 trial, peak RSS 150 or 159 MB, trial rates up to
# 30% apart).  With these fixed thresholds freed arrays stay in the heap.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 32)}
# Warm calls per iteration take at least this share of the time the cold
# one-trial report took, so set-up and trial samples share the run.
WARM_SHARE = 1.0
# rate_per_unit_cost of the Gaussian acceptance configs (criterion 5).
GAUSS_RATE = 0.9 / (1.5 ** 2 * 2.5 * math.log(2.0))

_DELETION_01 = {"deletion": {"d": 0.1}}
_GAUSS = dict(scheme="gauss", epsilon=0.2, delta=0.5, idc=_DELETION_01,
              eta2=1.0)
_DMC = dict(scheme="dmc", M=64, epsilon=0.25, delta=0.5, idc=_DELETION_01,
            dmc={"w": [[0.8, 0.2], [0.2, 0.8]], "cost": [0.0, 1.0]})
_COMPOUND = dict(scheme="compound", M=64, epsilon=0.25, delta=0.1, mu1=0.8,
                 mu2=1.1, sigma2_bound=0.25)


@dataclass(frozen=True)
class Workload:
    """Acceptance-battery configs run one after another as one report.

    reference holds, per config, the error count and trial count of a long
    run of the seed code; a report's error count must lie within
    Z_TOLERANCE standard deviations of it.
    """

    name: str
    configs: tuple[dict, ...]  # without trials, base_seed and workers
    trials: int
    step: int  # trials of a warm call that times the marginal trial
    reference: tuple[tuple[int, int], ...]
    gauss_rate: bool = False


WORKLOADS = {w.name: w for w in (
    # Materialising path: channel sampling dominates each trial.
    Workload("gauss-m256", (dict(_GAUSS, M=256),), trials=16, step=8,
             reference=((1127, 1500),), gauss_rate=True),
    # Integer letters through dmc_apply and the LLR decoder.
    Workload("dmc-m64", (_DMC,), trials=100, step=16,
             reference=((600, 600),)),
    # Criterion 7's three timing rates, streamed with Python integers.
    Workload("compound-m64", (
        dict(_COMPOUND, idc={"deletion": {"d": 0.2}}),
        dict(_COMPOUND, idc={"deletion": {"d": 0.05}}),
        dict(_COMPOUND, idc={"support": [[1, 0.9], [2, 0.1]]}),
    ), trials=300, step=64,
       reference=((3147, 6000), (2883, 6000), (3081, 6000))),
)}


def import_artifact():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "artifact" / "__init__.py").is_file():
        sys.exit(f"error: no artifact package under {src}")
    sys.path.insert(0, str(src))
    import artifact
    from artifact import harness
    if Path(artifact.__file__).resolve().parent != src / "artifact":
        sys.exit(f"error: imported artifact from {artifact.__file__}")
    return harness


def base_seeds(workload: Workload, seed: int) -> list[int]:
    import numpy as np
    return [int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            for i in range(len(workload.configs))]


def config_dicts(workload: Workload, seed: int, trials: int) -> list[dict]:
    return [dict(cfg, trials=trials, base_seed=s, workers=1)
            for cfg, s in zip(workload.configs, base_seeds(workload, seed))]


def clear_caches() -> None:
    """Empty every lru_cache of the package, as a fresh process would have."""
    for name, mod in list(sys.modules.items()):
        if name == "artifact" or name.startswith("artifact."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def outcome(report) -> dict:
    """The deterministic part of a report that the checks compare."""
    d = report.diagnostics
    return {"errors": report.errors, "erasures": d["erasures"],
            **{k: d[k] for k in ("prefix_drift_out", "burst_spread_out",
                                 "wrong_windows_all_zero",
                                 "full_burst_window_exists", "drift_free",
                                 "drift_free_clean")},
            "rate_per_unit_cost": report.rate_per_unit_cost}


def error_tolerance(trials: int, ref_errors: int, ref_trials: int) -> float:
    """Z_TOLERANCE sd of the gap between a count and its scaled reference.

    The reference rate is Laplace-smoothed so that a reference of 0 or all
    errors still leaves room for a rare opposite outcome.
    """
    p = (ref_errors + 1) / (ref_trials + 2)
    var = trials * p * (1 - p) * (1 + trials / ref_trials)
    return Z_TOLERANCE * math.sqrt(var) + 1.0


class Checker:
    """Output checks; every failed check marks its run_trials call failed."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.first: dict[tuple[int, int], dict] = {}
        self.problems: list[str] = []

    def check(self, index: int, trials: int, report) -> bool:
        w = self.workload
        try:
            out = outcome(report)
        except (KeyError, AttributeError) as exc:
            self.problems.append(f"{w.name} config {index}: no {exc}")
            return False
        bad = []
        seen = self.first.setdefault((index, trials), out)
        if out != seen:
            bad.append(f"not repeatable: {out} after {seen}")
        if w.gauss_rate and not math.isclose(out["rate_per_unit_cost"],
                                             GAUSS_RATE, rel_tol=1e-12):
            bad.append(f"rate_per_unit_cost {out['rate_per_unit_cost']!r} "
                       f"!= {GAUSS_RATE!r}")
        ref_errors, ref_trials = w.reference[index]
        expect = trials * ref_errors / ref_trials
        tol = error_tolerance(trials, ref_errors, ref_trials)
        if abs(out["errors"] - expect) > tol:
            bad.append(f"errors {out['errors']} of {trials}, reference "
                       f"{expect:.1f} +- {tol:.1f}")
        for msg in bad:
            self.problems.append(f"{w.name} config {index}: {msg}")
        return not bad


class Session:
    """run_trials calls of one workload, with call and failure accounting."""

    def __init__(self, harness, workload: Workload, seed: int):
        self.harness = harness
        self.workload = workload
        self.seed = seed
        self.checker = Checker(workload)
        self.attempted = 0
        self.failed = 0
        self.rss_after_imports_mb = peak_rss_mb()

    def call(self, index: int, cfg: dict) -> float | None:
        """Wall time of one checked run_trials call, or None if it raised."""
        h = self.harness
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rep = h.run_trials(h.ExperimentConfig.from_dict(cfg))
        except Exception as exc:  # a broken call is a failed output
            self.failed += 1
            self.checker.problems.append(
                f"{self.workload.name}: run_trials raised {exc!r}")
            return None
        elapsed = time.perf_counter() - t0
        if not self.checker.check(index, cfg["trials"], rep):
            self.failed += 1
        return elapsed

    def cold_report(self, trials: int) -> float | None:
        """Wall time of one cold report, or None if a call raised."""
        clear_caches()
        total = 0.0
        for i, cfg in enumerate(config_dicts(self.workload, self.seed, trials)):
            t = self.call(i, cfg)
            if t is None:
                return None
            total += t
        return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fast_level(xs: list[float]) -> float:
    """Wall time of a repeated, identical unit: its fastest sample, the one
    the host's slow stretches touched least."""
    return min(xs)


def measure_end_to_end(session: Session, seconds: float):
    """Time short units until the deadline; returns (metrics, extras).

    After one cold full report (warm-up, full-size checks, peak RSS), each
    iteration times the host probe, a cold one-trial report (a set-up
    sample) and then, in
    the cache state it left, pairs of warm calls per config at 1 and at
    ``step`` trials, for at least as long as the cold report took.
    """
    w = session.workload
    deadline = time.perf_counter() + seconds
    first = session.cold_report(w.trials)
    setup: list[float] = []
    one: list[list[float]] = [[] for _ in w.configs]
    many: list[list[float]] = [[] for _ in w.configs]
    probe: list[float] = []
    while True:
        start = time.perf_counter()
        probe.append(host_probe_s())
        t = session.cold_report(1)
        if t is not None:
            setup.append(t)
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            for i, cfg in enumerate(config_dicts(w, session.seed, 1)):
                a = session.call(i, cfg)
                b = session.call(i, dict(cfg, trials=w.step))
                if a is not None and b is not None:
                    one[i].append(a)
                    many[i].append(b)
            spent += time.perf_counter() - t0
            if spent >= WARM_SHARE * (t or 0.0):
                break
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    if not setup or not all(one):
        return {}, {}
    setup_s = fast_level(setup)
    trial_s = sum(fast_level(b) - fast_level(a)
                  for a, b in zip(one, many)) / (w.step - 1)
    if trial_s <= 0:
        session.checker.problems.append(
            f"{w.name}: warm calls at {w.step} trials were not slower than "
            f"at 1 trial; raise the workload's step")
        return {}, {}
    return {
        "time_to_report_s": (setup_s + (w.trials - 1) * trial_s, "s"),
        "setup_s": (setup_s, "s"),
        "trials_per_s": (1.0 / trial_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, {"samples": {"setup_s": setup, "probe_s": probe,
                    **{f"warm_1_config{i}_s": xs for i, xs in enumerate(one)},
                    **{f"warm_{w.step}_config{i}_s": xs
                       for i, xs in enumerate(many)}},
        "cold_full_report_s": first}


def measure_layers(session: Session, seconds: float):
    """Alternate untraced and traced cold full reports until the deadline.
    Returns (metrics, extras)."""
    n = session.workload.trials
    deadline = time.perf_counter() + seconds
    plain: list[float] = []
    traced: list[float] = []
    tracers: list[Tracer] = []
    while True:
        start = time.perf_counter()
        t = session.cold_report(n)
        if t is not None:
            plain.append(t)
        if len(plain) == 1:
            rss_delta = peak_rss_mb() - session.rss_after_imports_mb
        tracer = Tracer()
        with tracer.installed():
            t = session.cold_report(n)
        if t is not None:
            traced.append(t)
            tracers.append(tracer)
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    if not plain or not tracers:
        return {}, {}
    metrics, repeatable = Tracer.summarise(tracers)
    if not repeatable:
        session.failed += 1
        session.checker.problems.append(
            f"{session.workload.name}: traced counts differ between reports")
    metrics["trace.overhead_s"] = (
        statistics.mean(traced) - statistics.mean(plain), "s")
    metrics["process.peak_rss_delta_mb"] = (rss_delta, "MB")
    return metrics, {"samples": {"untraced_s": plain, "traced_s": traced},
                     "absent": tracers[0].absent,
                     "spans": tracers[0].span_records()}


def host_probe_s() -> float:
    """Seconds of one fixed pure-Python Fraction loop: a gauge of how fast
    the host runs right now, independent of the package.  It is recorded
    beside the samples, not reported as a metric."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 2000):
        d = Fraction(k) - Fraction(12345, 77)
        acc += d * d < 400
    return time.perf_counter() - t0


def _git(*args: str) -> str | None:
    try:
        res = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def provenance(workload: Workload, seed: int) -> dict:
    import numpy
    import scipy
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain") if in_repo else None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload.name,
        "seed": seed,
        "base_seeds": base_seeds(workload, seed),
        "trials": workload.trials,
        "workers": 1,
        "ARTIFACT_THREADS": os.environ.get("ARTIFACT_THREADS"),
        "malloc_env": {k: os.environ.get(k) for k in MALLOC_ENV},
        "threads_note": "every config pins workers=1, which overrides "
                        "ARTIFACT_THREADS",
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; return the result line and the full record."""
    harness = import_artifact()
    session = Session(harness, workload, seed)
    measured, extras = (measure_layers if trace else measure_end_to_end)(
        session, seconds)
    line = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in measured.items()},
    }
    record = {"result": line, "provenance": provenance(workload, seed),
              "failed_frac": session.failed / max(session.attempted, 1),
              "problems": session.checker.problems,
              "outputs": {f"{i}/{n}": out for (i, n), out
                          in session.checker.first.items()}, **extras}
    return {"line": line, "record": record}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process, one after another.  The last line
    merges their results, each metric name prefixed by its workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        print(res.stdout, end="")
        print(res.stderr, end="", file=sys.stderr)
        if res.returncode != 0:
            return res.returncode
        line = json.loads(res.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    out = run(WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace))
    record = out["record"]
    if not out["line"]["metrics"]:
        for msg in record["problems"]:
            print(f"check failed: {msg}", file=sys.stderr)
        print("error: no report completed, nothing to measure", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    problems = record["problems"]
    for msg in problems[:20]:
        print(f"check failed: {msg}")
    if len(problems) > 20:
        print(f"check failed: {len(problems) - 20} more in the record")
    for name in record.get("absent", []):
        print(f"hook absent: {name}")
    for name, xs in record["samples"].items():
        xs = sorted(xs)
        k = len(xs) - 10  # the highest percentile with ten samples beyond it
        tail = f" p{100 * k // len(xs)}={xs[k - 1]:.6g}" if k >= 1 else ""
        print(f"timing {name}: n={len(xs)} mean={statistics.mean(xs):.6g} "
              f"median={statistics.median(xs):.6g}{tail} min={xs[0]:.6g} "
              f"max={xs[-1]:.6g}")
    print(f"provenance: {json.dumps(record['provenance'])}")
    print(f"failed_frac: {record['failed_frac']:.6f} "
          f"({out['line']['failed']} of {out['line']['attempted']} calls)")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        # glibc reads these only at start-up, so run again with them set.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **MALLOC_ENV})
    sys.exit(main())
