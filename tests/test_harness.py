"""Experiment harness: reproducibility, agreement with the materialising
pipeline, size limits, sweeps, and the input/output cost identity check."""

import functools
import io
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import oracle
from artifact import _layout, _sparse, harness
from artifact import codec_dmc as cd
from artifact.channel import Dmc, GaussianNoise, StateDistribution
from artifact.errors import InvalidConfigError
from artifact.rng import as_generator


def dmc_config(**over) -> harness.ExperimentConfig:
    base = dict(scheme="dmc", M=64, epsilon=0.25, delta=0.5, trials=60,
                base_seed=7, idc=StateDistribution.constant(1),
                dmc=Dmc.bsc(0.01))
    base.update(over)
    return harness.ExperimentConfig(**base)


def gauss_config(**over) -> harness.ExperimentConfig:
    base = dict(scheme="gauss", M=16, epsilon=0.25, delta=0.5, trials=50,
                base_seed=3, idc=StateDistribution.deletion(0.2))
    base.update(over)
    return harness.ExperimentConfig(**base)


# trials a sieve block holds at M = 256: one region count a region
SIEVE_BLOCK = _sparse.BLOCK_BYTES // (
    256 * np.dtype(_sparse.SievePlan.dtype).itemsize)


def sieved_config(**over) -> harness.ExperimentConfig:
    """Criterion 5 at M = 256, which the sieve runs in blocks of
    SIEVE_BLOCK trials: two full blocks and a part."""
    return gauss_config(**{"M": 256, "epsilon": 0.2,
                           "trials": 2 * SIEVE_BLOCK + SIEVE_BLOCK // 3,
                           "idc": StateDistribution.deletion(0.1), **over})


def compound_config(**over) -> harness.ExperimentConfig:
    base = dict(scheme="compound", M=8, epsilon=0.25, delta=0.3, trials=50,
                base_seed=5, idc=StateDistribution.constant(1),
                mu1=1.0, mu2=1.0, sigma2_bound=0.09)
    base.update(over)
    return harness.ExperimentConfig(**base)


def test_wilson_interval_brackets_the_estimate():
    for errors, trials in ((0, 50), (3, 50), (50, 50)):
        lo, hi = harness.wilson_interval(errors, trials, 0.95)
        assert 0.0 <= lo <= errors / trials <= hi <= 1.0
    assert harness.wilson_interval(0, 50, 0.95)[0] == 0.0
    assert harness.wilson_interval(50, 50, 0.95)[1] == 1.0


# confidences whose Wilson quantile does not exist: outside (0, 1), or with
# 0.5 + c/2 rounding to 1 in floats (the largest double below 1)
UNUSABLE_CONFIDENCES = (-0.2, 0.0, 1.0, 1.5, math.nan, 0.9999999999999999)


@pytest.mark.parametrize("confidence", UNUSABLE_CONFIDENCES)
def test_wilson_interval_refuses_an_unusable_confidence(confidence):
    with pytest.raises(ValueError, match="confidence"):
        harness.wilson_interval(3, 10, confidence)
    with pytest.raises(InvalidConfigError, match="confidence"):
        dmc_config(confidence=confidence)


def test_wilson_interval_takes_the_widest_usable_confidence():
    lo, hi = harness.wilson_interval(3, 10, 0.9999999999999998)
    assert 0.0 < lo < 0.3 < hi < 1.0
    assert dmc_config(confidence=0.9999999999999998).confidence < 1.0


def test_wilson_interval_agrees_with_scipy():
    """The standard library's normal quantile against scipy's ndtri, through
    the same formula, at every error count of a grid of trial counts."""
    from scipy.special import ndtri

    def reference(errors, trials, confidence):
        z = float(ndtri(0.5 + confidence / 2.0))
        phat = errors / trials
        denom = 1.0 + z * z / trials
        center = (phat + z * z / (2 * trials)) / denom
        half = z * math.sqrt(phat * (1 - phat) / trials
                             + z * z / (4 * trials * trials)) / denom
        lo = 0.0 if errors == 0 else max(0.0, center - half)
        hi = 1.0 if errors == trials else min(1.0, center + half)
        return lo, hi

    worst = 0.0
    for confidence in (0.5, 0.68, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999):
        for trials in (1, 2, 3, 7, 10, 33, 100, 1000, 10000):
            for errors in sorted({0, 1, trials // 3, trials // 2,
                                  trials - 1, trials}):
                ours = harness.wilson_interval(errors, trials, confidence)
                ref = reference(errors, trials, confidence)
                worst = max(worst, *(abs(a - b) for a, b in zip(ours, ref)))
    assert worst <= 4.5e-16


def test_import_loads_no_scipy():
    """The package runs on numpy and the standard library; importing
    scipy.special alone cost about 25 MB and 0.25 s at start.  A
    subprocess, since the test run itself may have scipy loaded."""
    import artifact
    src = os.path.dirname(os.path.dirname(artifact.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import artifact, artifact.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    res = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_reports_are_reproducible():
    a = harness.run_trials(dmc_config())
    b = harness.run_trials(dmc_config())
    assert a.errors == b.errors
    assert a.diagnostics == b.diagnostics
    assert a.to_dict()["error_rate"] == b.to_dict()["error_rate"]


def test_block_split_does_not_change_results(monkeypatch):
    plan = _sparse.plan_for(harness.derive_scheme_params(sieved_config()))
    assert type(plan) is _sparse.SievePlan
    assert plan.block_size == SIEVE_BLOCK == 256 < sieved_config().trials / 2
    for config in (gauss_config, dmc_config, compound_config, sieved_config):
        whole = harness.run_trials(config())
        monkeypatch.setattr(_sparse, "BLOCK_BYTES", 1)   # blocks of one
        ones = harness.run_trials(config())
        monkeypatch.undo()
        assert whole.to_dict() | {"wall_time_s": 0} \
            == ones.to_dict() | {"wall_time_s": 0}


def test_reports_run_at_once_in_two_threads_are_unchanged():
    """Two reports run at the same time in two threads, switching often,
    equal the same reports run one after the other: each report seats
    its streams in a generator of its own."""
    configs = (dmc_config(trials=2000), sieved_config(trials=2000))
    alone = [harness.run_trials(c).to_dict() | {"wall_time_s": 0}
             for c in configs]
    together = [None, None]
    start = threading.Barrier(2, timeout=60)

    def run(i):
        start.wait()
        together[i] = harness.run_trials(configs[i]).to_dict() \
            | {"wall_time_s": 0}

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert together == alone


def test_criterion_6_trials_share_blocks(monkeypatch):
    """The benchmark's dmc-m64 config, criterion 6, runs several trials a
    block, and its report equals the report of blocks of one."""
    cfg = dmc_config(idc=StateDistribution.deletion(0.1), dmc=Dmc.bsc(0.2),
                     trials=20)
    plan = _sparse.plan_for(harness.derive_scheme_params(cfg), cfg.dmc)
    assert type(plan) is _sparse.DmcPlan
    assert 1 < plan.block_size < cfg.trials / 2
    whole = harness.run_trials(cfg)
    monkeypatch.setattr(_sparse, "BLOCK_BYTES", 1)   # blocks of one
    ones = harness.run_trials(cfg)
    assert whole.to_dict() | {"wall_time_s": 0} \
        == ones.to_dict() | {"wall_time_s": 0}
    # the tallies are Python ints, as a JSON report needs
    tallies = dict(whole.diagnostics)
    del tallies["threshold"], tallies["guards"]
    assert {type(v) for v in tallies.values()} == {int}


def test_quiet_dmc_config_mostly_decodes():
    rep = harness.run_trials(dmc_config(trials=100))
    assert rep.error_rate < 0.2
    assert rep.diagnostics["prefix_drift_out"] == 0
    assert rep.diagnostics["drift_free"] == 100
    assert rep.diagnostics["drift_free_clean"] == 100


def test_mute_timing_process_rejected():
    # deleting every letter leaves nothing to decode; no geometry derives
    with pytest.raises(InvalidConfigError):
        harness.run_trials(gauss_config(idc=StateDistribution.deletion(1.0)))
    with pytest.raises(InvalidConfigError):
        harness.run_trials(dmc_config(idc=StateDistribution.deletion(1.0)))


def test_small_message_count_floods_with_false_alarms():
    # at M=4 the threshold is low enough that wrong windows keep firing;
    # nearly every trial erases even though the burst geometry is clean
    rep = harness.run_trials(gauss_config(M=4, epsilon=0.5,
                                          idc=StateDistribution.deletion(0.6),
                                          trials=60))
    assert rep.error_rate > 0.5
    assert rep.diagnostics["erasures"] >= 0.8 * rep.errors
    assert rep.diagnostics["full_burst_window_exists"] == 60


def oracle_errors(cfg: harness.ExperimentConfig, seed: int) -> int:
    """Errors of cfg.trials materialised encode -> channel -> decode runs."""
    params = harness.derive_scheme_params(cfg)
    dmc = cfg.dmc if cfg.scheme == "dmc" else None
    back_end = dmc or GaussianNoise(cfg.eta2)
    rng = np.random.default_rng(seed)
    errors = 0
    for _ in range(cfg.trials):
        m = int(rng.integers(1, cfg.M + 1))
        level = params.x_star if dmc else params.amplitude(m)
        y = oracle.channel(oracle.encode(params.layout, m, level), cfg.idc,
                           back_end, seed=rng)
        errors += oracle.decode(y, params, dmc, seed=rng) != m
    return errors


def test_sparse_and_direct_agree_on_error_rate():
    """run_trials streams every trial; the materialising pipeline, called
    directly, must give the same error rate within 4 two-sample SE."""
    n = 800
    # the gauss and dmc points sit near error 0.5, where the test has the
    # most power; the dmc one has random timing, so padding and drift count
    for cfg in (compound_config(trials=n),
                gauss_config(M=32, delta=0.9, epsilon=0.5, trials=n),
                dmc_config(M=32, delta=2.5, epsilon=0.5, trials=n,
                           idc=StateDistribution.deletion(0.1),
                           dmc=Dmc.bsc(0.2))):
        report = harness.run_trials(cfg)
        streamed = report.errors
        direct = oracle_errors(cfg, seed=cfg.base_seed + 100)
        pooled = (streamed + direct) / (2 * n)
        se = math.sqrt(max(2 * pooled * (1 - pooled) / n, 1e-12))
        assert abs(streamed - direct) / n <= 4 * se, (cfg.scheme, streamed,
                                                      direct)


def recount(cfg: harness.ExperimentConfig) -> dict[str, int]:
    """The report's error count and budget tallies, recounted trial by
    trial from stream_trials' window verdicts, with the unique-region rule
    applied to the owners of the firing windows."""
    plan = _sparse.plan_for(harness.derive_scheme_params(cfg), cfg.dmc)
    bounds = plan.table.bounds
    owner = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    out = dict.fromkeys(("errors", "drift_free_own_missed",
                         "quiet_false_alarms", "quiet_false_alarms_sq",
                         "quiet_wrong_windows"), 0)
    gen = np.random.default_rng(0)
    for ms, seeds in harness._trial_blocks(cfg, 1, gen):
        block = _sparse.stream_trials(plan, ms, cfg.idc, seeds, gen)
        m, fired, flags = int(ms[0]), block.fired[0], block.flags
        own = owner == m - 1
        hits = np.unique(owner[fired])
        out["errors"] += not (hits.size == 1 and hits[0] == m - 1)
        if not (flags["prefix_drift_out"][0] or flags["burst_spread_out"][0]):
            out["drift_free_own_missed"] += not fired[own].any()
        if flags["wrong_windows_all_zero"][0]:
            wrong = int(fired[~own].sum())
            out["quiet_false_alarms"] += wrong
            out["quiet_false_alarms_sq"] += wrong * wrong
            out["quiet_wrong_windows"] += int((~own).sum())
    return out


def test_report_tallies_match_a_per_trial_recount():
    sieved = gauss_config(M=256, epsilon=0.2,
                          idc=StateDistribution.deletion(0.1), trials=40)
    assert type(_sparse.plan_for(
        harness.derive_scheme_params(sieved))) is _sparse.SievePlan
    for cfg in (dmc_config(M=16, delta=2.5, epsilon=0.9, dmc=Dmc.bsc(0.2),
                           idc=StateDistribution.deletion(0.2)),
                gauss_config(),
                sieved,
                compound_config(delta=0.2, idc=StateDistribution(
                    ((0, 0.75), (4, 0.25))))):
        rep = harness.run_trials(cfg)
        d = {**rep.diagnostics, "errors": rep.errors}
        got = recount(cfg)
        assert got == {key: d[key] for key in got}
    # the jittery compound timing has drift events and trials on which
    # wrong windows touch the burst image, so both filters are at work
    assert max(d["drift_free"], d["wrong_windows_all_zero"]) < cfg.trials


def test_oversized_dmc_config_rejected(monkeypatch):
    # the streamed trials have no slot cap: this block is beyond 2**62
    huge = compound_config(mu1=0.5, mu2=2.0, delta=0.0, M=32,
                           sigma2_bound=0.25, trials=4)
    assert harness.run_trials(huge).trials == 4

    # M=1024 regions hold ~10M windows, so the rejection must come before
    # any window is laid out
    def no_table(self, layout):
        raise AssertionError("region table built for a rejected config")

    monkeypatch.setattr(_layout.RegionTable, "__init__", no_table)
    cfg = dmc_config(M=1024, idc=StateDistribution.deletion(0.1),
                     dmc=Dmc.bsc(0.2), trials=1)
    windows = sum(map(len, harness.derive_scheme_params(cfg).layout.regions))
    assert windows > _sparse.MAX_WINDOWS
    with pytest.raises(InvalidConfigError, match="exceeds"):
        harness.run_trials(cfg)
    # a nearly useless burst letter stretches 64 windows over 83M samples,
    # every one of which a DMC trial would draw
    long = dmc_config(dmc=Dmc.bsc(0.499), trials=1)
    assert sum(map(len, harness.derive_scheme_params(long).layout.regions)) \
        == 64
    with pytest.raises(InvalidConfigError, match="letters"):
        harness.run_trials(long)
    # windows of 4,330 letters over three, which the burst's two letters
    # keep to 4,331 count vectors for the threshold: a firing table of
    # 4,331**2 codes, refused before the plan builds it
    def no_plan(*args):
        raise AssertionError("firing table built for a rejected config")

    monkeypatch.setattr(_sparse.DmcPlan, "__init__", no_plan)
    table = dmc_config(M=2, trials=1, dmc=Dmc(
        np.array([[0.5, 0.4996, 0.0004], [0.5004, 0.4996, 0.0]]),
        np.array([0.0, 1.0])))
    assert harness.derive_scheme_params(table).window_len == 4330
    with pytest.raises(InvalidConfigError, match="18757561 codes"):
        harness.run_trials(table)
    # the exact threshold sums over the letter multisets of a window: a
    # three-letter channel this weak has windows of 5,804 letters, so
    # C(5,806, 2) = 16.9M multisets, though a trial draws only two windows
    def no_enumeration(*args):
        raise AssertionError("multisets enumerated for a rejected config")

    monkeypatch.setattr(cd, "_count_vectors", no_enumeration)
    wide = dmc_config(M=2, trials=1, dmc=Dmc(
        np.array([[0.34, 0.33, 0.33], [0.33, 0.33, 0.34]]),
        np.array([0.0, 1.0])))
    with pytest.raises(InvalidConfigError, match="5804-letter window"):
        harness.run_trials(wide)
    # the window cap holds for every scheme
    monkeypatch.setattr(_sparse, "MAX_WINDOWS", 100)
    with pytest.raises(InvalidConfigError, match="exceeds"):
        harness.run_trials(gauss_config())


def test_messages_are_drawn_block_by_block(monkeypatch):
    """Messages are drawn a chunk at a time as blocks are taken, so the
    first block of 10**13 trials comes back at once, and blocks of any
    size, in chunks of any size, read the messages of one draw over all
    trials and the states of the trial seeds SeedSequence spawns."""
    gen = np.random.default_rng(0)
    first, states = next(harness._trial_blocks(gauss_config(trials=10**13),
                                               7, gen))
    assert first.size == len(states) == 7
    monkeypatch.setattr(harness, "_MESSAGE_CHUNK", 16)
    for cfg in (gauss_config(trials=300, M=751),
                gauss_config(trials=300, message_selection="exhaustive")):
        _, msg_ss, trial_root = np.random.SeedSequence(cfg.base_seed).spawn(3)
        one = (as_generator(msg_ss).integers(1, cfg.M + 1, size=300)
               if cfg.message_selection == "uniform"
               else np.arange(300) % cfg.M + 1)
        seeded = oracle.states_of(trial_root.spawn(300))
        for size in (1, 7, 42, 84, 300):
            blocks = list(harness._trial_blocks(cfg, size, gen))
            assert np.array_equal(np.concatenate([b for b, _ in blocks]), one)
            assert [s for _, block in blocks for s in block] == seeded, size


def test_exhaustive_and_fixed_message_selection():
    rep = harness.run_trials(dmc_config(message_selection="exhaustive",
                                        trials=64))
    assert rep.trials == 64
    fixed = harness.run_trials(dmc_config(message_selection=5, trials=10))
    assert fixed.trials == 10


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        dmc_config(scheme="nope")
    with pytest.raises(InvalidConfigError):
        dmc_config(trials=0)
    with pytest.raises(InvalidConfigError, match="the most a report runs"):
        dmc_config(trials=harness.MAX_TRIALS + 1)
    with pytest.raises(InvalidConfigError):
        dmc_config(dmc=None)
    with pytest.raises(InvalidConfigError, match="takes no dmc back end"):
        dmc_config(scheme="gauss")   # a back end no trial would read
    with pytest.raises(TypeError):
        gauss_config(simulation="sparse")   # one trial path: no such field
    with pytest.raises(TypeError):
        dmc_config(calibration_trials=3)    # exact threshold: no such field
    with pytest.raises(TypeError):
        dmc_config(workers=1)               # one thread: no such field
    for bad in (dict(trials="5"), dict(trials=True), dict(M=64.5),
                dict(base_seed=-1), dict(epsilon=float("nan")),
                dict(delta=float("inf"))):
        with pytest.raises(InvalidConfigError):
            dmc_config(**bad)
    with pytest.raises(InvalidConfigError):
        compound_config(mu1=None)
    with pytest.raises(InvalidConfigError):
        dmc_config(message_selection=65)


def test_from_dict_rejects_unknown_keys():
    d = dmc_config().to_dict()
    d["typo_field"] = 1
    with pytest.raises(InvalidConfigError):
        harness.ExperimentConfig.from_dict(d)
    for removed in ("simulation", "direct_cap", "calibration_trials"):
        d = {**gauss_config().to_dict(), removed: 1}
        with pytest.raises(InvalidConfigError, match=removed):
            harness.ExperimentConfig.from_dict(d)


def test_from_dict_takes_workers_1_only():
    """A config may still ask for the one thread every report runs in:
    workers 1 is dropped, and any other value is refused."""
    d = dmc_config(trials=10).to_dict()
    report = harness.run_trials(
        harness.ExperimentConfig.from_dict({**d, "workers": 1}))
    assert report.config.to_dict() == d
    assert "workers" not in report.config.to_dict()
    for bad in (2, 0, 1.5, 1.0, True, "1", None):
        with pytest.raises(InvalidConfigError, match="workers must be 1"):
            harness.ExperimentConfig.from_dict({**d, "workers": bad})


def test_from_dict_round_trip():
    for cfg in (dmc_config(), gauss_config(), compound_config()):
        assert harness.ExperimentConfig.from_dict(cfg.to_dict()).to_dict() \
            == cfg.to_dict()


def test_compound_requires_realized_rate_in_band():
    with pytest.raises(InvalidConfigError):
        harness.run_trials(compound_config(
            idc=StateDistribution.constant(2)))  # mu=2 outside [1, 1]


def test_report_cost_accounting():
    rep = harness.run_trials(dmc_config(trials=10))
    # burst of B letters, unit letter cost
    assert rep.codeword_cost == 2.0
    assert rep.rate_per_unit_cost == pytest.approx(6 / 2.0)
    grep = harness.run_trials(gauss_config(trials=10))
    want = 1.5 ** 2 * 2.5 * math.log(16) / 0.8
    assert grep.codeword_cost == pytest.approx(want, rel=1e-12)


def test_sweep_grid_and_csv(tmp_path):
    base = dmc_config(trials=20).to_dict()
    grid = {"base": base, "axes": {"M": [16, 64], "base_seed": [1, 2]}}
    columns, rows = harness.sweep(grid)
    assert columns[:3] == ["point", "M", "base_seed"]
    assert len(rows) == 4
    assert all(r["valid"] for r in rows)
    assert [r["point"] for r in rows] == [0, 1, 2, 3]

    out = tmp_path / "grid.csv"
    harness.write_csv(columns, rows, out)
    text = out.read_text().splitlines()
    assert text[0].split(",")[:3] == ["point", "M", "base_seed"]
    assert len(text) == 5

    buf = io.StringIO()
    harness.write_csv(columns, rows, buf)
    assert buf.getvalue().splitlines()[0] == text[0]


def test_sweep_reports_invalid_points_inline():
    base = dmc_config(trials=10).to_dict()
    grid = {"base": base, "axes": {"M": [64, 1]}}   # M=1 cannot derive
    _, rows = harness.sweep(grid)
    assert rows[0]["valid"] is True
    assert rows[1]["valid"] is False and rows[1]["error"]


def test_sweep_empty_axis_and_missing_base():
    _, rows = harness.sweep({"base": dmc_config().to_dict(),
                             "axes": {"M": []}})
    assert rows == []
    with pytest.raises(InvalidConfigError):
        harness.sweep({"axes": {}})


def test_cost_equivalence_constant_states_is_exact():
    rep = harness.verify_cost_equivalence(dmc_config(
        idc=StateDistribution.constant(2)), trials=64, seed=1)
    assert rep.within_tolerance
    assert rep.abs_difference == 0.0
    assert rep.max_trial_abs_diff == 0.0
    assert rep.mu == 2.0


def test_cost_equivalence_random_states_within_tolerance():
    cfg = dmc_config(idc=StateDistribution.deletion(0.1), dmc=Dmc.bsc(0.2))
    rep = harness.verify_cost_equivalence(cfg, trials=4000, seed=9)
    assert rep.within_tolerance
    assert rep.abs_difference <= rep.tolerance
    assert rep.std_error > 0.0


def test_cost_equivalence_needs_dmc_scheme():
    with pytest.raises(InvalidConfigError):
        harness.verify_cost_equivalence(gauss_config())


def test_report_counts_approximate_state_sums():
    """Criterion 7's later messages have more prefix slots than the exact
    multinomial sum takes, so under random timing their prefix output is
    drawn from the rounded Gaussian; constant timing sums exactly."""
    criterion_7 = functools.partial(
        compound_config, M=64, delta=0.1, mu1=0.8, mu2=1.1, sigma2_bound=0.25,
        idc=StateDistribution.deletion(0.05), trials=20)
    layout = harness.derive_scheme_params(criterion_7()).layout
    assert layout.prefix_slots[63] > _sparse.EXACT_SUM_MAX \
        >= max(layout.prefix_slots[1], layout.burst_slots[1])
    for over, want in (({"message_selection": 64}, 20),
                       ({"message_selection": 2}, 0),
                       ({"message_selection": 64,
                         "idc": StateDistribution.constant(1)}, 0)):
        rep = harness.run_trials(criterion_7(**over))
        assert rep.diagnostics["approximate_state_sums"] == want, over
