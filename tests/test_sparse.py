"""Streaming simulator: state sums without materializing the stream.

The agreement test is the load-bearing one.  It runs the same
configuration once through the test oracle's materialized pipeline
(repeat, add noise, decode) and once through the streamed one, and checks that decode outcomes
agree in distribution.  The streamed path is exact, not approximate, so the
two error rates may differ only by sampling noise.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import chi2, chi2_contingency

import oracle
from artifact import _sparse as sp
from artifact import harness
from artifact import codec_compound as cc
from artifact import codec_dmc as cd
from artifact import codec_gauss as cg
from artifact._exact import multiples_in_open
from artifact._layout import GuardDiagnostics
from artifact.channel import Dmc, GaussianNoise, StateDistribution
from artifact.rng import as_generator


def test_zero_slots_sum_to_zero():
    rng = np.random.default_rng(0)
    assert sp.sample_state_sum(StateDistribution.deletion(0.3), 0, rng) == 0


def test_singleton_support_is_deterministic():
    rng = np.random.default_rng(0)
    d = StateDistribution.constant(2)
    assert sp.sample_state_sum(d, 17, rng) == 34
    huge = sp.EXACT_SUM_MAX * 8
    assert sp.sample_state_sum(d, huge, rng) == 2 * huge


def test_multinomial_path_is_binomial_in_law():
    d = StateDistribution.deletion(0.3)   # sum ~ Binomial(n, 0.7)
    rng = np.random.default_rng(123)
    n = 1000
    draws = np.array([sp.sample_state_sum(d, n, rng) for _ in range(2000)])
    assert draws.min() >= 0 and draws.max() <= n
    se = math.sqrt(n * 0.7 * 0.3 / 2000)
    assert abs(draws.mean() - 700) <= 4 * se
    assert 0.85 * 210 <= draws.var() <= 1.15 * 210


def test_clt_path_beyond_exact_cap():
    d = StateDistribution.deletion(0.5)
    n = sp.EXACT_SUM_MAX * 4
    rng = np.random.default_rng(7)
    v = sp.sample_state_sum(d, n, rng)
    assert isinstance(v, int)
    sd = math.sqrt(n * 0.25)
    assert abs(v - n // 2) <= 8 * sd
    again = sp.sample_state_sum(d, n, np.random.default_rng(7))
    assert again == v
    other = sp.sample_state_sum(d, n, np.random.default_rng(8))
    assert other != v   # astronomically unlikely to collide


def equal_rate_params():
    return cc.derive_params(M=8, mu1=1.0, mu2=1.0, delta=0.3, epsilon=0.25,
                            sigma2=0.09)


def test_compound_geometry_mirrors_params():
    p = equal_rate_params()
    lay = p.layout
    assert lay.prefix_slots == p.offsets
    assert lay.burst_slots == p.widths
    assert lay.window_lens == p.window_lens
    assert lay.codeword_len == p.block_len
    plan = sp.Plan(p)
    assert plan.threshold == p.threshold
    assert plan.amplitudes == pytest.approx(
        [p.amplitude(m) for m in range(1, 9)])
    assert plan.denom == pytest.approx(np.sqrt(plan.table.lens.astype(float)))


def test_gauss_geometry_mirrors_params():
    p = cg.derive_params(M=16, epsilon=0.25, delta=0.5,
                         idc=StateDistribution.deletion(0.2))
    lay = p.layout
    assert lay.prefix_slots == tuple((m - 1) * p.N for m in range(1, 17))
    assert lay.burst_slots == tuple([p.B] * 16)
    assert set(sp.Plan(p).amplitudes) == {p.x_star}
    assert lay.window_lens == tuple([p.window_len] * 16)
    assert tuple(lay.regions[1]) == tuple(
        v for v in range(1, p.codeword_len)
        if v % p.spacing == 0 and abs(v - (p.N * p.mu + 1)) < p.nu)


def test_stream_trial_reproducible_and_exact_sums():
    p = equal_rate_params()
    plan = sp.Plan(p)
    one = StateDistribution.constant(1)
    r1 = sp.stream_trials(plan, [3], one, [np.random.default_rng(11)])
    r2 = sp.stream_trials(plan, [3], one, [np.random.default_rng(11)])
    assert np.array_equal(r1.decoded, r2.decoded)
    assert r1.diagnostics == r2.diagnostics
    # constant states make both output sums certain
    assert r1.diagnostics[0].prefix_output == p.offsets[2]
    assert r1.diagnostics[0].burst_output == p.widths[2]
    assert r1.decoded[0] in range(0, 9)   # 0: no unique region fired


def disjoint(starts, ends):
    """Indices of a greedy run of pairwise disjoint windows."""
    keep, reach = [], -1
    for i in np.argsort(starts, kind="stable"):
        if starts[i] > reach:
            keep.append(i)
            reach = ends[i]
    return np.array(keep, dtype=np.int64)


def test_dmc_letters_follow_burst_and_idle_rows():
    """Letters follow W[x*] inside the burst image and W[0] outside it; a
    letter a row gives probability 0 never appears under that row, and the
    impossibility masks still force the window statistic to +-inf."""
    p = replace(cd.derive_params(
        M=8, epsilon=0.5, delta=1.0, idc=StateDistribution.deletion(0.1),
        channel=Dmc(np.array([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]]),
                    np.array([0.0, 1.0])), x_star=1), threshold=0.0)
    # derive_params refuses a burst letter idle cannot produce (infinite
    # divergence), so the zero entries reach the plan through its channel
    w = np.array([[0.6, 0.4, 0.0], [0.0, 0.3, 0.7]])
    plan = sp.DmcPlan(p, Dmc(w, np.array([0.0, 1.0])))
    t = plan.table
    a, g = p.layout.regions[1].start - 1, 4 * p.window_len   # 4 windows' worth
    inside = (t.starts > a) & (t.ends <= a + g)
    outside = (t.ends <= a) | (t.starts > a + g)
    picks = [np.flatnonzero(mask)[disjoint(t.starts[mask], t.ends[mask])]
             for mask in (inside, outside)]
    assert picks[0].size == 4

    rng = np.random.default_rng(17)
    totals = np.zeros((2, 3), dtype=np.int64)
    forced = {math.inf: 0, -math.inf: 0}
    for _ in range(1500):
        u = rng.random((1, plan.cells))
        counts = plan.letter_counts(u, [(a, g)])[:, 0]
        assert (counts.sum(axis=0) == t.lens).all()
        for k, pick in enumerate(picks):
            totals[k] += counts[:, pick].sum(axis=1)
        stats = cd._stats_from_counts(counts, *plan.llr_tables)
        burst_only = (counts[2] > 0) & (counts[0] == 0)
        assert (stats[counts[0] > 0] == -math.inf).all()
        assert (stats[burst_only] == math.inf).all()
        forced[math.inf] += int(burst_only.sum())
        forced[-math.inf] += int((counts[0] > 0).sum())
    assert min(forced.values()) > 0
    assert totals[0, 0] == 0 and totals[1, 2] == 0   # impossible letters
    for row, total in zip((w[1], w[0]), totals):
        n = total.sum()
        se = np.sqrt(row * (1 - row) / n)
        assert (np.abs(total / n - row) <= 5 * se).all(), (total / n, row)

    # a trial's verdicts are these statistics against the threshold
    u = np.random.default_rng(5).random((1, plan.cells))
    stats = cd._stats_from_counts(plan.letter_counts(u, [(a, g)]),
                                  *plan.llr_tables)
    fired = plan.fired([2], [(a, g)], [t.contact(a, g)], u)
    assert (fired == (stats >= 0.0)).all()


def test_stream_agrees_with_materialized_pipeline():
    """Same configuration, 3000 trials each way; decode outcome rates match."""
    p = equal_rate_params()
    plan = sp.Plan(p)
    idc = StateDistribution(((0, 0.15), (1, 0.7), (2, 0.15)))
    trials = 3000

    rng = np.random.default_rng(2025)
    stream_err = 0
    for _ in range(trials):
        m = int(rng.integers(1, 9))
        if sp.stream_trials(plan, [m], idc, [rng]).decoded[0] != m:
            stream_err += 1

    rng = np.random.default_rng(9025)
    direct_err = 0
    for _ in range(trials):
        m = int(rng.integers(1, 9))
        cw = oracle.encode(p.layout, m, p.amplitude(m))
        y = oracle.channel(cw, oracle.sample_states(idc, cw.size, rng),
                           GaussianNoise(1.0), rng)
        if oracle.decode(y, p, seed=int(rng.integers(2**31))) != m:
            direct_err += 1

    p1, p2 = stream_err / trials, direct_err / trials
    pooled = (stream_err + direct_err) / (2 * trials)
    se = math.sqrt(max(2 * pooled * (1 - pooled) / trials, 1e-12))
    assert abs(p1 - p2) <= 4 * se, (p1, p2)


def test_big_int_schedule_runs_without_materializing():
    p = cc.derive_params(M=32, mu1=0.5, mu2=2.0, delta=0.0, epsilon=0.25,
                         sigma2=0.25)
    assert p.block_len > 2 ** 62     # far beyond any buffer
    res = sp.stream_trials(sp.Plan(p), [30], StateDistribution.constant(1),
                           [np.random.default_rng(3)])
    assert res.diagnostics[0].prefix_output == p.offsets[29]
    assert res.diagnostics[0].burst_output == p.widths[29]
    assert res.decoded[0] in range(0, 33)   # 0: no unique region fired


# trial timing: a burst of B slots leaves an empty image (g = 0) with
# probability 0.8**B, and images land well off their design positions
ERRATIC = StateDistribution(((0, 0.8), (1, 0.1), (4, 0.1)))


def crowded(p, step, slack):
    """p (a gauss or dmc scheme) laid out with guard blocks a third as long
    and the same region radius, so its regions_disjoint guard fails."""
    n = p.N // 3
    nu_sq = p.layout.prefix_drift.radius_sq
    assert not GuardDiagnostics.evaluate(
        n, p.B, p.mu, nu_sq, p.layout.burst_drift.radius_sq,
        p.window_len, slack).regions_disjoint
    prefix = range(0, p.M * n, n)
    regions = (range(1, 2),) + tuple(
        multiples_in_open(step, k * Fraction(p.mu) + 1, nu_sq)
        for k in prefix[1:])
    return replace(p, layout=replace(
        p.layout, codeword_len=p.M * n, prefix_slots=tuple(prefix),
        regions=regions, slack=(slack,) * p.M))


def test_make_plan_picks_the_window_plan_for_disjoint_layouts(monkeypatch):
    """The window plan serves every Gaussian layout whose regions share no
    sample, hold at most MAX_FACTOR_WINDOWS windows and whose covariance
    blocks factor, and the sieve those of them with at least
    SIEVE_MIN_WINDOWS windows and n * Q(tau) < 1 in every region; the
    segment plan the rest."""
    def config(scheme, **kw):
        base = dict(scheme=scheme, epsilon=0.5, delta=0.5, trials=1,
                    base_seed=0, idc=StateDistribution.deletion(0.2))
        return harness.ExperimentConfig(**(base | kw))

    gauss = config("gauss", M=8)
    gauss_params = harness.derive_scheme_params(gauss)
    criterion_7 = config("compound", M=64, epsilon=0.25, delta=0.1, mu1=0.8,
                         mu2=1.1, sigma2_bound=0.25,
                         idc=StateDistribution.deletion(0.05))
    # criterion 5's parameters: 4,839 windows at M = 64, 24,481 at 256
    gauss_64, gauss_256 = (config("gauss", M=m, epsilon=0.2,
                                  idc=StateDistribution.deletion(0.1))
                           for m in (64, 256))
    params_256 = harness.derive_scheme_params(gauss_256)
    # tau = 2 puts n * Q(tau) = 96 * 0.023 above 1 in the 96-window regions
    often = replace(params_256, threshold=2.0)
    for cfg, params, plan in (
            (gauss, gauss_params, sp.WindowPlan),
            (criterion_7, harness.derive_scheme_params(criterion_7),
             sp.WindowPlan),
            (gauss_64, harness.derive_scheme_params(gauss_64), sp.WindowPlan),
            (gauss_256, params_256, sp.SievePlan),
            (gauss_256, often, sp.WindowPlan)):
        assert params.layout.table.disjoint
        assert type(harness._make_plan(cfg, params)) is plan
    assert params_256.layout.table.bounds[-1] >= sp.SIEVE_MIN_WINDOWS \
        > harness.derive_scheme_params(gauss_64).layout.table.bounds[-1]
    assert 96 * ndtr(-often.threshold) >= 1
    with pytest.raises(ValueError, match="Q"):
        sp.SievePlan(often)
    overlap = crowded(gauss_params, gauss_params.spacing,
                      gauss_params.M / math.log2(gauss_params.M))
    assert not overlap.layout.table.disjoint
    assert type(harness._make_plan(gauss, overlap)) is sp.Plan
    dmc = config("dmc", M=8, dmc=Dmc.bsc(0.2))
    assert type(harness._make_plan(
        dmc, harness.derive_scheme_params(dmc))) is sp.DmcPlan

    def not_positive_definite(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    assert type(harness._make_plan(gauss, gauss_params)) is sp.Plan

    # regions of 960 windows: no factor is built
    def unused(a):
        raise AssertionError("factored a region too long for the window plan")

    monkeypatch.setattr(np.linalg, "cholesky", unused)
    long = config("gauss", M=16, epsilon=0.1,
                  idc=StateDistribution(((0, 0.5), (2, 0.5))))
    long_params = harness.derive_scheme_params(long)
    assert long_params.layout.table.disjoint
    assert max(map(len, long_params.layout.regions)) == 960
    assert type(harness._make_plan(long, long_params)) is sp.Plan


def test_region_table_disjoint_reads_the_sorted_spans():
    p = cg.derive_params(M=8, epsilon=0.5, delta=0.5,
                         idc=StateDistribution.deletion(0.2))
    regions = p.layout.regions
    assert p.layout.table.disjoint

    def table(*regs):
        return replace(p.layout, regions=regs).table

    w = p.window_len
    one, two = regions[1], regions[2]
    # two touching regions share no sample; one sample more and they do
    before = range(two.start - w - 3 * one.step, two.start - w + 1, one.step)
    assert table(regions[0], before, two, *regions[3:]).disjoint
    shared = range(before.start + 1, before.stop + 1, one.step)
    assert not table(regions[0], shared, two, *regions[3:]).disjoint
    # spans are sorted by first position, whatever the message order
    assert not table(regions[0], two, shared, *regions[3:]).disjoint
    assert table(regions[0], two, before, *regions[3:]).disjoint
    # a region inside the span of an earlier, longer one
    inner = range(two.start + 1, two.start + 2)
    assert not table(regions[0], inner, two, *regions[3:]).disjoint


def assert_block_is_its_trials(plan, dist, trials, seed):
    """One block of trials against the same trials one at a time: the
    fired arrays bit for bit, the decisions and the diagnostics."""
    ms = np.random.default_rng(seed).integers(1, plan.layout.M + 1,
                                              size=trials)
    seeds = np.random.SeedSequence(seed).spawn(trials)
    block = sp.stream_trials(plan, ms, dist, seeds)
    assert block.fired.shape == (trials, plan.table.starts.size)
    for t, (m, ss) in enumerate(zip(ms, seeds)):
        one = sp.stream_trials(plan, [int(m)], dist, [as_generator(ss)])
        assert np.array_equal(block.fired[t], one.fired[0])
        assert block.decoded[t] == one.decoded[0]
        assert block.diagnostics[t] == one.diagnostics[0]
    return block


def test_block_equals_its_trials_one_at_a_time():
    gauss = cg.derive_params(M=8, epsilon=0.5, delta=0.5,
                             idc=StateDistribution.deletion(0.2))
    dmc = replace(cd.derive_params(M=8, epsilon=0.5, delta=1.0,
                                   idc=StateDistribution.deletion(0.1),
                                   channel=Dmc.bsc(0.2), x_star=1),
                  threshold=1.0)
    big = cc.derive_params(M=32, mu1=0.5, mu2=2.0, delta=0.0, epsilon=0.25,
                           sigma2=0.25)
    plans = {
        "gauss": sp.Plan(gauss),
        "gauss, regions overlap": sp.Plan(
            crowded(gauss, gauss.spacing, gauss.M / math.log2(gauss.M))),
        "dmc": sp.DmcPlan(dmc, Dmc.bsc(0.2)),
        "dmc, regions overlap": sp.DmcPlan(crowded(dmc, 1, 0), Dmc.bsc(0.2)),
        "compound": sp.Plan(equal_rate_params()),
        "compound beyond int64": sp.Plan(big),
        "gauss, window plan": sp.WindowPlan(gauss),
        "compound, window plan": sp.WindowPlan(equal_rate_params()),
        "compound beyond int64, window plan": sp.WindowPlan(big),
        "gauss, sieve": sp.SievePlan(gauss),
    }
    assert plans["compound beyond int64"].table.starts.dtype == object
    # the window plans' blocks: gathered and sliced windows, shared and
    # per-region factors
    blocks = [b for name, plan in plans.items() if "window" in name
              for b in plan.blocks]
    assert {isinstance(idx, slice) for idx, _, _ in blocks} == {True, False}
    assert {factor.ndim for _, _, factor in blocks} == {2, 3}
    for k, (name, plan) in enumerate(plans.items()):
        block = assert_block_is_its_trials(plan, ERRATIC, 64, seed=k)
        diags = block.diagnostics
        assert any(d.burst_output == 0 for d in diags), name
        assert any(d.full_burst_window_exists for d in diags), name
        if "overlap" in name:   # some image reaches windows of two regions
            assert not all(d.wrong_windows_all_zero for d in diags), name
    # the sieve adds the signal of overlaps held as Python ints
    assert_block_is_its_trials(sp.SievePlan(big), ERRATIC, 64,
                               seed=len(plans))


def test_block_size_follows_the_cell_budget():
    for plan in (sp.Plan(equal_rate_params()),
                 sp.WindowPlan(equal_rate_params())):
        assert plan.block_size == sp.BLOCK_CELLS // plan.cells > 1
    # the window plan draws one number a window
    assert sp.WindowPlan(criterion_7_params()).block_size == 84
    gauss = cg.derive_params(M=256, epsilon=0.2, delta=0.5,
                             idc=StateDistribution.deletion(0.1))
    assert sp.Plan(gauss).block_size == 1   # 48,961 increments a trial
    window = sp.WindowPlan(gauss)
    assert window.cells == window.table.starts.size == 24481
    assert window.block_size == 1


def criterion_7_params():
    """The layout of criterion 7, whose decoder is blind to the timing."""
    return cc.derive_params(M=64, mu1=0.8, mu2=1.1, delta=0.1, epsilon=0.25,
                            sigma2=0.25)


def exact_correlation(starts, ends):
    """Samples two windows share over the window length, from the window
    positions alone, in Python integers and then one rounding each."""
    starts, ends = [int(v) for v in starts], [int(v) for v in ends]
    w = ends[0] - starts[0] + 1
    return np.array([[float(Fraction(max(0, min(e, f) - max(s, t) + 1), w))
                      for t, f in zip(starts, ends)]
                     for s, e in zip(starts, ends)])


@pytest.mark.parametrize("name", ["gauss 64", "gauss 256", "gauss 1024",
                                  "gauss 4096", "criterion 7",
                                  "compound beyond int64"])
def test_window_factors_match_exact_overlaps(name):
    """L L^T equals the exact overlap matrix over w, to 1e-12 of its unit
    diagonal, for every region; every window is coloured exactly once."""
    if name.startswith("gauss"):
        p = cg.derive_params(M=int(name.split()[1]), epsilon=0.2, delta=0.5,
                             idc=StateDistribution.deletion(0.1))
    elif name == "criterion 7":
        p = criterion_7_params()
    else:
        p = cc.derive_params(M=32, mu1=0.5, mu2=2.0, delta=0.0, epsilon=0.25,
                             sigma2=0.25)
        assert p.layout.table.starts.dtype == object
    plan = sp.WindowPlan(p)
    table = plan.table
    served = np.zeros(plan.cells, dtype=np.int64)
    for idx, shape, factor in plan.blocks:
        # each region's window table indices, one row a region
        regions = np.arange(plan.cells)[idx].reshape(shape[0], shape[-1])
        served[regions] += 1
        starts = table.starts[regions].astype(object)
        ends = table.ends[regions].astype(object)
        if factor.ndim == 2:
            # a shared factor: every region is a progression whose step
            # over window length is the first region's, so the first
            # region's exact matrix stands for all of them
            lens = ends[:, 0] - starts[:, 0] + 1
            steps = starts[:, 1:2] - starts[:, :1] if shape[-1] > 1 \
                else np.zeros((len(lens), 1), dtype=object)
            assert (np.diff(starts, axis=1) == steps).all()
            assert (ends - starts + 1 == lens[:, np.newaxis]).all()
            assert (steps[:, 0] * lens[0] == steps[0, 0] * lens).all()
            factors = factor.T[np.newaxis]
            starts, ends = starts[:1], ends[:1]
        else:
            factors = factor.transpose(0, 2, 1)
        for low, s, e in zip(factors, starts, ends):
            assert (low == np.tril(low)).all()
            assert np.abs(low @ low.T - exact_correlation(s, e)).max() \
                <= 1e-12
    assert (served == 1).all()


def test_window_overlaps_are_exact_integers():
    small = sp.window_overlaps(4, [3, 1], [7, 2])
    assert small.dtype == np.int64
    assert small[0].tolist() == [[7, 4, 1, 0], [4, 7, 4, 1], [1, 4, 7, 4],
                                 [0, 1, 4, 7]]
    assert small[1].tolist() == [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1],
                                 [0, 0, 1, 2]]
    # beyond int64, w - s * d in floats would lose the small overlaps
    s, w = 3 * 10 ** 30, 10 ** 31 + 1
    big = sp.window_overlaps(5, [s], [w])
    assert big.dtype == object
    assert big[0, 0].tolist() == [w, w - s, w - 2 * s, w - 3 * s, 0]
    assert big[0, 0, 3] == 10 ** 30 + 1


def box_m_pvalue(x: np.ndarray, y: np.ndarray) -> float:
    """Box's M test that two Gaussian samples (rows) share one covariance,
    with its chi-square approximation."""
    p = x.shape[1]
    n = np.array([x.shape[0], y.shape[0]])
    covs = [np.cov(x, rowvar=False), np.cov(y, rowvar=False)]
    pooled = ((n[0] - 1) * covs[0] + (n[1] - 1) * covs[1]) / (n.sum() - 2)
    logdet = [np.linalg.slogdet(c)[1] for c in covs]
    m = ((n.sum() - 2) * np.linalg.slogdet(pooled)[1]
         - sum((k - 1) * d for k, d in zip(n, logdet)))
    c = ((2 * p * p + 3 * p - 1) / (6 * (p + 1))
         * (sum(1 / (k - 1) for k in n) - 1 / (n.sum() - 2)))
    return float(chi2.sf((1 - c) * m, p * (p + 1) / 2))


def test_window_statistics_share_the_segment_covariance():
    """The window plan's noise-only statistics against the segment plan's
    on one small layout: 20 windows, twelve heavily overlapping ones of
    one region and eight of the next; Box's M at alpha = 0.001, fixed
    before the test was run."""
    p = cg.derive_params(M=8, epsilon=0.5, delta=0.5,
                         idc=StateDistribution.deletion(0.2))
    assert p.window_len == 4 * p.spacing    # neighbours share 3/4
    bounds = p.layout.table.bounds
    pick = np.r_[bounds[1]:bounds[1] + 12, bounds[2]:bounds[2] + 8]
    samples = []
    for plan, seed in ((sp.WindowPlan(p), 41), (sp.Plan(p), 42)):
        rng = np.random.default_rng(seed)
        trials = 4000
        none = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        draws = rng.standard_normal((trials, plan.cells))
        stat = plan.statistics([1] * trials, [none] * trials, draws)
        samples.append(stat[:, pick])
    assert box_m_pvalue(*samples) > 0.001


def lowest_firing(fired: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per row: 0 if no window lo..hi-1 fires, else 1 + the eighth of the
    region holding the first that does."""
    hit = fired[:, lo:hi]
    return np.where(hit.any(axis=1), 1 + hit.argmax(axis=1) * 8 // (hi - lo),
                    0)


def test_sieve_fires_as_the_window_plan():
    """The sieve against the full draw, on gauss M = 16 with tau lowered
    to 2.3, so that a region of 38 or 39 windows is a proposal with
    probability n * Q(tau) = 0.41-0.42.  Every trial sends message 2 under
    constant timing, so only its own region sees the burst.  Three
    chi-square two-sample tests at alpha = 0.001 each, fixed before the
    test was run: over the noise-only regions, their firing windows (0..6,
    7 or more) and the eighth of the region holding their first firing
    window (or none); over the own region, drawn in full, the same
    eighth.  One category a region and trial: the regions are
    independent."""
    p = replace(cg.derive_params(M=16, epsilon=0.5, delta=0.5,
                                 idc=StateDistribution.deletion(0.2)),
                threshold=2.3)
    assert 0.3 <= max(map(len, p.layout.regions)) * ndtr(-2.3) <= 0.5
    bounds = p.layout.table.bounds
    trials, one = 8000, StateDistribution.constant(1)
    tables = [[], [], []]
    for plan, seed in ((sp.SievePlan(p), 61), (sp.WindowPlan(p), 62)):
        seeds = np.random.SeedSequence(seed).spawn(trials)
        counts, first, own = [], [], []
        for i in range(0, trials, 500):
            block = sp.stream_trials(plan, [2] * 500, one, seeds[i:i + 500])
            assert all(d.wrong_windows_all_zero for d in block.diagnostics)
            counts.append(block.region_fired[:, 2:].ravel())
            first += [lowest_firing(block.fired, lo, hi)
                      for lo, hi in zip(bounds[2:-1], bounds[3:])]
            own.append(lowest_firing(block.fired, bounds[1], bounds[2]))
        hist = np.bincount(np.concatenate(counts), minlength=8)
        tables[0].append(np.r_[hist[:7], hist[7:].sum()])
        tables[1].append(np.bincount(np.concatenate(first), minlength=9))
        tables[2].append(np.bincount(np.concatenate(own), minlength=9))
    for table in tables:
        assert np.min(table) >= 10
        assert chi2_contingency(np.array(table)).pvalue > 0.001
