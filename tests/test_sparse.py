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
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import chi2, chi2_contingency

import oracle
from artifact import _sparse as sp
from artifact import harness
from artifact import codec_compound as cc
from artifact import codec_dmc as cd
from artifact import codec_gauss as cg
from artifact._layout import Drift
from artifact.channel import Dmc, GaussianNoise, StateDistribution

# the phases of the tests that draw rows of hundreds of cells: a
# systematic failure there took over ten minutes to shrink, so they report
# the first failing example as it was drawn
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


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
    gen = np.random.default_rng(0)
    r1 = sp.stream_trials(plan, [3], one, oracle.states_of([11]), gen)
    r2 = sp.stream_trials(plan, [3], one, oracle.states_of([11]), gen)
    assert np.array_equal(r1.decoded, r2.decoded)
    d1, = oracle.block_diagnostics(r1)
    assert d1 == oracle.block_diagnostics(r2)[0]
    # constant states make both output sums certain
    assert d1.prefix_output == p.offsets[2]
    assert d1.burst_output == p.widths[2]
    assert r1.decoded[0] in range(0, 9)   # 0: no unique region fired


def code_counts(plan, codes, letters):
    """counts[y, ...]: the letter counts that DmcPlan window codes hold,
    their base-(window_len + 1) digits for letters 1, 2, .. and the rest
    of the window for letter 0."""
    w = plan.window_len
    digits = [codes.astype(np.int64) // (w + 1) ** y % (w + 1)
              for y in range(letters - 1)]
    return np.stack((w - sum(digits), *digits))


def disjoint(starts, ends):
    """Indices of a greedy run of pairwise disjoint windows."""
    keep, reach = [], -1
    for i in np.argsort(starts, kind="stable"):
        if starts[i] > reach:
            keep.append(i)
            reach = ends[i]
    return np.array(keep, dtype=np.int64)


def test_dmc_letters_follow_burst_and_idle_rows():
    """Letters DmcPlan.draw fills in follow W[x*] inside the burst image
    and W[0] outside it, for all three letters; a letter a row gives
    probability 0 never appears under that row, and the impossibility
    masks still force the window statistic to +-inf."""
    p = replace(cd.derive_params(
        M=8, epsilon=0.5, delta=1.0, idc=StateDistribution.deletion(0.1),
        channel=Dmc(np.array([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]]),
                    np.array([0.0, 1.0])), x_star=1), threshold=0.0)
    # derive_params refuses a burst letter idle cannot produce (infinite
    # divergence), so the zero entries reach the plan through its channel
    w = np.array([[0.6, 0.4, 0.0], [0.0, 0.3, 0.7]])
    channel = Dmc(w, np.array([0.0, 1.0]))
    plan = sp.DmcPlan(p, channel)
    tables = cd._llr_tables(channel, 1)
    t = plan.table
    a, g = p.layout.regions[1].start - 1, 4 * p.window_len   # 4 windows' worth
    touch = t.touching(a, g)
    inside = (t.starts > a) & (t.ends <= a + g)
    outside = (t.ends <= a) | (t.starts > a + g)
    picks = [np.flatnonzero(mask)[disjoint(t.starts[mask], t.ends[mask])]
             for mask in (inside, outside)]
    assert picks[0].size == 4
    burst = (plan.positions > a) & (plan.positions <= a + g)

    rng = np.random.default_rng(17)
    row = np.empty((1, plan.cells), dtype=plan.dtype)
    cells = np.zeros((2, 3), dtype=np.int64)   # letters in / out of the image
    totals = np.zeros((2, 3), dtype=np.int64)
    forced = {math.inf: 0, -math.inf: 0}
    for _ in range(1500):
        plan.draw(rng, row[0], 2, (a, g), touch)
        cells[0] += np.bincount(row[0, burst], minlength=3)
        cells[1] += np.bincount(row[0, ~burst], minlength=3)
        counts = code_counts(plan, plan.codes(row)[0, plan.columns], 3)
        assert (counts.sum(axis=0) == t.lens).all()
        for k, pick in enumerate(picks):
            totals[k] += counts[:, pick].sum(axis=1).astype(np.int64)
        stats = cd._stats_from_counts(counts, *tables)
        burst_only = (counts[2] > 0) & (counts[0] == 0)
        assert (stats[counts[0] > 0] == -math.inf).all()
        assert (stats[burst_only] == math.inf).all()
        forced[math.inf] += int(burst_only.sum())
        forced[-math.inf] += int((counts[0] > 0).sum())
    assert min(forced.values()) > 0
    assert cells[0, 0] == 0 and cells[1, 2] == 0   # impossible letters
    assert totals[0, 0] == 0 and totals[1, 2] == 0
    for row_w, tally in zip((w[1], w[0], w[1], w[0]), (*cells, *totals)):
        n = tally.sum()
        se = np.sqrt(row_w * (1 - row_w) / n)
        assert (np.abs(tally / n - row_w) <= 5 * se).all(), (tally / n, row_w)

    # a trial's verdicts are these statistics against the threshold
    plan.draw(np.random.default_rng(5), row[0], 2, (a, g), touch)
    stats = cd._stats_from_counts(
        code_counts(plan, plan.codes(row)[:, plan.columns], 3), *tables)
    _, hits = plan.verdicts([2], t.contacts([touch]), row, [None])
    assert (plan.window_fired(hits) == (stats >= 0.0)).all()


class RawWords:
    """A generator whose raw words carry given 16-bit lanes, four to a
    word, lowest bits first, and whose random() returns given floats: the
    lanes and trailing uniforms V of DmcPlan.draw, chosen by the test."""

    def __init__(self, lanes, trailing):
        words = np.zeros(-(-len(lanes) // 4) * 4, dtype=np.uint64)
        words[:len(lanes)] = lanes
        self.words = (words.reshape(-1, 4)
                      << np.arange(0, 64, 16, dtype=np.uint64)).sum(axis=1)
        self.trailing = list(trailing)
        self.bit_generator = self
        self.asked = []

    def random_raw(self, size):
        assert size == self.words.size
        return self.words.copy()

    def random(self, size):
        self.asked.append(size)
        return np.array(self.trailing[:size])


def pmf_rows(letters):
    """Two pmf rows of letters entries, summing to one within 1e-9: zero
    entries (repeated cdf entries, and a cdf at 0.0 or at 1.0 before its
    last letter), entries on the 2**-16 grid, and arbitrary floats."""
    grid = st.lists(st.integers(0, 4), min_size=letters,
                    max_size=letters).filter(any).flatmap(
        lambda k: st.permutations(
            [2 ** 16 * x // sum(k) for x in k[:-1]]
            + [2 ** 16 - sum(2 ** 16 * x // sum(k) for x in k[:-1])]))
    floats = st.lists(st.sampled_from((0.0, 1.0, 3.0, 0.1, 1 / 3, 2 ** -20)),
                      min_size=letters, max_size=letters).filter(any)
    return st.lists(st.one_of(grid.map(lambda k: np.array(k) / 2.0 ** 16),
                              floats.map(lambda k: np.array(k) / sum(k))),
                    min_size=2, max_size=2)


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_lane_letters_are_exact(data):
    """DmcPlan.draw's letter against exact rational arithmetic: with u =
    (lane + V) / 2**16 for the cell's lane and, where the lane ties a cdf
    entry's leading bits, its V, the letter is the first y with u <
    cdf[y], under the burst row inside the image and the idle row
    outside.  The cdfs hold entries 0.0 and 1.0, repeated entries, entries
    on the 2**-16 grid and arbitrary ones; lanes are drawn near the
    entries' leading bits, and V around their trailing ones."""
    draw = data.draw
    letters = draw(st.integers(2, 4))
    rows = np.array(draw(pmf_rows(letters)))
    plan = sp.DmcPlan(small_dmc(3, tuple(range(1 + 6 * k, 3 + 6 * k)
                                         for k in range(8))),
                      Dmc(rows, np.array([0.0, 1.0])))
    assert plan.cells == 32
    cdfs = {False: plan.idle_cdf, True: plan.burst_cdf}
    splits = {}
    for burst, cdf in cdfs.items():
        # the split is exact: c * 2**16 = t + f with 0 <= f < 1
        splits[burst] = [(int(c * 2 ** 16), Fraction(c) * 2 ** 16 % 1)
                         for c in cdf[:-1].tolist()]
        assert splits[burst] == [(t, Fraction(f)) for t, f in sp._split(cdf)]
    leading = sorted({min(t + d, 2 ** 16 - 1) for split in splits.values()
                      for t, _ in split for d in (-1, 0, 1) if t + d >= 0})
    a = draw(st.integers(0, 50))
    g = draw(st.integers(0, 30))
    inside = (plan.positions > a) & (plan.positions <= a + g)
    cells = plan.cells
    lanes = np.array(draw(st.lists(
        st.sampled_from(leading) | st.integers(0, 2 ** 16 - 1),
        min_size=cells, max_size=cells)), dtype=np.uint16)
    ties = [i for i in range(cells)
            if any(t == lanes[i] and f for t, f in splits[bool(inside[i])])]
    fracs = sorted({float(f) for split in splits.values() for _, f in split})
    near = [float(v) for f in fracs for v in (np.nextafter(f, 0.0), f,
                                              np.nextafter(f, 1.0))
            if 0.0 <= v < 1.0]
    trailing = draw(st.lists(st.sampled_from(near or [0.5])
                             | st.floats(0.0, 1.0, exclude_max=True),
                             min_size=len(ties), max_size=len(ties)))
    rng = RawWords(lanes, trailing)
    row = np.empty(cells, dtype=plan.dtype)
    plan.draw(rng, row, 1, (a, g), None)
    assert rng.asked == ([len(ties)] if ties else [])
    v = dict(zip(ties, trailing))
    for i in range(cells):
        u = (Fraction(int(lanes[i])) + Fraction(v.get(i, 0.0))) / 2 ** 16
        cdf = cdfs[bool(inside[i])]
        want = next(y for y in range(letters)
                    if y == letters - 1 or u < Fraction(cdf[y]))
        assert row[i] == want, (i, lanes[i], v.get(i), cdf)
        assert rows[int(inside[i]), want] > 0   # a letter the row can emit


def test_stream_agrees_with_materialized_pipeline():
    """Same configuration, 3000 trials each way; decode outcome rates match."""
    p = equal_rate_params()
    plan = sp.Plan(p)
    idc = StateDistribution(((0, 0.15), (1, 0.7), (2, 0.15)))
    trials = 3000

    rng = np.random.default_rng(2025)
    stream_err = 0
    gen = np.random.default_rng(0)
    for state in oracle.states_of(rng.bit_generator.seed_seq.spawn(trials)):
        m = int(rng.integers(1, 9))
        if sp.stream_trials(plan, [m], idc, [state], gen).decoded[0] != m:
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
                           oracle.states_of([3]), np.random.default_rng(0))
    assert res.prefix_output[0] == p.offsets[29]
    assert res.burst_output[0] == p.widths[29]
    assert res.decoded[0] in range(0, 33)   # 0: no unique region fired


# trial timing: a burst of B slots leaves an empty image (g = 0) with
# probability 0.8**B, and images land well off their design positions
ERRATIC = StateDistribution(((0, 0.8), (1, 0.1), (4, 0.1)))


def crowded(p, step, slack):
    """p (a gauss or dmc scheme) laid out with guard blocks a third as long
    and the same region radius, so that neighbouring regions' windows
    share samples."""
    n = p.N // 3
    nu_sq = p.layout.prefix_drift.radius_sq
    prefix = range(0, p.M * n, n)
    regions = (range(1, 2),) + tuple(
        oracle.multiples_in_open(step, k * Fraction(p.mu) + 1, nu_sq)
        for k in prefix[1:])
    layout = replace(p.layout, codeword_len=p.M * n,
                     prefix_slots=tuple(prefix), regions=regions,
                     slack=(slack,) * p.M)
    assert not layout.disjoint
    return replace(p, layout=layout)


def test_plan_for_picks_the_sieve_for_long_quiet_disjoint_layouts(
        monkeypatch):
    """The sieve serves every Gaussian layout whose regions share no
    sample and hold at most MAX_FACTOR_WINDOWS windows, with at least
    SIEVE_MIN_WINDOWS windows, n * Q(tau) < 1 in every region and
    covariance matrices that factor; the segment plan the rest.  The DMC
    plan goes by the params' scheme, not by whether a back-end channel is
    passed."""
    def config(scheme, **kw):
        base = dict(scheme=scheme, epsilon=0.5, delta=0.5, trials=1,
                    base_seed=0, idc=StateDistribution.deletion(0.2))
        return harness.ExperimentConfig(**(base | kw))

    gauss = config("gauss", M=8)
    gauss_params = harness.derive_scheme_params(gauss)
    criterion_7 = config("compound", M=64, epsilon=0.25, delta=0.1, mu1=0.8,
                         mu2=1.1, sigma2_bound=0.25,
                         idc=StateDistribution.deletion(0.05))
    # criterion 5's parameters: 1,261 windows at M = 21, 1,387 at M = 22,
    # 4,839 at M = 64 and 24,481 at M = 256
    gauss_21, gauss_22, gauss_64, gauss_256 = (
        config("gauss", M=m, epsilon=0.2, idc=StateDistribution.deletion(0.1))
        for m in (21, 22, 64, 256))
    params_21, params_22 = map(harness.derive_scheme_params,
                               (gauss_21, gauss_22))
    assert sum(params_21.layout.sizes) < sp.SIEVE_MIN_WINDOWS \
        <= sum(params_22.layout.sizes)
    params_256 = harness.derive_scheme_params(gauss_256)
    # tau = 2 puts n * Q(tau) = 96 * 0.023 above 1 in the 96-window regions
    often = replace(params_256, threshold=2.0)
    for cfg, params, plan in (
            (gauss, gauss_params, sp.Plan),
            (criterion_7, harness.derive_scheme_params(criterion_7), sp.Plan),
            (gauss_21, params_21, sp.Plan),
            (gauss_22, params_22, sp.SievePlan),
            (gauss_64, harness.derive_scheme_params(gauss_64), sp.SievePlan),
            (gauss_256, params_256, sp.SievePlan),
            (gauss_256, often, sp.Plan)):
        assert params.layout.disjoint
        assert type(sp.plan_for(params, cfg.dmc)) is plan
    assert 96 * ndtr(-often.threshold) >= 1
    with pytest.raises(ValueError, match="Q"):
        sp.SievePlan(often)
    # the constant alone moves the switch
    monkeypatch.setattr(sp, "SIEVE_MIN_WINDOWS", sum(params_21.layout.sizes))
    assert type(sp.plan_for(params_21)) is sp.SievePlan
    monkeypatch.undo()
    overlap = crowded(gauss_params, gauss_params.spacing, gauss_params.spacing)
    assert type(sp.plan_for(overlap)) is sp.Plan
    dmc = config("dmc", M=8, dmc=Dmc.bsc(0.2))
    assert type(sp.plan_for(
        harness.derive_scheme_params(dmc), dmc.dmc)) is sp.DmcPlan
    # Gaussian params with a back-end channel passed all the same
    assert type(sp.plan_for(params_256, Dmc.bsc(0.2))) is sp.SievePlan

    def not_positive_definite(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    assert type(sp.plan_for(params_256)) is sp.Plan

    # regions of 960 windows: no factor is built
    def unused(a):
        raise AssertionError("factored a region too long for the sieve")

    monkeypatch.setattr(np.linalg, "cholesky", unused)
    long = config("gauss", M=16, epsilon=0.1,
                  idc=StateDistribution(((0, 0.5), (2, 0.5))))
    long_params = harness.derive_scheme_params(long)
    assert long_params.layout.disjoint
    assert max(map(len, long_params.layout.regions)) == 960
    assert type(sp.plan_for(long_params)) is sp.Plan


def test_region_table_disjoint_reads_the_sorted_spans():
    """Layout.disjoint, which the guard records, plan_for and the region
    table's touching search read, goes by the regions' sorted spans."""
    p = cg.derive_params(M=8, epsilon=0.5, delta=0.5,
                         idc=StateDistribution.deletion(0.2))
    regions = p.layout.regions
    assert p.layout.disjoint

    def layout(*regs):
        return replace(p.layout, regions=regs)

    w = p.window_len
    one, two = regions[1], regions[2]
    # two touching regions share no sample; one sample more and they do
    before = range(two.start - w - 3 * one.step, two.start - w + 1, one.step)
    assert layout(regions[0], before, two, *regions[3:]).disjoint
    shared = range(before.start + 1, before.stop + 1, one.step)
    assert not layout(regions[0], shared, two, *regions[3:]).disjoint
    # spans are sorted by first position, whatever the message order
    assert not layout(regions[0], two, shared, *regions[3:]).disjoint
    assert layout(regions[0], two, before, *regions[3:]).disjoint
    # a region inside the span of an earlier, longer one
    inner = range(two.start + 1, two.start + 2)
    assert not layout(regions[0], inner, two, *regions[3:]).disjoint


DMC_8 = cd.derive_params(M=8, epsilon=0.5, delta=1.0,
                        idc=StateDistribution.deletion(0.1),
                        channel=Dmc.bsc(0.2), x_star=1)


def small_dmc(w, regions):
    """DMC_8 with windows of w samples at the given regions' starts."""
    return replace(DMC_8, window_len=w, layout=replace(
        DMC_8.layout, regions=regions, window_lens=(w,) * len(regions)))


# each code dtype edge of w on two, three and four letters: 255 and 256
# codes, 65,536 and 65,537
@pytest.mark.parametrize("w", (1, 2, 5, 6, 7, 15, 16, 39, 40, 255, 256))
@pytest.mark.parametrize("overlap", (False, True))
@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_letter_counts_match_a_per_window_count(w, overlap, data):
    """DmcPlan.codes at each window's column against the mixed-radix code
    of the window's letters counted one by one over positions[lo:lo + w],
    on random channels of two to four letters (those whose firing table
    holds at most 2**17 codes), random or overlapping regions, and blocks
    of up to four letter rows, drawn by DmcPlan.draw for burst images that
    straddle region edges.  The window verdicts are the statistics of the
    counts these codes hold against the threshold, and the region counts
    from the column verdicts those of the window verdicts."""
    draw = data.draw
    letters = draw(st.sampled_from(
        [k for k in (2, 3, 4) if (w + 1) ** (k - 1) <= 1 << 17]))
    weights = np.array(draw(st.lists(
        st.lists(st.integers(0, 3), min_size=letters, max_size=letters)
        .filter(any), min_size=2, max_size=2)), dtype=np.float64)
    channel = Dmc(weights / weights.sum(axis=1, keepdims=True),
                  np.array([0.0, 1.0]))
    if overlap:
        regions = crowded(DMC_8, 1, 0).layout.regions
    else:   # regions in any order, apart, adjacent or sharing samples
        regions = tuple(range(first, first + n) for first, n in draw(
            st.lists(st.tuples(st.integers(1, 3 * w + 60), st.integers(0, 5)),
                     min_size=8, max_size=8)))
    p = small_dmc(w, regions)
    plan = sp.DmcPlan(p, channel)
    t = plan.table
    assume(t.starts.size)
    edges = np.concatenate((t.starts, t.ends)).tolist()
    images = []
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.integers(0, 2 * w + 3))
        # an image around a window edge, or anywhere
        at = draw(st.sampled_from(edges) | st.integers(0, t.last_end + 2))
        images.append((max(at - draw(st.integers(0, g)), 0), g))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = np.empty((len(images), plan.cells), dtype=plan.dtype)
    for row, image in zip(rows, images):
        plan.draw(rng, row, 1, image, t.touching(*image))
    codes = plan.codes(rows)[:, plan.columns]
    assert codes.dtype == np.min_scalar_type((w + 1) ** (letters - 1) - 1)
    assert codes.shape == (len(images), t.starts.size)

    # the verdicts are the statistics of the codes' counts against the
    # threshold, by the compare of a run of firing codes or the lookup
    stats = cd._stats_from_counts(code_counts(plan, codes, letters),
                                  *cd._llr_tables(channel, 1))
    tau = draw(st.sampled_from(np.unique(stats).tolist()))
    plan = sp.DmcPlan(replace(p, threshold=tau), channel)
    counts, hits = plan.verdicts(None, None, rows, None)
    fired = plan.window_fired(hits)
    assert (fired == (stats >= tau)).all()
    assert np.array_equal(counts, t.region_counts(fired))

    positions = plan.positions
    radix = (w + 1) ** np.arange(letters - 1)
    for k, (a, g) in enumerate(images):
        inside = (positions > a) & (positions <= a + g)
        # no letter that its row cannot emit
        assert (channel.w[inside.astype(int), rows[k]] > 0).all()
        for i, (start, lo) in enumerate(zip(t.starts, plan.columns)):
            assert (positions[lo:lo + w] == np.arange(start, start + w)).all()
            window = rows[k, lo:lo + w]
            assert codes[k, i] == radix @ np.bincount(
                window, minlength=letters)[1:]


def test_dmc_plan_needs_windows_one_sample_apart():
    """A region's windows must be consecutive columns: the DMC layout's
    step 1.  A layout with a longer step is refused."""
    sp.DmcPlan(small_dmc(3, (range(1, 5),) * 8), Dmc.bsc(0.2))
    with pytest.raises(ValueError, match="one sample apart"):
        sp.DmcPlan(small_dmc(3, (range(1, 5),) * 7 + (range(20, 30, 2),)),
                   Dmc.bsc(0.2))


@pytest.mark.parametrize("w", (1, 7, 255, 256, 65535, 65536))   # dtype edges
@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_binary_firing_counts_are_the_statistics_verdicts(w, data):
    """On two letters a window's code is its count c of letter 1, the
    sliding sum of the letter row as it is: the codes of a random row
    against its count differences, and the firing table against the
    statistic of every c and the threshold, on random two-letter channels
    (zero entries in either row, either sign of letter 0's LLR) and
    thresholds at attained statistic values, so that ties fire, and just
    above them.  The counts that fire form one interval, which the plan
    compares with, lo <= c <= hi in the code dtype."""
    draw = data.draw
    weights = np.array(draw(st.lists(
        st.lists(st.integers(0, 4), min_size=2, max_size=2).filter(any),
        min_size=2, max_size=2)), dtype=np.float64)
    channel = Dmc(weights / weights.sum(axis=1, keepdims=True),
                  np.array([0.0, 1.0]))
    c = np.arange(w + 1)
    stats = cd._stats_from_counts(np.stack((w - c, c)),
                                  *cd._llr_tables(channel, 1))
    values = np.unique(stats)
    if values.size > 24:
        values = np.array(draw(st.lists(st.sampled_from(values.tolist()),
                                        min_size=1, max_size=12)))
    dtype = np.min_scalar_type(w)
    row = np.random.default_rng(draw(st.integers(0, 2**32))).integers(
        0, 2, size=(2, w + draw(st.integers(0, 2 * w))), dtype=np.uint8)
    ones = np.zeros((2, row.shape[1] + 1), dtype=np.int64)
    np.cumsum(row, axis=1, out=ones[:, 1:])
    for tau in (*values, *np.nextafter(values, math.inf)):
        plan = sp.DmcPlan(replace(DMC_8, window_len=w, threshold=tau),
                          channel)
        assert plan.weights is None and plan.code_dtype == dtype
        assert np.array_equal(plan.firing, stats >= tau), tau
        fires = np.flatnonzero(plan.firing)
        if fires.size:
            lo, hi = plan.firing_run
            assert lo.dtype == hi.dtype == dtype
            assert (lo, hi) == (fires[0], fires[-1]) and hi - lo < fires.size
        else:
            assert plan.firing_run is None
    codes = plan.codes(row)
    assert codes.dtype == dtype
    assert np.array_equal(codes, ones[:, w:] - ones[:, :-w])


@pytest.mark.parametrize("letters", (3, 4))
@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_firing_table_is_the_statistics_verdicts(letters, data):
    """The firing table of three and four letters against the statistic
    of every count vector c, table[code(c)] == (stat(c) >= tau), on
    random channels (zero entries in either row) and thresholds at
    attained statistic values, so that ties fire, and just above them.
    A code whose digits sum past w is no window's and never fires, and
    the plan compares with the ends of the firing codes exactly when
    they form one run."""
    draw = data.draw
    w = draw(st.sampled_from((1, 2, 5, 6, 15, 16, 39, 40)))
    weights = np.array(draw(st.lists(
        st.lists(st.integers(0, 4), min_size=letters, max_size=letters)
        .filter(any), min_size=2, max_size=2)), dtype=np.float64)
    channel = Dmc(weights / weights.sum(axis=1, keepdims=True),
                  np.array([0.0, 1.0]))
    counts = cd._count_vectors(w, letters)
    stats = cd._stats_from_counts(counts, *cd._llr_tables(channel, 1))
    codes = (w + 1) ** np.arange(letters - 1) @ counts[1:]
    windowless = np.ones((w + 1) ** (letters - 1), dtype=bool)
    windowless[codes] = False
    values = np.unique(stats)
    if values.size > 24:
        values = np.array(draw(st.lists(st.sampled_from(values.tolist()),
                                        min_size=1, max_size=12)))
    for tau in (*values, *np.nextafter(values, math.inf)):
        plan = sp.DmcPlan(replace(DMC_8, window_len=w, threshold=tau),
                          channel)
        assert plan.firing.size == windowless.size
        assert np.array_equal(plan.firing[codes], stats >= tau), tau
        assert not plan.firing[windowless].any()
        fires = np.flatnonzero(plan.firing)
        run = fires.size and fires[-1] - fires[0] + 1 == fires.size
        assert (plan.firing_run is None) == (not run)


def assert_block_is_its_trials(plan, dist, trials, seed):
    """One block of trials against the same trials one at a time: the
    fired arrays bit for bit, the decisions and the diagnostics, which
    also match the oracle's flags of each trial's image."""
    ms = np.random.default_rng(seed).integers(1, plan.layout.M + 1,
                                              size=trials)
    states = oracle.states_of(np.random.SeedSequence(seed).spawn(trials))
    gen = np.random.default_rng(0)
    block = sp.stream_trials(plan, ms, dist, states, gen)
    assert block.fired.shape == (trials, plan.table.starts.size)
    # the plan's region counts, gather-free on the DMC plan, are those of
    # the window verdicts
    assert np.array_equal(block.region_fired,
                          plan.table.region_counts(block.fired))
    diags = oracle.block_diagnostics(block)
    for t, (m, state, d) in enumerate(zip(ms, states, diags)):
        one = sp.stream_trials(plan, [int(m)], dist, [state], gen)
        assert np.array_equal(block.fired[t], one.fired[0])
        assert block.decoded[t] == one.decoded[0]
        assert d == oracle.block_diagnostics(one)[0]
        assert d == oracle.geometry(int(m), d.prefix_output, d.burst_output,
                                    plan.layout)
    return diags


def test_block_equals_its_trials_one_at_a_time():
    gauss = cg.derive_params(M=8, epsilon=0.5, delta=0.5,
                             idc=StateDistribution.deletion(0.2))
    dmc = replace(cd.derive_params(M=8, epsilon=0.5, delta=1.0,
                                   idc=StateDistribution.deletion(0.1),
                                   channel=Dmc.bsc(0.2), x_star=1),
                  threshold=1.0)
    flipped = Dmc(np.array([[0.2, 0.8], [0.8, 0.2]]), np.array([0.0, 1.0]))
    dmc_flipped = cd.derive_params(M=8, epsilon=0.5, delta=1.0,
                                   idc=StateDistribution.deletion(0.1),
                                   channel=flipped, x_star=1)
    big = cc.derive_params(M=32, mu1=0.5, mu2=2.0, delta=0.0, epsilon=0.25,
                           sigma2=0.25)
    plans = {
        "gauss": sp.Plan(gauss),
        "gauss, regions overlap": sp.Plan(
            crowded(gauss, gauss.spacing, gauss.spacing)),
        "dmc": sp.DmcPlan(dmc, Dmc.bsc(0.2)),
        "dmc, regions overlap": sp.DmcPlan(crowded(dmc, 1, 0), Dmc.bsc(0.2)),
        "compound": sp.Plan(equal_rate_params()),
        "compound beyond int64": sp.Plan(big),
        "gauss, sieve": sp.SievePlan(gauss),
        "dmc, flipped bsc": sp.DmcPlan(dmc_flipped, flipped),
    }
    assert plans["compound beyond int64"].table.starts.dtype == object
    # the last region's run of columns ends at the last column, and the
    # overlapping layout's runs share columns
    dmc_plan = plans["dmc"]
    assert dmc_plan.runs[-1] == dmc_plan.cells - dmc_plan.window_len + 1
    runs = plans["dmc, regions overlap"].runs.reshape(-1, 2)
    assert (runs[1:, 0] < runs[:-1, 1]).any()
    for k, (name, plan) in enumerate(plans.items()):
        diags = assert_block_is_its_trials(plan, ERRATIC, 64, seed=k)
        assert any(d.burst_output == 0 for d in diags), name
        assert any(d.full_burst_window_exists for d in diags), name
        if "overlap" in name:   # some image reaches windows of two regions
            assert not all(d.wrong_windows_all_zero for d in diags), name
    # the sieve adds the signal of overlaps held as Python ints
    assert_block_is_its_trials(sp.SievePlan(big), ERRATIC, 64,
                               seed=len(plans))


def test_block_size_follows_the_byte_budget():
    for plan in (sp.Plan(equal_rate_params()),
                 sp.SievePlan(equal_rate_params())):
        row = plan.cells * np.dtype(plan.dtype).itemsize
        assert plan.block_size == sp.BLOCK_BYTES // row > 1
    # 382 float64 increments a trial
    assert sp.Plan(criterion_7_params()).block_size == 2**18 // 3056 == 85
    gauss = cg.derive_params(M=256, epsilon=0.2, delta=0.5,
                             idc=StateDistribution.deletion(0.1))
    assert sp.Plan(gauss).block_size == 1   # 48,961 increments a trial
    sieve = sp.SievePlan(gauss)   # one int32 cell a region, not a window
    assert sieve.table.starts.size == 24481
    assert sieve.cells == gauss.layout.M == 256
    assert sieve.block_size == 2**18 // (256 * 4) == 256
    # criterion 6's letters, one uint8 a covered sample
    dmc = sp.plan_for(cd.derive_params(
        M=64, epsilon=0.25, delta=0.5, idc=StateDistribution.deletion(0.1),
        channel=Dmc.bsc(0.2), x_star=1), Dmc.bsc(0.2))
    assert dmc.cells == 39092 and dmc.dtype == np.uint8
    assert dmc.block_size == 2**18 // 39092 == 6
    assert sp.BLOCK_BYTES == 2**18


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
    """L L^T, and the correlation matrix the sieve conditions on, equal
    the exact overlap matrix over w, to 1e-12 of its unit diagonal, for
    every region: checked once for each window count and step over window
    length, which fix the exact matrix of an arithmetic progression of
    equal windows, and shared by the other regions of that key."""
    if name.startswith("gauss"):
        p = cg.derive_params(M=int(name.split()[1]), epsilon=0.2, delta=0.5,
                             idc=StateDistribution.deletion(0.1))
    elif name == "criterion 7":
        p = criterion_7_params()
    else:
        p = cc.derive_params(M=32, mu1=0.5, mu2=2.0, delta=0.0, epsilon=0.25,
                             sigma2=0.25)
        assert p.layout.table.starts.dtype == object
    plan = sp.SievePlan(p)
    table, bounds = plan.table, plan.table.bounds.tolist()
    checked = {}
    for r, k in enumerate(plan.region_keys.tolist()):
        starts = table.starts[bounds[r]:bounds[r + 1]].astype(object)
        ends = table.ends[bounds[r]:bounds[r + 1]].astype(object)
        if k < 0:
            assert starts.size == 0
            continue
        n, factor, corr = plan.keys[k]
        assert n == starts.size == factor.shape[0] == corr.shape[0]
        w = ends[0] - starts[0] + 1
        step = starts[1] - starts[0] if starts.size > 1 else 0
        assert (ends - starts + 1 == w).all()
        assert (np.diff(starts) == step).all()
        g = math.gcd(step, w)
        key = (starts.size, step // g, w // g)
        if key in checked:   # the same factor and matrix: one key index
            assert checked[key] == k
            continue
        checked[key] = k
        low, exact = factor.T, exact_correlation(starts, ends)
        assert (low == np.tril(low)).all()
        assert np.abs(low @ low.T - exact).max() <= 1e-12
        assert np.abs(corr - exact).max() <= 1e-12
    # one key a distinct window count and step over window length
    assert sorted(checked.values()) == list(range(len(plan.keys)))


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
    """The sieve's noise-only statistics against the segment plan's on one
    small layout: the 39 heavily overlapping windows of message 2's
    region, which the sieve draws in full as the sent message's and
    colours in one block pass (no image; tau out of reach, so no other
    region is drawn).  Box's M at alpha = 0.001, fixed before the test
    was run."""
    p = cg.derive_params(M=8, epsilon=0.5, delta=0.5,
                         idc=StateDistribution.deletion(0.2))
    assert p.window_len == 4 * p.spacing    # neighbours share 3/4
    bounds = p.layout.table.bounds
    own = slice(bounds[1], bounds[2])
    assert own.stop - own.start == 39
    trials = 4000
    none = p.layout.table.touching(0, 0)
    contacts = p.layout.table.contacts([none] * trials)
    sieve = sp.SievePlan(replace(p, threshold=40.0))
    rng = np.random.default_rng(41)
    counts = np.empty(sieve.cells, dtype=sieve.dtype)
    drawn = [sieve.draw(rng, counts, 2, (0, 0), none) for _ in range(trials)]
    rows = sieve.rows(drawn)
    trial, region, _, order, _ = rows
    assert (region == 1).all() and (order == trial).all()
    chunks = list(sieve.statistics([2] * trials, contacts, drawn, rows))
    assert len(chunks) > 1   # the product runs in chunks of rows
    assert [lo for lo, _, _ in chunks[1:]] == [hi for _, hi, _ in chunks[:-1]]
    stats = np.concatenate([x for _, _, x in chunks])
    assert stats.shape == (trials, 39) and np.isfinite(stats).all()
    segment = sp.Plan(p)
    draws = np.random.default_rng(42).standard_normal((trials, segment.cells))
    stat = segment.statistics([2] * trials, contacts, draws)
    assert box_m_pvalue(stats, stat[:, own]) > 0.001


def lowest_firing(fired: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per row: 0 if no window lo..hi-1 fires, else 1 + the eighth of the
    region holding the first that does."""
    hit = fired[:, lo:hi]
    return np.where(hit.any(axis=1), 1 + hit.argmax(axis=1) * 8 // (hi - lo),
                    0)


def test_sieve_tails_agree_with_scipy():
    """Q(tau) and the sieve's proposal tails -Phi^-1(q (1 - u)) from the
    standard library against scipy's ndtr and ndtri: u from 0 up to
    1 - 2**-53, q from Q(tau) at criterion 5's M = 256 down to 1e-9."""
    tau = cg.derive_params(M=256, epsilon=0.2, delta=0.5,
                           idc=StateDistribution.deletion(0.1)).threshold
    q_top = sp._tail(tau)
    assert math.isclose(q_top, ndtr(-tau), rel_tol=1e-14)
    for t in np.linspace(0.0, 9.0, 91):
        assert math.isclose(sp._tail(t), ndtr(-t), rel_tol=1e-14)
    us = np.concatenate([[0.0], np.random.default_rng(3).random(200),
                         1.0 - 2.0 ** -np.arange(1, 54)])
    for q in np.geomspace(q_top, 1e-9, 25):
        ours = [max(-sp._NORMAL.inv_cdf(q * (1.0 - u)), tau) for u in us]
        ref = np.maximum(-ndtri(q * (1.0 - us)), tau)
        np.testing.assert_allclose(ours, ref, rtol=1e-14, atol=0)


def test_sieve_fires_as_the_segment_plan():
    """The sieve against the segment plan's full draw, on gauss M = 16
    with tau lowered to 2.3, so that a region of 38 or 39 windows is a
    proposal with probability n * Q(tau) = 0.41-0.42.  Every trial sends message 2 under
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
    for plan, seed in ((sp.SievePlan(p), 61), (sp.Plan(p), 62)):
        states = oracle.states_of(np.random.SeedSequence(seed).spawn(trials))
        gen = np.random.default_rng(0)
        counts, first, own = [], [], []
        for i in range(0, trials, 500):
            block = sp.stream_trials(plan, [2] * 500, one, states[i:i + 500],
                                     gen)
            assert block.flags["wrong_windows_all_zero"].all()
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


def test_sieve_draws_the_regions_the_image_touches_in_full():
    """An image on the first sample of region r touches only r's first
    window; the sieve then draws r in full, with the sent message's
    region, and no other (tau is out of reach, so no region is a
    proposal, no window fires and every region counts 0)."""
    p = replace(cg.derive_params(M=16, epsilon=0.5, delta=0.5,
                                 idc=StateDistribution.deletion(0.2)),
                threshold=40.0)
    plan = sp.SievePlan(p)
    table = plan.table
    bounds = table.bounds.tolist()
    for r in (2, 5, 15):
        image = (int(table.starts[bounds[r]]) - 1, 1)
        touch = table.touching(*image)
        assert touch[2] == [(bounds[r], bounds[r] + 1, r)]
        rows = np.empty((1, plan.cells), dtype=plan.dtype)
        drawn = plan.draw(np.random.default_rng(r), rows[0], 1, image, touch)
        full, z, proposals = drawn[:3]
        assert full == [0, r] and proposals == []
        assert z.size == sum(bounds[k + 1] - bounds[k] for k in full)
        assert np.isfinite(z).all()
        counts, hits = plan.verdicts([1], table.contacts([touch]), rows,
                                     [drawn])
        trials, trial, region, above = hits
        assert counts is rows and (rows == 0).all()
        assert trials == 1
        assert trial.tolist() == [0, 0] and region.tolist() == [0, r]
        assert not above.any()
        assert not plan.window_fired(hits).any()


def test_block_contacts_cost_no_per_trial_arrays(monkeypatch):
    """stream_trials finds each trial's contact in Python ints and expands
    the block's contacts, signal and flags in one array pass: a block of
    85 compound trials (criterion 7's block) makes no more np.arange or
    np.concatenate calls than a block of one."""
    plan = sp.plan_for(criterion_7_params())
    assert type(plan) is sp.Plan and plan.block_size == 85
    dist = StateDistribution.deletion(0.2)
    states = oracle.states_of(range(85))
    ms = np.random.default_rng(7).integers(1, 65, size=85)
    calls = {"arange": 0, "concatenate": 0}

    def counted(name):
        fn = getattr(np, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    counts = []
    for n in (1, 85):
        with monkeypatch.context() as patch:
            for name in calls:
                patch.setattr(np, name, counted(name))
            calls.update(dict.fromkeys(calls, 0))
            block = sp.stream_trials(plan, ms[:n], dist, states[:n],
                                     np.random.default_rng(0))
        counts.append(dict(calls))
        assert block.decoded.size == n
    assert counts[1]["arange"] <= counts[0]["arange"]
    assert counts[1]["concatenate"] <= counts[0]["concatenate"]


def test_drift_flags_come_from_the_trial_loop_in_python_ints(monkeypatch):
    """stream_trials tests each trial's a and g for drift as it draws
    them: during one block of dmc-m64 (6 trials), of gauss-m256's sieve
    (256) and of a compound layout past int64, Drift.out only ever
    receives Python ints, twice a trial, and the block's drift flags are
    what those calls returned."""
    dmc = cd.derive_params(M=64, epsilon=0.25, delta=0.5,
                           idc=StateDistribution.deletion(0.1),
                           channel=Dmc.bsc(0.2), x_star=1)
    big = cc.derive_params(M=32, mu1=0.5, mu2=2.0, delta=0.0, epsilon=0.25,
                           sigma2=0.25)
    deletion = StateDistribution.deletion(0.1)
    cases = {"dmc-m64": (sp.plan_for(dmc, Dmc.bsc(0.2)), deletion),
             "gauss-m256": (criterion_5_sieve(), deletion),
             "compound beyond int64": (sp.plan_for(big), ERRATIC)}
    assert cases["compound beyond int64"][0].table.starts.dtype == object
    out = Drift.out
    for name, (plan, dist) in cases.items():
        calls = []

        def recorded(drift, n, slots):
            calls.append((n, slots, out(drift, n, slots)))
            return calls[-1][2]

        trials = plan.block_size
        ms = np.random.default_rng(3).integers(1, plan.layout.M + 1,
                                               size=trials)
        with monkeypatch.context() as patch:
            patch.setattr(Drift, "out", recorded)
            block = sp.stream_trials(plan, ms, dist,
                                     oracle.states_of(range(trials)),
                                     np.random.default_rng(0))
        assert len(calls) == 2 * trials, name
        assert all(type(n) is int and type(slots) is int
                   for n, slots, _ in calls), name
        results = [got for _, _, got in calls]
        assert block.flags["prefix_drift_out"].tolist() == results[::2], name
        assert block.flags["burst_spread_out"].tolist() == results[1::2], name


def criterion_5_sieve():
    """The sieve of criterion 5's layout at M = 256, gauss-m256's."""
    plan = sp.plan_for(cg.derive_params(M=256, epsilon=0.2, delta=0.5,
                                        idc=StateDistribution.deletion(0.1)))
    assert type(plan) is sp.SievePlan and plan.block_size == 256
    return plan


def test_sieve_block_pass_costs_no_per_trial_counts(monkeypatch):
    """The sieve counts a block's firing windows in one pass over its rows:
    a block of 256 criterion-5 trials makes no more np.count_nonzero calls
    than a block of one."""
    plan = criterion_5_sieve()
    dist = StateDistribution.deletion(0.1)
    states = oracle.states_of(range(256))
    ms = np.random.default_rng(7).integers(1, 257, size=256)
    calls = []
    count_nonzero = np.count_nonzero

    def counted(*args, **kwargs):
        calls[-1] += 1
        return count_nonzero(*args, **kwargs)

    for n in (1, 256):
        calls.append(0)
        with monkeypatch.context() as patch:
            patch.setattr(np, "count_nonzero", counted)
            block = sp.stream_trials(plan, ms[:n], dist, states[:n],
                                     np.random.default_rng(0))
        assert block.decoded.size == n
    assert block.region_fired.any()
    assert calls[1] <= calls[0]


def test_full_sieve_block_is_its_trials():
    """A full block of gauss-m256's sieve, whose products run over many
    rows in chunks, against its 256 trials one at a time, whose products
    run over a row or a few: the same window verdicts, decisions and
    diagnostics."""
    plan = criterion_5_sieve()
    # a full row a trial already fills more than one chunk
    assert plan.block_size * plan.width > sp.SIEVE_CHUNK
    diags = assert_block_is_its_trials(
        plan, StateDistribution.deletion(0.1), plan.block_size, seed=28)
    assert any(d.full_burst_window_exists for d in diags)


def test_out_of_range_message_in_a_block_raises():
    """A block whose messages leave 1..M in the middle raises, before any
    trial is drawn, the one-line ValueError of the first such message."""
    plan = sp.Plan(equal_rate_params())
    dist = StateDistribution.deletion(0.2)
    states = oracle.states_of(range(4))
    for ms, bad in (([1, 9, 2, 3], 9), ([2, 0, 9, 1], 0), ([3, 4, 5, -1], -1)):
        with pytest.raises(ValueError, match=rf"^message {bad} outside 1\.\.8$"):
            sp.stream_trials(plan, ms, dist, states, np.random.default_rng(0))
