"""The message layout and the trace diagnostics shared by the three codecs.

The property tests draw small layouts of each scheme.  One takes random
realized output lengths and checks every diagnostic flag against a
brute-force enumeration of windows in exact Fraction / Python-int
arithmetic, written from each scheme's own definition of its drift events
and coverage slack; the other sends every message through the test
oracle without back-end noise, which must decode it whenever neither
drift event occurs and the layout keeps its promises.
Two more check the pieces those flags are built from: the integer drift
test against its Fraction definition, and the image contact of a region
table against window enumeration on random layouts, overlapping, out of
order and beyond int64 included.
"""

import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from artifact import _layout
from artifact import codec_compound as cc
from artifact import codec_dmc as cd
from artifact import codec_gauss as cg
from artifact._layout import (Drift, Layout, RegionTable, guard_blocks,
                              window_count)
from artifact.channel import Dmc, StateDistribution
from artifact.errors import InvalidConfigError
from oracle import (channel, decide, decode, encode, geometry,
                    row_statistics, sample_states, trace_diagnostics)

unit = st.floats(min_value=0.05, max_value=0.95)


@st.composite
def scheme_params(draw):
    """(scheme, params, a timing law at the design rate, the DMC back end
    or None); the DMC scheme's timing may be constant."""
    scheme = draw(st.sampled_from(("dmc", "gauss", "compound")))
    try:
        if scheme == "compound":
            mu1 = draw(st.floats(min_value=0.4, max_value=1.0))
            mu2 = mu1 + draw(st.floats(min_value=0.1, max_value=0.6))
            rate = draw(st.floats(mu1, mu2))
            k, frac = int(rate), rate - int(rate)
            return scheme, cc.derive_params(
                M=draw(st.integers(4, 8)), epsilon=draw(unit),
                delta=draw(st.floats(min_value=0.05, max_value=0.3)) * mu1,
                mu1=mu1, mu2=mu2, sigma2=0.25), StateDistribution(
                    ((k, 1 - frac), (k + 1, frac))), None
        idc = StateDistribution.deletion(draw(st.floats(0.05, 0.6)))
        if scheme == "gauss":
            return scheme, cg.derive_params(
                M=draw(st.integers(4, 12)), epsilon=draw(unit),
                delta=draw(unit), idc=idc), idc, None
        idc = draw(st.sampled_from([idc] + [StateDistribution.constant(k)
                                            for k in (1, 2, 3)]))
        dmc = Dmc.bsc(draw(st.floats(0.05, 0.3)))
        return scheme, cd.derive_params(
            M=draw(st.integers(2, 12)), epsilon=draw(unit),
            delta=draw(st.floats(0.1, 2.0)), idc=idc, channel=dmc,
            x_star=1), idc, dmc
    except InvalidConfigError:
        assume(False)


def brute_flags(scheme, p, m, a, g):
    """The four flags by definition, window by window."""
    if scheme == "compound":
        lo = Fraction(p.mu1) - Fraction(p.delta)
        hi = Fraction(p.mu2) + Fraction(p.delta)
        n, b, w = p.offsets[m - 1], p.widths[m - 1], p.window_lens
        prefix_out = n > 0 and not (lo * n < a < hi * n)
        burst_out = not (lo * b < g < hi * b)
        slack = n / math.log2(p.M)
    else:
        mu, eps, s2 = Fraction(p.mu), Fraction(p.epsilon), Fraction(p.sigma2)
        d = a - (m - 1) * p.N * mu
        prefix_out = not (d == 0 or d * d < 4 * p.M * p.N * s2 / eps)
        d = g - p.B * mu
        burst_out = not (d == 0 or d * d < 4 * p.B * s2 / eps)
        w = (p.window_len,) * p.M
        slack = p.M / math.log2(p.M) if scheme == "gauss" else 0

    def overlap(pos, k):
        return min(pos + w[k - 1] - 1, a + g) - max(pos, a + 1) + 1

    regions = {k: list(p.layout.regions[k - 1])
               for k in range(1, p.M + 1)}
    silent = all(overlap(pos, k) <= 0 for k in regions if k != m
                 for pos in regions[k])
    covered = g > 0 and any(max(overlap(pos, m), 0) >= w[m - 1] - slack
                            for pos in regions[m])
    return prefix_out, burst_out, silent, covered


def output_length(drift, slots):
    """An output length the run of slots can have (states 0..2), often one
    next to an edge of its drift ball."""
    center = float(drift.rate) * slots
    r = math.sqrt(float(drift.radius_sq + drift.spread_sq * slots * slots))
    edges = [min(max(0, math.floor(x) + k), 2 * slots)
             for x in (center - r, center + r) for k in (-1, 0, 1)]
    return st.one_of(st.integers(0, 2 * slots), st.sampled_from(edges))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(scheme_params(), st.data())
def test_diagnostics_match_window_enumeration(sp, data):
    scheme, p, _, _ = sp
    lay = p.layout
    m = data.draw(st.integers(1, p.M))
    a = data.draw(output_length(lay.prefix_drift, lay.prefix_slots[m - 1]))
    g = data.draw(output_length(lay.burst_drift, lay.burst_slots[m - 1]))
    d = geometry(m, a, g, lay)
    got = (d.prefix_drift_out, d.burst_spread_out, d.wrong_windows_all_zero,
           d.full_burst_window_exists)
    assert got == brute_flags(scheme, p, m, a, g)
    assert (d.prefix_output, d.burst_output) == (a, g)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(scheme_params(), st.integers(0, 2**32 - 1))
def test_noiseless_round_trip(sp, seed):
    """Without back-end noise, idle padding included, a message whose trace
    drifts in neither event decodes to itself exactly when the best window
    of its region fires, and to nothing else.  Wherever a window holding
    all but the layout's slack of the burst fires, that is every such
    message: under constant timing (no drift) the DMC scheme, whose slack
    is 0, decodes them all.  Layouts whose guards fail, or whose idle
    windows fire, promise nothing and are skipped."""
    _, p, idc, dmc = sp
    lay = p.layout
    assume(lay.codeword_len <= 1 << 20 and all(astuple(p.diagnostics)))
    levels = [p.x_star if dmc else p.amplitude(m) for m in range(1, p.M + 1)]

    def fires(k: int, m: int) -> bool:
        """A noiseless window of message m, k of its samples in the burst."""
        probe = np.zeros(lay.window_lens[m - 1],
                         dtype=np.asarray(levels[m - 1]).dtype)
        probe[:max(k, 0)] = levels[m - 1]
        return row_statistics([probe], p, dmc)[0] >= p.threshold

    assume(not any(fires(0, m) for m in range(1, p.M + 1)))
    states = sample_states(idc, lay.codeword_len, seed)
    for m in range(1, p.M + 1):
        d = trace_diagnostics(m, states, lay)
        if d.prefix_drift_out or d.burst_spread_out:
            assert idc.sigma2 > 0
            continue
        assert d.wrong_windows_all_zero and d.full_burst_window_exists
        _, overlap = lay.table.contact(d.prefix_output, d.burst_output)
        own = fires(int(overlap.max(initial=0)), m)
        promised = fires(math.ceil(lay.window_lens[m - 1] - lay.slack[m - 1]),
                         m)
        assert own or not promised
        y = channel(encode(lay, m, levels[m - 1]), states)
        y = np.pad(y, (0, max(0, lay.table.last_end - y.size)))
        assert decode(y, p, dmc) == (m if own else None)


def test_table_flattens_regions_in_message_order():
    p = cc.derive_params(M=32, mu1=0.5, mu2=2.0, delta=0.0, epsilon=0.25,
                         sigma2=0.25)   # positions beyond int64
    t = p.layout.table
    assert t.starts.dtype == object
    assert list(t.starts) == [v for r in p.layout.regions for v in r]
    assert list(t.ends - t.starts + 1) == [
        p.window_lens[k] for k, r in enumerate(p.layout.regions) for _ in r]
    fired = np.zeros(t.starts.size, dtype=bool)
    assert decide(t, fired) is None
    fired[t.bounds[4]] = True
    assert decide(t, fired) == 5
    fired[t.bounds[7] - 1] = True   # last window of message 7
    assert decide(t, fired) is None



def test_window_count_is_len_at_any_size():
    assert all(window_count(range(a, b, s)) == len(range(a, b, s))
               for a in range(-3, 4) for b in range(-3, 9) for s in (1, 2, 5))
    assert window_count(range(1, 3 * 2**70 + 2, 3)) == 2**70 + 1


def test_guard_blocks_rejects_an_overlong_burst_or_an_empty_window(
        monkeypatch):
    # sigma2 = 1/4, epsilon = 1/2: beta^2 = 2*B, so the window is
    # floor(B - sqrt(2*B)) at mu = 1
    layout, guards = guard_blocks(4, 6, 6, 1.0, 0.25, 0.5, step=1, slack=0)
    assert layout.window_lens == (2,) * 4   # B = N fits: floor(6 - sqrt(12))
    assert layout.prefix_slots == (0, 6, 12, 18)
    assert not guards.regions_disjoint
    with pytest.raises(InvalidConfigError, match="does not fit"):
        guard_blocks(4, 6, 7, 1.0, 0.25, 0.5, step=1, slack=0)
    with pytest.raises(InvalidConfigError, match="window collapsed"):
        guard_blocks(4, 6, 2, 1.0, 0.25, 0.5, step=1, slack=0)
    # more messages than windows a plan holds: refused before any
    # per-message tuple is built (a cap of 3 keeps a lost check cheap)
    monkeypatch.setattr(_layout, "MAX_WINDOWS", 3)
    with pytest.raises(InvalidConfigError, match="4 messages exceed 3"):
        guard_blocks(4, 6, 6, 1.0, 0.25, 0.5, step=1, slack=0)

def cumsum_decide(fired, bounds):
    """The unique-region rule by prefix counts of firing windows."""
    seen = np.concatenate(([0], np.cumsum(fired)))
    hits = np.flatnonzero(seen[bounds[1:]] > seen[bounds[:-1]])
    return int(hits[0]) + 1 if hits.size == 1 else None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=12), st.data())
def test_decide_matches_prefix_count_rule(sizes, data):
    """Empty regions included: they never hit, wherever their bound sits."""
    regions, start = [], 1
    for n in sizes:
        regions.append(range(start, start + n))
        start += n + 3
    M = len(sizes)
    table = RegionTable(Layout(
        codeword_len=start, prefix_slots=(0,) * M, burst_slots=(1,) * M,
        prefix_drift=Drift(Fraction(1)), burst_drift=Drift(Fraction(1)),
        window_lens=(2,) * M, regions=tuple(regions), slack=(0,) * M))
    fired = np.array(data.draw(st.lists(st.booleans(), min_size=sum(sizes),
                                        max_size=sum(sizes))), dtype=bool)
    assert decide(table, fired) == cumsum_decide(fired, table.bounds)


def fraction_out(drift, n, slots):
    """Drift.out by its definition, in Fractions."""
    d = n - drift.rate * slots
    return not (d == 0 or d * d < drift.radius_sq
                + drift.spread_sq * slots * slots)


@st.composite
def drift_cases(draw):
    """A drift test and a run length, often with a ball whose edges are
    integers: rate * slots an integer and its radius k, either way the
    test spells a radius (the compound scheme's is all spread)."""
    slots = draw(st.one_of(st.integers(0, 10**4), st.integers(0, 10**30)))
    rate = draw(st.fractions(0, 3, max_denominator=10**6))
    if draw(st.booleans()):
        return Drift(rate, draw(st.fractions(0, 10**6, max_denominator=10**6)),
                     draw(st.fractions(0, 1, max_denominator=10**6))), slots
    q = draw(st.integers(1, 1000))
    rate = Fraction(draw(st.integers(0, 3 * q)), q)
    slots = q * draw(st.integers(1, 10**20))
    k = draw(st.integers(0, 10**6))
    if k and draw(st.booleans()):
        return Drift(rate, spread_sq=Fraction(k, slots) ** 2), slots
    return Drift(rate, Fraction(k * k)), slots


@settings(max_examples=300, deadline=None)
@given(drift_cases(), st.data())
def test_integer_drift_test_matches_fraction_definition(case, data):
    drift, slots = case
    center = drift.rate * slots
    r = math.isqrt(math.floor(drift.radius_sq
                              + drift.spread_sq * slots * slots))
    edges = [math.floor(center) + k for k in (-r - 1, -r, -r + 1, 0, 1,
                                              r - 1, r, r + 1, r + 2)]
    n = data.draw(st.one_of(st.sampled_from(edges),
                            st.integers(0, 2 * slots + 10)))
    assert drift.out(n, slots) == fraction_out(drift, n, slots)


@st.composite
def region_tables(draw):
    """A table over a few random regions, each an arithmetic progression
    of windows of its own length: overlapping or not, in any order, some
    empty, optionally shifted beyond int64."""
    shift = draw(st.sampled_from((0, 1 << 70)))
    regions, lens = [], []
    for _ in range(draw(st.integers(1, 6))):
        first = draw(st.integers(1, 120))
        step = draw(st.integers(1, 9))
        count = draw(st.integers(0, 12))
        regions.append(range(shift + first, shift + first + step * count,
                             step))
        lens.append(draw(st.integers(1, 15)))
    M = len(regions)
    table = RegionTable(Layout(
        codeword_len=250, prefix_slots=(0,) * M, burst_slots=(1,) * M,
        prefix_drift=Drift(Fraction(1)), burst_drift=Drift(Fraction(1)),
        window_lens=tuple(lens), regions=tuple(regions), slack=(0,) * M))
    return table, shift


@settings(max_examples=400, deadline=None)
@given(region_tables(), st.integers(-5, 260), st.integers(-2, 80))
def test_contact_matches_window_enumeration(case, a, g):
    table, shift = case
    a += shift
    want = [(i, min(end, a + g) - max(start, a + 1) + 1)
            for i, (start, end) in enumerate(zip(table.starts, table.ends))]
    want = [(i, ov) for i, ov in want if ov > 0 and g > 0]
    idx, overlap = table.contact(a, g)
    assert list(zip(idx.tolist(), overlap.tolist())) == want
