"""The cold set-up of a streamed report against straightforward builds.

RegionTable, Plan and DmcPlan build their arrays from each region's first
start, step and count, with a few repeat/arange/cumsum expressions; the
equal-block layouts find every region from one integer square root; and
the DMC count vectors fill one array in place.  Each test here rebuilds
the same thing the plain way (a chain of every window position, np.unique,
np.add.at, a depth count and search over every sample, a Fraction test of
every candidate position, an enumeration that splits columns) and asks
for the same arrays, dtype and element types included.  The last tests
count calls: the set-up takes a fixed number of square roots whatever M,
and the DMC plan searches for no window start.
"""

import itertools
import math
import operator
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from artifact import _exact
from artifact import _sparse as sp
from artifact import codec_dmc as cd
from artifact import codec_gauss as cg
from artifact._layout import Drift, Layout, RegionTable
from artifact.channel import Dmc, StateDistribution

BEYOND_INT64 = 1 << 70


def reference_table(layout):
    """starts, ends, lens, bounds and occupied, window by window."""
    regions = layout.regions
    sizes = [len(r) for r in regions]
    last_end = max((r[-1] + w - 1 for r, w in zip(regions, layout.window_lens)
                    if r), default=0)
    dtype = np.int64 if last_end < 1 << 62 else object
    starts = np.fromiter(itertools.chain.from_iterable(regions), dtype=dtype,
                         count=sum(sizes))
    lens = np.repeat(np.array(layout.window_lens, dtype=dtype), sizes)
    return {"starts": starts, "ends": starts + lens - 1, "lens": lens,
            "bounds": np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
            "occupied": np.flatnonzero(sizes)}


def reference_plan(table, eta):
    """lo_idx, hi_idx, scale and cells from np.unique and np.add.at."""
    points = np.unique(np.concatenate((table.starts, table.ends + 1)))
    lo_idx = np.searchsorted(points, table.starts)
    hi_idx = np.searchsorted(points, table.ends + 1)
    depth = np.zeros(points.size, dtype=np.int64)
    np.add.at(depth, lo_idx, 1)
    np.add.at(depth, hi_idx, -1)
    covered = np.cumsum(depth)[:-1] > 0
    scale = np.where(covered,
                     np.sqrt(np.diff(points).astype(np.float64)) * eta, 0.0)
    return {"lo_idx": lo_idx, "hi_idx": hi_idx, "scale": scale,
            "cells": scale.size}


def assert_same(got, want):
    """Equal values, dtype and, for object arrays, element types."""
    if not isinstance(want, np.ndarray):
        assert got == want
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()
    assert [type(v) for v in got.flat] == [type(v) for v in want.flat]


@st.composite
def layouts(draw):
    """A layout over a few regions, each an arithmetic progression: some
    overlapping or duplicated, some empty with a start (and step) beyond
    int64, some single windows with a step beyond int64, and optionally the
    whole table shifted beyond int64 so that it holds Python ints."""
    shift = draw(st.sampled_from((0, BEYOND_INT64)))
    regions = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("run", "run", "run", "copy", "empty",
                                     "single")))
        if kind == "copy" and regions:
            regions.append(draw(st.sampled_from(regions)))
        elif kind == "empty":
            start = draw(st.sampled_from((BEYOND_INT64, 1 << 63, 5)))
            regions.append(range(start, start - draw(st.integers(0, 3)),
                                 draw(st.sampled_from((1, BEYOND_INT64)))))
        elif kind == "single":
            first = shift + draw(st.integers(1, 120))
            regions.append(range(first, first + 1, BEYOND_INT64))
        else:
            first = shift + draw(st.integers(1, 120))
            step = draw(st.integers(1, 9))
            regions.append(range(first, first + step * draw(st.integers(0, 12)),
                                 step))
    return make_layout(regions, draw(st.lists(
        st.integers(1, 15), min_size=len(regions), max_size=len(regions))))


def make_layout(regions, window_lens):
    M = len(regions)
    return Layout(
        codeword_len=250, prefix_slots=(0,) * M, burst_slots=(1,) * M,
        prefix_drift=Drift(Fraction(1)), burst_drift=Drift(Fraction(1)),
        window_lens=tuple(window_lens), regions=tuple(regions), slack=(0,) * M)


# besides the random draws: an int64 table and a Python-int one, each with
# a duplicated region, overlapping windows and an empty region beyond int64
EXAMPLES = [make_layout((range(3, 30, 4), range(BEYOND_INT64, BEYOND_INT64),
                         range(3, 30, 4), range(9, 10, BEYOND_INT64),
                         range(1, 6)), (6, 2, 6, 3, 9)),
            make_layout((range(BEYOND_INT64 + 7, BEYOND_INT64 + 40, 3),
                         range(1 << 63, 1 << 63, BEYOND_INT64),
                         range(BEYOND_INT64 + 7, BEYOND_INT64 + 40, 3)),
                        (5, 1, 5))]


@settings(max_examples=300, deadline=None)
@given(layouts())
@example(EXAMPLES[0])
@example(EXAMPLES[1])
def test_region_table_matches_window_by_window_build(layout):
    table = RegionTable(layout)
    for name, want in reference_table(layout).items():
        assert_same(getattr(table, name), want)


def reference_spans(layout):
    """Layout.spans region by region: the nonempty regions' (first start,
    last end, message index) sorted, and the running reach of the ends."""
    spans = sorted((region[0], region[-1] + w - 1, r) for r, (region, w)
                   in enumerate(zip(layout.regions, layout.window_lens))
                   if len(region))
    return ([first for first, _, _ in spans],
            list(itertools.accumulate((end for _, end, _ in spans), max)),
            [r for _, _, r in spans])


@settings(max_examples=300, deadline=None)
@given(layouts())
@example(EXAMPLES[0])
@example(EXAMPLES[1])
def test_layout_spans_match_the_sorted_regions(layout):
    """Layout.sizes and Layout.spans, array expressions over each region's
    first start, step and count, against len() and a sort of the regions,
    Python ints throughout."""
    assert layout.sizes == tuple(map(len, layout.regions))
    assert [a.tolist() for a in layout.spans] == list(
        reference_spans(layout))
    firsts, reach, _ = reference_spans(layout)
    assert layout.disjoint == all(map(operator.gt, firsts[1:], reach))


@settings(max_examples=300, deadline=None)
@given(layouts(), st.sampled_from((1.0, 0.5, 3.0)))
@example(EXAMPLES[0], 1.0)
@example(EXAMPLES[1], 1.0)
def test_noise_plan_matches_unique_and_add_at_build(layout, eta2):
    params = SimpleNamespace(layout=layout, eta2=eta2, threshold=0.0,
                             amplitude=lambda m: 1.0)
    plan = sp.Plan(params)
    for name, want in reference_plan(layout.table, math.sqrt(eta2)).items():
        assert_same(getattr(plan, name), want)


def fraction_regions(p, step):
    """Every region of an equal-block layout by its definition: the
    positive multiples of step strictly within nu of (m-1)*N*mu + 1, each
    candidate tested in Fractions (message 1: just position 1)."""
    mu = Fraction(p.mu)
    nu_sq = Fraction(4 * p.M * p.N) * Fraction(p.sigma2) / Fraction(p.epsilon)
    reach = math.isqrt(math.ceil(nu_sq)) + 1   # > nu: brackets each region
    regions = [(1,)]
    for m in range(2, p.M + 1):
        c = (m - 1) * p.N * mu + 1
        ks = range(max(1, (math.floor(c) - reach) // step),
                   (math.ceil(c) + reach) // step + 2)
        regions.append(tuple(k * step for k in ks
                             if k * step == c or (k * step - c) ** 2 < nu_sq))
    return regions


@pytest.mark.parametrize("M", [64, 256, 1024, 4096])
def test_gauss_regions_match_fraction_enumeration(M):
    p = cg.derive_params(M=M, epsilon=0.5, delta=0.5,
                         idc=StateDistribution.deletion(0.02))
    assert [tuple(r) for r in p.layout.regions] == fraction_regions(
        p, p.spacing)


# a DMC region holds every integer within nu of its centre, and nu grows
# with the timing jitter: jitter this small keeps N a little above the
# burst length and each region a few dozen positions long
@pytest.mark.parametrize("M,d", [(64, 0.01), (256, 0.003), (1024, 0.0005),
                                 (4096, 0.0001)])
def test_dmc_regions_match_fraction_enumeration(M, d):
    p = cd.derive_params(M=M, epsilon=0.5, delta=0.5,
                         idc=StateDistribution.deletion(d),
                         channel=Dmc.bsc(0.2), x_star=1)
    assert [tuple(r) for r in p.layout.regions] == fraction_regions(p, 1)


@st.composite
def dmc_layouts(draw):
    """Regions of windows one sample apart, all w samples long: apart,
    overlapping, duplicated, touching (the first window one sample past
    the reach of the regions drawn before) or empty, in any order; or
    regions with no window at all."""
    w = draw(st.integers(1, 9))
    regions, reach = [], 0
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("run", "run", "touch", "copy", "empty")))
        n = draw(st.integers(1, 6))
        if kind == "copy" and regions:
            region = draw(st.sampled_from(regions))
        elif kind == "empty":
            start = draw(st.integers(1, 90))
            region = range(start, start)
        elif kind == "touch":
            region = range(reach + 1, reach + 1 + n)
        else:
            first = draw(st.integers(1, 90))
            region = range(first, first + n)
        regions.append(region)
        if region:
            reach = max(reach, region[-1] + w - 1)
    return w, regions


@settings(max_examples=300, deadline=None)
@given(dmc_layouts())
@example((3, [range(5, 9), range(11, 13), range(3, 3), range(5, 9),
              range(8, 10)]))
@example((4, [range(7, 7), range(1, 1)]))
def test_dmc_cells_match_the_depth_count_build(case):
    """DmcPlan's positions, columns and runs, laid out from the regions'
    merged spans, against the depth count and search of oracle.dmc_cells,
    dtype included; the second example has no window."""
    w, regions = case
    layout = make_layout(regions, (w,) * len(regions))
    plan = sp.DmcPlan(SimpleNamespace(layout=layout, threshold=0.0,
                                      window_len=w, x_star=1), Dmc.bsc(0.2))
    for name, want in oracle.dmc_cells(layout.table).items():
        assert_same(getattr(plan, name), want)
    assert plan.cells == plan.positions.size


def enumerated_count_vectors(total, letters):
    """Every count vector, one a column, by splitting each column of the
    counts so far into one per next count 0 .. what it leaves."""
    heads = np.zeros((0, 1), dtype=np.int32)
    left = np.array([total], dtype=np.int32)
    for _ in range(letters - 1):
        reps = left + 1
        count = (np.arange(reps.sum())
                 - np.repeat(np.cumsum(reps) - reps, reps)).astype(np.int32)
        heads = np.vstack((np.repeat(heads, reps, axis=1), count))
        left = np.repeat(left, reps) - count
    return np.vstack((heads, left))


@pytest.mark.parametrize("letters", [1, 2, 3, 4, 5])
def test_count_vectors_fill_the_enumeration_in_place(letters):
    """codec_dmc._count_vectors, filled row by row in one array, against
    the enumeration that splits columns: same columns, same order, int32."""
    for total in range(41):
        assert_same(cd._count_vectors(total, letters),
                    enumerated_count_vectors(total, letters))


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; returns the
    list of each call's positional arguments."""
    calls, inner = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("derive,sizes", [
    (lambda M: cg.derive_params(M=M, epsilon=0.2, delta=0.5,
                                idc=StateDistribution.deletion(0.1)),
     (16, 4096)),
    (lambda M: cd.derive_params(M=M, epsilon=0.25, delta=0.5,
                                idc=StateDistribution.deletion(0.1),
                                channel=Dmc.bsc(0.2), x_star=1),
     (8, 512)),
], ids=["gauss", "dmc"])
def test_equal_block_set_up_takes_a_fixed_number_of_roots(monkeypatch, derive,
                                                          sizes):
    """An equal-block layout's regions share one denominator and one
    radius, so deriving it takes as many square roots at M = 4,096 (512
    on the DMC scheme) as at a small M: the count does not grow with M."""
    calls = counting(monkeypatch, _exact, "ceil_sqrt_frac")
    counts = []
    for M in sizes:
        calls.clear()
        derive(M)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 4


def test_dmc_plan_searches_no_window_start(monkeypatch):
    """DmcPlan lays its columns out from the regions' spans: building it
    makes no np.searchsorted call, over the window starts or otherwise."""
    p = cd.derive_params(M=64, epsilon=0.25, delta=0.5,
                         idc=StateDistribution.deletion(0.1),
                         channel=Dmc.bsc(0.2), x_star=1)
    p.layout.table   # built before the count starts
    calls = counting(monkeypatch, np, "searchsorted")
    plan = sp.DmcPlan(p, Dmc.bsc(0.2))
    assert calls == []
    assert_same(plan.columns, oracle.dmc_cells(p.layout.table)["columns"])
