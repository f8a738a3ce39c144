"""Streamed Monte Carlo trials for the three pulse-position codecs.

A pulse-position codeword is silent except for one burst, and the decoder
only ever looks at its windows, so a trial does not need the received
stream at all.  Given the output length a of the silent prefix and the
width g of the burst image (sums of iid repetition states, sampled
exactly), samples a+1 .. a+g carry the burst and every other sample, the
decoder's padding included, is idle.  What a window reads is then
independent from sample to sample, and a plan turns (a, g) into the
windows that fire:

* Gaussian back ends whose regions share no sample, long and quiet
  (SievePlan): full draws only for the sent message's region and the
  regions the burst image touches.  A region's windows are an arithmetic
  progression, so their joint noise sums have a Toeplitz covariance (the
  samples two windows share), and its normals are coloured with its
  Cholesky factor.  Every other region reads noise alone, and an exact
  union sieve draws its firing pattern from one uniform, plus, with
  probability n * Q(tau), one proposal of n coloured normals (see
  SievePlan).  A trial only draws; its block colours every drawn
  region's normals at once, one matrix product a factor, and counts
  their firing windows, so a trial's row is its M region counts, not a
  row of windows, and its cost follows the regions and the regions that
  may fire, not the windows.  plan_for picks it when no region
  holds more than MAX_FACTOR_WINDOWS windows, the layout has at least
  SIEVE_MIN_WINDOWS windows, every region has n * Q(tau) < 1, the
  sieve's own condition, and every factor exists: the Gaussian scheme
  from M = 24 (and at M = 22) at criterion 5's parameters.
* Gaussian back ends, any layout (Plan): joint noise sums over the
  windows, built from independent increments between window breakpoints
  (white noise restricted to disjoint segments is independent).  It is
  the plan for short layouts, for layouts whose regions overlap, as a
  layout failing its guards may, whose regions are long (small epsilon,
  jittery timing) or fire often, or whose factor fails.
* DMC back end (DmcPlan): one letter per sample some window covers, drawn
  from the burst row of W inside the image and from the idle row outside,
  from one 16-bit lane of a raw generator word and, about once in 2**16
  letters, one more uniform to break a tie (Knuth and Yao's draw: the
  leading bits of a uniform settle almost every letter).  Every window is
  w samples long, and the plan tabulates its verdict once over codes:
  letter 0 weighs 0 and letter y >= 1 (w + 1)**(y - 1), and a window's
  code, the sum of its letters' weights, has its letter counts as digits.
  The codes are sliding sums of the weights, built by doubling in the
  smallest unsigned type that holds them (uint8 at criterion 6's w = 7),
  one a column: a run of w covered samples.  Where the codes that fire
  form one interval, as the counts of letter 1 do on two letters, a
  window fires when its code lies in it; elsewhere its code is looked up.
  The trials compute no statistic.  A region's windows are consecutive
  columns, so one reduceat over the column verdicts counts each region's
  firing windows.

Both Gaussian plans add the burst amplitude times each window's overlap
with the image.  Samples covered by no window never influence any
statistic and are skipped.  The window layout is trial-independent, so it
is planned once per scheme.  Positions are int64 while they fit; the
variable-spacing scheme overflows int64, and its handful of windows hold
Python integers instead (see _layout.RegionTable), through the same numpy
expressions.

Trials run in blocks (stream_trials).  Each trial of a block draws from
its own PCG64 state, seated in the generator the caller passes, in a
fixed order: a, then g, then its row of the plan's normals, or the
sieve's draws (its full regions' normals, one uniform a region, then
its proposals' window indices, tail uniforms, keep uniforms and
normals), or the DMC plan's raw words and then its tie-breaking
uniforms.  Per trial, in Python ints and before the row is drawn,
RegionTable.touching finds the windows the burst image touches as runs
of table indices, from which the sieve takes its full regions, and the
layout's two Drift tests flag a and g.  Everything after the draws is
array passes over the block: every trial's contact windows and
overlaps, from all the runs at once (RegionTable.contacts); the plan's
block pass, verdicts, which adds the Gaussian plans' signal, computes
the window statistics (cumulative or sliding sums along the rows; a DMC
column's code; the sieve's products, one a factor and chunk of rows),
applies the threshold (or the DMC firing table) and counts each
region's firing windows; the two contact flags (_layout.contact_flags);
and the unique-region rule over the counts.  A block holds as many rows
as fit in BLOCK_BYTES bytes, so trials share their numpy calls and the
block's set-up: 6 DMC trials of 39,092 uint8 letters at criterion 6, 85
compound trials of 382 float64 increments at criterion 7, 256 sieved
trials of M = 256 int32 region counts, and a trial of more than 32,768
float64 increments alone.  No result depends on how the trials are split
into blocks, except that the sieve's products over a block's rows may
round a statistic differently in the last bits from products over fewer.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import codec_dmc
from ._layout import _INT64_SAFE, MAX_WINDOWS, contact_flags
from .channel import StateDistribution
from .errors import InvalidConfigError

# numpy's multinomial sampler takes an int64 trial count; beyond that we fall
# back to a rounded-Gaussian sum whose distributional error is far below
# anything a finite trial budget could see (Berry-Esseen ~ n**-0.5 < 1e-9).
EXACT_SUM_MAX = 1 << 61
# most bytes of rows one block of trials draws (32,768 float64 increments,
# six dmc-m64 trials of 39,092 letters, 256 sieved rows at M = 256): its
# trials share the block's numpy calls and fixed cost.  On dmc-m64, 2**17
# bytes (three trials) ran 1.1x the parent's blocks of one for 0.2 MB of
# peak resident set, 2**18 1.34x for 0.9 MB, and 2**19 (thirteen) no
# faster for 2.5 MB (BENCH_23.json)
BLOCK_BYTES = 1 << 18
# most windows a region may hold for SievePlan: each region it draws in
# full, or as a proposal, costs n * n multiply-adds and its factor n * n
# floats, against a few operations a window on the segment Plan
MAX_FACTOR_WINDOWS = 256
# fewest windows for which plan_for picks SievePlan: where the two plans
# crossed before the sieve coloured its normals once a block.  Since then
# the sieve wins at all four layouts that placed it (one BLAS thread,
# shared 2-core host, best of 3 passes of 1,000 trials): gauss M = 40,
# epsilon = 0.5, 1,071 windows, 31 against 55 us a trial on the segment
# plan; M = 23, epsilon = 0.2, 1,215 windows, 39 against 74 us; M = 24,
# 1,326 windows, 40 against 79 us; M = 48, epsilon = 0.5, 1,354 windows,
# 32 against 81 us.  The plans now cross near 530 to 730 windows.  It
# stays at 1,280, because moving it would move seeded numbers.  A
# constant, not block_size, so that a block split never changes the plan.
SIEVE_MIN_WINDOWS = 1280
# most floats of rows one product of SievePlan.statistics colours (128
# KiB): a block's rows of one key go through it in chunks, so that their
# temporaries stay this small however many trials the block holds
SIEVE_CHUNK = 1 << 14
MAX_LETTERS = 1 << 22  # most letters a DMC trial may draw
MAX_CODES = 1 << 24  # most entries of a DMC plan's firing table
# values of a 16-bit lane, a letter's leading uniform bits (DmcPlan.draw)
LANE_VALUES = 1 << 16
_NO_CELLS = np.empty(0, dtype=np.int64)
_NO_FLOATS = np.empty(0)
_NORMAL = NormalDist()  # the standard normal a window's noise is scaled to


def _tail(tau: float) -> float:
    """Q(tau), the chance that one noise-only window reaches tau.  By erfc:
    _NORMAL.cdf(-tau) is 0.5 * (1 + erf), 0 from tau = 8.3 on."""
    return 0.5 * math.erfc(tau * math.sqrt(0.5))


def sample_state_sum(dist: StateDistribution, n: int, rng: np.random.Generator) -> int:
    """Total output length of n iid repetition states, in O(support) time."""
    if n < 0:
        raise ValueError("slot count must be nonnegative")
    if n == 0:
        return 0
    if len(dist.support) == 1:
        return n * dist.support[0][0]
    if n <= EXACT_SUM_MAX:
        counts = rng.multinomial(n, dist.probabilities)
        return sum(map(operator.mul, counts.tolist(), dist.states))
    p, q = dist.mu.as_integer_ratio()
    center = (2 * n * p + q) // (2 * q)  # the integer nearest n * mu
    sd = math.sqrt(n * dist.sigma2)
    val = center + int(round(float(rng.standard_normal()) * sd))
    return min(max(val, 0), n * dist.max_state)


class _TrialPlan:
    """What every plan shares: the layout, its region table and threshold.

    A trial has a row of cells numbers of type dtype in a block array.
    draw(rng, row, m, image, touch) draws a trial that sends m, whose
    burst image is image = (a, g) and touches the windows touch
    (RegionTable.touching), and returns what the block pass needs beyond
    its row: the sieve's draws, None on the other plans.
    verdicts(ms, contacts, draws, drawn) is that one pass over a block:
    from its rows, each trial's message, the block's contacts
    (RegionTable.contacts) and what draw returned for each trial, it
    returns (counts, hits), counts the trials x M int32 firing windows of
    each region, and hits what window_fired(hits) reads to build the
    verdicts trials x windows.
    """

    cells: int
    dtype = np.float64

    def __init__(self, params):
        self.layout = params.layout
        self.table = params.layout.table
        self.threshold = params.threshold

    @property
    def block_size(self) -> int:
        """Trials a block holds: as many rows as fill BLOCK_BYTES bytes."""
        row = self.cells * np.dtype(self.dtype).itemsize
        return max(1, BLOCK_BYTES // row)


class _GaussPlan(_TrialPlan):
    """What the Gaussian plans share: each message's burst amplitude, and
    each window's noise deviation eta * sqrt(len), by which its statistic
    is normalised; a window fires when its statistic reaches the
    threshold."""

    def __init__(self, params):
        super().__init__(params)
        self.eta = math.sqrt(params.eta2)
        self.amplitudes = np.array([params.amplitude(m)
                                    for m in range(1, params.layout.M + 1)])

    def deviation(self, idx) -> np.ndarray:
        """The noise deviations of windows idx (an index array or a
        slice)."""
        return np.sqrt(self.table.lens[idx].astype(np.float64)) * self.eta


class Plan(_GaussPlan):
    """Segment plan of a Gaussian-back-end scheme: serves every layout.

    params is a codec_gauss.GaussSchemeParams or a
    codec_compound.CompoundSchemeParams; the windows are its layout's
    region table.  Window i spans the half-open sample range
    [starts[i], ends[i] + 1).  Increment j covers [points[j], points[j+1]),
    one standard normal a cell; a window's noise is the sum of the
    increments it spans, and only covered segments get a nonzero scale.
    Windows of different regions may share samples, as they do in a
    layout that fails its guards, so this is the plan for such layouts;
    SievePlan serves long and quiet disjoint ones.

    statistics(ms, contacts, draws) gives the block's normalised window
    statistics.
    """

    def __init__(self, params):
        super().__init__(params)
        table = self.table
        self.denom = self.deviation(slice(None))
        # the distinct breakpoints and each window's indices into them, by
        # one sort: a breakpoint's index is the count of distinct values
        # before it.  Stable, because starts and ends are each nearly
        # sorted runs, which timsort merges; np.unique would take numpy's
        # hash path, 20-50x slower at these sizes.
        edges = np.concatenate((table.starts, table.ends + 1))
        order = np.argsort(edges, kind="stable")
        edges = edges[order]
        new = np.empty(edges.size, dtype=bool)
        new[:1] = True
        np.not_equal(edges[1:], edges[:-1], out=new[1:])
        points = edges[new]
        index = np.empty(edges.size, dtype=np.int64)
        index[order] = np.cumsum(new) - 1
        self.lo_idx, self.hi_idx = np.split(index, 2)
        depth = (np.bincount(self.lo_idx, minlength=points.size)
                 - np.bincount(self.hi_idx, minlength=points.size))
        covered = np.cumsum(depth)[:-1] > 0
        self.scale = np.where(
            covered, np.sqrt(np.diff(points).astype(np.float64)) * self.eta,
            0.0)
        self.cells = self.scale.size

    def draw(self, rng: np.random.Generator, out: np.ndarray, m: int,
             image, touch) -> None:
        rng.standard_normal(out=out)

    def statistics(self, ms, contacts, draws: np.ndarray) -> np.ndarray:
        n = draws.shape[0]
        cum = np.zeros((n, self.cells + 1))
        np.cumsum(draws * self.scale, axis=1, out=cum[:, 1:])
        # np.take, not cum[:, idx]: a third of the time on a one-row block
        stat = (np.take(cum, self.hi_idx, axis=1)
                - np.take(cum, self.lo_idx, axis=1))
        # the burst adds amplitude * overlap on the windows its image
        # touches, and on no other
        trial, idx, overlap = contacts
        stat[trial, idx] += (self.amplitudes[np.asarray(ms) - 1][trial]
                             * overlap.astype(np.float64))
        stat /= self.denom
        return stat

    def verdicts(self, ms, contacts, draws: np.ndarray, drawn) -> tuple:
        """(counts, hits), hits the window verdicts."""
        hits = self.statistics(ms, contacts, draws) >= self.threshold
        return self.table.region_counts(hits), hits

    def window_fired(self, hits: np.ndarray) -> np.ndarray:
        return hits


def window_overlaps(n: int, steps, lens) -> np.ndarray:
    """Samples shared by windows k and l of a region of n equal windows,
    max(0, w - s * |k - l|), for each region's step s and length w: shape
    (len(steps), n, n), exact integers, int64 where they fit and Python
    ints beyond (in floats, w - s * d would cancel catastrophically)."""
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    if max(lens) >= _INT64_SAFE or max(steps) * n >= _INT64_SAFE:
        d = d.astype(object)
    dtype = d.dtype
    s = np.array(steps, dtype=dtype).reshape(-1, 1, 1)
    w = np.array(lens, dtype=dtype).reshape(-1, 1, 1)
    return np.maximum(w - s * d, 0)


class SievePlan(_GaussPlan):
    """Gaussian plan of a layout whose regions share no sample: a trial's
    row is its M per-region firing counts, drawn only in the regions the
    burst image touches and the regions that may fire.

    A region is an arithmetic progression of n windows of w samples, step
    s, so the noise sums of its windows have covariance
    eta2 * max(0, w - s * |k - l|), and regions that share no sample are
    independent.  A region drawn in full gets L z, L the Cholesky factor
    of its correlation matrix C (the overlaps over w), plus the burst's
    signal over eta * sqrt(w).  Regions of one size n share one batched
    Cholesky call, and those with the same ratio s / w one factor, a key
    of the plan (keys; region_keys gives each region's, -1 for an empty
    one); the call raises np.linalg.LinAlgError if a matrix is not
    positive definite.  Distinct window starts make every one positive
    definite, but a step tiny against the window length can defeat it in
    floats; plan_for then keeps the segment Plan.

    A region the image does not touch reads noise alone: its statistics X
    are N(0, C), and each of its n windows fires with probability
    q = Q(tau).  When n * q < 1 its firing pattern is drawn exactly,
    mostly without its n normals, by a union sieve: the mixture proposal
    of Owen, Maximov and Chertkov's ALOE sampler (Electron. J. Statist.
    13, 2019).  One uniform makes the
    region a proposal with probability n * q.  A proposal picks a window k
    uniformly, draws X_k from the normal tail beyond tau, -Phi^-1(q * u)
    with u in (0, 1], and the rest given X_k as Y + C[:, k] (X_k - Y_k)
    with Y = L z.  It keeps X with probability 1 / c, c the number of
    windows at or above tau, and otherwise leaves the region silent.  The
    proposal density is n q * sum_k (1 / n) phi_C(x) 1{x_k >= tau} / q =
    c(x) phi_C(x), so X is kept with density phi_C(x) 1{c(x) >= 1}: a
    region fires exactly as under a full draw, up to float rounding, with
    no importance weights.

    A trial draws, after a and g: the normals of its full regions (the
    regions the image touches, and the sent message's) in table order;
    one uniform a region of the table; then, for the proposals in region
    order, their window indices, tail uniforms and keep uniforms, and
    their normals.  draw makes those calls and returns what they drew,
    (full regions, their normals, proposals, window indices, tail
    uniforms, keep uniforms, their normals), and computes nothing from
    it.  The rest is one pass over the block, in verdicts.  rows(drawn)
    lists the block's drawn regions, a row each, grouped by key (each
    region's key is set when the plan is built, so no block sorts).
    statistics colours them a key at a time, at most SIEVE_CHUNK floats
    of rows a product: Z F over the key's rows, then the burst signal of
    the block's contact windows (RegionTable.contacts) on the full rows,
    and on the proposal rows their tails max(-Phi^-1(q (1 - u)), tau)
    and the conditional step.  verdicts compares each chunk with tau into
    one boolean array of the block's rows, counts it with one
    count_nonzero, keeps every full row and each proposal row whose
    keep * c < 1, and writes those counts into the rows, 0 for every
    other region: the rows are the region counts.  The hits are the
    counted regions' windows at or above tau with their (trial, region)
    ids, from which window_fired builds the window verdicts on access.
    No trial's values touch another's, so a block equals its trials one
    at a time, but for rounding: a product over many rows may differ in
    its last bits from one over a few, so a verdict can differ only
    where a statistic lies within that rounding of tau (see the README's
    BLAS paragraph).
    """

    dtype = np.int32   # the region counts as RegionTable.by_message gives

    def __init__(self, params):
        super().__init__(params)
        layout = self.layout
        self.q = _tail(self.threshold)
        self.sizes = np.array(layout.sizes)
        self.propose = self.sizes * self.q  # per region: P(proposal)
        if self.propose.max() >= 1:
            raise ValueError("the sieve needs n * Q(tau) < 1 in every region")
        self.cells = layout.M
        # each occupied region's key: its window count n and its step s
        # over its window length w in lowest terms, which fix the
        # correlations (s = 0 for a single window)
        _, step, n = layout.progressions
        occupied = np.flatnonzero(self.sizes)
        s = np.where(n > 1, step, 0)[occupied]
        w = np.array(layout.window_lens, dtype=s.dtype)[occupied]
        g = np.gcd(s, w)
        keys = list(zip(n[occupied].tolist(), (s // g).tolist(),
                        (w // g).tolist()))
        # per distinct key, in sorted order: (n, its factor transposed,
        # its correlation matrix), from one batched Cholesky call for
        # each n
        distinct = sorted(set(keys))
        self.keys = []
        for size, group in itertools.groupby(distinct,
                                             operator.itemgetter(0)):
            _, steps, lens = zip(*group)
            corr = window_overlaps(size, steps, lens).astype(np.float64)
            corr /= np.array(lens, dtype=np.float64).reshape(-1, 1, 1)
            # C-ordered, as a product with many rows runs faster on it
            factors = np.linalg.cholesky(corr).transpose(0, 2, 1).copy()
            self.keys += [(size, factor, c)
                          for factor, c in zip(factors, corr)]
        index = {key: i for i, key in enumerate(distinct)}
        self.region_keys = np.full(self.sizes.size, -1)
        self.region_keys[occupied] = list(map(index.__getitem__, keys))
        self.width = max(layout.sizes)   # the most windows a region holds

    def draw(self, rng: np.random.Generator, out: np.ndarray, m: int,
             image, touch) -> tuple:
        """The trial's draws, in the order of the class docstring."""
        sizes = self.layout.sizes
        full = sorted({m - 1, *[r for _, _, r in touch[2]]})
        z = rng.standard_normal(sum([sizes[r] for r in full]))
        proposals = [r for r in (rng.random(len(sizes)) < self.propose
                                 ).nonzero()[0].tolist() if r not in full]
        if not proposals:
            return (full, z, proposals, _NO_CELLS, _NO_FLOATS, _NO_FLOATS,
                    _NO_FLOATS)
        ks = rng.integers(self.sizes[proposals])
        tails = rng.random(len(proposals))
        keeps = rng.random(len(proposals))
        z2 = rng.standard_normal(sum([sizes[r] for r in proposals]))
        return full, z, proposals, ks, tails, keeps, z2

    def rows(self, drawn) -> tuple:
        """A block's drawn regions, from what draw returned for each
        trial, a row each: the full ones trial by trial, then the
        proposals.  (trial, region, keep, order, groups): per row its
        trial, its region and its keep uniform (0 for a full row, which
        always counts); order, the rows grouped by key, an empty region's
        in none; groups, (key, rows) for each key in that order."""
        fulls, _, proposals, _, _, keeps, _ = zip(*drawn)
        per_trial = [*map(len, fulls), *map(len, proposals)]
        region = np.fromiter(itertools.chain(*fulls, *proposals),
                             dtype=np.intp, count=sum(per_trial))
        trial = (np.arange(2 * len(drawn)) % len(drawn)).repeat(per_trial)
        keep = np.concatenate((np.zeros(sum(map(len, fulls))), *keeps))
        key = self.region_keys[region]
        groups = [(k, rows) for k, rows in
                  enumerate(np.bincount(key + 1).tolist()[1:]) if rows]
        order = np.concatenate([(key == k).nonzero()[0] for k, _ in groups])
        return trial, region, keep, order, groups

    def statistics(self, ms, contacts, drawn, rows):
        """Each row's statistics, a chunk of at most SIEVE_CHUNK floats of
        one key's rows at a time: yields (lo, hi, x), x the statistics of
        rows order[lo:hi] (rows as rows(drawn) gives them).  A full row
        gets the burst signal of its contact windows; a proposal row is
        the rest given its tail, Y + C[k] (X_k - Y_k)."""
        _, zs, _, ks, tails, _, z2s = zip(*drawn)
        trial, region, _, order, groups = rows
        tau, q = self.threshold, self.q
        # each row's normals follow the row's before it
        normals = np.concatenate(zs + z2s)
        size = self.sizes[region]
        start = size.cumsum() - size
        ks = np.concatenate(ks)
        full = region.size - ks.size   # rows of full regions
        tails = np.array([max(-_NORMAL.inv_cdf(q * (1.0 - u)), tau)
                          for u in np.concatenate(tails).tolist()])
        # each contact window's place in order, its column and its signal:
        # the contacts and the full rows are both in (trial, region) order
        place = np.empty(region.size, dtype=np.intp)
        place[order] = np.arange(order.size)
        trial_c, idx, overlap = contacts
        bounds, M = self.table.bounds, self.cells
        region_c = bounds.searchsorted(idx, "right") - 1
        place_c = place[(trial[:full] * M + region[:full]).searchsorted(
            trial_c * M + region_c)]
        col_c = idx - bounds[region_c]
        signal = (self.amplitudes[np.asarray(ms) - 1][trial_c]
                  * overlap.astype(np.float64) / self.deviation(idx))
        stop = 0
        for k, count in groups:
            n, factor, corr = self.keys[k]
            # row i is normals[i:i + n], a view, so a row's normals are
            # copied once, into the product's left operand
            windows = np.ndarray((normals.size - n + 1, n), buffer=normals,
                                 strides=normals.strides * 2)
            chunk = max(1, SIEVE_CHUNK // n)
            first, stop = stop, stop + count
            for lo in range(first, stop, chunk):
                hi = min(lo + chunk, stop)
                at = order[lo:hi]
                x = windows[start[at]] @ factor
                row_c = place_c - lo
                mine = ((row_c >= 0) & (row_c < hi - lo)).nonzero()[0]
                x[row_c[mine], col_c[mine]] += signal[mine]
                p = at.searchsorted(full)   # the proposals come last
                if p < at.size:
                    j, y = at[p:] - full, x[p:]
                    r, k_j, tail = np.arange(j.size), ks[j], tails[j]
                    step = corr[k_j]
                    step *= (tail - y[r, k_j])[:, None]
                    y += step
                    y[r, k_j] = tail
                yield lo, hi, x

    def verdicts(self, ms, contacts, draws: np.ndarray, drawn) -> tuple:
        """(draws, (trials, trial, region, hits)): draws filled with the
        block's region counts, its number of trials, and each counted
        region's windows at or above tau, hits[i, j] for window j of
        region region[i] of trial trial[i] (False past the region's
        windows)."""
        rows = self.rows(drawn)
        trial, region, keep, order, _ = rows
        hits = np.zeros((order.size, self.width), dtype=bool)
        for lo, hi, x in self.statistics(ms, contacts, drawn, rows):
            np.greater_equal(x, self.threshold, out=hits[lo:hi, :x.shape[1]])
        count = np.count_nonzero(hits, axis=1)
        kept = (keep[order] * count < 1.0).nonzero()[0]
        counted = order[kept]
        trial, region = trial[counted], region[counted]
        draws.fill(0)
        draws[trial, region] = count[kept]
        return draws, (draws.shape[0], trial, region, hits[kept])

    def window_fired(self, hits: tuple) -> np.ndarray:
        """The counted regions' windows at or above tau, and False in
        every other window."""
        trials, trial, region, hits = hits
        fired = np.zeros((trials, self.table.starts.size), dtype=bool)
        i, j = np.nonzero(hits)
        fired[trial[i], self.table.bounds[region[i]] + j] = True
        return fired


def _cdf(row: np.ndarray) -> np.ndarray:
    """Normalised CDF of a pmf, as Generator.choice builds it."""
    cdf = np.cumsum(row)
    return cdf / cdf[-1]


def _split(cdf: np.ndarray) -> list[tuple[int, float]]:
    """Each cdf entry c but the last as (t, f) with c * 2**16 = t + f, t an
    integer and 0 <= f < 1.  Exact: scaling by a power of two and taking
    a float's fractional part round nothing."""
    scaled = cdf[:-1] * LANE_VALUES
    t = np.floor(scaled)
    return list(zip(t.astype(np.int64).tolist(), (scaled - t).tolist()))


def _letters(lanes: np.ndarray, split, out: np.ndarray) -> np.ndarray:
    """Fill out with each lane's letter, the split entries (t, f) with
    t <= lane, and return the cells whose lane ties an entry with f > 0
    (lane == t), ascending: their letter also needs the lane's trailing
    bits, and is too large by the tied entries those bits fall below."""
    reach = [t for t, _ in split if t < LANE_VALUES]   # no lane reaches 2**16
    if reach:
        np.greater_equal(lanes, reach[0], out=out.view(np.bool_))
    else:
        out.fill(0)
    for t in reach[1:]:
        out += lanes >= t
    ties = None
    for t in {t for t, f in split if f}:
        hit = lanes == t
        if hit.any():
            ties = hit if ties is None else ties | hit
    return _NO_CELLS if ties is None else np.flatnonzero(ties)


class DmcPlan(_TrialPlan):
    """Trial-independent letter plan of the DMC scheme.

    positions holds, in order, every sample some window covers, and a
    trial's row holds their letters, one uint8 a cell.  Every window is
    window_len samples long, so window i reads the consecutive cells
    columns[i] .. columns[i] + window_len - 1, also where regions overlap.
    Both come from the regions' spans (Layout.spans) in closed form: the
    sorted spans merge into runs of covered samples wherever a region
    starts within the reach of those before it, positions is each merged
    span's samples in turn, and window k of a region that starts at first
    in the merged span from start, whose cells begin at column offset, is
    column offset + (first - start) + k.  No search over the window
    starts and no pass over every sample up to the last.

    A letter comes from the leading bits of its uniform first (Knuth and
    Yao, 1976).  draw reads ceil(cells / 4) raw 64-bit words as 16-bit
    lanes, little-endian, one a cell.  Each cdf entry c (idle_cdf outside
    the burst image, burst_cdf inside) splits exactly as c * 2**16 = t +
    f, and with u = (lane + V) / 2**16, u < c exactly when lane < t, or
    lane = t and V < f.  V is one Generator.random() a cell whose lane
    ties an entry with f > 0, drawn in cell order after the words: about
    cells / 2**16 of them.  The letter is then the first y with u < c[y],
    to within 2**-69 of that law (V has 53 bits); an entry of 0.0 or 1.0
    splits with f = 0 and is met exactly, so zero-probability letters are
    never drawn.

    Letter 0 weighs 0 and letter y >= 1 weighs (w + 1)**(y - 1), w =
    window_len, so a window's code, the sum of its letters' weights, holds
    its count of letter y as base-(w + 1) digit y - 1, and codes run below
    (w + 1)**(K - 1) on K letters.  firing[code] says whether that count
    vector's statistic (codec_dmc._stats_from_counts, in the threshold's
    own float order, so ties stay ties bit for bit) reaches the
    threshold; a code whose digits sum past w is no window's and stays
    False.  codes() gives every column j's code, the sliding sum of the
    weights of the window_len cells from cell j, exact in code_dtype, the
    smallest unsigned type that holds every code.  On two letters the
    weights are the letters, so the row is summed as it is.

    Where the firing codes form one run lo..hi (firing_run, in
    code_dtype), as on two letters, whose statistic is monotone in the
    count of letter 1, a window fires when lo <= code <= hi; otherwise
    its code is looked up in the table.  Window i is column columns[i],
    and a region's windows, one sample apart, are consecutive columns, so
    verdicts counts each region's run of column verdicts by one reduceat,
    with no per-window gather; window_fired gathers the columns on
    access.
    """

    dtype = np.uint8

    def __init__(self, params, channel):
        super().__init__(params)
        table, layout = self.table, self.layout
        _, step, n = layout.progressions
        if np.any(step[n > 1] != 1):
            raise ValueError("the DMC plan needs windows one sample apart")
        # the sorted regions' spans, merged: a merged span opens where a
        # region starts past the reach of those before it, covers start[j]
        # .. end[j] and takes the columns from offset[j] on
        firsts, reach, order = (a.astype(np.int64) for a in layout.spans)
        opens = np.ones(firsts.size, dtype=bool)
        opens[1:] = firsts[1:] > reach[:-1]
        closes = np.ones_like(opens)
        closes[:-1] = opens[1:]
        start, end = firsts[opens], reach[closes]
        length = end - start + 1
        offset = np.cumsum(length) - length
        self.positions = np.arange(length.sum())
        self.positions += np.repeat(start - offset, length)
        self.cells = self.positions.size
        self.words = -(-self.cells // 4)
        # window k of region r, the order[i]-th, in merged span j, is
        # column offset[j] + (first_r - start[j]) + k: its start's, less
        # start[j] - offset[j]
        j = np.cumsum(opens) - 1
        shift = np.zeros(layout.M, dtype=np.int64)
        shift[order] = start[j] - offset[j]
        sizes = np.diff(table.bounds)
        self.columns = table.starts - np.repeat(shift, sizes)
        # each occupied region's run of columns [first, first + n), start
        # and end interleaved, so that runs that overlap or come in any
        # order stay right; reduceat's other sums, between runs, are
        # dropped
        occupied = table.occupied
        first = self.columns[table.bounds[occupied]]
        self.runs = np.stack((first, first + sizes[occupied]), axis=1).ravel()
        self.window_len = w = params.window_len
        self.idle_cdf = _cdf(channel.w[0])
        self.burst_cdf = _cdf(channel.w[params.x_star])
        self.idle_split = _split(self.idle_cdf)
        self.burst_split = _split(self.burst_cdf)
        letters = channel.num_outputs
        weights = np.concatenate(([0], (w + 1) ** np.arange(letters - 1)))
        size = int(weights[-1]) * (w + 1)
        self.code_dtype = np.min_scalar_type(size - 1)
        # on two letters the weights are the letters: the row as it is
        self.weights = (None if letters == 2
                        else weights.astype(self.code_dtype))
        # a slice of count vectors at a time, so that their codes and
        # statistics stay small scratch arrays
        counts = codec_dmc._count_vectors(w, letters)
        tables = codec_dmc._llr_tables(channel, params.x_star)
        self.firing = np.zeros(size, dtype=bool)
        for i in range(0, counts.shape[1], codec_dmc._SLICE):
            part = counts[:, i:i + codec_dmc._SLICE]
            self.firing[weights @ part] = codec_dmc._stats_from_counts(
                part, *tables) >= self.threshold
        fires = np.flatnonzero(self.firing)
        run = fires.size and fires[-1] - fires[0] + 1 == fires.size
        self.firing_run = (fires[[0, -1]].astype(self.code_dtype) if run
                           else None)

    def draw(self, rng: np.random.Generator, out: np.ndarray, m: int,
             image, touch) -> None:
        lanes = rng.bit_generator.random_raw(self.words).astype(
            "<u8", copy=False).view("<u2")[:self.cells]
        a, g = image
        i0, i1 = self.positions.searchsorted((a + 1, a + g + 1)).tolist()
        ties = _letters(lanes, self.idle_split, out)
        burst = _letters(lanes[i0:i1], self.burst_split, out[i0:i1])
        if not (ties.size or burst.size):   # most trials: no lane ties
            return
        ties = np.concatenate((ties[ties < i0], burst + i0, ties[ties >= i1]))
        if not ties.size:
            return
        for i, v in zip(ties.tolist(), rng.random(ties.size).tolist()):
            split = self.burst_split if i0 <= i < i1 else self.idle_split
            lane = int(lanes[i])
            out[i] -= sum(t == lane and v < f for t, f in split)

    def codes(self, letters: np.ndarray) -> np.ndarray:
        """codes[t, j]: the code of column j of trial t, whose letter row
        is letters[t], the weights of its window_len cells from cell j
        summed in code_dtype.

        Sums over 2**k consecutive cells come by doubling, and one of them
        is added for each binary digit of window_len: about log2 w +
        popcount(w) vector adds, each exact in code_dtype, as no window_len
        cells weigh more than the largest code.
        """
        w = self.window_len
        n = letters.shape[1] - w + 1
        if self.weights is None:
            part = letters.astype(self.code_dtype, copy=False)
        else:   # np.take(weights, letters) widens every cell to an intp
            part = (letters == 1).astype(self.code_dtype)
            for y in range(2, self.weights.size):
                part += (letters == y) * self.weights[y]
        # part[:, j] sums cells j .. j + span - 1, and sums[:, j] the
        # cells j .. j + at - 1
        span, at, sums = 1, 0, None
        while True:
            if w & span:
                piece = part[:, at:at + n]
                sums = piece if sums is None else sums + piece
                at += span
            if 2 * span > w:
                return sums
            part = part[:, :-span] + part[:, span:]
            span *= 2

    def verdicts(self, ms, contacts, draws: np.ndarray, drawn) -> tuple:
        """(counts, hits), hits trials x (columns + 1): each column's
        verdict, and a last column, False, that keeps every run's end in
        reduceat's range."""
        n = draws.shape[1] - self.window_len + 1
        hits = np.zeros((draws.shape[0], n + 1), dtype=bool)
        codes = self.codes(draws)
        if self.firing_run is None:
            np.take(self.firing, codes, out=hits[:, :n])
        else:
            lo, hi = self.firing_run
            np.greater_equal(codes, lo, out=hits[:, :n])
            if hi < self.firing.size - 1:  # no window has a larger code
                hits[:, :n] &= codes <= hi
        counts = np.add.reduceat(hits, self.runs, axis=1,
                                 dtype=self.table.count_dtype)[:, ::2]
        return self.table.by_message(counts), hits

    def window_fired(self, hits: np.ndarray) -> np.ndarray:
        return np.take(hits, self.columns, axis=1)


def plan_for(params, channel=None) -> _TrialPlan:
    """The streamed-trial plan of a scheme's params; channel is the DMC
    back end, read only for codec_dmc params.

    A layout whose regions hold more than MAX_WINDOWS windows or, for the
    DMC scheme, whose trials would draw more than MAX_LETTERS letters or
    whose firing table would hold more than MAX_CODES codes is refused
    from its sizes alone, before any window is laid out.
    For the Gaussian back ends: the sieve when no two regions share a
    sample, none holds more than MAX_FACTOR_WINDOWS windows, the layout
    has at least SIEVE_MIN_WINDOWS windows, every region has
    n * Q(tau) < 1 (long layouts whose regions rarely fire) and every
    region's covariance factors; otherwise the segment plan.
    """
    layout = params.layout
    sizes = layout.sizes
    windows = sum(sizes)
    if windows > MAX_WINDOWS:
        raise InvalidConfigError(
            f"the decision regions hold {windows} windows, which exceeds "
            f"{MAX_WINDOWS}, the most a trial plan holds")
    if isinstance(params, codec_dmc.DmcSchemeParams):
        # samples region r's windows cover, counting shared ones once per
        # region: an upper bound on the letters a trial draws
        letters = sum(min(n * w, (n - 1) * r.step + w) for r, w, n
                      in zip(layout.regions, layout.window_lens, sizes) if n)
        if letters > MAX_LETTERS:
            raise InvalidConfigError(
                f"a DMC trial would draw up to {letters} letters, which "
                f"exceeds {MAX_LETTERS}")
        codes = (params.window_len + 1) ** (channel.num_outputs - 1)
        if codes > MAX_CODES:
            raise InvalidConfigError(
                f"the firing table of {params.window_len}-letter windows "
                f"over {channel.num_outputs} letters would hold {codes} "
                f"codes, which exceeds {MAX_CODES}")
        return DmcPlan(params, channel)
    if (layout.disjoint and max(sizes) <= MAX_FACTOR_WINDOWS
            and windows >= SIEVE_MIN_WINDOWS
            and max(sizes) * _tail(params.threshold) < 1):
        try:
            return SievePlan(params)
        except np.linalg.LinAlgError:
            pass
    return Plan(params)


@dataclass(frozen=True, eq=False)
class TrialBlock:
    decoded: np.ndarray  # per trial: the decoded message, 0 for none
    flags: dict[str, np.ndarray]  # the flags of _layout.FLAGS: a bool a trial
    prefix_output: np.ndarray  # per trial: a, samples the prefix put out
    burst_output: np.ndarray  # per trial: g, the burst image's width
    region_fired: np.ndarray  # trials x messages: firing windows per region
    approximate_sums: int  # trials that drew a rounded-Gaussian state sum
    plan: _TrialPlan  # the plan that ran the block
    verdicts: object  # the hits of the plan's verdicts, for window_fired

    @property
    def fired(self) -> np.ndarray:
        """trials x windows of the region table, built on access."""
        return self.plan.window_fired(self.verdicts)


def stream_trials(plan: _TrialPlan, ms, dist: StateDistribution,
                  states, gen: np.random.Generator) -> TrialBlock:
    """A block of encode/transmit/decode rounds without materializing any
    stream: trial t sends message ms[t] and draws from gen seated at the
    full PCG64 state dict states[t] (rng.pcg64_states), which then draws
    what a generator built at that state would."""
    layout, table = plan.layout, plan.table
    prefix, burst = layout.prefix_slots, layout.burst_slots
    ms = [int(m) for m in ms]
    if not 1 <= min(ms, default=1) <= max(ms, default=1) <= layout.M:
        for m in ms:   # the first message out of range raises
            layout.check_message(m)
    # sample_state_sum's rounded-Gaussian path: random states and a run of
    # more than EXACT_SUM_MAX slots
    approximate = sum(max(prefix[m - 1], burst[m - 1]) > EXACT_SUM_MAX
                      for m in ms) if len(dist.support) > 1 else 0
    draws = np.empty((len(ms), plan.cells), dtype=plan.dtype)
    images, touches, drawn, drifts = [], [], [], []
    for m, state, row in zip(ms, states, draws, strict=True):
        gen.bit_generator.state = state
        a = sample_state_sum(dist, prefix[m - 1], gen)
        g = sample_state_sum(dist, burst[m - 1], gen)
        touch = table.touching(a, g)
        drawn.append(plan.draw(gen, row, m, (a, g), touch))
        images.append((a, g))
        touches.append(touch)
        drifts.append((layout.prefix_drift.out(a, prefix[m - 1]),
                       layout.burst_drift.out(g, burst[m - 1])))
    prefix_output, burst_output = np.array(images, dtype=object).T
    prefix_out, burst_out = np.array(drifts).T
    contacts = table.contacts(touches)
    counts, hits = plan.verdicts(ms, contacts, draws, drawn)
    return TrialBlock(decoded=table.decide_rows(counts),
                      flags={"prefix_drift_out": prefix_out,
                             "burst_spread_out": burst_out,
                             **contact_flags(layout, ms, burst_output,
                                             contacts)},
                      prefix_output=prefix_output, burst_output=burst_output,
                      region_fired=counts,
                      approximate_sums=approximate, plan=plan,
                      verdicts=hits)
