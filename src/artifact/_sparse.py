"""Streamed Monte Carlo trials for the three pulse-position codecs.

A pulse-position codeword is silent except for one burst, and the decoder
only ever looks at its windows, so a trial does not need the received
stream at all.  Given the output length a of the silent prefix and the
width g of the burst image (sums of iid repetition states, sampled
exactly), samples a+1 .. a+g carry the burst and every other sample, the
decoder's padding included, is idle.  What a window reads is then
independent from sample to sample, and a plan turns (a, g) into the
windows that fire:

* Gaussian back ends whose regions share no sample (WindowPlan): one
  standard normal per window.  A region's windows are an arithmetic
  progression, so their joint noise sums have a Toeplitz covariance
  (the samples two windows share), and each region's normals are
  coloured with its Cholesky factor.  harness._make_plan picks this plan
  whenever the regions are disjoint, none holds more than
  MAX_FACTOR_WINDOWS windows and every factor exists, unless the sieve
  serves the layout too.
* The same layouts, long and quiet (SievePlan): full coloured draws only
  for the sent message's region and the regions the burst image touches;
  every other region reads noise alone, and an exact union sieve draws
  its firing pattern from one uniform, plus, with probability
  n * Q(tau), one proposal of n normals (see SievePlan).  A trial's cost
  then follows the regions and the regions that may fire, not the
  windows.  harness._make_plan picks it when the layout has at least
  SIEVE_MIN_WINDOWS windows, so that a full draw would fill a block
  alone, and every region has n * Q(tau) < 1, the sieve's own condition:
  the Gaussian scheme from M = 102 at criterion 5's parameters.
* Gaussian back ends, any layout (Plan): joint noise sums over the
  windows, built from independent increments between window breakpoints
  (white noise restricted to disjoint segments is independent).  It is
  the plan for layouts whose regions overlap, as a layout failing its
  guards may, whose regions are long (small epsilon, jittery timing), or
  whose factor fails.
* DMC back end (DmcPlan): one letter per sample some window covers, drawn
  from the burst row of W inside the image and from the idle row outside,
  and counted per window.

The Gaussian plans add the burst amplitude times each window's overlap
with the image.  Samples covered by no window never influence any
statistic and are skipped.  The window layout is trial-independent, so it
is planned once per scheme.  Positions are int64 while they fit; the
variable-spacing scheme overflows int64, and its handful of windows hold
Python integers instead (see _layout.RegionTable), through the same numpy
expressions.

Trials run in blocks (stream_trials).  Each trial of a block draws from
its own generator, in a fixed order: a, then g, then its row of the plan's
normals or letter uniforms, or the sieve's draws.  Per trial there is one
image-contact pass (RegionTable.contact), the windows the burst image
touches, before the row is drawn; it carries the Gaussian signal, tells
the sieve which regions to draw in full, and fixes the geometry flags.
Everything after the draws is one numpy pass over the block: the window
statistics (cumulative sums along the rows, or one matmul per trial and
factor, so bit for bit those of each trial alone), the threshold and the
unique-region rule.  A block holds at most BLOCK_CELLS row cells, so long
trials run one at a time and short ones share their numpy calls; no
result depends on how the trials are split into blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import codec_dmc
from ._layout import _INT64_SAFE, TraceDiagnostics, contact_diagnostics
from .channel import StateDistribution
from .rng import as_generator

# numpy's multinomial sampler takes an int64 trial count; beyond that we fall
# back to a rounded-Gaussian sum whose distributional error is far below
# anything a finite trial budget could see (Berry-Esseen ~ n**-0.5 < 1e-9).
EXACT_SUM_MAX = 1 << 61
# most numbers one block of trials draws, so that a block array (128 KiB)
# stays in a core's cache and a block adds no measurable peak memory
BLOCK_CELLS = 1 << 14
# most windows a region may hold for WindowPlan: colouring costs n
# multiply-adds a window and its factor n * n floats, against one normal
# and a cumulative sum a window more for Plan, which is the faster from
# about 500 windows a region (one core, OpenBLAS)
MAX_FACTOR_WINDOWS = 256
# fewest windows for which harness._make_plan picks SievePlan: from here a
# full draw fills a block of BLOCK_CELLS alone, so the window plan has no
# numpy calls to share between trials.  Short layouts share them: criterion
# 7 (193 windows, 84 trials a block) ran 60-67 us a trial with the window
# plan and 88-103 us sieved (2 cores).  A constant, not block_size, so that
# a block split never changes the plan.
SIEVE_MIN_WINDOWS = BLOCK_CELLS // 2 + 1


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
        return int(sum(int(c) * k for c, (k, _) in zip(counts, dist.support)))
    p, q = dist.mu.as_integer_ratio()
    center = (2 * n * p + q) // (2 * q)  # the integer nearest n * mu
    sd = math.sqrt(n * dist.sigma2)
    val = center + int(round(float(rng.standard_normal()) * sd))
    return min(max(val, 0), n * dist.max_state)


class _TrialPlan:
    """What every plan shares: the layout, its region table and threshold.

    A trial has a row of cells numbers in a block array: draw(rng, row, m,
    contact) fills it for a trial that sends m and whose burst image has
    that contact (RegionTable.contact), one draw a cell except in the
    sieve.  fired(ms, images, contacts, draws) turns a block's rows, with
    each trial's message, burst image (a, g) and image contact, into
    window verdicts, trials x windows.  Plans keep no scratch buffers, so
    threaded blocks can share one.
    """

    cells: int

    def __init__(self, params):
        self.layout = params.layout
        self.table = params.layout.table
        self.threshold = params.threshold

    @property
    def block_size(self) -> int:
        """Trials a block holds: as many as fill BLOCK_CELLS cells."""
        return max(1, BLOCK_CELLS // self.cells)


class _GaussPlan(_TrialPlan):
    """What the Gaussian plans share: one standard normal per cell (the
    sieve draws its own), each message's burst amplitude, and each
    window's noise deviation eta * sqrt(len), by which its statistic is
    normalised.

    statistics(ms, contacts, draws) gives the block's normalised
    window statistics; a window fires when its statistic reaches the
    threshold.
    """

    def __init__(self, params):
        super().__init__(params)
        self.eta = math.sqrt(params.eta2)
        self.denom = np.sqrt(self.table.lens.astype(np.float64)) * self.eta
        self.amplitudes = np.array([params.amplitude(m)
                                    for m in range(1, params.layout.M + 1)])

    def draw(self, rng: np.random.Generator, out: np.ndarray, m: int,
             contact) -> None:
        rng.standard_normal(out=out)

    def signal(self, ms, contacts):
        """(rows, cols, values): the burst adds amplitude * overlap on the
        windows its image touches, and on no other."""
        sizes = [idx.size for idx, _ in contacts]
        rows = np.repeat(np.arange(len(sizes)), sizes)
        cols = np.concatenate([idx for idx, _ in contacts])
        amplitude = np.repeat(self.amplitudes[np.asarray(ms) - 1], sizes)
        return rows, cols, amplitude * np.concatenate(
            [overlap for _, overlap in contacts]).astype(np.float64)

    def fired(self, ms, images, contacts, draws: np.ndarray) -> np.ndarray:
        return self.statistics(ms, contacts, draws) >= self.threshold


class Plan(_GaussPlan):
    """Segment plan of a Gaussian-back-end scheme: serves every layout.

    params is a codec_gauss.GaussSchemeParams or a
    codec_compound.CompoundSchemeParams; the windows are its layout's
    region table.  Window i spans the half-open sample range
    [starts[i], ends[i] + 1).  Increment j covers [points[j], points[j+1]);
    a window's noise is the sum of the increments it spans, and only
    covered segments get a nonzero scale.  Windows of different regions
    may share samples, as they do in a layout that fails its guards, so
    this is the plan for such layouts; WindowPlan serves the rest.
    """

    def __init__(self, params):
        super().__init__(params)
        table = self.table
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

    def statistics(self, ms, contacts, draws: np.ndarray) -> np.ndarray:
        n = draws.shape[0]
        cum = np.zeros((n, self.cells + 1))
        np.cumsum(draws * self.scale, axis=1, out=cum[:, 1:])
        # np.take, not cum[:, idx]: a third of the time on a one-row block
        stat = (np.take(cum, self.hi_idx, axis=1)
                - np.take(cum, self.lo_idx, axis=1))
        rows, cols, signal = self.signal(ms, contacts)
        stat[rows, cols] += signal
        stat /= self.denom
        return stat


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


class WindowPlan(_GaussPlan):
    """Window plan of a Gaussian-back-end scheme whose regions are disjoint.

    A trial draws one standard normal per window, in table order.  A
    region is an arithmetic progression of n windows of w samples, step s,
    so the noise sums of its windows have covariance
    eta2 * max(0, w - s * |k - l|), and regions that share no sample are
    independent.  Each region's normals are coloured with the Cholesky
    factor L of its correlation matrix (the overlaps over w): its
    statistics are L z plus the burst's signal over eta * sqrt(w).
    Regions of one size n share one batched Cholesky call and one matmul,
    and those with the same ratio s / w share one factor; the call raises
    np.linalg.LinAlgError if any block is not positive definite.  Distinct
    window starts make every block positive definite, but a step tiny
    against the window length can defeat it in floats; harness._make_plan
    then keeps the segment Plan, as it does for a layout this plan does
    not serve.

    blocks lists, per region size n, (windows, shape, factor): the table
    indices of those regions' windows, a slice when they are consecutive;
    the shape of their draws, (regions, n) under one shared factor or
    (regions, 1, n) under one factor a region; and the factor or factors
    transposed, so that one matmul colours the block's rows.  The matmul
    runs one product a trial, with the same operands however many trials
    the block holds, so a block's statistics are bit for bit those of its
    trials one at a time.
    """

    @staticmethod
    def serves(layout) -> bool:
        """Whether no two regions share a sample and none holds more than
        MAX_FACTOR_WINDOWS windows."""
        return layout.table.disjoint and max(
            map(len, layout.regions)) <= MAX_FACTOR_WINDOWS

    def __init__(self, params):
        super().__init__(params)
        layout, bounds = self.layout, self.table.bounds.tolist()
        self.cells = bounds[-1]
        # per window count n: each such region and its first window, the
        # distinct (s, w) in lowest terms (s / w fixes the correlations),
        # and which of them each region has
        sizes: dict[int, tuple[list[int], list[int], dict, list[int]]] = {}
        for r, (region, w, first) in enumerate(zip(
                layout.regions, layout.window_lens, bounds)):
            n = len(region)
            if n:
                s = region.step if n > 1 else 0
                g = math.gcd(s, w)
                regions, firsts, keys, which = sizes.setdefault(
                    n, ([], [], {}, []))
                regions.append(r)
                firsts.append(first)
                which.append(keys.setdefault((s // g, w // g), len(keys)))
        self.blocks = []
        # per window count: its regions, which (s, w) each has, and the
        # factors (transposed) and correlation matrices of those
        self.classes = []
        for n, (regions, firsts, keys, which) in sizes.items():
            steps, lens = zip(*keys)
            corr = window_overlaps(n, steps, lens).astype(np.float64)
            corr /= np.array(lens, dtype=np.float64).reshape(-1, 1, 1)
            factors = np.linalg.cholesky(corr).transpose(0, 2, 1)
            self.classes.append((regions, which, factors, corr))
            idx = (np.array(firsts)[:, None] + np.arange(n)).ravel()
            if idx[-1] - idx[0] + 1 == idx.size:
                idx = slice(int(idx[0]), int(idx[-1]) + 1)
            # one shared factor, or one per region
            self.blocks.append(
                (idx, (len(firsts), n), np.ascontiguousarray(factors[0]))
                if len(keys) == 1 else
                (idx, (len(firsts), 1, n), factors[which]))

    def statistics(self, ms, contacts, draws: np.ndarray) -> np.ndarray:
        n = draws.shape[0]
        stat = np.empty_like(draws)
        for idx, shape, factor in self.blocks:
            stat[:, idx] = np.matmul(draws[:, idx].reshape(n, *shape),
                                     factor).reshape(n, -1)
        rows, cols, signal = self.signal(ms, contacts)
        stat[rows, cols] += signal / self.denom[cols]
        return stat


class SievePlan(WindowPlan):
    """Window plan that draws only the regions the burst image touches and
    the regions that may fire.

    A region the image does not touch reads noise alone: its statistics X
    are N(0, C), C its correlation matrix (unit diagonal), and each of its
    n windows fires with probability q = Q(tau).  When n * q < 1 its
    firing pattern is drawn exactly, mostly without its n normals, by a
    union sieve: the mixture proposal of Owen, Maximov and Chertkov's
    ALOE sampler (Electron. J. Statist. 13, 2019).  One uniform makes the
    region a proposal with probability n * q.  A proposal picks a window k
    uniformly, draws X_k from the normal tail beyond tau, -ndtri(q * u)
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
    their normals.  Its row holds the full regions' statistics, burst
    signal included, each kept proposal's X, and -inf, below any
    threshold, in every other window.  Nothing a trial draws or computes
    touches another row, so a block equals its trials one at a time.
    """

    @staticmethod
    def serves(params) -> bool:
        """Whether the window plan serves params' layout, it has at least
        SIEVE_MIN_WINDOWS windows, and every region has n * Q(tau) < 1."""
        layout = params.layout
        return (WindowPlan.serves(layout)
                and layout.table.bounds[-1] >= SIEVE_MIN_WINDOWS
                and max(map(len, layout.regions))
                * float(ndtr(-params.threshold)) < 1)

    def __init__(self, params):
        super().__init__(params)
        self.q = float(ndtr(-self.threshold))
        self.sizes = np.diff(self.table.bounds)
        self.propose = self.sizes * self.q  # per region: P(proposal)
        if self.propose.max() >= 1:
            raise ValueError("the sieve needs n * Q(tau) < 1 in every region")
        # per window: its region
        self.owner = np.repeat(np.arange(self.sizes.size), self.sizes)
        # per region: its factor transposed and its correlation matrix
        # (None for an empty region), views into the window plan's arrays
        self.region_factors = [None] * self.sizes.size
        for regions, which, factors, corr in self.classes:
            for r, key in zip(regions, which):
                self.region_factors[r] = (factors[key], corr[key])
        # per region: its first window and window count, as Python ints
        self.spans = list(zip(self.table.bounds[:-1].tolist(),
                              self.sizes.tolist()))

    def draw(self, rng: np.random.Generator, out: np.ndarray, m: int,
             contact) -> None:
        tau, spans, factors = self.threshold, self.spans, self.region_factors
        idx, overlap = contact
        out.fill(-np.inf)
        full = sorted({m - 1, *self.owner[idx].tolist()})
        z = rng.standard_normal(int(self.sizes[full].sum()))
        at = 0
        for r in full:
            first, n = spans[r]
            if n:
                out[first:first + n] = z[at:at + n] @ factors[r][0]
                at += n
        out[idx] += (self.amplitudes[m - 1] * overlap.astype(np.float64)
                     / self.denom[idx])
        proposals = rng.random(len(spans)) < self.propose
        proposals[full] = False
        regions = np.flatnonzero(proposals)
        if not regions.size:
            return
        sizes = self.sizes[regions]
        ks = rng.integers(sizes).tolist()
        tails = np.maximum(-ndtri(self.q * (1.0 - rng.random(regions.size))),
                           tau).tolist()
        keeps = rng.random(regions.size).tolist()
        z = rng.standard_normal(int(sizes.sum()))
        at = 0
        for r, k, tail, keep in zip(regions.tolist(), ks, tails, keeps):
            first, n = spans[r]
            factor, corr = factors[r]
            y = z[at:at + n] @ factor
            at += n
            x = y + corr[k] * (tail - y[k])
            x[k] = tail
            if keep * np.count_nonzero(x >= tau) < 1.0:
                out[first:first + n] = x

    def statistics(self, ms, contacts, draws: np.ndarray) -> np.ndarray:
        """The rows of draws, which draw filled with the statistics."""
        return draws


def _cdf(row: np.ndarray) -> np.ndarray:
    """Normalised CDF of a pmf, as Generator.choice builds it."""
    cdf = np.cumsum(row)
    return cdf / cdf[-1]


class DmcPlan(_TrialPlan):
    """Trial-independent letter plan of the DMC scheme.

    positions holds, in order, every sample some window covers; window i
    reads positions[lo[i]:hi[i]], consecutive samples, so hi = lo + its
    length.  A letter is drawn as Generator.choice draws it: with u
    uniform on [0, 1), the letter is at most y exactly when u < cdf[y].
    Zero-probability letters are never drawn, and the window counts are
    exact integers, so statistics tie with the threshold's bit for bit.
    """

    def __init__(self, params, channel):
        super().__init__(params)
        table = self.table
        size = table.last_end + 2
        depth = (np.bincount(table.starts, minlength=size)
                 - np.bincount(table.ends + 1, minlength=size))
        self.positions = np.flatnonzero(np.cumsum(depth) > 0)
        self.cells = self.positions.size
        self.lo = np.searchsorted(self.positions, table.starts)
        self.hi = self.lo + table.lens
        self.idle_cdf = _cdf(channel.w[0])
        self.burst_cdf = _cdf(channel.w[params.x_star])
        self.llr_tables = codec_dmc._llr_tables(channel, params.x_star)

    def draw(self, rng: np.random.Generator, out: np.ndarray, m: int,
             contact) -> None:
        rng.random(out=out)

    def letter_counts(self, u: np.ndarray, images) -> np.ndarray:
        """counts[y, t, i]: how often letter y lands in window i on trial t,
        whose letter uniforms are u[t] and burst image a+1 .. a+g for
        (a, g) = images[t]."""
        bursts = [np.searchsorted(self.positions, (a + 1, a + g + 1))
                  for a, g in images]
        n = u.shape[0]
        letters = self.idle_cdf.size
        counts = np.empty((letters, n, self.lo.size), dtype=np.int32)
        below = np.empty(u.shape, dtype=bool)
        cum = np.zeros((n, self.cells + 1), dtype=np.int32)
        at_most = 0  # per window: letters <= y - 1
        for y in range(letters - 1):
            np.less(u, self.idle_cdf[y], out=below)
            for t, (i0, i1) in enumerate(bursts):
                np.less(u[t, i0:i1], self.burst_cdf[y], out=below[t, i0:i1])
            np.cumsum(below.view(np.int8), axis=1, dtype=np.int32,
                      out=cum[:, 1:])
            upto = (np.take(cum, self.hi, axis=1)
                    - np.take(cum, self.lo, axis=1))
            counts[y] = upto - at_most
            at_most = upto
        counts[-1] = self.table.lens - at_most
        return counts

    def fired(self, ms, images, contacts, draws: np.ndarray) -> np.ndarray:
        stats = codec_dmc._stats_from_counts(self.letter_counts(draws, images),
                                             *self.llr_tables)
        return stats >= self.threshold


@dataclass(frozen=True, eq=False)
class TrialBlock:
    decoded: np.ndarray  # per trial: the decoded message, 0 for none
    diagnostics: tuple[TraceDiagnostics, ...]  # per trial
    fired: np.ndarray  # trials x windows of the region table
    region_fired: np.ndarray  # trials x messages: firing windows per region
    approximate_sums: int  # trials that drew a rounded-Gaussian state sum


def stream_trials(plan: _TrialPlan, ms, dist: StateDistribution,
                  seeds) -> TrialBlock:
    """A block of encode/transmit/decode rounds without materializing any
    stream: trial t sends message ms[t] and draws from seeds[t], a seed or
    a Generator."""
    layout, table = plan.layout, plan.table
    prefix, burst = layout.prefix_slots, layout.burst_slots
    ms = [int(m) for m in ms]
    draws = np.empty((len(ms), plan.cells))
    images, contacts, diagnostics = [], [], []
    # sample_state_sum's rounded-Gaussian path: random states and a run of
    # more than EXACT_SUM_MAX slots
    approximate, random_states = 0, len(dist.support) > 1
    for m, seed, row in zip(ms, seeds, draws, strict=True):
        layout.check_message(m)
        approximate += random_states and max(
            prefix[m - 1], burst[m - 1]) > EXACT_SUM_MAX
        rng = as_generator(seed)
        a = sample_state_sum(dist, prefix[m - 1], rng)
        g = sample_state_sum(dist, burst[m - 1], rng)
        contact = table.contact(a, g)
        plan.draw(rng, row, m, contact)
        images.append((a, g))
        contacts.append(contact)
        diagnostics.append(contact_diagnostics(m, a, g, layout, *contact))
    fired = plan.fired(ms, images, contacts, draws)
    counts = table.region_counts(fired)
    return TrialBlock(decoded=table.decide_rows(counts),
                      diagnostics=tuple(diagnostics), fired=fired,
                      region_fired=counts, approximate_sums=approximate)
