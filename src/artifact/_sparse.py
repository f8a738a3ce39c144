"""Streamed Monte Carlo trials for the three pulse-position codecs.

A pulse-position codeword is silent except for one burst, and the decoder
only ever looks at its windows, so a trial does not need the received
stream at all.  Given the output length a of the silent prefix and the
width g of the burst image (sums of iid repetition states, sampled
exactly), samples a+1 .. a+g carry the burst and every other sample, the
decoder's padding included, is idle.  What a window reads is then
independent from sample to sample, and a plan turns (a, g) into the
windows that fire:

* Gaussian back ends (Plan): joint noise sums over the windows, built from
  independent increments between window breakpoints (white noise
  restricted to disjoint segments is independent), plus the burst
  amplitude times each window's overlap with the image.
* DMC back end (DmcPlan): one letter per sample some window covers, drawn
  from the burst row of W inside the image and from the idle row outside,
  and counted per window.

Samples covered by no window never influence any statistic and are
skipped.  The window layout is trial-independent, so it is planned once
per scheme.  Positions are int64 while they fit; the variable-spacing
scheme overflows int64, and its handful of windows hold Python integers
instead (see _layout.RegionTable), through the same numpy expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import codec_dmc
from ._exact import frac
from ._layout import TraceDiagnostics, geometry_diagnostics
from .channel import StateDistribution
from .errors import InvalidConfigError

# numpy's multinomial sampler takes an int64 trial count; beyond that we fall
# back to a rounded-Gaussian sum whose distributional error is far below
# anything a finite trial budget could see (Berry-Esseen ~ n**-0.5 < 1e-9).
EXACT_SUM_MAX = 1 << 61


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
    center = _nearest_int(n * frac(dist.mu))
    sd = math.sqrt(n * dist.sigma2)
    val = center + int(round(float(rng.standard_normal()) * sd))
    return min(max(val, 0), n * dist.max_state)


def _nearest_int(q: Fraction) -> int:
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)


class _TrialPlan:
    """What every plan shares: the layout, its region table and threshold.

    A plan's fired(m, a, g, rng) draws one trial's window verdicts for
    message m given the prefix output length a and burst image width g.
    Plans keep no scratch buffers, so threaded trials can share one.
    """

    def __init__(self, params):
        self.layout = params.layout
        self.regions = params.layout.regions  # read by bench/tracer.py
        self.table = params.layout.table
        self.threshold = params.threshold


class Plan(_TrialPlan):
    """Trial-independent noise plan of a Gaussian-back-end scheme.

    params is a codec_gauss.GaussSchemeParams or a
    codec_compound.CompoundSchemeParams; the windows are its layout's
    region table.  Window i spans the half-open sample range
    [starts[i], ends[i] + 1).  Increment j covers [points[j], points[j+1]);
    a window's noise is the sum of the increments it spans, and only
    covered segments get a nonzero scale.
    """

    def __init__(self, params):
        super().__init__(params)
        table = self.table
        eta = math.sqrt(params.eta2)
        points = np.unique(np.concatenate((table.starts, table.ends + 1)))
        self.lo_idx = np.searchsorted(points, table.starts)
        self.hi_idx = np.searchsorted(points, table.ends + 1)
        depth = np.zeros(points.size, dtype=np.int64)
        np.add.at(depth, self.lo_idx, 1)
        np.add.at(depth, self.hi_idx, -1)
        covered = np.cumsum(depth)[:-1] > 0
        self.scale = np.where(
            covered, np.sqrt(np.diff(points).astype(np.float64)) * eta, 0.0)
        self.denom = np.sqrt(table.lens.astype(np.float64)) * eta
        self.amplitudes = [params.amplitude(m)
                           for m in range(1, params.layout.M + 1)]

    def noise_sums(self, rng: np.random.Generator) -> np.ndarray:
        inc = rng.normal(0.0, 1.0, size=self.scale.size) * self.scale
        cum = np.concatenate(([0.0], np.cumsum(inc)))
        return cum[self.hi_idx] - cum[self.lo_idx]

    def fired(self, m: int, a: int, g: int,
              rng: np.random.Generator) -> np.ndarray:
        noise = self.noise_sums(rng)
        overlap = self.table.overlaps(a, g)
        signal = self.amplitudes[m - 1] * overlap.astype(np.float64)
        return (signal + noise) / self.denom >= self.threshold


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
    exact integers, so statistics tie with the calibration's bit for bit.
    """

    def __init__(self, params, channel):
        if params.threshold is None:
            raise InvalidConfigError(
                "threshold not calibrated; run calibrate_threshold")
        super().__init__(params)
        table = self.table
        size = table.last_end + 2
        depth = (np.bincount(table.starts, minlength=size)
                 - np.bincount(table.ends + 1, minlength=size))
        self.positions = np.flatnonzero(np.cumsum(depth) > 0)
        self.lo = np.searchsorted(self.positions, table.starts)
        self.hi = self.lo + table.lens
        self.idle_cdf = _cdf(channel.w[0])
        self.burst_cdf = _cdf(channel.w[params.x_star])
        self.llr_tables = codec_dmc._llr_tables(params, channel)

    def letter_counts(self, a: int, g: int,
                      rng: np.random.Generator) -> np.ndarray:
        """counts[y, i]: how often letter y lands in window i when the
        burst image is a+1 .. a+g."""
        u = rng.random(self.positions.size)
        i0, i1 = np.searchsorted(self.positions, (a + 1, a + g + 1))
        letters = self.idle_cdf.size
        counts = np.empty((letters, self.lo.size), dtype=np.int32)
        below = np.empty(u.size, dtype=bool)
        cum = np.zeros(u.size + 1, dtype=np.int32)
        at_most = 0  # per window: letters <= y - 1
        for y in range(letters - 1):
            np.less(u, self.idle_cdf[y], out=below)
            np.less(u[i0:i1], self.burst_cdf[y], out=below[i0:i1])
            np.cumsum(below.view(np.int8), dtype=np.int32, out=cum[1:])
            upto = cum[self.hi] - cum[self.lo]
            counts[y] = upto - at_most
            at_most = upto
        counts[-1] = self.table.lens - at_most
        return counts

    def fired(self, m: int, a: int, g: int,
              rng: np.random.Generator) -> np.ndarray:
        stats = codec_dmc._stats_from_counts(self.letter_counts(a, g, rng),
                                             *self.llr_tables)
        return stats >= self.threshold


@dataclass(frozen=True)
class StreamTrialResult:
    decoded: int | None
    diagnostics: TraceDiagnostics
    fired: np.ndarray = field(compare=False)  # per window of the region table


def stream_trial(plan: _TrialPlan, m: int, dist: StateDistribution,
                 rng: np.random.Generator) -> StreamTrialResult:
    """One encode/transmit/decode round without materializing the stream."""
    layout = plan.layout
    layout.check_message(m)
    a = sample_state_sum(dist, layout.prefix_slots[m - 1], rng)
    g = sample_state_sum(dist, layout.burst_slots[m - 1], rng)
    fired = plan.fired(m, a, g, rng)
    return StreamTrialResult(
        decoded=plan.table.decide(fired), fired=fired,
        diagnostics=geometry_diagnostics(m, a, g, layout))
