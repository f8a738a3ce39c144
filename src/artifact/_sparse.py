"""Streamed Monte Carlo trials for the Gaussian-back-end codecs.

A pulse-position codeword is silent except for one burst, and the decoder
only ever looks at a few hundred windows, so a trial does not need the
received stream at all.  It needs three things, each exactly samplable:

* the output length of the silent prefix (a sum of iid repetition states),
* the output length of the burst image (same, over the burst slots),
* joint Gaussian noise sums over the inspected windows.

Noise sums are built from independent increments between window breakpoints
(white noise restricted to disjoint segments is independent), so the joint
law over overlapping windows is exact.  Segments covered by no window never
influence any statistic and are skipped.

The window layout is trial-independent, so it is planned once per scheme.
Positions are int64 while they fit; the variable-spacing scheme overflows
int64, and its handful of windows hold Python integers instead (see
_layout.RegionTable), through the same numpy expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._exact import frac
from ._layout import TraceDiagnostics, geometry_diagnostics
from .channel import StateDistribution

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


class Plan:
    """Trial-independent noise plan of a Gaussian-back-end scheme.

    params is a codec_gauss.GaussSchemeParams or a
    codec_compound.CompoundSchemeParams; the windows are its layout's
    region table.  Window i spans the half-open sample range
    [starts[i], ends[i] + 1).  Increment j covers [points[j], points[j+1]);
    a window's noise is the sum of the increments it spans, and only
    covered segments get a nonzero scale.
    """

    def __init__(self, params):
        self.layout = params.layout
        self.regions = params.layout.regions  # read by bench/tracer.py
        self.table = table = params.layout.table
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
        self.threshold = params.threshold

    def noise_sums(self, rng: np.random.Generator) -> np.ndarray:
        inc = rng.normal(0.0, 1.0, size=self.scale.size) * self.scale
        cum = np.concatenate(([0.0], np.cumsum(inc)))
        return cum[self.hi_idx] - cum[self.lo_idx]


@dataclass(frozen=True)
class StreamTrialResult:
    decoded: int | None
    diagnostics: TraceDiagnostics
    fired: np.ndarray = field(compare=False)  # per window of the region table


def stream_trial(plan: Plan, m: int, dist: StateDistribution,
                 rng: np.random.Generator) -> StreamTrialResult:
    """One encode/transmit/decode round without materializing the stream."""
    layout = plan.layout
    layout.check_message(m)
    a = sample_state_sum(dist, layout.prefix_slots[m - 1], rng)
    g = sample_state_sum(dist, layout.burst_slots[m - 1], rng)
    noise = plan.noise_sums(rng)
    overlap = plan.table.overlaps(a, g)
    signal = plan.amplitudes[m - 1] * overlap.astype(np.float64)
    fired = (signal + noise) / plan.denom >= plan.threshold
    return StreamTrialResult(
        decoded=plan.table.decide(fired), fired=fired,
        diagnostics=geometry_diagnostics(m, a, g, layout))
