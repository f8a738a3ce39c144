"""Message geometry shared by the three pulse-position codecs.

Every scheme sends message m as a silent prefix of prefix_slots[m] slots
followed by one burst of burst_slots[m] slots, and the receiver tests
sliding windows of window_lens[m] samples starting at the positions of
message m's decision region.  derive_params records that geometry once as
a Layout; the region table, the trace diagnostics, the materialising
decoders and the streamed simulator all read it.

Each scheme's error analysis budgets for two drift events: the output
length of the prefix, or the width of the burst image, falling outside an
open ball around its mean.  Both tests are exact rational comparisons.

Positions are 1-based throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _exact
from .channel import StateSequence

_INT64_SAFE = 1 << 62


@dataclass(frozen=True)
class Drift:
    """Exact drift test on the output length n of a run of input slots.

    n drifts unless it equals rate * slots or lies strictly within
    sqrt(radius_sq + spread_sq * slots**2) of it.
    """

    rate: Fraction
    radius_sq: Fraction = Fraction(0)
    spread_sq: Fraction = Fraction(0)

    def out(self, n: int, slots: int) -> bool:
        d = n - self.rate * slots
        return not (d == 0 or d * d < self.radius_sq
                    + self.spread_sq * slots * slots)


@dataclass(frozen=True, eq=False)
class Layout:
    """Where every message's burst sits and where the receiver looks for it.

    Regions are ranges (first, stop, step), so a layout stays small however
    many windows it holds; the flattened window arrays are built on first
    use of table.
    """

    codeword_len: int  # slots in every codeword
    prefix_slots: tuple[int, ...]  # per message: slots before its burst
    burst_slots: tuple[int, ...]  # per message: burst width in slots
    prefix_drift: Drift  # test on the prefix output length
    burst_drift: Drift  # test on the burst image width
    window_lens: tuple[int, ...]  # per message: samples per window
    regions: tuple[range, ...]  # per message: window start positions
    slack: tuple[float, ...]  # per message: samples a covering window may miss

    @property
    def M(self) -> int:
        return len(self.prefix_slots)

    def check_message(self, m: int) -> None:
        if not (1 <= m <= self.M):
            raise ValueError(f"message {m} outside 1..{self.M}")

    def region(self, m: int) -> tuple[int, ...]:
        self.check_message(m)
        return tuple(self.regions[m - 1])

    @cached_property
    def table(self) -> RegionTable:
        return RegionTable(self)


def guard_blocks(M: int, N: int, B: int, mu: float, nu_sq: Fraction,
                 beta_sq: Fraction, window_len: int, step: int,
                 slack: float) -> Layout:
    """Layout of the equal-block schemes (codec_dmc, codec_gauss).

    Message m puts its burst of B slots at the start of the m-th block of N
    slots, so its image should start right after (m-1)*N*mu output
    samples.  Region m holds the multiples of step within nu of
    (m-1)*N*mu + 1 (message 1: just position 1).  The prefix output drifts
    when it strays nu or more from its mean, the burst image width when it
    strays beta or more.
    """
    mu = _exact.frac(mu)
    prefix = tuple(range(0, M * N, N))
    return Layout(
        codeword_len=M * N, prefix_slots=prefix, burst_slots=(B,) * M,
        prefix_drift=Drift(mu, nu_sq), burst_drift=Drift(mu, beta_sq),
        window_lens=(window_len,) * M,
        regions=(range(1, 2),) + tuple(
            _exact.multiples_in_open(step, p * mu + 1, nu_sq) for p in prefix[1:]),
        slack=(slack,) * M)


class RegionTable:
    """Every window of a layout, flattened region by region.

    Window i covers samples starts[i] .. ends[i], and message m's windows
    are the slice bounds[m-1]:bounds[m]; first, step, count and region_lens
    describe each message's region as the arithmetic progression it is.
    Positions are int64 while they fit and Python ints (object arrays)
    beyond, so the same expressions stay exact for the variable-spacing
    scheme, whose positions outgrow int64.
    """

    def __init__(self, layout: Layout):
        regions = layout.regions
        sizes = [len(r) for r in regions]
        self.last_end = max((r[-1] + w - 1 for r, w
                             in zip(regions, layout.window_lens) if r),
                            default=0)
        dtype = np.int64 if self.last_end < _INT64_SAFE else object
        self.first = np.array([r.start for r in regions], dtype=dtype)
        self.step = np.array([r.step for r in regions], dtype=dtype)
        self.count = np.array(sizes, dtype=np.int64)
        self.region_lens = np.array(layout.window_lens, dtype=dtype)
        self.starts = np.fromiter(itertools.chain.from_iterable(regions),
                                  dtype=dtype, count=sum(sizes))
        self.lens = np.repeat(self.region_lens, sizes)
        self.ends = self.starts + self.lens - 1
        self.bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        self.occupied = np.flatnonzero(self.count)  # messages with a window

    def overlaps(self, a: int, g: int, m: int | None = None) -> np.ndarray:
        """Samples each window shares with the burst image a+1 .. a+g: every
        window, or message m's only."""
        part = slice(None) if m is None else slice(self.bounds[m - 1],
                                                   self.bounds[m])
        # clamping at last_end + 1 changes no overlap and keeps int64 safe
        top = self.last_end + 1
        lo = np.maximum(self.starts[part], min(a + 1, top))
        hi = np.minimum(self.ends[part], min(a + g, top))
        return np.maximum(hi - lo + 1, 0)

    def touched(self, a: int, g: int) -> np.ndarray:
        """Per message: whether some window of its region shares a sample
        with the burst image a+1 .. a+g.  O(M), whatever the window count."""
        if g <= 0:
            return np.zeros(self.count.size, dtype=bool)
        top = self.last_end + 1
        reach, image_end = min(a + 1, top), min(a + g, top)
        # k: the first window of each region whose end reaches a+1
        k = np.maximum(
            -((self.first + self.region_lens - 1 - reach) // self.step), 0)
        return ((k < self.count)
                & (self.first + k * self.step <= image_end)).astype(bool)

    def decide(self, fired: np.ndarray) -> int | None:
        """Unique-region rule: the one message with a firing window, else None."""
        if not self.occupied.size:
            return None
        # reduceat over the occupied regions' first windows only: an empty
        # region would otherwise read the one window at its bound
        hit = np.logical_or.reduceat(fired, self.bounds[self.occupied])
        hits = self.occupied[hit]
        return int(hits[0]) + 1 if hits.size == 1 else None


@dataclass(frozen=True)
class TraceDiagnostics:
    """What the realized timing states imply for one transmitted message.

    prefix_drift_out / burst_spread_out flag the two drift events of the
    layout.  When both are clear, the other flags certify the geometry the
    error analysis relies on: no window of a wrong region overlaps the
    burst image, and some window of the right region overlaps it in all but
    at most the layout's slack samples (none for the DMC scheme, M / log2 M
    for the Gaussian one, N_m / log2 M for the compound one).
    """

    prefix_drift_out: bool
    burst_spread_out: bool
    wrong_windows_all_zero: bool
    full_burst_window_exists: bool
    prefix_output: int
    burst_output: int


def trace_diagnostics(m: int, states: StateSequence,
                      layout: Layout) -> TraceDiagnostics:
    """Evaluate the drift events and window geometry from a state trace."""
    if len(states) != layout.codeword_len:
        raise ValueError("state trace length does not match the codeword")
    layout.check_message(m)
    prefix = layout.prefix_slots[m - 1]
    a = int(states.states[:prefix].sum())
    g = int(states.states[prefix:prefix + layout.burst_slots[m - 1]].sum())
    return geometry_diagnostics(m, a, g, layout)


def geometry_diagnostics(m: int, prefix_output: int, burst_output: int,
                         layout: Layout) -> TraceDiagnostics:
    """Same evaluation from the two output-length sums alone.

    Every flag is a function of where the burst image lands, which the
    prefix output length and the burst image width fix.
    """
    layout.check_message(m)
    a = int(prefix_output)
    g = int(burst_output)
    table = layout.table
    touched = table.touched(a, g)
    touched[m - 1] = False
    own = table.overlaps(a, g, m)
    w = layout.window_lens[m - 1]
    return TraceDiagnostics(
        prefix_drift_out=layout.prefix_drift.out(a, layout.prefix_slots[m - 1]),
        burst_spread_out=layout.burst_drift.out(g, layout.burst_slots[m - 1]),
        wrong_windows_all_zero=not touched.any(),
        full_burst_window_exists=g > 0 and bool(
            (own >= w - layout.slack[m - 1]).any()),
        prefix_output=a, burst_output=g)
