"""Message geometry shared by the three pulse-position codecs.

Every scheme sends message m as a silent prefix of prefix_slots[m] slots
followed by one burst of burst_slots[m] slots, and the receiver tests
sliding windows of window_lens[m] samples starting at the positions of
message m's decision region.  derive_params records that geometry once as
a Layout; its region table, the geometry flags (contact_diagnostics) and
the streamed simulator read it.  The two equal-block schemes build theirs,
drift budget included, with guard_blocks, which refuses more than
MAX_WINDOWS messages before it builds any per-message tuple.

Each scheme's error analysis budgets for two drift events: the output
length of the prefix, or the width of the burst image, falling outside an
open ball around its mean.  Both tests are exact rational comparisons.

Positions are 1-based throughout.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _exact
from .errors import InvalidConfigError

_INT64_SAFE = 1 << 62
MAX_WINDOWS = 1 << 22  # most windows a region table may hold


def window_count(region: range) -> int:
    """len(region), exact at any size: len() overflows past sys.maxsize."""
    return max(0, -((region.start - region.stop) // region.step))


@dataclass(frozen=True)
class Drift:
    """Exact drift test on the output length n of a run of input slots.

    n drifts unless it equals rate * slots or lies strictly within
    sqrt(radius_sq + spread_sq * slots**2) of it.
    """

    rate: Fraction
    radius_sq: Fraction = Fraction(0)
    spread_sq: Fraction = Fraction(0)
    # the test cleared of denominators, as Python integers (see out)
    _ints: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rate = Fraction(self.rate)
        radius, spread = Fraction(self.radius_sq), Fraction(self.spread_sq)
        q2 = rate.denominator ** 2
        object.__setattr__(self, "_ints", (
            rate.numerator, rate.denominator,
            radius.denominator * spread.denominator,
            q2 * radius.numerator * spread.denominator,
            q2 * spread.numerator * radius.denominator))

    def out(self, n: int, slots: int) -> bool:
        # with d = n - (p/q) * slots, radius_sq = rn/rd, spread_sq = sn/sd:
        # d*d < radius_sq + spread_sq * slots**2 exactly when
        # (q*d)**2 * rd * sd < q*q * (rn * sd + sn * rd * slots**2)
        p, q, scale, radius, spread = self._ints
        qd = q * n - p * slots
        return qd != 0 and qd * qd * scale >= radius + spread * slots * slots


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

    @cached_property
    def table(self) -> RegionTable:
        return RegionTable(self)


@dataclass(frozen=True)
class GuardDiagnostics:
    """The inequalities behind an equal-block layout: its spacing, exactly
    evaluated, and its window length against the coverage slack.

    regions_disjoint:            N*mu >= 3*nu (regions cannot touch)
    wrong_windows_clear:         (N-B)*mu >= 2*nu (windows of earlier regions
                                 cannot reach the burst image)
    wrong_windows_clear_jitter:  (N-B)*mu >= 2*nu + beta (same for later
                                 regions, burst spread included)
    window_exceeds_slack:        w > slack (a window longer than the
                                 samples it may miss; otherwise every own
                                 window counts as covering the burst, and
                                 full_burst_window_exists certifies
                                 nothing)

    Configs failing these are reported, not rejected; the error guarantees
    simply do not apply to them.
    """

    regions_disjoint: bool
    wrong_windows_clear: bool
    wrong_windows_clear_jitter: bool
    window_exceeds_slack: bool

    @classmethod
    def evaluate(cls, N: int, B: int, mu: float, nu_sq: Fraction,
                 beta_sq: Fraction, window_len: int,
                 slack: float) -> GuardDiagnostics:
        nmu = Fraction(N) * _exact.frac(mu)
        clear = Fraction(N - B) * _exact.frac(mu)
        return cls(
            regions_disjoint=_exact.ge_sqrt(nmu, 9 * nu_sq),
            wrong_windows_clear=_exact.ge_sqrt(clear, 4 * nu_sq),
            wrong_windows_clear_jitter=_exact.ge_sum_sqrt(clear, 4 * nu_sq,
                                                          beta_sq),
            # as contact_diagnostics compares need = w - slack
            window_exceeds_slack=window_len - slack > 0)


def guard_block_len(M: int, mu: float, sigma2: float, epsilon: float) -> int:
    """Guard-block length N = ceil(36*M*sigma2 / (mu^2 * epsilon)) of the
    equal-block schemes: 0 for deterministic timing."""
    return _exact.ceil_frac((36 * M) * _exact.frac(sigma2)
                            / (_exact.frac(mu) ** 2 * _exact.frac(epsilon)))


def guard_blocks(M: int, N: int, B: int, mu: float, sigma2: float,
                 epsilon: float, step: int, slack: float
                 ) -> tuple[Layout, GuardDiagnostics]:
    """Layout of the equal-block schemes (codec_dmc, codec_gauss), with the
    spacing inequalities it meets.

    Message m puts its burst of B slots at the start of the m-th block of N
    slots, so its image should start right after (m-1)*N*mu output
    samples.  The radii nu^2 = 4*M*N*sigma2/epsilon and beta^2 =
    4*B*sigma2/epsilon make each drift event, by Chebyshev, at most
    epsilon/4 likely: the prefix output straying nu or more from its mean,
    or the burst image width straying beta or more.  Region m holds the
    multiples of step within nu of (m-1)*N*mu + 1 (message 1: just
    position 1), and every window is floor(B*mu - beta) samples long.
    """
    if M > MAX_WINDOWS:
        raise InvalidConfigError(
            f"{M} messages exceed {MAX_WINDOWS}, the most windows a trial "
            "plan holds, and an equal-block layout gives each its region")
    if B > N:
        raise InvalidConfigError(
            f"burst (B={B}) does not fit in the guard block (N={N})")
    mu, noise = _exact.frac(mu), _exact.frac(sigma2) / _exact.frac(epsilon)
    beta_sq = (4 * B) * noise
    nu_sq = (4 * M * N) * noise
    window_len = _exact.floor_minus_sqrt(B * mu, beta_sq)
    if window_len < 1:
        raise InvalidConfigError(
            "detection window collapsed; timing jitter is too large for "
            f"this configuration (B*mu={float(B * mu):.3f}, "
            f"beta={math.sqrt(beta_sq):.3f})")
    mn, md = mu.numerator, mu.denominator
    prefix = tuple(range(0, M * N, N))
    layout = Layout(
        codeword_len=M * N, prefix_slots=prefix, burst_slots=(B,) * M,
        prefix_drift=Drift(mu, nu_sq), burst_drift=Drift(mu, beta_sq),
        window_lens=(window_len,) * M,
        regions=(range(1, 2),) + tuple(
            _exact.multiples_in_open(step, (p * mn + md, md), nu_sq)
            for p in prefix[1:]),
        slack=(slack,) * M)
    return layout, GuardDiagnostics.evaluate(N, B, mu, nu_sq, beta_sq,
                                             window_len, slack)


class RegionTable:
    """Every window of a layout, flattened region by region.

    Window i covers samples starts[i] .. ends[i], and message m's windows
    are the slice bounds[m-1]:bounds[m].  Positions are int64 while they
    fit and Python ints (object arrays) beyond, so the same expressions
    stay exact for the variable-spacing scheme, whose positions outgrow
    int64.
    """

    def __init__(self, layout: Layout):
        regions = layout.regions
        sizes = np.array([len(r) for r in regions], dtype=np.int64)
        self.last_end = max((r[-1] + w - 1 for r, w
                             in zip(regions, layout.window_lens) if r),
                            default=0)
        dtype = np.int64 if self.last_end < _INT64_SAFE else object
        self.bounds = np.concatenate(([0], np.cumsum(sizes)))
        # window k of a region starts at first + k * step; an empty region
        # adds no window and a one-window region no step, so neither puts
        # a value beyond the table's dtype into these arrays
        first, step = np.array(
            [(r.start, r.step if len(r) > 1 else 0) if r else (0, 0)
             for r in regions], dtype=dtype).reshape(-1, 2).T
        k = np.arange(self.bounds[-1]) - np.repeat(self.bounds[:-1], sizes)
        self.starts = np.repeat(first, sizes) + np.repeat(step, sizes) * k
        self.lens = np.repeat(np.array(layout.window_lens, dtype=dtype), sizes)
        self.ends = self.starts + self.lens - 1
        self.occupied = np.flatnonzero(sizes)  # messages with a window
        # for contact: each region with its window length and first table
        # index, and the nonempty ones sorted by first position, with the
        # furthest window end of each prefix of that order
        self._regions = list(zip(regions, layout.window_lens,
                                 self.bounds.tolist()))
        spans = sorted((region[0], region[-1] + w - 1, r)
                       for r, (region, w, _) in enumerate(self._regions)
                       if region)
        self._firsts = [first for first, _, _ in spans]
        self._reach = list(itertools.accumulate(
            (end for _, end, _ in spans), max))
        self._order = [r for _, _, r in spans]
        # no two regions share a sample: each region starts past the
        # furthest end of the regions that start before it
        self.disjoint = all(first > reach for first, reach
                            in zip(self._firsts[1:], self._reach))

    def contact(self, a: int, g: int) -> tuple[np.ndarray, np.ndarray]:
        """The windows that share a sample with the burst image a+1 .. a+g,
        as ascending table indices, and how many samples each shares.

        Each region is an arithmetic progression, so its contact windows
        are one run of consecutive indices, found exactly in integers.
        Regions may overlap or come in any order (a layout failing its
        guards is still accepted), so the search goes by the regions' own
        spans, sorted by first position: it tests every region that starts
        by the image's end, except a prefix of that order that ends wholly
        before the image starts.
        """
        none = np.empty(0, dtype=np.int64)
        if g <= 0:
            return none, np.empty(0, dtype=self.starts.dtype)
        # clamping at last_end + 1 changes no overlap and keeps int64 safe
        top = self.last_end + 1
        lo, hi = min(a + 1, top), min(a + g, top)
        runs = []
        for r in self._order[bisect.bisect_left(self._reach, lo):
                             bisect.bisect_right(self._firsts, hi)]:
            region, w, base = self._regions[r]
            first, step = region.start, region.step
            # windows k0..k1: the first that ends at or after lo through
            # the last that starts at or before hi
            k0 = max(-((first + w - 1 - lo) // step), 0)
            k1 = min((hi - first) // step, len(region) - 1)
            if k0 <= k1:
                runs.append((base + k0, base + k1 + 1))
        idx = np.concatenate([np.arange(*run) for run in sorted(runs)]) \
            if runs else none
        return idx, np.minimum(self.ends[idx], hi) - np.maximum(
            self.starts[idx], lo) + 1

    def region_counts(self, fired: np.ndarray) -> np.ndarray:
        """The firing windows of each message's region, for each row of
        fired (trials x windows): trials x M, int32."""
        # reduceat over the occupied regions' first windows only: an empty
        # region would otherwise read the one window at its bound
        counts = np.add.reduceat(fired, self.bounds[self.occupied], axis=1,
                                 dtype=np.int32)
        if self.occupied.size == self.bounds.size - 1:
            return counts
        out = np.zeros((fired.shape[0], self.bounds.size - 1), dtype=np.int32)
        out[:, self.occupied] = counts
        return out

    def decide_rows(self, counts: np.ndarray) -> np.ndarray:
        """The unique-region rule for each row of region_counts: the
        decoded message, or 0 where no region or several fired."""
        hit = counts > 0
        return np.where(hit.sum(axis=1) == 1, hit.argmax(axis=1) + 1, 0)


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


def contact_diagnostics(m: int, a: int, g: int, layout: Layout,
                        idx: np.ndarray, overlap: np.ndarray
                        ) -> TraceDiagnostics:
    """The flags of TraceDiagnostics for sending m with prefix output a and
    burst image width g, from the image's contact windows
    (RegionTable.contact(a, g)): windows outside it overlap the image in
    no sample.  Every flag is a function of where the image lands."""
    own = overlap[slice(*idx.searchsorted(layout.table.bounds[m - 1:m + 1]))]
    need = layout.window_lens[m - 1] - layout.slack[m - 1]
    # with need <= 0 every own window qualifies, in contact or not
    full = g > 0 and (len(layout.regions[m - 1]) > 0 if need <= 0
                      else own.size > 0 and bool(own.max() >= need))
    return TraceDiagnostics(
        prefix_drift_out=layout.prefix_drift.out(a, layout.prefix_slots[m - 1]),
        burst_spread_out=layout.burst_drift.out(g, layout.burst_slots[m - 1]),
        wrong_windows_all_zero=own.size == idx.size,
        full_burst_window_exists=full,
        prefix_output=a, burst_output=g)
