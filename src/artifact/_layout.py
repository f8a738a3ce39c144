"""Message geometry shared by the three pulse-position codecs.

Every scheme sends message m as a silent prefix of prefix_slots[m] slots
followed by one burst of burst_slots[m] slots, and the receiver tests
sliding windows of window_lens[m] samples starting at the positions of
message m's decision region.  derive_params records that geometry once as
a Layout; its region sizes, its disjointness, its region table, the
contact flags of a block of trials (contact_flags) and the streamed
simulator read it.  The two equal-block schemes build theirs, drift
budget included, with guard_blocks, which refuses more than MAX_WINDOWS
messages before it builds any per-message tuple.  All three schemes
certify their layout's spacing with one guard record, GuardDiagnostics.

Each scheme's error analysis budgets for two drift events: the output
length of the prefix, or the width of the burst image, falling outside an
open ball around its mean.  Both tests are exact rational comparisons.

Positions are 1-based throughout.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _exact
from .errors import InvalidConfigError

_INT64_SAFE = 1 << 62
MAX_WINDOWS = 1 << 22  # most windows a region table may hold
_NO_INDEX = np.empty(0, dtype=np.int64)


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
        """Whether n drifts, for Python ints n and slots: exact at any
        size.  The streamed trials call it once a trial and event, where
        their draws already hold a and g as Python ints."""
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
    slack: tuple[int, ...]  # per message: samples a covering window may miss

    @property
    def M(self) -> int:
        return len(self.prefix_slots)

    def check_message(self, m: int) -> None:
        if not (1 <= m <= self.M):
            raise ValueError(f"message {m} outside 1..{self.M}")

    @cached_property
    def progressions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per message: its region's first window start, its step and its
        window count, as arrays.  They are int64 when every start, stop,
        step and window length lies below 2**62, so that a window end,
        start + (count - 1) * step + window_len - 1, stays in int64, and
        Python ints (object arrays) beyond: the same expressions, exact at
        any size."""
        regions = self.regions
        rows = [list(map(operator.attrgetter(name), regions))
                for name in ("start", "stop", "step")]
        big = max(map(abs, itertools.chain(*rows, self.window_lens)),
                  default=0) >= _INT64_SAFE
        start, stop, step = np.array(rows, dtype=object if big else np.int64)
        return start, step, np.maximum(-((start - stop) // step), 0)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """Per message: the windows of its region, exact at any size."""
        return tuple(self.progressions[2].tolist())

    @cached_property
    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonempty regions sorted by first position (ties by last
        window end): their first window starts, the furthest window end of
        each prefix of that order, and their message indices (from 0), as
        arrays in the dtype of progressions."""
        first, step, n = self.progressions
        occupied = np.flatnonzero(n)
        first, n = first[occupied], n[occupied]
        lens = np.array(self.window_lens, dtype=first.dtype)[occupied]
        end = first + step[occupied] * (n - 1) + lens - 1
        order = np.lexsort((end, first))
        return (first[order], np.maximum.accumulate(end[order]),
                occupied[order])

    @cached_property
    def disjoint(self) -> bool:
        """No two regions' windows share a sample: each region starts past
        the furthest end of the regions that start before it."""
        firsts, reach, _ = self.spans
        return bool(np.all(firsts[1:] > reach[:-1]))

    @cached_property
    def table(self) -> RegionTable:
        return RegionTable(self)


@dataclass(frozen=True)
class GuardDiagnostics:
    """The inequalities behind a layout: its spacing, exactly evaluated,
    and its window lengths against the coverage slack.

    For every scheme (of):
    regions_disjoint:            no two regions' windows share a sample
                                 (Layout.disjoint)
    window_exceeds_slack:        w_m > slack_m for every message (otherwise
                                 every own window counts as covering the
                                 burst, and full_burst_window_exists
                                 certifies nothing)

    For the equal-block schemes (guard_blocks):
    wrong_windows_clear:         (N-B)*mu >= 2*nu (windows of earlier regions
                                 cannot reach the burst image)
    wrong_windows_clear_jitter:  (N-B)*mu >= 2*nu + beta (same for later
                                 regions, burst spread included)

    For the compound scheme (codec_compound.schedule_diagnostics), both
    wrong-window flags are (mu2+delta)*(N_m + B_m) <= (mu1-delta)*N_{m+1}
    for every consecutive pair, whose rate window already spans each
    burst's spread.

    Configs failing these are reported, not rejected; the error guarantees
    simply do not apply to them.
    """

    regions_disjoint: bool
    wrong_windows_clear: bool
    wrong_windows_clear_jitter: bool
    window_exceeds_slack: bool

    @classmethod
    def of(cls, layout: Layout, wrong_windows_clear: bool,
           wrong_windows_clear_jitter: bool) -> GuardDiagnostics:
        """The record of layout, given the scheme's wrong-window flags."""
        return cls(layout.disjoint, wrong_windows_clear,
                   wrong_windows_clear_jitter,
                   all(map(operator.gt, layout.window_lens, layout.slack)))


def guard_block_len(M: int, mu: float, sigma2: float, epsilon: float) -> int:
    """Guard-block length N = ceil(36*M*sigma2 / (mu^2 * epsilon)) of the
    equal-block schemes: 0 for deterministic timing."""
    return _exact.ceil_frac((36 * M) * _exact.frac(sigma2)
                            / (_exact.frac(mu) ** 2 * _exact.frac(epsilon)))


def _milli_sqrt(q: Fraction) -> str:
    """sqrt(q) rounded half up from integers alone, for a q of any size:
    as f"{math.sqrt(q):.3f}" below 10**6 and as f"{math.sqrt(q):.3e}"
    from there."""
    exp = len(str(_exact.floor_sqrt_frac(q))) - 1  # of sqrt(q) in base 10
    shift = 3 if exp < 6 else 3 - exp  # decimal places kept, or digits dropped
    # floor(y + 1/2) == floor((floor(2y) + 1) / 2) with 2y = sqrt(4q)
    n = (_exact.floor_sqrt_frac(4 * q * Fraction(10) ** (2 * shift)) + 1) // 2
    if exp < 6:
        return f"{n // 1000}.{n % 1000:03d}"
    if n == 10**4:  # 9999.5 rounds up to the next power of ten
        n, exp = 10**3, exp + 1
    return f"{n // 1000}.{n % 1000:03d}e+{exp:02d}"


def _short_int(n: int) -> str:
    """A count in full below 10**6, from there as _milli_sqrt prints it."""
    return str(n) if n < 10**6 else _milli_sqrt(Fraction(n) ** 2)


def guard_blocks(M: int, N: int, B: int, mu: float, sigma2: float,
                 epsilon: float, step: int, slack: int
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
    Those centers share the denominator of mu and the radius nu, so
    _exact.multiples_around finds every region from one integer square
    root and two floor divisions a message, exact at any size.
    """
    if M > MAX_WINDOWS:
        raise InvalidConfigError(
            f"{M} messages exceed {MAX_WINDOWS}, the most windows a trial "
            "plan holds, and an equal-block layout gives each its region")
    if B > N:
        raise InvalidConfigError(
            f"burst (B={_short_int(B)}) does not fit in the guard block "
            f"(N={_short_int(N)})")
    mu, noise = _exact.frac(mu), _exact.frac(sigma2) / _exact.frac(epsilon)
    beta_sq = (4 * B) * noise
    nu_sq = (4 * M * N) * noise
    window_len = _exact.floor_minus_sqrt(B * mu, beta_sq)
    if window_len < 1:
        # beta outgrows a float at tiny epsilon
        width, beta = _milli_sqrt((B * mu) ** 2), _milli_sqrt(beta_sq)
        raise InvalidConfigError(
            "detection window collapsed; timing jitter is too large for "
            f"this configuration (B*mu={width}, beta={beta})")
    # message m's center (m-1)*N*mu + 1 is c/md with c = (m-1)*N*mn + md:
    # one denominator and one radius, so one square root for every region
    mn, md = mu.numerator, mu.denominator
    layout = Layout(
        codeword_len=M * N, prefix_slots=tuple(range(0, M * N, N)),
        burst_slots=(B,) * M,
        prefix_drift=Drift(mu, nu_sq), burst_drift=Drift(mu, beta_sq),
        window_lens=(window_len,) * M,
        regions=(range(1, 2), *_exact.multiples_around(
            step, range(N * mn + md, M * N * mn + md, N * mn), md, nu_sq)),
        slack=(slack,) * M)
    clear = (N - B) * mu
    return layout, GuardDiagnostics.of(
        layout, _exact.ge_sqrt(clear, 4 * nu_sq),
        _exact.ge_sum_sqrt(clear, 4 * nu_sq, beta_sq))


class RegionTable:
    """Every window of a layout, flattened region by region.

    Window i covers samples starts[i] .. ends[i], and message m's windows
    are the slice bounds[m-1]:bounds[m].  Positions are int64 while they
    fit and Python ints (object arrays) beyond, so the same expressions
    stay exact for the variable-spacing scheme, whose positions outgrow
    int64.
    """

    def __init__(self, layout: Layout):
        first, step, n = layout.progressions
        sizes = n.astype(np.int64)
        self._firsts, self._reach, self._order = (
            a.tolist() for a in layout.spans)
        self.last_end = self._reach[-1] if self._reach else 0
        dtype = np.int64 if self.last_end < _INT64_SAFE else object
        self.bounds = np.concatenate(([0], np.cumsum(sizes)))
        # the messages with a window
        self.occupied = occupied = np.flatnonzero(sizes)
        # window k of a region starts at first + k * step, so each start is
        # the one before it plus its region's step or, at a region's first
        # window, plus the gap from the last start of the region before:
        # one running sum, each partial sum a start.  Empty and one-window
        # regions count step 0, so that no value beyond the table's dtype
        # enters these arrays
        step = np.where(sizes > 1, step, 0).astype(dtype)
        first = first[occupied].astype(dtype)
        last = first + step[occupied] * (sizes[occupied] - 1)
        self.starts = np.repeat(step, sizes)
        self.starts[self.bounds[occupied]] = first - np.concatenate(
            ([0], last[:-1]))
        np.cumsum(self.starts, out=self.starts)
        self.lens = np.repeat(np.array(layout.window_lens, dtype=dtype), sizes)
        self.ends = self.lens - 1
        self.ends += self.starts
        # the smallest type that holds a region's firing count
        self.count_dtype = np.min_scalar_type(int(sizes.max()))
        # per region: first start, step, window length, count, first index
        self._regions = [(r.start, r.step, w, n, base) for r, w, n, base in
                         zip(layout.regions, layout.window_lens, layout.sizes,
                             self.bounds.tolist())]

    def touching(self, a: int, g: int) -> tuple[int, int, list]:
        """The burst image a+1 .. a+g as lo .. hi, clamped at last_end + 1
        (which changes no overlap and keeps int64 safe), and the windows
        that share a sample with it as sorted runs (i0, i1, r): the table
        indices i0 .. i1 - 1 of region r.

        A region is an arithmetic progression, so its contact windows are
        one run, found in Python ints with no numpy call.  Regions may
        overlap or come in any order (a layout failing its guards is still
        accepted), so the search goes by their sorted spans (Layout.spans):
        every region that starts by hi, less a prefix that ends before lo.
        """
        top = self.last_end + 1
        lo, hi = min(a + 1, top), min(a + g, top)
        runs = []
        if g <= 0:
            return lo, hi, runs
        for r in self._order[bisect.bisect_left(self._reach, lo):
                             bisect.bisect_right(self._firsts, hi)]:
            first, step, w, n, base = self._regions[r]
            # windows k0..k1: the first that ends at or after lo through
            # the last that starts at or before hi
            k0 = max(-((first + w - 1 - lo) // step), 0)
            k1 = min((hi - first) // step, n - 1)
            if k0 <= k1:
                runs.append((base + k0, base + k1 + 1, r))
        runs.sort()
        return lo, hi, runs

    def contacts(self, touches) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flat (trial, idx, overlap) arrays of a block's contact
        windows, from each trial's touching(a, g): trial by trial, indices
        ascending, overlaps (the samples a window shares with its trial's
        image lo .. hi) in the table's dtype.  One array of the runs, one
        repeat and one arange."""
        # per run: its size, trial, first index less its flat offset, image
        runs, at = [], 0
        for t, (lo, hi, touched) in enumerate(touches):
            for i0, i1, _ in touched:
                runs.append((i1 - i0, t, i0 - at, lo, hi))
                at += i1 - i0
        if not runs:
            return _NO_INDEX, _NO_INDEX, np.empty(0, dtype=self.starts.dtype)
        rows = np.array(runs, dtype=self.starts.dtype)
        _, trial, shift, lo, hi = np.repeat(
            rows, rows[:, 0].astype(np.int64), axis=0).T
        idx = (np.arange(at) + shift).astype(np.int64, copy=False)
        return (trial.astype(np.int64, copy=False), idx,
                np.minimum(self.ends[idx], hi)
                - np.maximum(self.starts[idx], lo) + 1)

    def region_counts(self, fired: np.ndarray) -> np.ndarray:
        """The firing windows of each message's region, for each row of
        fired (trials x windows): trials x M, int32."""
        # reduceat over the occupied regions' first windows only: an empty
        # region would otherwise read the one window at its bound
        return self.by_message(np.add.reduceat(
            fired, self.bounds[self.occupied], axis=1,
            dtype=self.count_dtype))

    def by_message(self, counts: np.ndarray) -> np.ndarray:
        """Per-region counts of the occupied regions, trials x
        occupied.size, as trials x M int32, 0 for a region with no
        window."""
        messages = self.bounds.size - 1
        if self.occupied.size == messages:
            return counts.astype(np.int32)
        out = np.zeros((counts.shape[0], messages), dtype=np.int32)
        out[:, self.occupied] = counts
        return out

    def decide_rows(self, counts: np.ndarray) -> np.ndarray:
        """The unique-region rule for each row of region_counts: the
        decoded message, or 0 where no region or several fired."""
        hit = counts > 0
        return np.where(hit.sum(axis=1) == 1, hit.argmax(axis=1) + 1, 0)


FLAGS = ("prefix_drift_out", "burst_spread_out", "wrong_windows_all_zero",
         "full_burst_window_exists")


def contact_flags(layout: Layout, ms, g, contacts) -> dict[str, np.ndarray]:
    """The two contact flags of FLAGS for a block of trials, each a bool
    array one entry a trial: trial t sends ms[t] with burst image width
    g[t] (an array), and contacts is RegionTable.contacts of the block's
    touching(a[t], g[t]), the flat (trial, idx, overlap) arrays of every
    window that shares a sample with its trial's image; no other window
    does.  Both flags are functions of where the image lands.

    FLAGS' other two, prefix_drift_out / burst_spread_out, flag the two
    drift events of the layout (Layout.prefix_drift, Layout.burst_drift),
    and the streamed trials test them trial by trial as they draw a and g.
    When both are clear, the contact flags certify the geometry the error
    analysis relies on: no window of a wrong region overlaps the burst
    image (wrong_windows_all_zero), and some window of the right region
    overlaps it in all but at most the layout's slack samples
    (full_burst_window_exists; the slack is none for the DMC scheme, the
    region spacing floor(M / log2 M) for the Gaussian one and
    floor(N_m / log2 M) for the compound one).
    """
    table = layout.table
    ks = [m - 1 for m in ms]   # message indices
    need = np.array([layout.window_lens[k] - layout.slack[k] for k in ks],
                    dtype=table.starts.dtype)
    k = np.array(ks)
    first, stop = table.bounds[k], table.bounds[k + 1]   # own windows
    trial, idx, overlap = contacts
    own = (idx >= first[trial]) & (idx < stop[trial])
    wrong = np.bincount(trial[~own], minlength=k.size)
    covers = np.bincount(trial[own & (overlap >= need[trial])],
                         minlength=k.size)
    return {"wrong_windows_all_zero": wrong == 0,
            # a window in contact covers the image, or, with need <= 0,
            # every own window covers a nonempty one
            "full_burst_window_exists": (covers > 0) | (
                (need <= 0) & (stop > first) & (g > 0))}
