"""Pulse-position codec that tolerates an unknown mean repetition rate.

The encoder only knows an interval [mu1, mu2] containing the true rate, so
equal spacing is out: the burst for message m is placed after N_m slots,
with the gaps growing geometrically so that even the fastest drift of an
earlier burst cannot reach the slowest possible position of a later one.
Burst widths B_m grow proportionally to N_m to keep every drifted burst
detectable, and the amplitude shrinks like 1/sqrt(B_m) so that every
codeword spends exactly the same energy.

The decoder sees only [mu1, mu2], delta, M: nothing rate-dependent enters
its window positions, lengths, or threshold.  Positions are 1-based.

epsilon is validated and recorded but does not enter the layout: offsets,
widths, windows and threshold depend only on M, delta and the rate
interval.  No share of epsilon is set aside for drift, and the error bound
is asymptotic only: error at most epsilon is promised as M grows, with no
bound at any finite M.

Block length grows geometrically in M (past 2**62 slots at M = 32 for a
wide rate interval), so the experiment harness streams the window
statistics and never builds a codeword.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import _exact
from ._layout import Drift, Layout
from .errors import InvalidConfigError


@dataclass(frozen=True)
class ScheduleDiagnostics:
    """Exactly evaluated no-overlap inequalities for the burst schedule.

    offsets_separate:  (mu2+delta)*(N_m + B_m) <= (mu1-delta)*N_{m+1} for
                       every consecutive pair: the fastest possible image of
                       burst m ends before the slowest possible start of
                       burst m+1.
    windows_disjoint:  no two regions share a sample (the region table's
                       disjoint).

    Both hold by construction of the offset recursion; they are evaluated
    exactly rather than trusted.
    """

    offsets_separate: bool
    windows_disjoint: bool


def schedule_diagnostics(layout: Layout, lo_rate: Fraction,
                         hi_rate: Fraction) -> ScheduleDiagnostics:
    """The schedule inequalities of a layout with rate window
    [lo_rate, hi_rate] = [mu1 - delta, mu2 + delta]."""
    offsets, widths = layout.prefix_slots, layout.burst_slots
    pairs = range(1, layout.M)
    # hi_rate * x <= lo_rate * y, cleared of the (positive) denominators
    hi = hi_rate.numerator * lo_rate.denominator
    lo = lo_rate.numerator * hi_rate.denominator
    return ScheduleDiagnostics(
        offsets_separate=all(hi * (offsets[m - 1] + widths[m - 1])
                             <= lo * offsets[m] for m in pairs),
        windows_disjoint=layout.table.disjoint)


@dataclass(frozen=True)
class CompoundSchemeParams:
    M: int
    epsilon: float
    delta: float
    mu1: float
    mu2: float
    sigma2: float  # variance bound for the admissible timing processes
    eta2: float
    x_star: float  # physical peak "energy budget" amplitude; burst m uses x_star/sqrt(B_m)
    threshold: float
    offsets: tuple[int, ...]  # N_m: slots before the burst of message m
    widths: tuple[int, ...]  # B_m: burst slot counts
    spacings: tuple[int, ...]  # region grid step per message (index 0 unused)
    window_lens: tuple[int, ...]
    diagnostics: ScheduleDiagnostics
    layout: Layout = field(repr=False, compare=False)

    @property
    def block_len(self) -> int:
        return self.layout.codeword_len

    @property
    def energy(self) -> float:
        """Energy of every codeword: x_star^2, independent of the message."""
        return self.x_star ** 2

    def amplitude(self, m: int) -> float:
        return self.x_star / math.sqrt(self.widths[m - 1])


def derive_params(M: int, epsilon: float, delta: float, mu1: float, mu2: float,
                  sigma2: float, eta2: float = 1.0) -> CompoundSchemeParams:
    """Lay out the geometric burst schedule for a rate interval [mu1, mu2].

    The offset recursion N_m = ceil((mu2+delta)/(mu1-delta) * (N_{m-1} +
    B_{m-1})) guarantees, deterministically, that drifted windows of
    different messages never overlap; widths follow as B_m =
    floor((mu2-mu1+2*delta) * N_m).  delta = 0 is accepted for the exactly
    known-rate corner, but then mu2 must exceed mu1 or the widths vanish.
    """
    if M < 4:
        raise InvalidConfigError(f"need at least 4 messages, got {M}")
    if not (0.0 < epsilon < 1.0):
        raise InvalidConfigError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < mu1 <= mu2):
        raise InvalidConfigError(f"need 0 < mu1 <= mu2, got [{mu1}, {mu2}]")
    if not (0.0 <= delta < mu1):
        raise InvalidConfigError(f"delta must sit in [0, mu1), got {delta}")
    if not (0.0 <= sigma2 < math.inf):
        raise InvalidConfigError(
            f"variance bound must be nonnegative and finite, got {sigma2}")
    if not (0.0 < eta2 < math.inf):
        raise InvalidConfigError(
            f"noise variance must be positive and finite, got {eta2}")

    log2m = _exact.frac(math.log2(M))
    lo_rate = _exact.frac(mu1) - _exact.frac(delta)
    hi_rate = _exact.frac(mu2) + _exact.frac(delta)
    span = _exact.frac(mu2) - _exact.frac(mu1) + 2 * _exact.frac(delta)
    if span <= 0:
        raise InvalidConfigError(
            "mu2 - mu1 + 2*delta must be positive or every burst after the "
            "first is empty; widen delta or the rate interval")

    # the recursions in Python integers: each rate as (numerator,
    # denominator), each floor or ceiling of a ratio one integer division
    ln, ld = lo_rate.numerator, lo_rate.denominator
    hn, hd = hi_rate.numerator, hi_rate.denominator
    sn, sd = span.numerator, span.denominator
    qn, qd = log2m.numerator, log2m.denominator
    offsets = [0]
    widths = [qn // qd]
    spacings = [0]
    for m in range(2, M + 1):
        # ceil(hi_rate * (N_{m-1} + B_{m-1}) / lo_rate)
        n_m = -((-hn * ld * (offsets[-1] + widths[-1])) // (hd * ln))
        b_m = sn * n_m // sd
        if b_m < 1:
            raise InvalidConfigError(
                f"burst width for message {m} came out empty (N_{m}={n_m}); "
                "the rate window mu2 - mu1 + 2*delta is too narrow at this M")
        sp = n_m * qd // qn
        if sp < 1:
            raise InvalidConfigError(
                f"region grid for message {m} collapsed below one position")
        # amplitudes, slack and noise scales take these slot counts as
        # floats; offsets and widths only grow, so stop at the first too big
        if max(n_m, b_m) > sys.float_info.max:
            raise InvalidConfigError(
                f"the burst schedule at M={M} overflows a float; the "
                "geometric offsets outgrow every amplitude and window scale")
        offsets.append(n_m)
        widths.append(b_m)
        spacings.append(sp)

    window_lens = []
    for b_m in widths:
        w = ln * b_m // ld
        if w < 1:
            raise InvalidConfigError(
                "detection window collapsed; mu1 - delta is too small for "
                f"burst width {b_m}")
        window_lens.append(w)

    regions = [range(1, 2)]
    for m in range(2, M + 1):
        n_m = offsets[m - 1]
        reg = _exact.multiples_between(spacings[m - 1], (ln * n_m + ld, ld),
                                       (hn * n_m + hd, hd))
        if not reg:
            raise InvalidConfigError(
                f"decision region for message {m} is empty; the grid step "
                "overshoots the drift interval at this size")
        regions.append(reg)

    # the open interval (lo_rate * n, hi_rate * n) as a ball around its middle
    rate_window = Drift((lo_rate + hi_rate) / 2,
                        spread_sq=((hi_rate - lo_rate) / 2) ** 2)
    log2_m = math.log2(M)
    layout = Layout(
        codeword_len=offsets[-1] + widths[-1], prefix_slots=tuple(offsets),
        burst_slots=tuple(widths),
        prefix_drift=rate_window, burst_drift=rate_window,
        window_lens=tuple(window_lens), regions=tuple(regions),
        slack=tuple(n / log2_m for n in offsets))

    log_m = math.log(M)
    x_star = (1.0 + delta) * math.sqrt(eta2) * math.sqrt(
        (2.0 + delta) * log_m / float(lo_rate))
    threshold = math.sqrt((2.0 + delta) * log_m)
    return CompoundSchemeParams(
        M=M, epsilon=float(epsilon), delta=float(delta), mu1=float(mu1),
        mu2=float(mu2), sigma2=float(sigma2), eta2=float(eta2),
        x_star=x_star, threshold=threshold,
        offsets=layout.prefix_slots, widths=layout.burst_slots,
        spacings=tuple(spacings), window_lens=layout.window_lens,
        diagnostics=schedule_diagnostics(layout, lo_rate, hi_rate),
        layout=layout)
