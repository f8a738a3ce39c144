"""Pulse-position codec for a repetition timing channel with a DMC back end.

A message m in {1, ..., M} is a burst of B copies of a designated nonzero
letter placed at the start of the m-th of M guard blocks of N slots each.
The receiver knows neither the block boundaries (timing is random) nor the
noise realization, so it slides a log-likelihood-ratio test over a small set
of candidate output positions per message (the decision regions) and declares
the unique message whose region fires.  This module derives the constants
and the exact threshold of that test; the statistic itself is
_stats_from_counts, which the streamed trials (_sparse.DmcPlan) apply to
their window letter counts.

All stream positions are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from . import _exact
from ._layout import GuardDiagnostics, Layout, guard_block_len, guard_blocks
from .channel import Dmc, StateDistribution
from .errors import InvalidConfigError
from .info import kl_divergence

MAX_MULTISETS = 1 << 22  # most letter count vectors exact_threshold sums over
# count vectors exact_threshold turns into statistics and log pmf at a time
_SLICE = 1 << 16


@dataclass(frozen=True)
class DmcSchemeParams:
    """Derived constants for one (M, epsilon, delta, timing, back end) choice."""

    M: int
    epsilon: float
    delta: float
    mu: float
    sigma2: float
    x_star: int
    divergence: float
    N: int
    B: int
    beta: float
    nu: float
    window_len: int
    threshold: float  # exact: see exact_threshold
    diagnostics: GuardDiagnostics
    layout: Layout = field(repr=False, compare=False)

    @property
    def codeword_len(self) -> int:
        return self.M * self.N


def derive_params(M: int, epsilon: float, delta: float,
                  idc: StateDistribution, channel: Dmc,
                  x_star: int) -> DmcSchemeParams:
    """Work out burst length, guard block, window and region radii.

    The burst length B targets (2+delta) * log2(M) / mu bits of discrimination
    against the idle hypothesis; the guard block N and the radii beta, nu are
    sized so that timing drift stays inside the regions except with
    probability epsilon/2.  The detection threshold is the exact one of
    exact_threshold: a window's miss under the burst is at most epsilon/4.
    """
    if M < 2:
        raise InvalidConfigError(f"need at least 2 messages, got {M}")
    if not (0.0 < epsilon < 1.0):
        raise InvalidConfigError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (delta > 0.0):
        raise InvalidConfigError(f"delta must be positive, got {delta}")
    if not (0 < x_star < channel.num_inputs):
        raise InvalidConfigError(f"burst letter {x_star} is not a nonzero input")
    mu, sigma2 = idc.mu, idc.sigma2
    if not (mu > 0):
        raise InvalidConfigError("timing process never emits anything (mu == 0)")

    div = kl_divergence(channel.w[x_star], channel.w[0])
    if math.isinf(div):
        raise InvalidConfigError(
            "the burst letter is noiselessly distinguishable from idle; "
            "a likelihood threshold is meaningless there, detect it directly")
    if div <= 0.0:
        raise InvalidConfigError(
            "the burst letter is indistinguishable from the zero letter")

    log2m = math.log2(M)
    B = _exact.floor_frac(
        _exact.frac(2.0 + delta) * _exact.frac(log2m)
        / (_exact.frac(mu) * _exact.frac(div)))
    if B < 1:
        raise InvalidConfigError(
            f"burst length came out empty (B={B}); increase M or delta")
    # deterministic timing gives N = 0, but the codeword layout still
    # needs one burst per block
    N = guard_block_len(M, mu, sigma2, epsilon) or B
    layout, diagnostics = guard_blocks(M, N, B, mu, sigma2, epsilon,
                                       step=1, slack=0)
    window_len = layout.window_lens[0]
    return DmcSchemeParams(
        M=M, epsilon=float(epsilon), delta=float(delta), mu=float(mu),
        sigma2=float(sigma2), x_star=int(x_star), divergence=float(div),
        N=N, B=B, beta=math.sqrt(layout.burst_drift.radius_sq),
        nu=math.sqrt(layout.prefix_drift.radius_sq), window_len=window_len,
        threshold=exact_threshold(channel, x_star, window_len, epsilon),
        diagnostics=diagnostics, layout=layout)


def _llr_tables(channel: Dmc, x_star: int):
    """Per-output-letter log-likelihood ratios, with impossibility masks.

    imp1 marks letters the burst cannot produce (W(y|x*) == 0): any such
    letter forces the window verdict to -inf.  imp0 marks letters idle cannot
    produce; absent imp1 letters they force +inf.
    """
    w1 = channel.w[x_star]
    w0 = channel.w[0]
    imp1 = w1 == 0.0
    imp0 = (w0 == 0.0) & ~imp1
    both = (w1 > 0.0) & (w0 > 0.0)
    llr = np.zeros(channel.num_outputs, dtype=np.float64)
    llr[both] = np.log2(w1[both] / w0[both])
    return llr, imp1, imp0


def _stats_from_counts(counts: np.ndarray, llr, imp1, imp0) -> np.ndarray:
    """Combine per-letter window counts into LLR statistics.

    counts[y, ...] is how often letter y appears in each window (window i,
    or window i of trial t at counts[y, t, i]).  The float
    accumulation order is fixed (ascending y), so two windows holding the
    same multiset of letters always produce bit-identical statistics; the
    threshold is a value of this very statistic (exact_threshold) and exact
    ties must stay ties.  Letters impossible under H0 force +inf, letters
    impossible under H1 force -inf, and -inf wins when both occur.
    """
    stats = np.zeros(counts.shape[1:], dtype=np.float64)
    for y in range(llr.size):
        if llr[y] != 0.0:
            stats += counts[y] * llr[y]
    if imp0.any():
        stats[counts[imp0].sum(axis=0) > 0] = math.inf
    if imp1.any():
        stats[counts[imp1].sum(axis=0) > 0] = -math.inf
    return stats


def _count_vectors(total: int, letters: int) -> np.ndarray:
    """Every vector of letters nonnegative counts summing to total, one a
    column of a (letters, C(total + letters - 1, letters - 1)) array."""
    heads = np.zeros((0, 1), dtype=np.int32)
    left = np.array([total], dtype=np.int32)
    for _ in range(letters - 1):
        reps = left + 1  # column j splits into one per next count 0..left[j]
        count = (np.arange(reps.sum())
                 - np.repeat(np.cumsum(reps) - reps, reps)).astype(np.int32)
        heads = np.vstack((np.repeat(heads, reps, axis=1), count))
        left = np.repeat(left, reps) - count
    return np.vstack((heads, left))


def _exact_mass(counts: np.ndarray, total: int, row: np.ndarray) -> Fraction:
    """Exact probability that total letters drawn iid from row, normalised
    (a float row sums to 1 only to rounding), have one of the count
    vectors in the columns of counts."""
    p = [Fraction(x) for x in row.tolist()]
    mass = sum(math.factorial(total) // math.prod(map(math.factorial, c))
               * math.prod(pk ** k for pk, k in zip(p, c))
               for c in counts.T.tolist())
    return mass / sum(p) ** total


def exact_threshold(channel: Dmc, x_star: int, window_len: int,
                    epsilon: float) -> float:
    """The largest statistic value tau with P(stat < tau) <= epsilon/4 for a
    window of window_len letters drawn from the burst row W[x_star].

    The law sums the multinomial pmf over the letter count vectors a burst
    window can hold, whose statistics come from _stats_from_counts and so
    tie with trial statistics bit for bit.  Masses within a relative 1e-6
    of epsilon/4 are decided again exactly.  Windows with more than
    MAX_MULTISETS count vectors are rejected before any is built.
    """
    row = channel.w[x_star]
    support = np.flatnonzero(row > 0.0)
    vectors = math.comb(window_len + support.size - 1, support.size - 1)
    if vectors > MAX_MULTISETS:
        raise InvalidConfigError(
            f"the exact threshold would enumerate {vectors} letter multisets "
            f"of a {window_len}-letter window, which exceeds {MAX_MULTISETS}")
    counts = _count_vectors(window_len, support.size)
    # letters the burst cannot emit always count 0, which adds nothing
    tables = tuple(t[support] for t in _llr_tables(channel, x_star))
    p = row[support]
    log_fact = gammaln(np.arange(window_len + 1) + 1.0)
    scale = log_fact[window_len] - window_len * math.log(p.sum())
    # statistics and log pmf a slice of count vectors at a time, so their
    # scratch arrays stay small; both are elementwise, so no bit depends
    # on the slicing.  The count vectors are then freed, and rebuilt only
    # if the exact test below needs them.
    stats, log_pmf = np.empty(counts.shape[1]), np.empty(counts.shape[1])
    for i in range(0, counts.shape[1], _SLICE):
        part = counts[:, i:i + _SLICE]
        stats[i:i + _SLICE] = _stats_from_counts(part, *tables)
        log_pmf[i:i + _SLICE] = scale + sum(
            c * math.log(pk) - log_fact[c] for c, pk in zip(part, p))
    del counts, log_fact, part
    order = np.argsort(stats, kind="stable")
    stats = stats[order]
    mass = log_pmf[order]
    del log_pmf
    np.exp(mass, out=mass)
    np.cumsum(mass, out=mass)
    # the j-th distinct value starts at sorted position first[j], and
    # below[j], rising, is the mass of the statistics under it
    new = np.empty(stats.size, dtype=bool)
    new[0] = True
    np.not_equal(stats[1:], stats[:-1], out=new[1:])
    first = np.flatnonzero(new)
    del new
    below = np.empty(first.size)
    below[0] = 0.0
    # in place, and mode="clip" (every index is in range), so that take
    # makes no scratch copy
    first -= 1
    np.take(mass, first[1:], out=below[1:], mode="clip")
    first += 1
    del mass
    # values before lo pass and from hi on fail beyond float doubt; the
    # ones in between are decided exactly
    lo, hi = np.searchsorted(below, epsilon / 4 * np.array([1 - 1e-6, 1 + 1e-6]))
    if lo < hi:
        counts = _count_vectors(window_len, support.size)
    while lo < hi and _exact_mass(counts[:, order[:first[lo]]], window_len,
                                  p) <= Fraction(epsilon) / 4:
        lo += 1
    return float(stats[first[lo - 1]])
