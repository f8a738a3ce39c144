"""The materialising simulator that the streamed trials are tested against.

A trial here builds everything the streamed path (artifact._sparse) never
does: the codeword (encode), a state trace and the received stream
(channel) and a statistic for every window, over the stream padded with
idle draws (decode).  The streamed path is exact in law, so the two may
differ only by sampling noise.  One decoder serves all three schemes:
given the DMC back end it reads log-likelihood ratios of letter counts,
otherwise Gaussian window sums.

Positions are 1-based, as in the package.
"""

from __future__ import annotations

import math

import numpy as np

from artifact import codec_dmc
from artifact._layout import Layout, TraceDiagnostics, contact_diagnostics
from artifact.channel import Dmc, GaussianNoise, StateDistribution
from artifact.errors import InvalidConfigError
from artifact.rng import as_generator

MAX_MATERIALIZED = 1 << 26  # refuse to allocate codewords beyond this many slots


def encode(layout: Layout, m: int, level) -> np.ndarray:
    """Codeword of message m: level in its burst slots, 0 elsewhere, in
    level's dtype (an int letter: int64, a float amplitude: float64).
    Codewords over MAX_MATERIALIZED slots are refused before any is
    allocated."""
    layout.check_message(m)
    if layout.codeword_len > MAX_MATERIALIZED:
        raise InvalidConfigError(
            f"codeword length {layout.codeword_len} exceeds the "
            f"materialization cap {MAX_MATERIALIZED}")
    x = np.zeros(layout.codeword_len, dtype=np.asarray(level).dtype)
    start = layout.prefix_slots[m - 1]
    x[start:start + layout.burst_slots[m - 1]] = level
    return x


def sample_states(dist: StateDistribution, n: int, seed=None) -> np.ndarray:
    """A state trace of n iid repetition states."""
    return as_generator(seed).choice(dist.values, size=int(n),
                                     p=dist.probabilities)


def channel(x, idc, back_end: Dmc | GaussianNoise | None = None,
            seed=None) -> np.ndarray:
    """Emit each symbol of x as many times as its state says, then pass
    the stream through back_end (None: noiseless).

    idc is a state trace, one state a symbol, and the seed then feeds the
    back end alone; or a StateDistribution, and two substreams split off
    the seed draw the trace and the noise.
    """
    x = np.asarray(x)
    if isinstance(idc, StateDistribution):
        state_rng, rng = as_generator(seed).spawn(2)
        idc = sample_states(idc, x.size, state_rng)
    else:
        rng = as_generator(seed)
    if len(idc) != x.size:
        raise ValueError(
            f"input length {x.size} does not match state block {len(idc)}")
    y = np.repeat(x, idc)
    if isinstance(back_end, GaussianNoise):
        return y.astype(np.float64) + rng.normal(0.0, back_end.eta, size=y.size)
    if isinstance(back_end, Dmc):
        if y.size and (y.min() < 0 or y.max() >= back_end.num_inputs):
            raise ValueError("input symbol outside the channel alphabet")
        out = np.empty(y.size, dtype=np.int64)
        for sym in range(back_end.num_inputs):
            mask = y == sym
            if n := int(mask.sum()):
                out[mask] = rng.choice(back_end.num_outputs, size=n,
                                       p=back_end.w[sym])
        return out
    return y


def statistics(y, starts, lens, params, dmc: Dmc | None = None) -> np.ndarray:
    """The statistic of the window of lens[i] samples at 1-based position
    starts[i] of y, for each i.

    Given the DMC back end, the window's log-likelihood ratio: exact
    integer letter counts combined by codec_dmc._stats_from_counts, so
    that a statistic ties with exact_threshold bit for bit.  Otherwise the
    window sum over sqrt(window length), in unit-noise coordinates.
    """
    lo = np.asarray(starts) - 1
    hi = lo + lens
    if dmc is None:
        cs = np.concatenate(([0.0], np.cumsum(y, dtype=np.float64)))
        return (cs[hi] - cs[lo]) / (np.sqrt(np.asarray(lens, dtype=np.float64))
                                    * math.sqrt(params.eta2))
    counts = np.empty((dmc.num_outputs, lo.size), dtype=np.int64)
    for letter in range(dmc.num_outputs):
        cy = np.concatenate(([0], np.cumsum(y == letter, dtype=np.int64)))
        counts[letter] = cy[hi] - cy[lo]
    return codec_dmc._stats_from_counts(
        counts, *codec_dmc._llr_tables(dmc, params.x_star))


def row_statistics(rows, params, dmc: Dmc | None = None) -> np.ndarray:
    """The statistic of each row of a 2-D array, a window each."""
    n, w = np.shape(rows)
    return statistics(np.ravel(rows), np.arange(n) * w + 1, np.full(n, w),
                      params, dmc)


def decode(y, params, dmc: Dmc | None = None, seed=None) -> int | None:
    """The unique message whose region holds a firing window, else None.

    A window fires when its statistic reaches the threshold (ties go to
    the burst).  Windows running past the received stream are completed
    with idle draws, from the zero row of dmc or from N(0, eta2); pass a
    seed to pin that padding down.
    """
    y = np.asarray(y)
    table = params.layout.table
    if table.last_end > y.size:
        rng, n = as_generator(seed), table.last_end - y.size
        pad = (rng.normal(0.0, math.sqrt(params.eta2), size=n) if dmc is None
               else rng.choice(dmc.num_outputs, size=n, p=dmc.w[0]))
        y = np.concatenate([y, pad])
    return decide(table, statistics(y, table.starts, table.lens, params, dmc)
                  >= params.threshold)


def decide(table, fired: np.ndarray) -> int | None:
    """The package's unique-region rule on one row of window verdicts:
    the one message with a firing window, else None."""
    return int(table.decide_rows(table.region_counts(fired[None]))[0]) or None


def geometry(m: int, a: int, g: int, layout: Layout) -> TraceDiagnostics:
    """The drift and geometry flags of sending m when the prefix puts out a
    samples and the burst image is g samples wide."""
    layout.check_message(m)
    return contact_diagnostics(m, a, g, layout, *layout.table.contact(a, g))


def trace_diagnostics(m: int, states, layout: Layout) -> TraceDiagnostics:
    """The flags of sending m under a state trace of the whole codeword."""
    states = np.asarray(states)
    if states.size != layout.codeword_len:
        raise ValueError("state trace length does not match the codeword")
    layout.check_message(m)
    prefix = layout.prefix_slots[m - 1]
    return geometry(m, int(states[:prefix].sum()),
                    int(states[prefix:prefix + layout.burst_slots[m - 1]].sum()),
                    layout)
