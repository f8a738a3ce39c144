"""Burst-position codec over a jittered DMC.

The fixed-parameter block at the top pins the derived constants for one
fully worked configuration (three-point timing law with unit mean and
variance 1/4, binary back end with exactly one bit of divergence); every
number below was checked by hand against the defining formulas.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artifact import codec_dmc as cd
from artifact.channel import Dmc, StateDistribution
from artifact.errors import InvalidConfigError
from oracle import (channel, decode, encode, geometry, row_statistics,
                    trace_diagnostics)


def one_bit_channel() -> Dmc:
    """W(.|0) uniform, W(.|1) a point mass: D(W1||W0) is exactly 1 bit."""
    return Dmc(np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([0.0, 1.0]))


def quarter_variance_idc() -> StateDistribution:
    return StateDistribution(((0, 0.125), (1, 0.75), (2, 0.125)))


@pytest.fixture(scope="module")
def worked() -> cd.DmcSchemeParams:
    return cd.derive_params(M=64, epsilon=0.25, delta=0.5,
                            idc=quarter_variance_idc(),
                            channel=one_bit_channel(), x_star=1)


def test_worked_example_constants(worked):
    assert worked.divergence == pytest.approx(1.0, rel=1e-14)
    assert worked.mu == 1.0 and worked.sigma2 == 0.25
    assert worked.N == 2304          # ceil(36 * 64 * 0.25 / 0.25)
    assert worked.B == 15            # floor(2.5 * 6 / 1)
    assert worked.nu == 768.0        # sqrt(4 * 64 * 2304 * 0.25 / 0.25)
    assert worked.beta == pytest.approx(math.sqrt(60.0))
    assert worked.window_len == 7    # floor(15 - sqrt(60))
    assert worked.codeword_len == 64 * 2304


def test_worked_example_regions(worked):
    assert worked.layout.regions[0] == range(1, 2)
    r2 = worked.layout.regions[1]
    assert r2[0] == 1538 and r2[-1] == 3072 and len(r2) == 1535
    assert 2305 in r2                # the drift-free landing spot
    assert worked.diagnostics == cd.GuardDiagnostics(True, True, True, True)


def test_regions_pairwise_disjoint(worked):
    seen: set[int] = set()
    for m in range(1, 6):
        r = set(worked.layout.regions[m - 1])
        assert not (r & seen)
        seen |= r


def test_encode_layout(worked):
    cw = encode(worked.layout, 3, worked.x_star)
    assert cw.size == worked.codeword_len
    assert cw.dtype == np.int64
    burst = slice(2 * worked.N, 2 * worked.N + worked.B)
    assert cw[burst].tolist() == [1] * worked.B
    assert int(cw.sum()) == worked.B
    with pytest.raises(ValueError):
        encode(worked.layout, 0, worked.x_star)
    with pytest.raises(ValueError):
        encode(worked.layout, 65, worked.x_star)


def test_zero_jitter_collapses_spacing():
    p = cd.derive_params(M=8, epsilon=0.25, delta=0.5,
                         idc=StateDistribution.constant(1),
                         channel=one_bit_channel(), x_star=1)
    assert p.N == p.B and p.nu == 0.0 and p.window_len == p.B
    assert p.layout.regions[:3] == (range(1, 2), range(8, 9), range(15, 16))
    # doubling states shifts every landing spot by the realized rate
    p2 = cd.derive_params(M=4, epsilon=0.25, delta=0.5,
                          idc=StateDistribution.constant(2),
                          channel=one_bit_channel(), x_star=1)
    assert p2.window_len == 2 * p2.B
    assert p2.layout.regions[:3] == (range(1, 2), range(5, 6), range(9, 10))


def test_noiseless_burst_letter_rejected():
    with pytest.raises(InvalidConfigError):
        cd.derive_params(M=8, epsilon=0.25, delta=0.5,
                         idc=StateDistribution.constant(1),
                         channel=Dmc.identity(2), x_star=1)


@pytest.mark.parametrize("kwargs", [
    dict(M=1, epsilon=0.25, delta=0.5),
    dict(M=8, epsilon=0.0, delta=0.5),
    dict(M=8, epsilon=1.0, delta=0.5),
    dict(M=8, epsilon=0.25, delta=0.0),
])
def test_bad_parameters_rejected(kwargs):
    with pytest.raises(InvalidConfigError):
        cd.derive_params(idc=quarter_variance_idc(), channel=one_bit_channel(),
                         x_star=1, **kwargs)


def test_bad_burst_letter_rejected():
    for x in (0, 5):
        with pytest.raises(InvalidConfigError):
            cd.derive_params(M=8, epsilon=0.25, delta=0.5,
                             idc=quarter_variance_idc(),
                             channel=one_bit_channel(), x_star=x)


def tiny_params() -> cd.DmcSchemeParams:
    # M=4, constant unit states: N = B = window = 5, regions 1/6/11/16
    return cd.derive_params(M=4, epsilon=0.25, delta=0.5,
                            idc=StateDistribution.constant(1),
                            channel=one_bit_channel(), x_star=1)


def statistic_law(channel: Dmc, x_star: int, window_len: int) -> dict:
    """Exact law of one window's statistic under the burst, by brute force
    over every letter multiset: {statistic: probability as a Fraction}.
    The row is normalised exactly, as a float row sums to 1 only to
    rounding."""
    row = [Fraction(x) for x in channel.w[x_star].tolist()]
    total = sum(row)
    tables = cd._llr_tables(channel, x_star)
    law: dict = {}
    for combo in itertools.combinations_with_replacement(
            range(channel.num_outputs), window_len):
        counts = np.bincount(combo, minlength=channel.num_outputs)
        mass = Fraction(math.factorial(window_len))
        for y, k in enumerate(counts.tolist()):
            mass *= row[y] ** k / math.factorial(k)
        if mass:
            stat = float(cd._stats_from_counts(counts[:, None], *tables)[0])
            law[stat] = law.get(stat, 0) + mass / total ** window_len
    return law


def miss_below(law: dict, tau: float) -> Fraction:
    return sum((mass for stat, mass in law.items() if stat < tau), Fraction(0))


def brute_threshold(channel: Dmc, x_star: int, window_len: int,
                    epsilon: float) -> float:
    law = statistic_law(channel, x_star, window_len)
    return max(v for v in law if miss_below(law, v) <= Fraction(epsilon) / 4)


weights = st.one_of(st.just(0.0), st.integers(1, 4).map(float),
                    st.floats(0.01, 1.0))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 3).flatmap(
           lambda k: st.lists(st.lists(weights, min_size=k, max_size=k),
                              min_size=2, max_size=2)),
       window_len=st.integers(1, 8),
       epsilon=st.one_of(st.sampled_from([0.25, 0.5, 0.75]),
                         st.floats(0.001, 0.999)))
def test_exact_threshold_matches_brute_force(rows, window_len, epsilon):
    """On small random channels, zero entries and exact ties at epsilon/4
    (dyadic rows and epsilon) included, exact_threshold is the largest
    statistic value whose exact miss stays within epsilon/4."""
    w = np.array(rows)
    assume((w.sum(axis=1) > 0).all())
    channel = Dmc(w / w.sum(axis=1, keepdims=True), np.array([0.0, 1.0]))
    assert cd.exact_threshold(channel, 1, window_len, epsilon) \
        == brute_threshold(channel, 1, window_len, epsilon)


def test_log_factorials_agree_with_scipy():
    """exact_threshold's log-factorial table, by math.lgamma, against
    scipy's gammaln up to w = 5,000 (0! and 1! are exactly 0 in both)."""
    from scipy.special import gammaln
    w = 5000
    ours = np.fromiter(map(math.lgamma, range(1, w + 2)), float, w + 1)
    ref = gammaln(np.arange(w + 1) + 1.0)
    assert ours[0] == ours[1] == 0.0
    np.testing.assert_allclose(ours[2:], ref[2:], rtol=1e-15, atol=0)


def test_exact_threshold_keeps_the_miss_budget():
    # A sampled quantile put tau at 12.0 for 32 of 200 seeds here; the exact
    # miss there breaks the epsilon/4 budget, while the exact tau keeps it.
    ch = Dmc.bsc(0.2)
    p = cd.derive_params(M=32, epsilon=0.5, delta=2.5,
                         idc=StateDistribution.deletion(0.1), channel=ch,
                         x_star=1)
    assert p.threshold == 8.0
    law = statistic_law(ch, 1, p.window_len)
    budget = Fraction(p.epsilon) / 4
    assert miss_below(law, 8.0) <= budget < miss_below(law, 12.0)
    assert float(miss_below(law, 12.0)) == pytest.approx(0.1298, abs=1e-4)


def test_multiset_cap_rejects_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("count vectors built for a rejected config")

    monkeypatch.setattr(cd, "_count_vectors", no_enumeration)
    three = Dmc(np.array([[0.34, 0.33, 0.33], [0.33, 0.33, 0.34]]),
                np.array([0.0, 1.0]))
    # C(2894 + 2, 2) multisets fit under the cap, C(2895 + 2, 2) do not
    assert math.comb(2896, 2) <= cd.MAX_MULTISETS < math.comb(2897, 2)
    with pytest.raises(InvalidConfigError, match="multisets"):
        cd.exact_threshold(three, 1, 2895, 0.25)
    # a letter the burst cannot emit does not count
    with pytest.raises(AssertionError, match="count vectors"):
        cd.exact_threshold(Dmc(np.array([[0.5, 0.5, 0.0], [0.4, 0.6, 0.0]]),
                               np.array([0.0, 1.0])), 1, 10_000, 0.25)


def test_boundary_tie_fires():
    ch = one_bit_channel()
    p = tiny_params()
    # burst output is deterministic here, so the threshold is the full stat
    assert p.threshold == float(p.window_len)
    w = p.window_len
    # a zero is impossible under the burst: statistic drops to -inf
    dented = np.ones(w, dtype=np.int64)
    dented[2] = 0
    stats = row_statistics(np.stack([np.ones(w, dtype=np.int64), dented]),
                              p, ch)
    assert stats.tolist() == [p.threshold, -math.inf]   # the tie fires


def test_calibration_miss_budget_holds_out_of_sample():
    ch = Dmc.bsc(0.2)
    p = cd.derive_params(M=64, epsilon=0.25, delta=0.5,
                         idc=StateDistribution.deletion(0.1), channel=ch,
                         x_star=1)
    rng = np.random.default_rng(6)
    fresh = rng.choice(2, size=(4000, p.window_len), p=ch.w[1])
    misses = int((row_statistics(fresh, p, ch) < p.threshold).sum())
    budget = p.epsilon / 4
    slack = 3 * math.sqrt(budget * (1 - budget) / 4000)
    assert misses / 4000 <= budget + slack


def test_decode_unique_hit_rule():
    ch = one_bit_channel()
    p = tiny_params()
    n, b = p.N, p.B
    two_bursts = np.zeros(4 * n, dtype=np.int64)
    two_bursts[:2 * b] = 1                     # bursts of regions 1 and 2
    assert decode(two_bursts, p, ch) is None
    lone = two_bursts.copy()
    lone[b] = 0                                # second window killed by the 0
    assert decode(lone, p, ch) == 1
    assert decode(np.zeros(4 * n, dtype=np.int64), p, ch) is None


def test_decode_pads_short_streams():
    ch = one_bit_channel()
    p = tiny_params()
    full = np.zeros(4 * p.N, dtype=np.int64)
    full[:p.B] = 1
    assert decode(full, p, ch) == 1
    short = np.ones(p.B, dtype=np.int64)       # stream ends right after burst 1
    got = [decode(short, p, ch, seed=s) for s in range(6)]
    assert decode(short, p, ch, seed=0) == got[0]  # reproducible padding
    assert 1 in got                                   # padding usually stays idle
    assert all(r in (1, None) for r in got)


def test_seeded_round_trip_batch():
    """End-to-end through the sampled channel: wrong decodes never happen
    at these settings and nearly every message survives."""
    ch = Dmc.bsc(0.01)
    idc = StateDistribution.constant(1)
    p = cd.derive_params(M=64, epsilon=0.25, delta=0.5, idc=idc, channel=ch,
                         x_star=1)
    correct = wrong = erased = 0
    for m in range(1, 65):
        y = channel(encode(p.layout, m, p.x_star), idc, ch, seed=100 + m)
        got = decode(y, p, ch, seed=200 + m)
        if got == m:
            correct += 1
        elif got is None:
            erased += 1
        else:
            wrong += 1
    assert wrong == 0
    assert correct >= 58


def test_trace_matches_geometry(worked):
    states = np.ones(worked.codeword_len, dtype=np.int64)
    states[:767] = 2                       # drift the m=2 prefix by +767
    m = 2
    a = int(states[:worked.N].sum())
    g = int(states[worked.N:worked.N + worked.B].sum())
    assert trace_diagnostics(m, states, worked.layout) == geometry(
        m, a, g, worked.layout)


def test_drift_events_are_boundary_exact(worked):
    n = worked.N  # prefix of m=2; mu == 1 so drift == a - N
    base = dict(m=2, g=worked.B, layout=worked.layout)
    assert not geometry(a=n + 767, **base).prefix_drift_out
    assert geometry(a=n + 768, **base).prefix_drift_out
    assert geometry(a=n - 768, **base).prefix_drift_out
    # burst spread: beta^2 = 60, so +-8 is out (64 >= 60) and +-7 is in
    ok = geometry(2, n, worked.B + 7, worked.layout)
    assert not ok.burst_spread_out
    assert geometry(2, n, worked.B + 8, worked.layout).burst_spread_out


def test_clean_trace_certifies_geometry(worked):
    d = geometry(2, worked.N, worked.B, worked.layout)
    assert not d.prefix_drift_out and not d.burst_spread_out
    assert d.wrong_windows_all_zero
    assert d.full_burst_window_exists
    assert (d.prefix_output, d.burst_output) == (worked.N, worked.B)
    gone = geometry(2, worked.N, 0, worked.layout)
    assert gone.wrong_windows_all_zero and not gone.full_burst_window_exists


def test_geometry_rejects_bad_message(worked):
    with pytest.raises(ValueError):
        geometry(0, 10, 10, worked.layout)
    with pytest.raises(ValueError):
        trace_diagnostics(1, np.ones(3, dtype=np.int64), worked.layout)
