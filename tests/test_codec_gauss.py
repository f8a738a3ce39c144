"""Burst-position codec with an additive-Gaussian back end.

Worked configuration: M=256 messages, deletion rate 0.1 (mean 0.9, variance
just under 0.09), epsilon 0.2, delta 0.5, unit noise variance.  Constants
follow from the defining formulas:

    N = ceil(36 M sigma2 / (mu^2 eps))             -> 5120
    B = floor(sqrt(M N sigma2 / mu^2))             -> 381
    window = floor(B mu - sqrt(4 B sigma2 / eps))  -> 316
    spacing = floor(M / log2 M)                    -> 32
    nu = sqrt(4 M N sigma2 / eps)                  -> 1536 (up to float slop)
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from artifact import codec_gauss as cg
from artifact.channel import StateDistribution
from artifact.errors import InvalidConfigError
from oracle import (MAX_MATERIALIZED, channel, decode, encode, geometry,
                    row_statistics, trace_diagnostics)


@pytest.fixture(scope="module")
def worked() -> cg.GaussSchemeParams:
    return cg.derive_params(M=256, epsilon=0.2, delta=0.5,
                            idc=StateDistribution.deletion(0.1))


def test_worked_example_constants(worked):
    assert worked.N == 5120
    assert worked.B == 381
    assert worked.window_len == 316
    assert worked.spacing == 32
    assert worked.nu == pytest.approx(1536.0)
    assert worked.beta == pytest.approx(math.sqrt(4 * 381 * worked.sigma2 / 0.2))
    assert worked.threshold == pytest.approx(math.sqrt(2.5 * math.log(256)))
    assert worked.x_star == pytest.approx(
        1.5 * math.sqrt(2.5 * math.log(256) / (381 * 0.9)))
    assert worked.codeword_len == 256 * 5120
    assert worked.diagnostics.regions_disjoint
    assert worked.diagnostics.wrong_windows_clear
    assert worked.diagnostics.wrong_windows_clear_jitter


def test_energy_identity_is_exact(worked):
    # B x*^2: the floor in B cancels against 1/B in x*^2
    want = 1.5**2 * 2.5 * worked.eta2 * math.log(256) / worked.mu
    assert worked.energy == pytest.approx(want, rel=1e-12)


def test_rate_per_unit_energy_identity(worked):
    rate = math.log2(worked.M) / worked.energy
    want = worked.mu / (1.5**2 * 2.5 * worked.eta2 * math.log(2))
    assert rate == pytest.approx(want, rel=1e-12)


def test_threshold_tail_bound(worked):
    # single-window false alarm under pure noise stays below M^-(1+delta/2)
    assert stats.norm.sf(worked.threshold) <= worked.M ** -(1 + worked.delta / 2)


def test_regions(worked):
    assert worked.layout.regions[0] == range(1, 2)
    r2 = worked.layout.regions[1]
    assert r2[0] == 3104 and r2[-1] == 6144 and len(r2) == 96
    assert all(v % worked.spacing == 0 for v in r2)
    assert len(r2) <= 2 * worked.nu / worked.spacing + 1
    taken: set[int] = set()
    for m in range(1, 5):
        r = set(worked.layout.regions[m - 1])
        assert not (r & taken)
        taken |= r


def test_encode_layout(worked):
    cw = encode(worked.layout, 5, worked.amplitude(5))
    assert cw.size == worked.codeword_len
    assert cw.dtype == np.float64
    lo = 4 * worked.N
    burst = cw[lo:lo + worked.B]
    assert np.all(burst == worked.x_star)
    assert np.count_nonzero(cw) == worked.B
    with pytest.raises(ValueError):
        encode(worked.layout, 0, worked.x_star)
    with pytest.raises(ValueError):
        encode(worked.layout, worked.M + 1, worked.x_star)


def test_encode_refuses_codewords_over_the_cap(monkeypatch):
    """The worked configuration at M = 4096 has 335,544,320 slots, 2.5 GiB
    of float64: refused before any array is allocated."""
    p = cg.derive_params(M=4096, epsilon=0.2, delta=0.5,
                         idc=StateDistribution.deletion(0.1))
    assert p.codeword_len == 335_544_320 > MAX_MATERIALIZED

    def unallocated(*args, **kwargs):
        raise AssertionError("allocated a codeword over the cap")

    monkeypatch.setattr(np, "zeros", unallocated)
    with pytest.raises(InvalidConfigError, match="materialization cap"):
        encode(p.layout, 1, p.amplitude(1))


def test_zero_jitter_rejected():
    with pytest.raises(InvalidConfigError):
        cg.derive_params(M=16, epsilon=0.2, delta=0.5,
                         idc=StateDistribution.constant(1))


def test_an_empty_region_names_its_message(monkeypatch):
    """A layout with an empty region is refused, naming the first such
    message."""
    real = cg.guard_blocks

    def emptied(*args, **kwargs):
        layout, diagnostics = real(*args, **kwargs)
        regions = list(layout.regions)
        regions[4] = regions[6] = range(0)
        return replace(layout, regions=tuple(regions)), diagnostics

    monkeypatch.setattr(cg, "guard_blocks", emptied)
    with pytest.raises(InvalidConfigError,
                       match="region for message 5 is empty"):
        cg.derive_params(M=16, epsilon=0.2, delta=0.5,
                         idc=StateDistribution.deletion(0.1))


@pytest.mark.parametrize("kwargs", [
    dict(M=1, epsilon=0.2, delta=0.5),
    dict(M=16, epsilon=0.0, delta=0.5),
    dict(M=16, epsilon=0.2, delta=0.0),
    dict(M=16, epsilon=0.2, delta=0.5, eta2=0.0),
])
def test_bad_parameters_rejected(kwargs):
    with pytest.raises(InvalidConfigError):
        cg.derive_params(idc=StateDistribution.deletion(0.1), **kwargs)


def test_correlate_oracles(worked):
    w = worked.window_len
    zero, full = row_statistics([np.zeros(w), np.full(w, worked.x_star)],
                                worked)
    assert zero == 0.0
    assert full == pytest.approx(worked.x_star * math.sqrt(w), rel=1e-12)
    # normalized pure noise has unit variance
    rng = np.random.default_rng(31)
    noise = rng.normal(0.0, math.sqrt(worked.eta2), size=(2000, w))
    vals = noise.sum(axis=1) / (math.sqrt(worked.eta2 * w))
    got = row_statistics(noise, worked)
    assert np.allclose(got, vals)
    assert 0.93 <= got.var() <= 1.07


def small_params() -> cg.GaussSchemeParams:
    return cg.derive_params(M=4, epsilon=0.5, delta=0.5,
                            idc=StateDistribution.deletion(0.5))


def test_small_config_fires_on_full_burst():
    ps = small_params()
    assert ps.x_star * math.sqrt(ps.window_len) >= ps.threshold


def test_noise_free_round_trip_with_random_jitter():
    ps = small_params()
    rng = np.random.default_rng(42)
    for m in range(1, 5):
        cw = encode(ps.layout, m, ps.amplitude(m))
        y = channel(cw, rng.integers(0, 2, size=cw.size))
        assert decode(y, ps, seed=m) == m


def test_decode_unique_hit_rule():
    ps = small_params()
    y = np.zeros(ps.codeword_len)
    y[:ps.B] = ps.x_star
    n = ps.N
    y[n:n + ps.B] = ps.x_star        # second burst: two regions fire
    assert decode(y, ps, seed=0) is None
    assert decode(np.zeros(ps.codeword_len), ps, seed=0) is None


def test_decode_padding_is_seeded():
    ps = small_params()
    y = np.zeros(10)
    y[:ps.B if ps.B < 10 else 10] = ps.x_star
    a = decode(y, ps, seed=3)
    b = decode(y, ps, seed=3)
    assert a == b


def test_geometry_diagnostics(worked):
    clean = geometry(2, 4608, 343, worked.layout)
    assert not clean.prefix_drift_out
    assert not clean.burst_spread_out
    assert clean.wrong_windows_all_zero
    assert clean.full_burst_window_exists
    gone = geometry(2, 4608, 0, worked.layout)
    assert gone.wrong_windows_all_zero and not gone.full_burst_window_exists
    # deletion(0.1) variance sits just under 0.09, so drift 1536 is outside
    assert not geometry(2, 4608 + 1535, 343, worked.layout).prefix_drift_out
    assert geometry(2, 4608 + 1536, 343, worked.layout).prefix_drift_out
    with pytest.raises(ValueError):
        geometry(0, 1, 1, worked.layout)


def test_guard_record_flags_a_window_within_the_slack(worked):
    """With w <= slack every own window counts as covering the burst, so
    full_burst_window_exists certifies nothing; window_exceeds_slack says
    so.  Slack M / log2 M = 32 at M = 256."""
    assert worked.diagnostics.window_exceeds_slack      # w = 316
    calm = cg.derive_params(M=256, epsilon=0.2, delta=0.5,
                            idc=StateDistribution.deletion(0.002))
    assert calm.window_len == 5
    assert not calm.diagnostics.window_exceeds_slack
    # an image on message 1's window alone still reads as covered for 2
    vacuous = geometry(2, 0, calm.B, calm.layout)
    assert not vacuous.wrong_windows_all_zero
    assert vacuous.full_burst_window_exists


def test_trace_matches_geometry():
    ps = small_params()
    rng = np.random.default_rng(9)
    states = rng.integers(0, 2, size=ps.codeword_len)
    m = 3
    prefix = (m - 1) * ps.N
    a = int(states[:prefix].sum())
    g = int(states[prefix:prefix + ps.B].sum())
    assert trace_diagnostics(m, states, ps.layout) == geometry(
        m, a, g, ps.layout)
