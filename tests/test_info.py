"""Divergence and capacity-per-unit-cost computations.

The brute-force oracle below maximizes D(W(.|x) || W(.|0)) / c(x) by direct
enumeration over input symbols, which is the definition; the closed-form
implementation must agree on random channels.
"""

import math

import numpy as np
import pytest

from artifact import info
from artifact.channel import Dmc


def test_kl_two_point_hand_value():
    # D((0.8,0.2)||(0.1,0.9)) = 0.8 log2 8 + 0.2 log2(2/9)
    want = 0.8 * 3.0 + 0.2 * math.log2(2.0 / 9.0)
    assert info.kl_divergence([0.8, 0.2], [0.1, 0.9]) == pytest.approx(want, rel=1e-12)


def test_kl_self_is_zero():
    p = [0.3, 0.45, 0.25]
    assert info.kl_divergence(p, p) == 0.0


def test_kl_zero_in_p_contributes_nothing():
    assert info.kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(1.0)


def test_kl_infinite_when_support_escapes():
    assert info.kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(404)
    for _ in range(300):
        k = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        assert info.kl_divergence(p, q) >= -1e-13


def test_bsc_capacity_hand_value():
    # BSC(0.2) with unit cost on input 1: value = D((0.8,0.2)||(0.2,0.8))
    ch = Dmc.bsc(0.2)
    rep = info.capacity_per_unit_cost(ch)
    want = 0.6 * math.log2(4.0)  # 0.8 log2 4 + 0.2 log2(1/4)
    assert rep.value == pytest.approx(want, rel=1e-12)
    assert rep.value == pytest.approx(1.2, rel=1e-12)
    assert rep.maximizing_symbol == 1


def _brute_force(ch: Dmc) -> float:
    best = 0.0
    for x in range(1, ch.w.shape[0]):
        if ch.cost[x] == 0.0:
            div = info.kl_divergence(ch.w[x], ch.w[0])
            if div > 0.0:
                return math.inf
            continue
        best = max(best, info.kl_divergence(ch.w[x], ch.w[0]) / ch.cost[x])
    return best


def test_capacity_matches_brute_force_on_random_channels():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.dirichlet(np.ones(3), size=3)
        cost = np.concatenate(([0.0], rng.uniform(0.2, 3.0, size=2)))
        ch = Dmc(w, cost)
        rep = info.capacity_per_unit_cost(ch)
        assert rep.value == pytest.approx(_brute_force(ch), rel=1e-12)
        assert rep.per_symbol_ratios[rep.maximizing_symbol] == pytest.approx(rep.value)


def test_noiseless_channel_has_infinite_ratio():
    rep = info.capacity_per_unit_cost(Dmc.identity(2))
    assert rep.value == math.inf


def test_free_distinguishable_letter_dominates():
    # letter 1 costs nothing yet moves the output law, so the ratio is infinite
    w = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 1.0]])
    ch = Dmc(w, np.array([0.0, 0.0, 2.0]))
    rep = info.capacity_per_unit_cost(ch)
    assert rep.value == math.inf
    assert rep.maximizing_symbol == 1


def test_all_free_letters_rejected():
    w = np.array([[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(ValueError):
        info.capacity_per_unit_cost(Dmc(w, np.array([0.0, 0.0])))


def test_cost_scaling_leaves_argmax_alone():
    rng = np.random.default_rng(12)
    w = rng.dirichlet(np.ones(4), size=4)
    cost = np.concatenate(([0.0], rng.uniform(0.5, 2.0, size=3)))
    a = info.capacity_per_unit_cost(Dmc(w, cost))
    b = info.capacity_per_unit_cost(Dmc(w, 5.0 * cost))
    assert b.maximizing_symbol == a.maximizing_symbol
    assert b.value == pytest.approx(a.value / 5.0, rel=1e-12)


def test_gaussian_closed_form():
    # amplitude-cost ratio mu / (2 eta2 ln 2) per unit energy
    got = info.gaussian_capacity_per_unit_energy(0.9, 0.09)
    assert got == pytest.approx(0.9 / (2 * 0.09 * math.log(2)), rel=1e-12)
    with pytest.raises(ValueError):
        info.gaussian_capacity_per_unit_energy(0.9, 0.0)


def test_compound_gaussian_uses_smallest_rate():
    assert info.compound_gaussian_capacity(0.5, 1.0) == pytest.approx(
        info.gaussian_capacity_per_unit_energy(0.5, 1.0))


def test_bounds_halving_is_exact():
    rep = info.ids_capacity_bounds(0.7, Dmc.bsc(0.2))
    assert rep.upper == pytest.approx(0.7 * 1.2, rel=1e-12)
    assert rep.lower == pytest.approx(rep.upper / 2.0, rel=1e-12)
    assert rep.mu == 0.7


def test_bounds_reject_nonpositive_mu():
    with pytest.raises(ValueError):
        info.ids_capacity_bounds(0.0, Dmc.bsc(0.2))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0])
def test_rates_and_variances_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        info.ids_capacity_bounds(bad, Dmc.bsc(0.2))
    with pytest.raises(ValueError, match="mean repetition rate"):
        info.gaussian_capacity_per_unit_energy(bad, 1.0)
    with pytest.raises(ValueError, match="noise variance"):
        info.gaussian_capacity_per_unit_energy(1.0, bad)


def test_infinite_capacity_survives_finite_rates():
    # a noiseless back end has an infinite value; finite mu keeps it
    rep = info.ids_capacity_bounds(0.5, Dmc.identity(2))
    assert rep.upper == rep.lower == math.inf


def test_modified_cost_example():
    # c(x) scaled: zero symbol stays free, others get cost/mu
    ch = Dmc.bsc(0.2, cost=(0.0, 9.0))
    out = info.modified_cost(ch, 2.0)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(4.5)


def test_modified_cost_identity_at_unit_mean():
    ch = Dmc.bsc(0.1)
    assert np.allclose(info.modified_cost(ch, 1.0), ch.cost)
