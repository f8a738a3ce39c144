"""Divergence and capacity per unit cost.

With a free zero symbol, the capacity per unit cost of a memoryless channel
is the best divergence-to-cost ratio over nonzero letters,

    sup_x D(W(.|x) || W(.|0)) / c(x),

and sending each letter through an independent-repetition timing front end
with mean mu keeps that quantity between mu/2 and mu times the back-end
value.  For an additive-Gaussian back end the answer is exact:
mu / (2 * eta2 * ln 2) bits per unit energy.

All rates are in bits; +inf is a first-class value throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Dmc


def kl_divergence(p, q) -> float:
    """D(p || q) in bits over a shared finite outcome set.

    Terms with p[i] == 0 contribute nothing; p[i] > 0 against q[i] == 0
    makes the divergence +inf.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be 1-D distributions over the same set")
    for name, dist in (("p", p), ("q", q)):
        if np.any(dist < 0):
            raise ValueError(f"{name} has negative entries")
        if abs(float(dist.sum()) - 1.0) > 1e-9:
            raise ValueError(f"{name} does not sum to 1")
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


@dataclass(frozen=True)
class CapacityReport:
    """Capacity per unit cost plus the per-letter ratios behind it."""

    value: float
    maximizing_symbol: int
    per_symbol_ratios: dict[int, float]


@dataclass(frozen=True)
class BoundsReport:
    """Two-sided capacity bounds for the timing-channel composition."""

    lower: float
    upper: float
    mu: float


def capacity_per_unit_cost(channel: Dmc) -> CapacityReport:
    """Best divergence-to-cost ratio over nonzero letters.

    Zero-cost letters: indistinguishable from the zero symbol (D == 0) are
    skipped; distinguishable ones give an infinite ratio.  Ties go to the
    smallest letter index.
    """
    if channel.num_inputs < 2:
        raise ValueError("channel needs at least one nonzero input letter")
    if not np.any(channel.cost[1:] > 0):
        raise ValueError(
            "all nonzero letters have zero cost; the ratio is undefined")
    ratios: dict[int, float] = {}
    best_sym = -1
    best = -math.inf
    for x in range(1, channel.num_inputs):
        div = kl_divergence(channel.w[x], channel.w[0])
        c = float(channel.cost[x])
        if c == 0.0:
            if div == 0.0:
                continue  # 0/0: carries no information and no cost
            ratio = math.inf
        else:
            ratio = div / c
        ratios[x] = ratio
        if ratio > best:
            best = ratio
            best_sym = x
    if best_sym < 0:
        raise ValueError("every nonzero letter is indistinguishable from zero")
    return CapacityReport(value=best, maximizing_symbol=best_sym,
                          per_symbol_ratios=ratios)


def _require_finite_positive(value: float, name: str) -> None:
    if not (0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def ids_capacity_bounds(mu: float, channel: Dmc) -> BoundsReport:
    """Sandwich for the repetition front end: [mu/2, mu] times the back-end value."""
    _require_finite_positive(mu, "mean repetition rate")
    upper = mu * capacity_per_unit_cost(channel).value
    return BoundsReport(lower=0.5 * upper, upper=upper, mu=mu)


def gaussian_capacity_per_unit_energy(mu: float, eta2: float) -> float:
    """Exact capacity per unit energy with an additive-Gaussian back end."""
    _require_finite_positive(mu, "mean repetition rate")
    _require_finite_positive(eta2, "noise variance")
    return mu / (2.0 * eta2 * math.log(2.0))


def compound_gaussian_capacity(mu1: float, eta2: float) -> float:
    """Worst-case value over a mean-rate interval [mu1, mu2]: the lower edge rules."""
    return gaussian_capacity_per_unit_energy(mu1, eta2)


def modified_cost(channel: Dmc, mu: float) -> np.ndarray:
    """Per-letter cost rescaled by the mean repetition rate.

    Scaling costs by 1/mu makes the expected cost of the stretched stream
    equal the cost of the input block, which is what lets converse arguments
    ignore the timing front end.  The ratio maximizer is unchanged.
    """
    _require_finite_positive(mu, "mean repetition rate")
    return channel.cost / mu
