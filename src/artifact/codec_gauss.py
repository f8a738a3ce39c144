"""Pulse-position codec for the timing channel with additive Gaussian noise.

Same block layout as the DMC codec (one burst of B slots inside the m-th of
M guard blocks of N slots), but the burst is a real amplitude chosen so each
codeword spends the same energy, the detector is a window sum over the
square root of its length, in unit-noise coordinates, against a fixed
threshold (ties go to the burst), and the decision regions are thinned to multiples
of floor(M / log2(M)) so the number of tests per region stays logarithmic.

Positions are 1-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import _exact
from ._layout import GuardDiagnostics, Layout, guard_block_len, guard_blocks
from .channel import StateDistribution
from .errors import InvalidConfigError


@dataclass(frozen=True)
class GaussSchemeParams:
    M: int
    epsilon: float
    delta: float
    mu: float
    sigma2: float
    eta2: float
    N: int
    B: int
    beta: float
    nu: float
    window_len: int
    spacing: int
    x_star: float  # physical burst amplitude, noise scale folded in
    threshold: float  # in unit-noise coordinates
    diagnostics: GuardDiagnostics
    layout: Layout = field(repr=False, compare=False)

    @property
    def codeword_len(self) -> int:
        return self.layout.codeword_len

    @property
    def energy(self) -> float:
        """Energy of every codeword: B * x_star^2."""
        return self.B * self.x_star ** 2

    def amplitude(self, m: int) -> float:
        """Burst amplitude of message m: x_star for every message."""
        return self.x_star


def derive_params(M: int, epsilon: float, delta: float,
                  idc: StateDistribution, eta2: float = 1.0) -> GaussSchemeParams:
    """Size the burst, guard block, window, and amplitude.

    B grows like sqrt(M * N) * sigma / mu, which balances the energy spent
    per burst slot against the timing jitter; the amplitude then makes the
    total energy (1+delta)^2 * (2+delta) * eta2 * ln(M) / mu regardless of
    the rounding of B.  N, the region radius nu, the burst spread beta and
    the window follow the DMC scheme's drift budget (_layout.guard_blocks),
    so each drift event has probability at most epsilon/4.  The spacing
    floor(M / log2 M) is at least 2 for M >= 4.  Requires jittery timing
    (sigma2 > 0): with deterministic timing the burst-length formula
    collapses to zero.
    """
    if M < 4:
        raise InvalidConfigError(f"need at least 4 messages, got {M}")
    if not (0.0 < epsilon < 1.0):
        raise InvalidConfigError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise InvalidConfigError(f"delta must be in (0, 1), got {delta}")
    if not (0.0 < eta2 < math.inf):
        raise InvalidConfigError(
            f"noise variance must be positive and finite, got {eta2}")
    mu, sigma2 = idc.mu, idc.sigma2
    if not (mu > 0):
        raise InvalidConfigError("timing process never emits anything (mu == 0)")

    N = guard_block_len(M, mu, sigma2, epsilon)
    B = _exact.floor_sqrt_frac(
        (M * N) * _exact.frac(sigma2) / _exact.frac(mu) ** 2)
    if B < 1:
        raise InvalidConfigError(
            "burst length came out empty; the scheme needs timing jitter "
            f"(sigma2={sigma2}) and a larger M to have anything to detect")
    spacing = _exact.floor_frac(Fraction(M) / _exact.frac(math.log2(M)))
    log_m = math.log(M)
    x_star = (1.0 + delta) * math.sqrt(eta2) * math.sqrt(
        (2.0 + delta) * log_m / (B * mu))
    threshold = math.sqrt((2.0 + delta) * log_m)

    layout, diagnostics = guard_blocks(M, N, B, mu, sigma2, epsilon,
                                       step=spacing, slack=spacing)
    if 0 in layout.sizes:
        raise InvalidConfigError(
            f"decision region for message {layout.sizes.index(0) + 1} is "
            "empty; the spacing grid misses the drift interval at this size")
    return GaussSchemeParams(
        M=M, epsilon=float(epsilon), delta=float(delta), mu=float(mu),
        sigma2=float(sigma2), eta2=float(eta2), N=N, B=B,
        beta=math.sqrt(layout.burst_drift.radius_sq),
        nu=math.sqrt(layout.prefix_drift.radius_sq),
        window_len=layout.window_lens[0], spacing=spacing, x_star=x_star,
        threshold=threshold, diagnostics=diagnostics, layout=layout)
