"""Exact rational arithmetic for scheme constants and decision regions.

Burst positions in the variable-spacing scheme grow geometrically with the
message index and overflow 2**53 long before the message count gets
interesting, so anything that is eventually compared against an integer
stream position is computed with Fractions over the binary values of the
float inputs.  Floats are only used for rough bracketing; membership and
floor/ceil decisions are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction


def frac(x) -> Fraction:
    """Exact Fraction of an int or float (binary value, not decimal text)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot convert non-finite value {x!r} to a fraction")
    return Fraction(x)


def floor_frac(q: Fraction) -> int:
    return q.numerator // q.denominator


def ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def floor_sqrt_frac(q: Fraction) -> int:
    """floor(sqrt(q)) for a nonnegative rational, exactly."""
    if q < 0:
        raise ValueError("square root of a negative value")
    # floor(sqrt(n/d)) == isqrt(n*d) // d
    return math.isqrt(q.numerator * q.denominator) // q.denominator


def floor_minus_sqrt(x: Fraction, q: Fraction) -> int:
    """floor(x - sqrt(q)) for rationals, q >= 0, exactly."""
    if q < 0:
        raise ValueError("square root of a negative value")
    if q == 0:
        return floor_frac(x)

    def fits(j: int) -> bool:
        # j <= x - sqrt(q)  <=>  sqrt(q) <= x - j  <=>  x - j >= 0 and q <= (x-j)^2
        d = x - j
        return d >= 0 and q <= d * d

    j = math.floor(float(x) - math.sqrt(float(q)))
    while not fits(j):
        j -= 1
    while fits(j + 1):
        j += 1
    return j


def ge_sqrt(t: Fraction, q: Fraction) -> bool:
    """Exact test of t >= sqrt(q), q >= 0."""
    if q < 0:
        raise ValueError("square root of a negative value")
    return t >= 0 and t * t >= q


def ge_sum_sqrt(t: Fraction, a: Fraction, b: Fraction) -> bool:
    """Exact test of t >= sqrt(a) + sqrt(b), a, b >= 0."""
    if a < 0 or b < 0:
        raise ValueError("square root of a negative value")
    if t < 0:
        return a == 0 and b == 0 and t >= 0
    s = t * t - a - b
    return s >= 0 and s * s >= 4 * a * b


def multiples_in_open(step: int, center: Fraction | tuple[int, int],
                      radius_sq: Fraction | tuple[int, int],
                      lo: int = 1) -> range:
    """Positive multiples of ``step`` (>= lo) strictly within r of center.

    center and radius_sq are exact rationals (Fractions or ints), or pairs
    (numerator, denominator) with a positive denominator, which spare a
    caller with many centers over one denominator a Fraction each.

    The members form one run, found in O(1) exact tests: a member next to
    the center, then the float estimates of both ends, corrected one step
    at a time.  Each test is cleared of denominators, so it runs in Python
    integers.  radius_sq == 0 degenerates to the closed singleton {center}
    when the center itself is such a multiple (the jitter-free case); the
    open interval would otherwise be empty and the singleton is the
    intended region.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    cn, cd = _ratio(center)
    rn, rd = _ratio(radius_sq)
    if rn < 0:
        raise ValueError("negative squared radius")
    # with d = k*step - cn/cd:
    # d*d < rn/rd  <=>  (k*step*cd - cn)**2 * rd < rn * cd**2
    unit, bound = step * cd, rn * cd * cd

    def inside(k: int) -> bool:
        d = k * unit - cn
        return d == 0 or d * d * rd < bound

    kmin = max(1, -(-lo // step))
    k = max(kmin, cn // unit)
    if not inside(k):
        k += 1
        if not inside(k):
            return range(0)
    c, r = cn / cd, math.sqrt(rn / rd)
    first = max(kmin, min(k, math.ceil((c - r) / step)))
    last = max(k, math.floor((c + r) / step))
    while not inside(first):
        first += 1
    while first > kmin and inside(first - 1):
        first -= 1
    while not inside(last):
        last -= 1
    while inside(last + 1):
        last += 1
    return range(first * step, (last + 1) * step, step)


def _ratio(q) -> tuple[int, int]:
    """(numerator, denominator) of a Fraction, an int or such a pair."""
    if isinstance(q, tuple):
        n, d = q
        if d < 1:
            raise ValueError("denominator must be positive")
        return n, d
    return q.numerator, q.denominator


def multiples_between(step: int, lo: Fraction | tuple[int, int],
                      hi: Fraction | tuple[int, int]) -> range:
    """Positive multiples of ``step`` strictly inside (lo, hi), exactly.

    lo and hi are exact rationals (Fractions or ints), or pairs
    (numerator, denominator) with a positive denominator.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    (ln, ld), (hn, hd) = _ratio(lo), _ratio(hi)
    first = max(ln // (ld * step) + 1, 1)  # (first - 1) * step <= lo
    stop = -(-hn // (hd * step))  # stop * step >= hi
    return range(first * step, stop * step, step)
