"""Exact rational arithmetic for scheme constants and decision regions.

Burst positions in the variable-spacing scheme grow geometrically with the
message index and overflow 2**53 long before the message count gets
interesting, so anything that is eventually compared against an integer
stream position is computed with Fractions over the binary values of the
float inputs.  Every membership and floor/ceil decision is a closed form in
Python integers (integer square roots included), so it takes no float and
no search, whatever the size of its inputs.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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


def floor_sqrt_frac(q: Fraction | tuple[int, int]) -> int:
    """floor(sqrt(q)) for a nonnegative rational, exactly."""
    n, d = _ratio(q)
    if n < 0:
        raise ValueError("square root of a negative value")
    # floor(sqrt(n/d)) == floor(sqrt(n*d) / d) == isqrt(n*d) // d
    return math.isqrt(n * d) // d


def ceil_sqrt_frac(q: Fraction | tuple[int, int]) -> int:
    """ceil(sqrt(q)) for a nonnegative rational, exactly."""
    n, d = _ratio(q)
    f = floor_sqrt_frac((n, d))
    return f if f * f * d == n else f + 1


def floor_minus_sqrt(x: Fraction, q: Fraction) -> int:
    """floor(x - sqrt(q)) for rationals, q >= 0, exactly."""
    # x - sqrt(q) == (xn - sqrt(xd^2 * q)) / xd, and for an integer a, a
    # real y >= 0 and d >= 1, floor((a - y) / d) == floor((a - ceil(y)) / d)
    xn, xd = _ratio(x)
    qn, qd = _ratio(q)
    return (xn - ceil_sqrt_frac((xd * xd * qn, qd))) // xd


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


def multiples_around(step: int, centers: Iterable[int], denominator: int,
                     radius_sq: Fraction | tuple[int, int]) -> list[range]:
    """For each integer c of centers, the positive multiples of ``step``
    strictly within r of c/denominator: many centers over one denominator
    and one radius, such as an equal-block layout's regions.

    A multiple v is inside when the integer D = v*denominator - c has
    |D| < sqrt(denominator^2 * r^2), that is |D| < Y with
    Y = ceil(sqrt(denominator^2 * r^2)), so each region is the multiples
    strictly between (c - Y)/denominator and (c + Y)/denominator.  Y is
    the same for every center: one integer square root for them all, then
    two floor divisions in Python ints a center, exact at any size.
    radius_sq == 0 degenerates to the closed singleton {center} when the
    center itself is such a multiple (the jitter-free case): Y = 1 keeps
    just D == 0, where the open interval would be empty.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    if denominator < 1:
        raise ValueError("denominator must be positive")
    rn, rd = _ratio(radius_sq)
    y = max(1, ceil_sqrt_frac((denominator * denominator * rn, rd)))
    unit = denominator * step
    # as multiples_between: (first - 1) * step <= lo, stop * step >= hi
    return [range(max((c - y) // unit + 1, 1) * step,
                  -(-(c + y) // unit) * step, step) for c in centers]


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
