"""Unit tests for the exact rational helpers.

These helpers decide region membership and floor/ceil values that float
arithmetic would get wrong near integer boundaries, so the tests hammer the
boundaries on purpose.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from artifact import _exact
from oracle import multiples_in_open

# rationals from small to 2**200, the sizes of positions and radii in
# configs with huge guard blocks; float-shaped ones as the callers build
# them from float inputs
_magnitudes = st.one_of(
    st.fractions(min_value=0, max_value=1000),
    st.builds(Fraction, st.integers(min_value=0, max_value=2**200),
              st.integers(min_value=1, max_value=2**64)),
    st.floats(min_value=0, max_value=2.0**200).map(Fraction))


def test_frac_of_float_is_binary_value():
    f = _exact.frac(0.1)
    assert f == Fraction(0.1)
    assert f != Fraction(1, 10)


def test_frac_rejects_nonfinite():
    with pytest.raises(ValueError):
        _exact.frac(math.inf)
    with pytest.raises(ValueError):
        _exact.frac(math.nan)


@pytest.mark.parametrize("q,floor,ceil", [
    (Fraction(7, 2), 3, 4),
    (Fraction(-7, 2), -4, -3),
    (Fraction(6), 6, 6),
    (Fraction(1, 3), 0, 1),
])
def test_floor_ceil(q, floor, ceil):
    assert _exact.floor_frac(q) == floor
    assert _exact.ceil_frac(q) == ceil


def test_floor_sqrt_exact_at_perfect_square():
    # 307.2**2 in binary is slightly off 94371.84; the exact value matters
    assert _exact.floor_sqrt_frac(Fraction(94371841, 100)) == 971
    assert _exact.floor_sqrt_frac(Fraction(25)) == 5
    assert _exact.floor_sqrt_frac(Fraction(24)) == 4
    assert _exact.floor_sqrt_frac(Fraction(0)) == 0


@given(st.integers(min_value=0, max_value=10**12))
def test_floor_sqrt_matches_isqrt_on_integers(n):
    assert _exact.floor_sqrt_frac(Fraction(n)) == math.isqrt(n)


@given(st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=1, max_value=10**6))
def test_floor_sqrt_frac_definition(num, den):
    q = Fraction(num, den)
    r = _exact.floor_sqrt_frac(q)
    assert r * r <= q < (r + 1) * (r + 1)


@given(_magnitudes)
def test_ceil_sqrt_frac_definition(q):
    r = _exact.ceil_sqrt_frac(q)
    assert r >= 0 and (r - 1) ** 2 < q <= r * r or r == q == 0


def test_floor_minus_sqrt_boundary():
    # x - sqrt(q) lands exactly on an integer: floor must keep it
    assert _exact.floor_minus_sqrt(Fraction(10), Fraction(9)) == 7
    assert _exact.floor_minus_sqrt(Fraction(10), Fraction(10)) == 6
    assert _exact.floor_minus_sqrt(Fraction(21, 2), Fraction(9)) == 7
    assert _exact.floor_minus_sqrt(Fraction(5), Fraction(0)) == 5
    big = Fraction(2**200)
    assert _exact.floor_minus_sqrt(big, Fraction(2**100) ** 2) == 2**200 - 2**100
    assert _exact.floor_minus_sqrt(big, Fraction(2**100) ** 2 + Fraction(1, 3)) \
        == 2**200 - 2**100 - 1
    assert _exact.floor_minus_sqrt(big + Fraction(1, 3), Fraction(2**100) ** 2) \
        == 2**200 - 2**100


@given(_magnitudes, _magnitudes)
def test_floor_minus_sqrt_definition(x, q):
    j = _exact.floor_minus_sqrt(x, q)
    # j <= x - sqrt(q) < j + 1, verified without floats
    d = x - j
    assert d >= 0 and d * d >= q
    d1 = x - (j + 1)
    assert d1 < 0 or d1 * d1 < q


def test_ge_sqrt_exact_tie():
    assert _exact.ge_sqrt(Fraction(3), Fraction(9))
    assert not _exact.ge_sqrt(Fraction(3), Fraction(9) + Fraction(1, 10**30))
    assert not _exact.ge_sqrt(Fraction(-1), Fraction(0))
    assert _exact.ge_sqrt(Fraction(0), Fraction(0))


def test_ge_sum_sqrt():
    # 5 >= sqrt(4) + sqrt(9) exactly
    assert _exact.ge_sum_sqrt(Fraction(5), Fraction(4), Fraction(9))
    assert not _exact.ge_sum_sqrt(Fraction(5) - Fraction(1, 10**20),
                                  Fraction(4), Fraction(9))
    assert _exact.ge_sum_sqrt(Fraction(10), Fraction(4), Fraction(9))
    assert not _exact.ge_sum_sqrt(Fraction(-1), Fraction(1), Fraction(0))


@given(st.fractions(min_value=0, max_value=100),
       st.fractions(min_value=0, max_value=100),
       st.fractions(min_value=0, max_value=100))
def test_ge_sum_sqrt_matches_floats_away_from_ties(t, a, b):
    lhs = float(t)
    rhs = math.sqrt(float(a)) + math.sqrt(float(b))
    if abs(lhs - rhs) > 1e-6:
        assert _exact.ge_sum_sqrt(t, a, b) == (lhs > rhs)


def test_ints_in_open_basic():
    # (2.5, 7.5) around center 5 with r=2.5
    out = multiples_in_open(1, Fraction(5), Fraction(25, 4))
    assert tuple(out) == (3, 4, 5, 6, 7)


def test_ints_in_open_excludes_endpoints():
    # r=2 around 5: 3 and 7 sit exactly on the boundary and stay out
    out = multiples_in_open(1, Fraction(5), Fraction(4))
    assert tuple(out) == (4, 5, 6)


def test_ints_in_open_zero_radius_singleton():
    assert tuple(multiples_in_open(1, Fraction(9), Fraction(0))) == (9,)
    assert tuple(multiples_in_open(1, Fraction(19, 2), Fraction(0))) == ()
    assert tuple(multiples_in_open(1, Fraction(0), Fraction(0))) == ()  # not positive


def test_ints_in_open_respects_lo():
    # (-2, 6) around 2: the region keeps the positive multiples only
    out = multiples_in_open(1, Fraction(2), Fraction(16))
    assert out[0] == 1 and tuple(out) == (1, 2, 3, 4, 5)


def test_multiples_in_open():
    out = multiples_in_open(3, Fraction(10), Fraction(36))
    # open interval (4, 16): multiples of 3 are 6, 9, 12, 15
    assert tuple(out) == (6, 9, 12, 15)
    assert tuple(multiples_in_open(3, Fraction(9), Fraction(0))) == (9,)
    assert tuple(multiples_in_open(3, Fraction(10), Fraction(0))) == ()


def test_multiples_between_big_integers():
    step = 10**20
    lo = Fraction(3 * 10**20)
    hi = Fraction(7 * 10**20)
    assert tuple(_exact.multiples_between(step, lo, hi)) == (4 * 10**20,
                                                      5 * 10**20,
                                                      6 * 10**20)


def test_multiples_between_strictness():
    assert tuple(_exact.multiples_between(5, Fraction(5), Fraction(20))) == (10, 15)
    assert tuple(_exact.multiples_between(5, Fraction(4), Fraction(21))) == (5, 10, 15, 20)


@given(st.integers(min_value=1, max_value=7),
       st.fractions(min_value=-20, max_value=300, max_denominator=12),
       st.fractions(min_value=-20, max_value=300, max_denominator=12),
       st.integers(min_value=1, max_value=5))
def test_multiples_between_matches_enumeration(step, lo, hi, scale):
    """Fractions, ints and unreduced (numerator, denominator) pairs give
    the positive multiples of step strictly between lo and hi."""
    want = tuple(v for v in range(step, 400, step) if lo < v < hi)
    pairs = ((lo.numerator * scale, lo.denominator * scale),
             (hi.numerator * scale, hi.denominator * scale))
    assert tuple(_exact.multiples_between(step, lo, hi)) == want
    assert tuple(_exact.multiples_between(step, *pairs)) == want
    if lo.denominator == hi.denominator == 1:
        assert tuple(_exact.multiples_between(step, int(lo), int(hi))) == want


@given(st.integers(min_value=1, max_value=7),
       st.fractions(min_value=-20, max_value=300, max_denominator=12),
       st.fractions(min_value=0, max_value=2000, max_denominator=6))
def test_multiples_in_open_matches_enumeration(step, center, radius_sq):
    want = tuple(v for v in range(step, 400, step)
                 if v == center or (v - center) ** 2 < radius_sq)
    assert tuple(multiples_in_open(step, center, radius_sq)) == want


@given(st.integers(min_value=1, max_value=7),
       st.fractions(min_value=-20, max_value=300, max_denominator=12),
       st.fractions(min_value=0, max_value=2000, max_denominator=6),
       st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=50))
def test_multiples_in_open_takes_unreduced_pairs(step, center, radius_sq, j, k):
    """A center or squared radius given as a (numerator, denominator) pair,
    reduced or not, gives the region its Fraction gives."""
    pairs = ((center.numerator * j, center.denominator * j),
             (radius_sq.numerator * k, radius_sq.denominator * k))
    want = multiples_in_open(step, center, radius_sq)
    assert multiples_in_open(step, *pairs) == want
    assert multiples_in_open(step, pairs[0], radius_sq) == want


def test_multiples_in_open_rejects_bad_pairs():
    with pytest.raises(ValueError):
        multiples_in_open(1, (3, 0), Fraction(1))
    with pytest.raises(ValueError):
        multiples_in_open(1, Fraction(3), (-1, 2))


def _check_region(got, step, center, radius_sq):
    """got is exactly the positive multiples of step strictly within
    sqrt(radius_sq) of center (or the center itself at radius 0)."""

    def inside(v):
        return v >= step and (v == center or (v - center) ** 2 < radius_sq)

    if not got:
        # a region that holds any multiple holds one next to the center
        k = math.floor(center / step)
        assert not inside(k * step) and not inside((k + 1) * step)
        return
    assert got.step == step and got[0] % step == 0
    assert inside(got[0]) and not inside(got[0] - step)
    assert inside(got[-1]) and not inside(got[-1] + step)


def test_multiples_in_open_exact_beyond_float_precision():
    # at 1e20 a double is 16384 apart and at 2**200 it is 2**148 apart, so
    # float estimates of either end would miss by many steps
    for base in (Fraction(10**20), Fraction(2**200)):
        for frac_part in (Fraction(1, 3), Fraction(2, 3), Fraction(9000)):
            center = base + frac_part
            for radius_sq in (Fraction(10**6 + 1, 7) ** 2,
                              (base / 3 + Fraction(1, 7)) ** 2):
                for step in (1, 7):
                    _check_region(
                        multiples_in_open(step, center, radius_sq),
                        step, center, radius_sq)


@given(st.integers(min_value=1, max_value=2**64),
       _magnitudes, _magnitudes, st.booleans())
def test_multiples_in_open_definition_at_large_magnitudes(step, center,
                                                          radius_sq, tie):
    if tie:  # the upper end lands on a multiple, which stays out
        radius_sq = (step * (center // step + 2) - center) ** 2
    _check_region(multiples_in_open(step, center, radius_sq),
                  step, center, radius_sq)


@given(st.one_of(st.just(1), st.integers(min_value=2, max_value=7),
                 st.integers(min_value=2**64, max_value=2**200)),
       st.lists(st.one_of(st.integers(min_value=-50, max_value=400),
                          st.integers(min_value=-2**200, max_value=2**200)),
                max_size=8),
       st.one_of(st.integers(min_value=1, max_value=12),
                 st.integers(min_value=2**64, max_value=2**200)),
       st.one_of(st.just(Fraction(0)), _magnitudes))
def test_multiples_around_is_multiples_in_open_center_by_center(
        step, centers, denominator, radius_sq):
    """One square root for every center over one denominator gives each
    center's own region, as a (numerator, denominator) pair and as its
    reduced Fraction, whose root is taken over another denominator."""
    got = _exact.multiples_around(step, centers, denominator, radius_sq)
    assert got == [multiples_in_open(step, (c, denominator), radius_sq)
                   for c in centers]
    assert got == [multiples_in_open(step, Fraction(c, denominator),
                                            radius_sq) for c in centers]


def test_multiples_around_singletons_and_empty_regions():
    # radius 0: Y = 1 keeps a center that is a multiple, and nothing else
    assert _exact.multiples_around(3, [45, 50, -15, 2**200 * 15], 5, 0) == [
        range(9, 12, 3), range(0), range(0),
        range(3 * 2**200, 3 * 2**200 + 3, 3)]
    # step 2**70 around 2**71 + 1/3, and centers at or below 0; then a
    # radius too small to reach a multiple
    got = _exact.multiples_around(2**70, [2**71 * 3 + 1, -6, 0], 3,
                                  Fraction(1, 4))
    assert got == [range(2**71, 2**71 + 2**70, 2**70), range(0), range(0)]
    assert _exact.multiples_around(2**70, [2**71 * 3 + 7], 3, 1) == [range(0)]
    with pytest.raises(ValueError):
        _exact.multiples_around(0, [1], 1, 1)
    with pytest.raises(ValueError):
        _exact.multiples_around(1, [1], 0, 1)
