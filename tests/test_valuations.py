"""Norms, balls and nearest points compared as integer valuations, against
the Fraction-norm formulas kept in norm_reference.py.

Inputs cover Q_2, Q_3 and Q_5 in one to three coordinates: zero
coordinates and zero vectors, negative valuations, windows of one to eight
digits, and balls whose centres, or points, are known to fewer digits than
the ball's radius exponent, where the observed subtraction decides.
Every example is derandomized, so the suite stays deterministic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import norm_reference as ref
from qpcalc.extension import nearest_point
from qpcalc.padic import (Ball, PAdicNumber, PAdicVector, PadicError, PPow,
                          ScaledBound, _floor_level)

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def scalars(draw, p):
    """p^e * n with e in -3..3 and a window of 1..8 digits; or zero."""
    if draw(st.integers(0, 4)) == 0:
        return PAdicNumber.zero(p)
    n = draw(st.integers(1, p**4))
    e = draw(st.integers(-3, 3))
    return PAdicNumber.from_fraction(p, Fraction(n) * Fraction(p) ** e,
                                     prec=draw(st.integers(1, 8)))


@st.composite
def vectors(draw, p, m):
    return PAdicVector([draw(scalars(p)) for _ in range(m)])


@st.composite
def near(draw, center):
    """center + p^j * u per coordinate, j in -2..6: points at every
    distance from center; or an unrelated point."""
    p = center.p
    if draw(st.integers(0, 3)) == 0:
        return draw(vectors(p, center.dim))
    j = draw(st.integers(-2, 6))
    coords = []
    for c in center.coords:
        u = draw(st.integers(0, p**2))
        shift = PAdicNumber.from_fraction(p, u * Fraction(p) ** j,
                                          prec=draw(st.integers(1, 8)))
        coords.append(c + shift)
    return PAdicVector(coords)


@st.composite
def space(draw):
    return draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3))


@given(st.data())
@SETTINGS
def test_vector_val_matches_sup_norm(data):
    p, m = data.draw(space())
    x = data.draw(vectors(p, m))
    expected = ref.sup_norm(x)
    assert x.sup_norm() == expected
    assert (x.val is None) == (expected == 0)
    if x.val is not None:
        assert Fraction(p) ** -x.val == expected
    assert x.norm_pow() == ref.norm_pow(x)
    for c in x.coords:
        assert c.norm_pow() == PPow.from_norm(p, c.norm())


@given(st.data())
@SETTINGS
def test_ball_contains_matches_fraction_norms(data):
    p, m = data.draw(space())
    center = data.draw(vectors(p, m))
    # radius exponents past the centre's windows included
    ball = Ball(center, data.draw(st.integers(-3, 9)))
    for _ in range(4):
        x = data.draw(near(center))
        assert ball.contains(x) == ref.contains(ball, x)


def relation(a, b):
    """'equal' | 'disjoint' | 'nested', the ultrametric trichotomy, read
    through Ball.contains: the larger ball holds the smaller one exactly
    when it contains its centre, and misses it otherwise."""
    big, small = (a, b) if a.rad_exp <= b.rad_exp else (b, a)
    if not big.contains(small.center):
        return "disjoint"
    return "equal" if a.rad_exp == b.rad_exp else "nested"


@given(st.data())
@SETTINGS
def test_ball_relation_matches_fraction_norms(data):
    p, m = data.draw(space())
    a = Ball(data.draw(vectors(p, m)), data.draw(st.integers(-3, 9)))
    b = Ball(data.draw(near(a.center)), data.draw(st.integers(-3, 9)))
    assert relation(a, b) == ref.relation(a, b)
    assert relation(b, a) == ref.relation(b, a)


@st.composite
def rewindowed(draw, center):
    """center + p^j * u per coordinate as an exact rational, given a fresh
    window of 1..8 digits: a point known to more digits than the centre,
    or to fewer."""
    p = center.p
    j = draw(st.integers(-2, 6))
    coords = []
    for c in center.coords:
        q = c.as_fraction() + draw(st.integers(0, p**2)) * Fraction(p) ** j
        coords.append(PAdicNumber.from_fraction(p, q,
                                                prec=draw(st.integers(1, 8))))
    return PAdicVector(coords)


@given(st.data())
@SETTINGS
def test_ball_membership_matches_subtraction(data):
    """contains, and so relation, decides each coordinate from the digits
    below the radius; the subtraction forms read the valuation of the whole
    difference vector.  Q_2 to Q_7, zero coordinates, negative valuations,
    and windows of the point and of the centre both shorter and longer
    than the radius exponent."""
    p, m = data.draw(st.sampled_from([2, 3, 5, 7])), data.draw(st.integers(1, 3))
    ball = Ball(data.draw(vectors(p, m)), data.draw(st.integers(-4, 10)))
    points = st.one_of(near(ball.center), rewindowed(ball.center))
    for _ in range(4):
        x = data.draw(points)
        assert ball.contains(x) == ref.contains_by_subtraction(ball, x)
    other = Ball(data.draw(points), data.draw(st.integers(-4, 10)))
    assert relation(ball, other) == ref.relation_by_subtraction(ball, other)
    assert relation(other, ball) == ref.relation_by_subtraction(other, ball)


def test_ball_membership_pins():
    # 1e0@5 is known only mod 5, where it agrees with the centre 6: the
    # observed difference collapses to zero, so the point counts as inside
    short = PAdicVector([PAdicNumber.from_int(5, 1, prec=1)])
    ball = Ball(PAdicVector.from_ints(5, [6]), 3)
    assert ball.contains(short) and ref.contains_by_subtraction(ball, short)
    # zero coordinates on either side: the other's valuation decides
    zero = PAdicVector.zero(5, 2)
    deep = PAdicVector([PAdicNumber.zero(5), PAdicNumber.from_int(5, 25)])
    assert Ball(zero, 2).contains(deep) and not Ball(zero, 3).contains(deep)
    assert Ball(deep, 2).contains(zero) and not Ball(deep, 3).contains(zero)
    assert Ball(zero, 9).contains(zero)


@pytest.mark.parametrize("x", [
    PAdicVector.from_ints(5, [1]),
    PAdicVector.from_ints(5, [1, 2, 3]),
    PAdicVector.from_ints(3, [1, 2]),
    PAdicVector.zero(7, 2)])
def test_ball_membership_mismatch_raises(x):
    ball = Ball(PAdicVector.from_ints(5, [1, 2]), 1)
    with pytest.raises(PadicError) as got:
        ball.contains(x)
    with pytest.raises(PadicError) as expected:
        ref.contains_by_subtraction(ball, x)
    assert str(got.value) == str(expected.value)


@given(st.data())
@SETTINGS
def test_nearest_point_matches_scan(data):
    p, m = data.draw(space())
    v = data.draw(vectors(p, m))
    T = data.draw(st.lists(near(v), min_size=1, max_size=8))
    # equal copies of sites tie at every distance: the first must win
    T += [PAdicVector(x.coords)
          for x in data.draw(st.lists(st.sampled_from(T), max_size=3))]
    best, delta = nearest_point(T, v)
    ref_best, ref_delta = ref.nearest_point(T, v)
    assert best is ref_best
    assert delta == ref_delta


@given(st.sampled_from([2, 3, 5, 7, 251, 2**61 - 1]), st.integers(1, 10**30),
       st.integers(1, 10**30), st.integers(-12, 12))
@SETTINGS
def test_floor_level_matches_fraction_powers(p, n, d, e):
    q = Fraction(n, d) * Fraction(p) ** e
    assert _floor_level(q, p) == ref.floor_level(q, p)


@pytest.mark.parametrize("e", [100000, -100000])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_floor_level_of_huge_bounds(e, shift):
    """q = 5^e and its neighbours 5^e +- 5^-100001: p^-L <= q < p^-(L-1)
    checked in integers, at a size where a step per power of p took
    seconds."""
    p = 5
    q = Fraction(p) ** e + Fraction(shift, p ** 100001)
    L = _floor_level(q, p)
    assert L == -e + (1 if shift < 0 else 0)
    n, d = q.numerator, q.denominator
    assert d * p ** max(-L, 0) <= n * p ** max(L, 0)
    assert n * p ** max(L - 1, 0) < d * p ** max(1 - L, 0)


VALS = st.one_of(st.none(), st.integers(-6, 6))


@given(st.sampled_from([2, 3, 5]),
       st.one_of(st.sampled_from([Fraction(0), Fraction(2, 5), Fraction(7, 3)]),
                 st.integers(-3, 3)),
       st.integers(1, 4).flatmap(
           lambda d: st.integers(0, 3 * d).map(lambda a: Fraction(a, d))),
       VALS, VALS)
@SETTINGS
def test_scaled_bound_matches_fraction_powers(p, C, r, u_val, w_val):
    """holds is ppow_le_scaled on valuations, and least is the least
    valuation that holds: C = 0, powers of p and other rationals, r with
    denominators 1 to 4, zero, negative and positive valuations."""
    if isinstance(C, int):
        C = Fraction(p) ** C
    bound = ScaledBound(p, C, r)
    rhs = PPow.from_val(p, w_val).pow_frac(r)
    assert bound.holds(u_val, w_val) == \
        ref.ppow_le_scaled(PPow.from_val(p, u_val), C, rhs)
    least = bound.least(w_val)
    if u_val is not None:
        assert bound.holds(u_val, w_val) == \
            (least is not None and u_val >= least)
    if least is not None:
        assert ref.ppow_le_scaled(PPow(p, -least), C, rhs)
        assert not ref.ppow_le_scaled(PPow(p, 1 - least), C, rhs)


def test_scaled_bound_pins():
    # |u| = 1 against C * 5^(-1/2): holds exactly when C^2 >= 5
    assert ScaledBound(5, 3, Fraction(1, 2)).holds(0, 1)
    assert not ScaledBound(5, 2, Fraction(1, 2)).holds(0, 1)
    assert ScaledBound(5, 2, Fraction(1, 2)).least(1) == 1
    assert ScaledBound(5, Fraction(1, 25)).least() == 2
    assert ScaledBound(5, 0).holds(None) and not ScaledBound(5, 0).holds(9)
    assert ScaledBound(5, 0).least() is None
    assert ScaledBound(5, 1).least(None) is None
    with pytest.raises(PadicError):
        ScaledBound(5, Fraction(-1, 2))
