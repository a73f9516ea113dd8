"""Fraction-norm references for the valuation-based norms and balls.

These are the formulas qpcalc used when norms were compared as Fractions:
|x| is the largest coordinate norm p^(-val) as a Fraction, a ball holds x
when that norm of x - centre is at most the radius, two balls are
disjoint when their centres are farther apart than the larger radius, and
the nearest point of a list is found by a scan that keeps the first
strictly smaller Fraction distance, the level of a rational bound is found
by stepping through Fraction powers of p, and |u| <= C*|w|^r is tested by
raising PPow magnitudes to Fraction powers (ppow_le_scaled).
test_valuations.py requires the integer-valuation versions in qpcalc to
agree with them; the other references use ppow_le_scaled as the test.

contains_by_subtraction and relation_by_subtraction are the ball tests
that read the valuation of the whole difference vector x - centre, before
membership was read off the digits below the radius.
"""

from fractions import Fraction

from qpcalc.padic import PadicError, PPow


def sup_norm(x):
    return max(c.norm() for c in x.coords)


def norm_pow(x):
    return PPow.from_norm(x.p, sup_norm(x))


def radius(ball):
    return Fraction(ball.p) ** -ball.rad_exp


def contains(ball, x):
    return sup_norm(x - ball.center) <= radius(ball)


def relation(a, b):
    d = sup_norm(a.center - b.center)
    r1, r2 = radius(a), radius(b)
    if d > max(r1, r2):
        return "disjoint"
    if r1 == r2:
        return "equal"
    return "nested"


def contains_by_subtraction(ball, x):
    v = (x - ball.center).val
    return v is None or v >= ball.rad_exp


def relation_by_subtraction(a, b):
    v = (a.center - b.center).val
    if v is not None and v < min(a.rad_exp, b.rad_exp):
        return "disjoint"
    if a.rad_exp == b.rad_exp:
        return "equal"
    return "nested"


def nearest_point(T, v):
    best, delta = T[0], sup_norm(v - T[0])
    for x in T[1:]:
        d = sup_norm(v - x)
        if d < delta:
            best, delta = x, d
    return best, delta


def floor_level(q, p):
    """Least L with p^(-L) <= q, for a rational q > 0."""
    L = 0
    while Fraction(p) ** -L > q:
        L += 1
    while Fraction(p) ** -(L - 1) <= q:
        L -= 1
    return L


def ppow_le_scaled(lhs: PPow, scale: Fraction, rhs: PPow) -> bool:
    """Exact test lhs <= scale * rhs with scale a nonnegative rational."""
    scale = Fraction(scale)
    if scale < 0:
        raise PadicError("negative scale in magnitude comparison")
    if lhs.exp is None:
        return True
    if rhs.exp is None or scale == 0:
        return False
    q = lhs.exp - rhs.exp
    # p^q <= scale  <=>  p^q.num <= scale^q.den   (q.den > 0)
    return Fraction(lhs.p) ** q.numerator <= scale ** q.denominator
