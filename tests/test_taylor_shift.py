"""The one Taylor shift (`funcs.taylor_shift`) and what is read from it:
`MultiPoly.recenter` and the descent's integer form (`_Forms.taylor`)
against the composition reference, the descent's coset bound
(`measure._shifted_low`) against its per-exponent loop, the gradient of
the centred jet and of the integer shift against the quotient rule and
`local_jet`, and one pinned `taylor_eval` report.  Every example is
derandomized, so the suite stays deterministic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import shift_reference
import whitney_reference as ref
from qpcalc.funcs import (MultiPoly, SymbolicFunction, centred_jet, local_jet,
                          taylor_shift)
from qpcalc.measure import _Forms, _shifted_low
from qpcalc.padic import PAdicVector, PrecisionZeroDivision
from qpcalc.quotients import _jet_map, _point_pieces, taylor_eval

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)
PRIMES = st.sampled_from([2, 3, 5])


@st.composite
def fraction_polys(draw, p, m, max_degree=3):
    """Up to five terms with coefficients n / (p^i * d)."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        e = tuple(draw(st.integers(0, max_degree)) for _ in range(m))
        terms[e] = Fraction(draw(st.integers(-9, 9)),
                            p ** draw(st.integers(0, 2))
                            * draw(st.sampled_from([1, 1, 2, 3, 7])))
    return MultiPoly(m, terms)


@st.composite
def centres(draw, p, m):
    """Coordinates n / p^i: p-power denominators, and integers."""
    return [Fraction(draw(st.integers(-p ** 3, p ** 3)),
                     p ** draw(st.integers(0, 2))) for _ in range(m)]


@SETTINGS
@given(PRIMES, st.integers(1, 2), st.data())
def test_taylor_shift_matches_the_composition_reference(p, m, data):
    """The shift of a Fraction table is the reference's recentring, and
    so is the integer form the descent makes at an integer point X read at
    the scale p^s: G_b / D = c_b p^(s|b|) for c the shift to x = p^s X."""
    q = data.draw(fraction_polys(p, m))
    center = data.draw(centres(p, m))
    expected = ref.recenter(q, center)
    assert MultiPoly(m, taylor_shift(q.terms, center)) == expected
    assert q.recenter(center) == expected
    s = data.draw(st.integers(-2, 2))
    X = [data.draw(st.integers(-p ** 3, p ** 3)) for _ in range(m)]
    f = SymbolicFunction.from_sources(p, ["x0"], m=m)
    G, D = _Forms(f, (), s, 0).taylor(q, X)
    assert all(type(g) is int for g in G.values()) and type(D) is int
    at_x = ref.recenter(q, [a * Fraction(p) ** s for a in X])
    assert MultiPoly(m, {b: Fraction(g, D) for b, g in G.items()}) == \
        MultiPoly(m, {b: c * Fraction(p) ** (s * sum(b))
                      for b, c in at_x.terms.items()})


@SETTINGS
@given(PRIMES, st.integers(1, 2), st.data())
def test_shifted_low_matches_the_per_exponent_loop(p, m, data):
    items = {}
    for _ in range(data.draw(st.integers(1, 5))):
        e = tuple(data.draw(st.integers(0, 3)) for _ in range(m))
        g = data.draw(st.integers(-p ** 4, p ** 4))
        if g:
            items[e] = g * p ** data.draw(st.integers(0, 3))
    H = [data.draw(st.integers(-p ** 3, p ** 3)) for _ in range(m)]
    k = data.draw(st.integers(0, 4))
    assert _shifted_low(p, items, H, k) == \
        shift_reference.shifted_low(p, items, H, k)


def _partial(q: MultiPoly, i: int) -> MultiPoly:
    return MultiPoly(q.m, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                           for e, c in q.terms.items() if e[i]})


def _units(m):
    return [tuple(int(i == k) for k in range(m)) for i in range(m)]


@SETTINGS
@given(PRIMES, st.integers(1, 2), st.booleans(), st.data())
def test_centred_gradient_is_the_quotient_rule_and_local_jets(p, m, divided,
                                                               data):
    """The degree-1 coefficients of the centred jet of N/D are the
    gradient that the quotient rule gives, and those of local_jet, for D
    the constant 1 or 1 + p*q; a D vanishing at the centre is refused by
    both."""
    num = data.draw(fraction_polys(p, m))
    one = MultiPoly.const(m, 1)
    den = one + data.draw(fraction_polys(p, m, 2)) * p if divided else one
    center = data.draw(centres(p, m))
    d0 = den.evaluate_fraction(center)
    if d0 == 0:
        for jet in (centred_jet, local_jet):
            with pytest.raises(PrecisionZeroDivision):
                jet(num, den, center, 1)
        return
    n0 = num.evaluate_fraction(center)
    rule = [(_partial(num, i).evaluate_fraction(center) * d0
             - n0 * _partial(den, i).evaluate_fraction(center)) / d0 ** 2
            for i in range(m)]
    centred = centred_jet(num, den, center, 1)
    ambient = local_jet(num, den, center, 1)
    assert centred.coefficient((0,) * m) == n0 / d0
    assert [centred.coefficient(e) for e in _units(m)] == rule
    assert [ambient.coefficient(e) for e in _units(m)] == rule


@SETTINGS
@given(PRIMES, st.integers(1, 2), st.data())
def test_the_descent_reads_the_gradient_of_the_centred_jet(p, m, data):
    """The descent's T, read from the integer shift of _point_pieces at
    any scale p^s that makes x integral, is _jet_map's, read from the
    centred jet."""
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        e = tuple(data.draw(st.integers(0, 3)) for _ in range(m))
        terms[e] = data.draw(st.integers(-9, 9))
    src = "+".join(f"({c})" + "".join(f"*x{i}" for i, k in enumerate(e)
                                      for _ in range(k))
                   for e, c in terms.items())
    f = SymbolicFunction.from_sources(p, [src], m=m)
    x = PAdicVector.from_ints(p, [data.draw(st.integers(0, p ** 4))
                                  for _ in range(m)], prec=24)
    s = data.draw(st.integers(-2, 0))
    shifted = _point_pieces(f, _Forms(f, (), s, 6), x)
    assert shifted[:3] == _jet_map(f, x)[:3]


def test_taylor_eval_report_is_pinned():
    """A two-variable source with an indicator and a divisor 1 + 3*x1:
    its report, digit for digit."""
    f = SymbolicFunction.from_sources(3, ["x0*x1/(1+3*x1)+2*ch(1,2;1)"], m=2)
    y, x = (PAdicVector.from_ints(3, c, prec=24) for c in ([1, 2], [4, 5]))
    exp = taylor_eval(f, 1, y, x)
    assert exp.residual_norm() == Fraction(1, 81)
    assert exp.to_json() == {
        "y": ["1" + ",0" * 23 + "e0@3", "2" + ",0" * 23 + "e0@3"],
        "x": ["1,1" + ",0" * 22 + "e0@3", "2,1" + ",0" * 22 + "e0@3"],
        "n": 1,
        "total": ["1,0,1,2,1,1,2,2,2,2,1,0,2,1,2,2,0,2,2,1,2,1,1,0,1,0,0,"
                  "0,1,1,0,0e0@3"],
        "residual": ["2,0,1,2,0,2,1,1,1,0,1,2,2,2,0,0,1,0,2,1,2,1,0,2,2,0,"
                     "0,2,2,1,1,0e4@3"],
        "terms": [["2,2,2,1,1,0,0,0,2,0,1,1,1,0,1,2,0,2,2,0,0,1,0,0,1,1,2,"
                   "2,2,0,2,1e2@3"],
                  ["1,1,1,0,2,2,1,1,2,0,2,0,0,1,2,0,0,0,2,2,0,0,2,0,1,0,1,"
                   "2,1,2,0,0e2@3"]],
        "exact": True,
    }
