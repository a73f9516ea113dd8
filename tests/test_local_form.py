"""The exact local normal form (`SymbolicFunction.localize`) and the jets,
gradients and boundary quotient values read from it: agreement with the
limit route it replaced (`tests/limit_reference.py`) wherever that route
converges, the Taylor remainder bound of the jet of N/D, refusals, and the
sources on which the limit route failed."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limit_reference as ref
from qpcalc.funcs import MultiPoly, SymbolicFunction, as_polynomials, local_jet
from qpcalc.measure import enumerate_cosets
from qpcalc.padic import (Ball, PAdicVector, PadicError, PrecisionZeroDivision,
                          rational_val)
from qpcalc.quotients import phin_exact_zero, stepanoff_scan, taylor_eval


class Source:
    """poly + sum c*ch(center; k), the polynomial divided by 1 + p*q in
    some: a unit at every integral point, so N/D has integral Taylor
    coefficients there.  Evaluated here in exact rationals."""

    def __init__(self, p, m, poly, indicators, divisor):
        self.p, self.m = p, m
        self.poly = poly                # [(c, exps)]
        self.indicators = indicators    # [(c, center, k)]
        self.divisor = divisor          # [(c, exps)] of q, or None

    @staticmethod
    def _text(terms):
        return "+".join(f"({c})" + "".join(f"*x{i}" for i, e in enumerate(exps)
                                           for _ in range(e))
                        for c, exps in terms)

    def text(self) -> str:
        out = f"({self._text(self.poly)})"
        if self.divisor is not None:
            out += f"/(1+{self.p}*({self._text(self.divisor)}))"
        for c, center, k in self.indicators:
            out += f"+{c}*ch({';'.join(map(str, center))};{k})"
        return out

    @staticmethod
    def _poly(terms, x):
        total = Fraction(0)
        for c, exps in terms:
            term = Fraction(c)
            for xi, e in zip(x, exps):
                term *= xi ** e
            total += term
        return total

    def __call__(self, x) -> Fraction:
        value = self._poly(self.poly, x)
        if self.divisor is not None:
            value /= 1 + self.p * self._poly(self.divisor, x)
        for c, center, k in self.indicators:
            if all(d == 0 or rational_val(Fraction(d), self.p) >= k
                   for d in (a - b for a, b in zip(x, center))):
                value += c
        return value

    def function(self) -> SymbolicFunction:
        return SymbolicFunction.from_sources(self.p, [self.text()], m=self.m)

    def radius(self) -> int:
        return max([k for _, _, k in self.indicators], default=0)


def _terms(draw, m, degree):
    exps = st.tuples(*[st.integers(0, degree)] * m).filter(
        lambda e: sum(e) <= degree)
    return draw(st.lists(st.tuples(st.integers(-9, 9), exps), min_size=1,
                         max_size=4))


@st.composite
def sources(draw):
    p = draw(st.sampled_from([3, 5]))
    m = draw(st.integers(1, 2))
    indicators = [(draw(st.integers(1, 4)),
                   [draw(st.integers(0, p ** 3)) for _ in range(m)],
                   draw(st.integers(0, 3)))
                  for _ in range(draw(st.integers(0, 2)))]
    divisor = _terms(draw, m, 2) if draw(st.booleans()) else None
    return Source(p, m, _terms(draw, m, 3), indicators, divisor)


def _point(draw, m, hi):
    return [draw(st.integers(0, hi)) for _ in range(m)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sources(), st.data())
def test_exact_value_agrees_with_every_converged_limit(src, data):
    """Wherever the limit route converges, the exact value at vanishing
    increments agrees with it on every digit its Cauchy tail certifies."""
    p, m = src.p, src.m
    f = src.function()
    z = PAdicVector.from_ints(p, _point(data.draw, m, p ** 4), prec=24)
    n = data.draw(st.integers(1, 2))
    vs = [PAdicVector.from_ints(p, [data.draw(st.integers(0, p ** 2))
                                    for _ in range(m)], prec=24)
          for _ in range(n)]
    vs = [v if v.val is not None else PAdicVector.from_ints(p, [1] * m,
                                                            prec=24)
          for v in vs]
    exact = phin_exact_zero(f, n, z, vs)
    report = ref.phin_limit(f, n, z, vs)
    if report.converged:
        for got, limit in zip(exact.coords, report.value.coords):
            assert (got - limit).is_zero()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sources(), st.data())
def test_jet_of_n_over_d_matches_f_to_the_next_order(src, data):
    """f(z+h) - jet(z+h) has valuation >= (d+1)*v(h) for h inside the
    piece of z: the jet of N/D is the Taylor polynomial of f there."""
    p, m = src.p, src.m
    f = src.function()
    z = _point(data.draw, m, p ** 4)
    d = data.draw(st.integers(0, 3))
    k = data.draw(st.integers(max(1, src.radius()), 4))
    h = [p ** k * data.draw(st.integers(0, p ** 2)) for _ in range(m)]
    h[data.draw(st.integers(0, m - 1))] = p ** k * data.draw(
        st.sampled_from([1, 2, p + 1]))
    at = PAdicVector.from_ints(p, z, prec=24)
    jet = f.jet(at, d)[0]
    x = [a + b for a, b in zip(z, h)]
    assert jet.evaluate_fraction(z) == src(z)
    gap = src(x) - jet.evaluate_fraction(x)
    vh = min(rational_val(Fraction(c), p) for c in h if c)
    assert gap == 0 or rational_val(gap, p) >= (d + 1) * vh


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sources(), st.data())
def test_jet_is_local_jet_of_the_form_at_the_point(src, data):
    """f.jet(z, d), which keeps the form of a source without indicators,
    is local_jet of f.localize(z) at z."""
    f = src.function()
    z = _point(data.draw, src.m, src.p ** 4)
    d = data.draw(st.integers(0, 3))
    at = PAdicVector.from_ints(src.p, z, prec=24)
    for _ in range(2):                  # made, then read from the kept form
        assert f.jet(at, d) == tuple(local_jet(num, den, z, d)
                                     for num, den in f.localize(at))


def test_a_source_is_localized_once_or_once_per_point(monkeypatch):
    """Across a Stepanoff scan and a Taylor expansion, a source without
    indicators is localized once, point-free; a source with one is tried
    point-free once and localized once at each point whose jet is read."""
    calls = []
    localize = SymbolicFunction.localize

    def counted(self, x=None):
        calls.append(x)
        return localize(self, x)

    monkeypatch.setattr(SymbolicFunction, "localize", counted)
    domain = Ball(PAdicVector.zero(5, 1), 0)
    y, x = (PAdicVector.from_ints(5, [c], prec=24) for c in (2, 7))
    reps = enumerate_cosets(domain, 1)
    for source, at_points in (("x0*x0+3", []),
                              ("x0*x0+3*ch(2;1)", reps + [y, x])):
        calls.clear()
        f = SymbolicFunction.from_sources(5, [source])
        stepanoff_scan(f, domain, 1, Fraction(1, 25))
        taylor_eval(f, 1, y, x)
        assert calls.count(None) == 1
        assert [c for c in calls if c is not None] == at_points


def test_localize_reads_indicators_and_compositions_at_the_point():
    f = SymbolicFunction.from_sources(5, ["x0/(1+x0)+3*ch(2;1)",
                                          "comp(ch(4;1)*x0;x0*x0)"])
    (n0, d0), (n1, d1) = f.localize(PAdicVector.from_ints(5, [2], prec=24))
    x = MultiPoly.coord(1, 0)
    assert (n0, d0) == (x * 4 + MultiPoly.const(1, 3), x + MultiPoly.const(1, 1))
    assert (n1, d1) == (x * x, MultiPoly.const(1, 1))     # 2*2 = 4 in B(4;1)
    (n1, _), = SymbolicFunction.from_sources(
        5, ["comp(ch(4;1)*x0;x0*x0)"]).localize(
        PAdicVector.from_ints(5, [1], prec=24))
    assert n1.is_zero()


def test_localize_refuses_a_window_shorter_than_an_indicator_radius():
    f = SymbolicFunction.from_sources(5, ["x0+ch(1;6)"])
    with pytest.raises(PadicError, match="undecided"):
        f.localize(PAdicVector.from_ints(5, [1], prec=5))
    (num, _), = f.localize(PAdicVector.from_ints(5, [1], prec=6))
    assert num == MultiPoly.coord(1, 0) + MultiPoly.const(1, 1)
    # a digit that differs below the radius decides it on a short window
    (num, _), = f.localize(PAdicVector.from_ints(5, [2], prec=3))
    assert num == MultiPoly.coord(1, 0)
    with pytest.raises(PadicError):
        f.localize()                    # an indicator needs a point
    with pytest.raises(PadicError, match="not a polynomial"):
        as_polynomials(SymbolicFunction.from_sources(5, ["1/(1+x0)"]))


def test_jet_refuses_a_denominator_vanishing_at_the_centre():
    f = SymbolicFunction.from_sources(5, ["1/(1+1/x0)"])
    (num, den), = f.localize()
    assert den.evaluate_fraction([0]) == 0      # the inner division's zero
    with pytest.raises(PrecisionZeroDivision):
        local_jet(num, den, [0], 2)
    with pytest.raises(PrecisionZeroDivision):
        SymbolicFunction.from_sources(5, ["1/(x0-x0)"]).localize()
    # an inner that the outer leaves out still divides: f is not defined at 0
    f = SymbolicFunction.from_sources(5, ["comp(1;1/x0)"])
    (_, den), = f.localize()
    assert den.evaluate_fraction([0]) == 0
    zero, one = (PAdicVector.from_ints(5, [c], prec=24) for c in (0, 1))
    with pytest.raises(PrecisionZeroDivision):
        f.jet(zero, 1)
    with pytest.raises(PrecisionZeroDivision):
        taylor_eval(f, 1, one, zero)
    assert f.jet(one, 1) == (MultiPoly.const(1, 1),)


def test_indicator_mix_jets_at_every_depth_3_point():
    """The order-2 quotient of 15*x0^2 loses two digits per step of the
    limit route, which failed at 99 of these 125 points."""
    f = SymbolicFunction.from_sources(5, ["21*x0+15*x0*x0+3*ch(18;1)"])
    poly = MultiPoly(1, {(1,): 21, (2,): 15})
    ball = Ball(PAdicVector.from_ints(5, [18]), 1)
    reps = enumerate_cosets(Ball(PAdicVector.zero(5, 1), 0), 3)
    assert len(reps) == 125
    for z in reps:
        jump = MultiPoly.const(1, 3 if ball.contains(z) else 0)
        assert f.jet(z, 2) == (poly + jump,)
