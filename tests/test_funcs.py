"""Expression language, polynomial, and linear-map tests."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import tokenize_reference
from norm_reference import operator_norm
from qpcalc.funcs import (
    Compose,
    ExprSyntaxError,
    LinearMap,
    MultiPoly,
    SymbolicFunction,
    _tokenize,
    as_polynomial,
    as_polynomials,
    parse_expr,
)
from qpcalc.padic import (
    PAdicNumber,
    PAdicVector,
    PadicError,
    PrecisionZeroDivision,
)


def num(n, p=5):
    return PAdicNumber.from_int(p, n, prec=24)


def vec(*ns, p=5):
    return PAdicVector.from_ints(p, ns, prec=24)


# ---------------------------------------------------------------------------
# parsing and evaluation
# ---------------------------------------------------------------------------

def test_parse_square():
    e = parse_expr("x0*x0", 5)
    assert e.eval(vec(3)).as_fraction() == 9


def test_parse_precedence_and_unary_minus():
    e = parse_expr("1+2*x0", 5)
    assert e.eval(vec(4)).as_fraction() == 9
    e = parse_expr("-x0*x0", 5)
    # canonical representatives are nonnegative; compare via the difference
    assert (e.eval(vec(3)) + num(9)).is_zero()
    e = parse_expr("(1+2)*x0", 5)
    assert e.eval(vec(4)).as_fraction() == 12


def test_parse_literal_and_prime_check():
    e = parse_expr("3,1e-1@5 + x0", 5)
    assert e.eval(vec(0)).as_fraction() == Fraction(8, 5)
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("x0 + 1,1e0@7", 5)
    assert exc.value.offset == 5


def test_parse_division_checks_denominator():
    e = parse_expr("1/x0", 5)
    assert (e.eval(vec(2)) * num(2) - num(1)).is_zero()
    with pytest.raises(PrecisionZeroDivision):
        e.eval(PAdicVector.zero(5, 1))


def test_parse_error_offsets():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("x0 + $", 5)
    assert exc.value.offset == 5
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("x0 x1", 5)
    assert exc.value.offset == 3
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("foo(x0)", 5)
    assert exc.value.offset == 0


def test_ball_indicator_expression():
    e = parse_expr("ch(0;1)", 5)
    assert e.eval(vec(5)).as_fraction() == 1
    assert e.eval(vec(1)).is_zero()
    # comma separators are tolerated; a full literal keeps its commas
    e2 = parse_expr("ch(0,1)", 5)
    assert e2.eval(vec(5)).as_fraction() == 1
    lit = parse_expr("1,2e0@5", 5)
    assert lit.eval(vec(0)).as_fraction() == 11


def test_ball_indicator_rejects_nonconstant_center():
    with pytest.raises(ExprSyntaxError):
        parse_expr("ch(x0;1)", 5)


def test_composition_expression():
    e = parse_expr("comp(x0*x0; x0+1)", 5)
    assert e.eval(vec(4)).as_fraction() == 25
    # outer may not reference more slots than given
    with pytest.raises(ExprSyntaxError):
        parse_expr("comp(x0*x1; x0)", 5)


def test_source_round_trip():
    for src in ["x0*x0", "ch(0;1)", "comp(x0*x0;x0+1)", "1/x0", "-x1+3"]:
        e = parse_expr(src, 5)
        again = parse_expr(e.to_source(), 5)
        x = vec(*range(2, 2 + max(1, e.max_coord() + 1)))
        assert e.eval(x) == again.eval(x)


def test_symbolic_function_shapes():
    f = SymbolicFunction.from_sources(5, ["x0+x1", "x0*x1"])
    assert (f.m, f.n) == (2, 2)
    assert [c.as_fraction() for c in f(vec(2, 3))] == [5, 6]


def compose(outer, inner):
    """outer after inner (inner.n must equal outer.m), one Compose node
    per component of outer."""
    if inner.p != outer.p or inner.n != outer.m:
        raise PadicError("composition shape mismatch")
    comps = tuple(Compose(c, inner.components) for c in outer.components)
    return SymbolicFunction(outer.p, inner.m, comps)


def test_function_composition():
    f = SymbolicFunction.from_sources(5, "x0*x1", m=2)
    u = SymbolicFunction.from_sources(5, ["x0", "x0*x0"], m=1)
    c = compose(f, u)
    assert c.m == 1 and c.n == 1
    assert c(vec(6))[0].as_fraction() == 216


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_as_polynomial_basics():
    q = as_polynomial(parse_expr("x0*x0 + 3", 5), 1)
    assert q.coefficient((2,)) == 1
    assert q.coefficient((0,)) == 3
    assert q.total_degree() == 2
    with pytest.raises(PadicError):
        as_polynomial(parse_expr("ch(0;1)", 5), 1)
    with pytest.raises(PadicError):
        as_polynomial(parse_expr("1/x0", 5), 1)
    half = as_polynomial(parse_expr("x0/2", 5), 1)
    assert half.coefficient((1,)) == Fraction(1, 2)


def test_as_polynomial_composition():
    e = parse_expr("comp(x0*x0; x0+1)", 5)
    q = as_polynomial(e, 1)
    assert q == MultiPoly(1, {(0,): 1, (1,): 2, (2,): 1})


def test_recenter_matches_shift():
    q = MultiPoly(1, {(2,): 1})          # x^2
    r = q.recenter([Fraction(3)])        # (3+w)^2 = 9 + 6w + w^2
    assert r == MultiPoly(1, {(0,): 9, (1,): 6, (2,): 1})


def test_poly_evaluate_matches_expression():
    f = SymbolicFunction.from_sources(5, ["x0*x0*x1 - 2*x1 + 7"], m=2)
    q = as_polynomials(f)[0]
    x = vec(3, 4)
    assert q.evaluate(x).as_fraction() == f(x)[0].as_fraction() == 35


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       st.integers(-20, 20), st.integers(-20, 20))
def test_recenter_is_translation(coeffs, c, x):
    q = MultiPoly(1, {(i,): a for i, a in enumerate(coeffs)})
    r = q.recenter([Fraction(c)])
    assert r.evaluate_fraction([Fraction(x)]) == \
        q.evaluate_fraction([Fraction(c + x)])


# the grammar's characters, the whitespace that str.isspace() and the
# pattern \s both skip, a Unicode digit that \d matches, and characters
# outside the grammar
_SOURCE_CHARS = ("0123456789xchomp_eE@,+-*/();" " \t\u00a0\x1c" "\u0663$.\u00e9")


def _tokens_or_error(tokenize, src):
    try:
        return tokenize(src)
    except ExprSyntaxError as exc:
        return str(exc), exc.offset


@given(st.text(alphabet=_SOURCE_CHARS, max_size=40))
@example("1,2e-3@5*x0 + 0@5")
@example("ch(3,1;2)\t-\u00a0x1")
@example("comp(x0*x1;x0;7)")
@example("12e")
@example("0@")
@example("x0 $ 1")
@example("\x1c\u0663+x_9")
@example("x0\u00e9")
@settings(max_examples=500)
def test_tokenize_matches_the_character_loop(src):
    assert _tokens_or_error(_tokenize, src) == \
        _tokens_or_error(tokenize_reference.tokenize, src)


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

def test_linear_map_apply_and_norm():
    t = LinearMap.from_ints(5, [[1, 5], [0, 2]])
    assert [c.as_fraction() for c in t.apply(vec(1, 1))] == [6, 2]
    assert operator_norm(t) == 1
    s = LinearMap([[PAdicNumber.from_fraction(5, Fraction(1, 5))]])
    assert operator_norm(s) == 5


def test_linear_map_apply_refuses_a_mixed_prime():
    t = LinearMap.from_ints(5, [[1, 5], [0, 2]])
    with pytest.raises(PadicError):
        t.apply(vec(1, 1, p=3))
    with pytest.raises(PadicError):
        LinearMap.from_ints(5, [[2]]).apply(vec(1, p=7))


@given(st.lists(st.integers(-200, 200), min_size=6, max_size=6),
       st.sampled_from((2, 3, 5)))
def test_built_vectors_equal_their_checked_rebuild(ns, p):
    """A function value and a linear map's image are built unchecked; each
    is the vector that the checking constructor makes of its coordinates."""
    x = vec(*ns[:2], p=p)
    f = SymbolicFunction.from_sources(
        p, ["x0*x1 + 3", "x0 - 2*ch(1,2;1)", "x1/(1 + %d*x0)" % p], m=2)
    t = LinearMap.from_ints(p, [ns[2:4], ns[4:]])
    for got in (f(x), t.apply(x)):
        assert type(got.coords) is tuple
        assert got == PAdicVector(list(got.coords)) and got.p == p


def test_linear_map_json_round_trip():
    t = LinearMap.from_ints(5, [[2, 7], [1, 0]])
    assert LinearMap.from_json(t.to_json()) == t
