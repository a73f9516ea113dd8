"""Expression language and polynomial tests."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import tokenize_reference
from eval_reference import eval_reference
from qpcalc.funcs import (
    MAX_DEPTH,
    Add,
    ChBall,
    Compose,
    Const,
    Coord,
    Div,
    ExprSyntaxError,
    Mul,
    MultiPoly,
    Neg,
    Sub,
    SymbolicFunction,
    _tokenize,
    as_polynomial,
    as_polynomials,
    parse_expr,
)
from qpcalc.padic import (
    Ball,
    PAdicNumber,
    PAdicVector,
    PadicError,
    PrecisionZeroDivision,
    _make,
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


def test_ch_radius_is_an_exact_integer():
    """The radius is read as a rational, not folded in Z_5: ch(0;-1) once
    got the radius exponent 5^24 - 1, and ch(0;1/2) 29802322387695313."""
    fifth, tiny = (PAdicVector([PAdicNumber.from_fraction(5, Fraction(1, d))])
                   for d in (5, 25))
    for src in ["ch(0;-1)", "ch(0;2-3)"]:
        e = parse_expr(src, 5)
        assert e.ball.rad_exp == -1
        assert e.eval(vec(1)).as_fraction() == e.eval(fifth).as_fraction() == 1
        assert e.eval(tiny).is_zero()
    for src in ["ch(0;1/2)", "ch(0;x0)"]:
        with pytest.raises(ExprSyntaxError,
                           match="ch radius exponent must be an integer"):
            parse_expr(src, 5)
    a, b = parse_expr("ch(2*3;1)", 5), parse_expr("ch(6;1)", 5)
    assert (a.ball.center, a.ball.rad_exp) == (b.ball.center, b.ball.rad_exp)
    assert a.to_source() == b.to_source()


def test_ch_radius_decides_its_indicators_on_their_constant_values():
    """A radius holding an indicator of constants is read as the integer
    that indicator makes: 1 lies in Z_5 but neither 1/5 nor 1 lies in
    B(0, 5^-30)."""
    for src, k in [("ch(0;comp(ch(0;0);1))", 1),
                   ("ch(0;2*comp(ch(0;0);1))", 2),
                   ("ch(0;comp(ch(0;0);1/5))", 0),
                   ("ch(0;comp(ch(0;30);1)-1)", -1)]:
        assert parse_expr(src, 5).ball.rad_exp == k
    with pytest.raises(ExprSyntaxError,
                       match="ch radius exponent must be an integer"):
        parse_expr("ch(0;comp(ch(0;0);1)/2)", 5)


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


def _tree(e):
    """The node structure of e, with the source of each leaf."""
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e).__name__, _tree(e.a), _tree(e.b)
    if isinstance(e, Neg):
        return "Neg", _tree(e.a)
    if isinstance(e, Compose):
        return ("Compose", _tree(e.outer)) + tuple(map(_tree, e.inners))
    return e.to_source()


@st.composite
def source_texts(draw, p, depth):
    """Expression text of every grammar rule: literals, integers,
    coordinates, redundant parentheses, runs of unary minus, mixed
    operator chains, indicators and compositions, with stray spaces."""
    kinds = ["int", "lit", "coord"]
    if depth:
        kinds += ["paren", "neg", "chain", "chain", "ch", "comp"]
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return str(draw(st.integers(0, 3 * p)))
    if kind == "lit":
        if draw(st.integers(0, 5)) == 0:
            return f"0@{p}"
        digits = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
        return (",".join(map(str, digits))
                + f"e{draw(st.integers(-2, 2))}@{p}")
    if kind == "coord":
        return f"x{draw(st.integers(0, 1))}"
    sub = source_texts(p, depth - 1)
    if kind == "paren":
        return f"({draw(sub)})"
    if kind == "neg":
        return "-" * draw(st.integers(1, 2)) + draw(sub)
    if kind == "chain":
        text = draw(sub)
        for _ in range(draw(st.integers(1, 4))):
            op = draw(st.sampled_from(["+", "-", "*", "/", " - ", "*-"]))
            text += op + draw(sub)
        return text
    if kind == "ch":
        return (f"ch({draw(st.integers(0, 3 * p))};"
                f"{draw(st.integers(-1, 3))})")
    k = draw(st.integers(1, 2))
    outer = draw(source_texts(p, depth - 1).filter(
        lambda s: "x1" not in s or k == 2))
    return "comp(" + ";".join([outer] + [draw(sub) for _ in range(k)]) + ")"


@given(st.data())
@settings(derandomize=True, max_examples=500, deadline=None)
def test_printed_source_parses_back(data):
    """For every e that parse_expr accepts, e.to_source() parses back to
    the same tree, which prints the same source."""
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    text = data.draw(source_texts(p, 4))
    try:
        e = parse_expr(text, p)
    except ExprSyntaxError:
        return
    again = parse_expr(e.to_source(), p)
    assert again.to_source() == e.to_source()
    assert _tree(again) == _tree(e)


def test_printed_long_chains_parse_back():
    """Chains print flat, so a chain the parser accepts prints as source it
    accepts: the 150- and 201-term sums, a mixed 150-term chain and a
    product with a parenthesized 150-term sum print as they were written."""
    for src in ["+".join(["x0"] * 150), "+".join(["x0"] * (MAX_DEPTH + 1)),
                "-".join(["x0", "x1*x0", "-x1"] * 50),
                "x0*(" + "+".join(["x1"] * 150) + ")"]:
        e = parse_expr(src, 5)
        assert e.to_source() == src
        assert parse_expr(e.to_source(), 5).to_source() == src
    assert parse_expr("(x0-(x1-x0))*-(x0/(x1*x0))", 5).to_source() == \
        "(x0-(x1-x0))*-(x0/(x1*x0))"


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
# evaluation on (val, unit, prec) triples
# ---------------------------------------------------------------------------

@st.composite
def padic_values(draw, p, zero_weight=4):
    """Zero, or p^val * unit known to a short window: 1 to 5 digits."""
    if draw(st.integers(0, zero_weight)) == 0:
        return PAdicNumber.zero(p)
    window = draw(st.integers(1, 5))
    return _make(p, draw(st.integers(-2, 3)),
                 draw(st.integers(1, p ** window - 1)), draw(st.integers(-2, 3))
                 + window)


@st.composite
def constants(draw, p):
    """A rational carrying a power of p, given a window of 1 to 8 digits."""
    a = draw(st.integers(-30, 30))
    if a == 0:
        return Const(PAdicNumber.zero(p))
    q = Fraction(a * p ** draw(st.integers(0, 2)),
                 draw(st.integers(1, 6)) * p ** draw(st.integers(0, 2)))
    return Const(PAdicNumber.from_fraction(p, q, prec=draw(st.integers(1, 8))))


@st.composite
def trees(draw, p, m, depth):
    """An expression over x0..x_{m-1} of every node kind; `cancel` is a
    difference of two copies of one subtree, a sum that collapses to the
    zero sentinel (or, where a window is short, to a few digits)."""
    kinds = ["const", "coord"]
    if depth:
        kinds += ["add", "sub", "mul", "div", "neg", "ch", "comp", "cancel"]
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return draw(constants(p))
    if kind == "coord":
        return Coord(draw(st.integers(0, m - 1)))
    if kind == "ch":
        center = PAdicVector([draw(padic_values(p)) for _ in range(m)])
        return ChBall(Ball(center, draw(st.integers(-1, 3))))
    if kind == "comp":
        k = draw(st.integers(1, 2))
        inners = [draw(trees(p, m, depth - 1)) for _ in range(k)]
        return Compose(draw(trees(p, k, depth - 1)), inners)
    a = draw(trees(p, m, depth - 1))
    if kind == "neg":
        return Neg(a)
    if kind == "cancel":
        return Sub(a, a) if draw(st.booleans()) else Add(a, Neg(a))
    node = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
    return node(a, draw(trees(p, m, depth - 1)))


def _outcome(fn):
    """(val, unit, prec) of the value, or the exception's type and text."""
    try:
        v = fn()
    except PadicError as e:
        return type(e), str(e)
    return v.val, v.unit, v.prec


@st.composite
def cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 2))
    comps = [draw(trees(p, m, draw(st.integers(0, 4))))
             for _ in range(draw(st.integers(1, 2)))]
    points = [PAdicVector([draw(padic_values(p)) for _ in range(m)])
              for _ in range(3)]
    return SymbolicFunction(p, m, comps), points


@given(cases())
@settings(derandomize=True, max_examples=600, deadline=None)
def test_triple_walk_matches_the_node_by_node_walk(case):
    """Every component of f(x), and Expr.eval, has the (val, unit, prec)
    of the walk that builds a PAdicNumber per node, or raises what it
    raises."""
    f, points = case
    for x in points:
        try:
            got = [(v.val, v.unit, v.prec) for v in f(x)]
        except PadicError as e:
            got = (type(e), str(e))
        want = [_outcome(lambda c=c: eval_reference(c, x))
                for c in f.components]
        failed = [w for w in want if len(w) == 2]
        assert got == (failed[0] if failed else want)
        for c, w in zip(f.components, want):
            assert _outcome(lambda c=c: c.eval(x)) == w


def test_triple_walk_refuses_what_the_reference_refuses():
    """A vanishing denominator, a coordinate outside the point, an
    indicator of the wrong dimension and a point over another prime raise
    as the node-by-node walk does."""
    x = vec(5)
    for src in ["1/(x0-5)", "x0/(x0*x0-25)", "comp(1/x0;x0-5)"]:
        e = parse_expr(src, 5)
        with pytest.raises(PrecisionZeroDivision) as got:
            e.eval(x)
        with pytest.raises(PrecisionZeroDivision) as want:
            eval_reference(e, x)
        assert str(got.value) == str(want.value)
    e = parse_expr("x0+x1", 5)
    with pytest.raises(PadicError, match="coordinate x1 outside dimension 1"):
        e.eval(x)
    e = parse_expr("ch(0,0;1)", 5)
    with pytest.raises(PadicError, match="indicator dimension mismatch"):
        e.eval(x)
    for src in ["x0+3", "ch(0;1)", "comp(x0*x0;x0+1)"]:
        e = parse_expr(src, 5)
        for walk in (e.eval, lambda y: eval_reference(e, y)):
            with pytest.raises(PadicError, match="prime mismatch"):
                walk(vec(3, p=7))


def test_one_value_built_per_component(monkeypatch):
    """A call builds exactly one PAdicNumber per component, whatever the
    tree holds: divisions, indicators and compositions included."""
    f = SymbolicFunction.from_sources(5, [
        "(x0*x0+3*x1)/(1+5*x1)-2*ch(1,2;1)",
        "comp(x0*x1+ch(3,0;1)/(1+5*x0); x0+x1; 1/(1+5*x0*x1))",
        "-x0+1,2e-1@5*ch(0,0;0)"], m=2)
    points = [vec(a, b) for a in range(-3, 4) for b in (0, 1, 7, 26)]
    built = [0]
    init = PAdicNumber.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(PAdicNumber, "__init__", counted)
    for x in points:
        before = built[0]
        f(x)
        assert built[0] - before == f.n


def test_deep_chains_are_refused_past_the_bound():
    """A chain of MAX_DEPTH operators parses, evaluates, localizes and
    prints; one operator more, a deeper nest or a 3000-term chain is
    refused with "expression nests too deeply"."""
    x = vec(2)
    for op, value in (("+", 2 * (MAX_DEPTH + 1)), ("*", 2 ** (MAX_DEPTH + 1))):
        e = parse_expr(op.join(["x0"] * (MAX_DEPTH + 1)), 5)
        assert e.eval(x) == num(value)
        f = SymbolicFunction(5, 1, [e])
        assert f(x)[0] == e.eval(x)
        assert e.max_coord() == 0
        assert e.to_source().count("x0") == MAX_DEPTH + 1
        (num_poly, _), = f.localize(x)
        assert num_poly.evaluate_fraction([2]) == value
    nests = ["(" * MAX_DEPTH + "x0" + ")" * MAX_DEPTH,
             "-" * MAX_DEPTH + "x0",
             "comp(" * MAX_DEPTH + "x0" + ";x0)" * MAX_DEPTH]
    for src in nests:
        assert parse_expr(src, 5).eval(x).as_fraction() == 2
    for src in ["+".join(["x0"] * (MAX_DEPTH + 2)),
                "*".join(["x0"] * 3000),
                "(" * (MAX_DEPTH + 1) + "x0" + ")" * (MAX_DEPTH + 1),
                "(" * 5000 + "x0" + ")" * 5000,
                "-" * (MAX_DEPTH + 1) + "x0",
                "comp(" * (MAX_DEPTH + 1) + "x0" + ";x0)" * (MAX_DEPTH + 1),
                "1+(" + "x0-" * MAX_DEPTH + "x0)"]:
        with pytest.raises(ExprSyntaxError, match="nests too deeply"):
            parse_expr(src, 5)


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
# vectors built unchecked
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(-200, 200), min_size=2, max_size=2),
       st.sampled_from((2, 3, 5)))
def test_built_vectors_equal_their_checked_rebuild(ns, p):
    """A function value is built unchecked; it is the vector that the
    checking constructor makes of its coordinates."""
    x = vec(*ns, p=p)
    f = SymbolicFunction.from_sources(
        p, ["x0*x1 + 3", "x0 - 2*ch(1,2;1)", "x1/(1 + %d*x0)" % p], m=2)
    got = f(x)
    assert type(got.coords) is tuple
    assert got == PAdicVector(list(got.coords)) and got.p == p
