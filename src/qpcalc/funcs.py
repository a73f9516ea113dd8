"""Symbolic functions on Q_p^m: exact expression trees, exact multivariate
polynomials over Q, and the small expression language shared with the
command line.

Expression grammar (version 1):

    expr       := term (('+' | '-') term)*
    term       := unary (('*' | '/') unary)*
    unary      := '-' unary | atom
    atom       := literal | integer | coordinate | call | '(' expr ')'
    literal    := d0,d1,...eV@p            (see padic.parse_literal)
    coordinate := 'x' index                ('x0', 'x1', ...)
    call       := 'ch' '(' const (';' const)* ';' int ')'   ball indicator
                | 'comp' '(' expr (';' expr)+ ')'           composition

In ch(center;k) the centre coordinates and k, an integer with negatives
allowed, are expressions without coordinates: ch(0;-1) is 1 on p^-1 Z_p.

The canonical argument separator is ';'.  A ',' is tolerated as a separator
wherever it cannot be confused with the digit commas of a literal: literal
tokens are matched greedily first, so `ch(1,2;0)` means center coordinates 1
and 2 while `1,2e0@5` is the single literal 11.  Parse errors carry the byte
offset of the offending token; an expression more than MAX_DEPTH levels deep
is one of them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import comb

from .padic import (
    _ZERO,
    WORKING_PREC,
    Ball,
    PAdicNumber,
    PAdicVector,
    PadicError,
    PrecisionZeroDivision,
    _abs_window,
    _negated,
    _product,
    _quotient,
    _sum,
    _triples,
    _triples_agree_below,
    parse_literal,
)


class ExprSyntaxError(PadicError):
    """Malformed expression source; `offset` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

class Expr:
    """A scalar expression over coordinates x0..x_{m-1}.  Immutable.

    Evaluation walks the tree on (val, unit, prec) triples, the fields of
    a PAdicNumber with (None, 0, 0) the zero sentinel, combined by the
    window rules of qpcalc.padic; only the caller builds a PAdicNumber,
    one per result."""

    __slots__ = ()

    def eval(self, x: PAdicVector) -> PAdicNumber:
        """The value at one point."""
        p = x.p
        try:
            v, u, n = self.eval_triple(p, _triples(x))
        except IndexError:
            raise PadicError(f"coordinate x{self.max_coord()} outside "
                             f"dimension {x.dim}") from None
        return PAdicNumber(p, v, u, n)

    def eval_triple(self, p: int, xs: tuple) -> tuple:
        """The triple of the value at the point whose coordinates have the
        triples xs.  A coordinate past len(xs) raises IndexError."""
        raise NotImplementedError

    def max_coord(self) -> int:
        """Largest coordinate index used, -1 if none."""
        raise NotImplementedError

    def balls(self) -> tuple | None:
        """The ChBall nodes through which the value reads the point, or
        None when a coordinate or a comp reads it.  Without None, the
        value (or the error) at a point depends only on the 0/1 values of
        these indicators there."""
        raise NotImplementedError

    #: binding strength in the grammar: 1 for + and -, 2 for * and /,
    #: 3 for unary minus, 4 for an atom
    _prec = 4

    def to_source(self) -> str:
        """Source text that parse_expr reads back as this tree, with the
        parentheses the grammar needs and no others."""
        raise NotImplementedError

    def __repr__(self):
        return f"<expr {self.to_source()}>"


class Const(Expr):
    __slots__ = ("value", "_triple")

    def __init__(self, value: PAdicNumber):
        self.value = value
        self._triple = (value.val, value.unit, value.prec)

    def eval_triple(self, p, xs):
        if p != self.value.p:
            raise PadicError(f"prime mismatch: {self.value.p} vs {p}")
        return self._triple

    def max_coord(self):
        return -1

    def balls(self):
        return ()

    def to_source(self):
        return self.value.format_literal()


class Coord(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise PadicError("coordinate index must be >= 0")
        self.index = index

    def eval_triple(self, p, xs):
        return xs[self.index]

    def max_coord(self):
        return self.index

    def balls(self):
        return None

    def to_source(self):
        return f"x{self.index}"


class _Binary(Expr):
    __slots__ = ("a", "b")
    _symbol = "?"

    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b

    def max_coord(self):
        return max(self.a.max_coord(), self.b.max_coord())

    def balls(self):
        return _union(self.a.balls(), self.b.balls())

    def to_source(self):
        # chains lean left, so a right operand of equal binding needs them
        a, b = self.a.to_source(), self.b.to_source()
        if self.a._prec < self._prec:
            a = f"({a})"
        if self.b._prec <= self._prec:
            b = f"({b})"
        return f"{a}{self._symbol}{b}"


class Add(_Binary):
    __slots__ = ()
    _symbol = "+"
    _prec = 1

    def eval_triple(self, p, xs):
        av, au, an = self.a.eval_triple(p, xs)
        bv, bu, bn = self.b.eval_triple(p, xs)
        return _sum(p, av, au, an, bv, bu, bn, 1)


class Sub(_Binary):
    __slots__ = ()
    _symbol = "-"
    _prec = 1

    def eval_triple(self, p, xs):
        av, au, an = self.a.eval_triple(p, xs)
        bv, bu, bn = self.b.eval_triple(p, xs)
        return _sum(p, av, au, an, bv, bu, bn, -1)


class Mul(_Binary):
    __slots__ = ()
    _symbol = "*"
    _prec = 2

    def eval_triple(self, p, xs):
        av, au, an = self.a.eval_triple(p, xs)
        bv, bu, bn = self.b.eval_triple(p, xs)
        return _product(p, av, au, an, bv, bu, bn)


class Div(_Binary):
    """Division node; carries the nonvanishing-on-domain assertion, checked
    at every evaluation (a vanishing denominator is a hard error)."""

    __slots__ = ()
    _symbol = "/"
    _prec = 2

    def eval_triple(self, p, xs):
        bv, bu, bn = self.b.eval_triple(p, xs)
        if bv is None:
            raise PrecisionZeroDivision(
                "expression denominator vanishes at an evaluation point "
                "(nonvanishing assertion failed)")
        av, au, an = self.a.eval_triple(p, xs)
        return _quotient(p, av, au, an, bv, bu, bn)


class Neg(Expr):
    __slots__ = ("a",)
    _prec = 3

    def __init__(self, a: Expr):
        self.a = a

    def eval_triple(self, p, xs):
        v, u, n = self.a.eval_triple(p, xs)
        return _negated(p, v, u, n)

    def max_coord(self):
        return self.a.max_coord()

    def balls(self):
        return self.a.balls()

    def to_source(self):
        a = self.a.to_source()
        return f"-({a})" if self.a._prec < self._prec else f"-{a}"


class ChBall(Expr):
    """Indicator of a ball, applied to the whole input vector."""

    __slots__ = ("ball", "_center", "_one")

    def __init__(self, ball: Ball):
        self.ball = ball
        self._center = _triples(ball.center)
        one = PAdicNumber.from_int(ball.p, 1)
        self._one = (one.val, one.unit, one.prec)

    def eval_triple(self, p, xs):
        if len(xs) != len(self._center):
            raise PadicError("indicator dimension mismatch")
        if p != self.ball.p:
            raise PadicError(f"prime mismatch: {self.ball.p} vs {p}")
        return self._one if _triples_agree_below(
            p, xs, self._center, self.ball.rad_exp) else _ZERO

    def max_coord(self):
        return self.ball.dim - 1

    def balls(self):
        return (self,)

    def to_source(self):
        cs = ";".join(c.format_literal() for c in self.ball.center.coords)
        return f"ch({cs};{self.ball.rad_exp})"


class Compose(Expr):
    """outer evaluated at the vector of inner values."""

    __slots__ = ("outer", "inners")

    def __init__(self, outer: Expr, inners):
        inners = tuple(inners)
        if not inners:
            raise PadicError("composition needs at least one inner expression")
        if outer.max_coord() >= len(inners):
            raise PadicError(
                f"outer expression uses x{outer.max_coord()} but only "
                f"{len(inners)} inner expressions are given")
        self.outer = outer
        self.inners = inners

    def eval_triple(self, p, xs):
        return self.outer.eval_triple(
            p, tuple([g.eval_triple(p, xs) for g in self.inners]))

    def max_coord(self):
        return max(g.max_coord() for g in self.inners)

    def balls(self):
        return None

    def to_source(self):
        parts = [self.outer.to_source()] + [g.to_source() for g in self.inners]
        return "comp(" + ";".join(parts) + ")"


def _union(a: tuple | None, b: tuple | None) -> tuple | None:
    """The nodes of a, then those of b not in a; None if either is None."""
    if a is None or b is None:
        return None
    return a + tuple([e for e in b if e not in a])


# ---------------------------------------------------------------------------
# functions Q_p^m -> Q_p^n
# ---------------------------------------------------------------------------

class SymbolicFunction:
    """A tuple of scalar expressions, evaluated exactly on PAdicVectors
    over all of Q_p^m."""

    __slots__ = ("p", "m", "components", "_form")

    def __init__(self, p: int, m: int, components):
        components = tuple(components)
        if not components:
            raise PadicError("a function needs at least one component")
        used = max(c.max_coord() for c in components)
        if used >= m:
            raise PadicError(f"component uses x{used} but m={m}")
        self.p = p
        self.m = m
        self.components = components
        self._form = None           # the point-free localize(), () if none

    @property
    def n(self) -> int:
        return len(self.components)

    def _check_point(self, x: PAdicVector) -> None:
        if x.p != self.p or x.dim != self.m:
            raise PadicError("evaluation point does not match (p, m)")

    def __call__(self, x: PAdicVector) -> PAdicVector:
        p = x.p
        return PAdicVector._of(tuple([
            PAdicNumber(p, v, u, n)
            for v, u, n in self.eval_triples(p, _triples(x))]))

    def eval_triples(self, p: int, xs: tuple) -> tuple:
        """The (val, unit, prec) triple of each component at the point of
        Q_p^m whose coordinates have the triples xs: the one evaluator,
        which __call__ wraps."""
        if p != self.p or len(xs) != self.m:
            raise PadicError("evaluation point does not match (p, m)")
        return tuple([c.eval_triple(p, xs) for c in self.components])

    def balls(self) -> tuple | None:
        """Expr.balls over every component."""
        found = ()
        for c in self.components:
            found = _union(found, c.balls())
        return found

    def localize(self, x: PAdicVector | None = None) -> tuple:
        """The exact local normal form of f at x: one (numerator,
        denominator) pair of MultiPolys per component, with f = N/D on
        every ball about x finer than its indicator radii.

        Each ch(B) is replaced by its 0/1 value at x, and inside comp(...)
        by its value at the inner values.  By the ultrametric trichotomy
        such a ball lies inside B or misses it, so the form is exact there.
        A value whose window ends before an indicator's radius leaves the
        indicator undecided and raises PadicError.  With x None the form is
        that of a source without indicators, valid everywhere; an
        indicator raises PadicError.
        """
        if x is not None:
            self._check_point(x)
        leaves = _coord_pairs(self.m)
        return tuple(_local(c, x, leaves, self.m) for c in self.components)

    def local_form(self, x: PAdicVector) -> tuple:
        """localize(x).  The form of a source without indicators holds
        everywhere, so it is made once, point-free, and kept."""
        self._check_point(x)
        if self._form is None:
            try:
                self._form = self.localize()
            except PadicError:
                self._form = ()
        return self._form or self.localize(x)

    def jet(self, x: PAdicVector, degree: int) -> tuple:
        """The Taylor polynomials of f at x through total degree `degree`,
        one per component in the ambient coordinates: local_jet of the
        local normal form at x.  Where every component is its own jet (see
        _own_jet), the form's numerators are returned as they are, with no
        centre read: the kept form of a source without indicators then
        gives every point the same MultiPoly objects."""
        form = self.local_form(x)
        if all(_own_jet(num, den, degree) for num, den in form):
            return tuple(num for num, _ in form)
        center = [c.as_fraction() for c in x.coords]
        return tuple(local_jet(num, den, center, degree) for num, den in form)

    def to_sources(self) -> list:
        return [c.to_source() for c in self.components]

    @classmethod
    def from_sources(cls, p: int, sources, m: int | None = None,
                     prec: int | None = None) -> "SymbolicFunction":
        if isinstance(sources, str):
            sources = [sources]
        comps = [parse_expr(s, p, prec=prec) for s in sources]
        if m is None:
            m = max(1, 1 + max(c.max_coord() for c in comps))
        return cls(p, m, comps)

    def __repr__(self):
        return f"SymbolicFunction({self.m}->{self.n}: {self.to_sources()})"


class KeptFunction:
    """f's triple evaluator with each value kept by the triples of its
    point, for a span of work that evaluates f at a few points many times,
    such as one item of the identity suite.  Triples are bit-exact, so a
    kept value is the one that evaluating f again would return."""

    __slots__ = ("f", "_values")

    def __init__(self, f):
        self.f, self._values = f, {}

    def eval_triples(self, p: int, xs: tuple) -> tuple:
        y = self._values.get(xs)
        if y is None or p != self.f.p:      # f refuses a foreign prime
            y = self._values[xs] = self.f.eval_triples(p, xs)
        return y


# ---------------------------------------------------------------------------
# exact multivariate polynomials over Q
# ---------------------------------------------------------------------------

class MultiPoly:
    """A polynomial in m variables with Fraction coefficients, keyed by
    exponent tuples.  All operations are exact; used as the symbolic oracle
    for difference quotients, Taylor parts, and jet manipulation."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms=None):
        self.m = m
        clean = {}
        for exps, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "MultiPoly":
        return cls(m)

    @classmethod
    def const(cls, m: int, c) -> "MultiPoly":
        return cls(m, {(0,) * m: Fraction(c)})

    @classmethod
    def coord(cls, m: int, i: int) -> "MultiPoly":
        e = [0] * m
        e[i] = 1
        return cls(m, {tuple(e): Fraction(1)})

    # -- ring operations -----------------------------------------------------

    def _check(self, other):
        if self.m != other.m:
            raise PadicError("polynomial variable-count mismatch")

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, Fraction(0)) + c
        return MultiPoly(self.m, t)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.m, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.m,
                             {e: c * other for e, c in self.terms.items()})
        self._check(other)
        return MultiPoly(self.m, _mul_terms(self.terms, other.terms))

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.m == other.m
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """-1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def homogeneous_part(self, d: int) -> "MultiPoly":
        return MultiPoly(self.m, {e: c for e, c in self.terms.items()
                                  if sum(e) == d})

    def truncate_total_degree(self, d: int) -> "MultiPoly":
        return MultiPoly(self.m, {e: c for e, c in self.terms.items()
                                  if sum(e) <= d})

    # -- substitution --------------------------------------------------------

    def substitute(self, args) -> "MultiPoly":
        """Plug a polynomial (all over the same new variable set) in for each
        variable; exact composition.  Each power of each argument is built
        once, and every term is accumulated into one coefficient table."""
        args = list(args)
        if len(args) != self.m:
            raise PadicError("substitution needs one polynomial per variable")
        new_m = args[0].m if args else 0
        if any(a.m != new_m for a in args):
            raise PadicError("substitution polynomials disagree on variables")
        powers = [{0: {(0,) * new_m: 1}} for _ in args]

        def power(i, e):
            if e not in powers[i]:
                powers[i][e] = _mul_terms(power(i, e - 1), args[i].terms)
            return powers[i][e]

        out = {}
        for exps, c in self.terms.items():
            term = {(0,) * new_m: c}
            for i, e in enumerate(exps):
                if e:
                    term = _mul_terms(term, power(i, e))
            for k, v in term.items():
                out[k] = out.get(k, 0) + v
        return MultiPoly(new_m, out)

    def recenter(self, center) -> "MultiPoly":
        """Coefficients of w |-> f(center + w) (exact Taylor rearrangement),
        by the binomial expansion of each (center_i + w_i)^e_i."""
        center = [Fraction(c) for c in center]
        if len(center) != self.m:
            raise PadicError("center length mismatch")
        out = {}
        for exps, c in self.terms.items():
            partial = {(): c}
            for zi, e in zip(center, exps):
                partial = {key + (a,): coef * comb(e, a) * zi ** (e - a)
                           for key, coef in partial.items()
                           for a in range(e + 1)}
            for k, v in partial.items():
                out[k] = out.get(k, 0) + v
        return MultiPoly(self.m, out)

    # -- evaluation ----------------------------------------------------------

    def evaluate_fraction(self, args) -> Fraction:
        args = [Fraction(a) for a in args]
        if len(args) != self.m:
            raise PadicError("argument count mismatch")
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for a, e in zip(args, exps):
                if e:
                    v *= a**e
            total += v
        return total

    def evaluate(self, x: PAdicVector, prec: int | None = None) -> PAdicNumber:
        """Exact rational evaluation, then a single p-adic conversion."""
        val = self.evaluate_fraction([c.as_fraction() for c in x.coords])
        return PAdicNumber.from_fraction(x.p, val, prec=prec)

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two coefficient tables (zero coefficients may remain)."""
    t = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            t[e] = t.get(e, 0) + c1 * c2
    return t


# ---------------------------------------------------------------------------
# the local normal form: exact rational functions
# ---------------------------------------------------------------------------

def _coord_pairs(m: int) -> list:
    one = MultiPoly.const(m, 1)
    return [(MultiPoly.coord(m, i), one) for i in range(m)]


def _pair(num: MultiPoly, den: MultiPoly) -> tuple:
    """num/den with a constant denominator folded into the numerator."""
    if den.total_degree() == 0:
        c = den.coefficient((0,) * den.m)
        return (num if c == 1 else num * (1 / c)), MultiPoly.const(den.m, 1)
    return num, den


def _local(expr: Expr, at, leaves, m: int) -> tuple:
    """(N, D) of expr in m variables at the point `at` (None: no
    indicators allowed), with leaves[i] the pair standing for coordinate i.
    Every denominator of a subexpression stays a factor of D, so D vanishes
    wherever a division of expr does."""
    if isinstance(expr, Const):
        return MultiPoly.const(m, expr.value.as_fraction()), \
            MultiPoly.const(m, 1)
    if isinstance(expr, Coord):
        return leaves[expr.index]
    if isinstance(expr, Neg):
        num, den = _local(expr.a, at, leaves, m)
        return -num, den
    if isinstance(expr, ChBall):
        if at is None:
            raise PadicError("not a polynomial: ChBall node")
        return MultiPoly.const(m, _indicator_at(expr.ball, at)), \
            MultiPoly.const(m, 1)
    if isinstance(expr, Compose):
        inner = [_local(g, at, leaves, m) for g in expr.inners]
        y = None if at is None else PAdicVector(g.eval(at)
                                                for g in expr.inners)
        num, den = _local(expr.outer, y, inner, m)
        # D vanishes where an inner's does, also one the outer leaves out
        for _, d in inner:
            if d.total_degree():
                num, den = num * d, den * d
        return num, den
    n1, d1 = _local(expr.a, at, leaves, m)
    n2, d2 = _local(expr.b, at, leaves, m)
    if isinstance(expr, Mul):
        return _pair(n1 * n2, d1 * d2)
    if isinstance(expr, Div):
        if n2.is_zero():
            raise PrecisionZeroDivision(
                "expression denominator vanishes identically")
        # d2 kept in both: D must vanish where the divisor's own does
        return _pair(n1 * d2 * d2, d1 * n2 * d2) if d2.total_degree() \
            else _pair(n1, d1 * n2)
    if isinstance(expr, Sub):
        n2 = -n2
    if d1 == d2:
        return _pair(n1 + n2, d1)
    return _pair(n1 * d2 + n2 * d1, d1 * d2)


def _indicator_at(ball: Ball, x: PAdicVector) -> int:
    """ch(ball)(x), decided from the known digits of x and of the centre:
    some coordinate differing below the radius puts x outside; otherwise
    x lies inside only if every coordinate is known to the radius."""
    if x.dim != ball.dim:
        raise PadicError("indicator dimension mismatch")
    r = ball.rad_exp
    if not ball.contains(x):
        return 0
    if any(c.abs_window() < r for c in x.coords + ball.center.coords):
        raise PadicError(
            f"a window ends before the indicator radius exponent {r}: "
            f"membership is undecided")
    return 1


def as_polynomial(expr: Expr, m: int) -> MultiPoly:
    """The local normal form of an indicator-free expression whose
    denominator is constant; raises PadicError otherwise."""
    num, den = _local(expr, None, _coord_pairs(m), m)
    if den.total_degree() != 0:
        raise PadicError("not a polynomial: division by a non-constant")
    return num


def as_polynomials(f: SymbolicFunction) -> list:
    """One exact polynomial per component, or raise PadicError.  No verb
    calls it: the benchmark's tracer (qpbench/tracing.py) times it."""
    return [as_polynomial(c, f.m) for c in f.components]


class _Unbounded(Exception):
    """An expression that reach() does not bound."""


def reach(f: SymbolicFunction, vals, wins):
    """(bounds, balls) for f over a ball whose points have coordinate i of
    valuation >= vals[i], known to an absolute window >= wins[i] (the
    exact value of a point is its canonical representative).

    bounds[r] = (V, A) for component r: at every point of the ball, the
    value that eval_triple walks and the value of the local normal form
    both have valuation >= V, and they agree modulo p^A.  The rules keep
    A at most the window of the walked value, and count the zero sentinel
    of a collapse as its true value, known below A: a sum is known to
    min(A_a, A_b); a product to min(A_a + V_b, A_b + V_a); a quotient by a
    constant b of valuation v, with A_b > v, to min(A_a - v, A_b + V_a -
    2v); a constant to its window; an indicator, 1 to DEFAULT_PREC digits
    or the exact 0, to DEFAULT_PREC.  So where A >= t, the valuation of
    the walked value passes t exactly when the local form's does.

    balls: the indicator balls applied to the point, in the order of the
    walk.  None where the local form may have a non-constant denominator
    (a divisor with a coordinate or indicator, or one not known past its
    valuation) or an indicator reads a composition's inner values."""
    p = f.p

    def walk(e, leaves, outer: bool):
        if isinstance(e, Const):
            v = e.value.val
            return (math.inf, math.inf) if v is None else \
                (v, e.value.abs_window())
        if isinstance(e, Coord):
            return leaves[e.index]
        if isinstance(e, Neg):
            return walk(e.a, leaves, outer)
        if isinstance(e, ChBall):
            if outer:
                raise _Unbounded
            balls.append(e.ball)
            return 0, _abs_window(e._one)
        if isinstance(e, Compose):
            return walk(e.outer, [walk(g, leaves, outer) for g in e.inners],
                        True)
        Va, Aa = walk(e.a, leaves, outer)
        if isinstance(e, Div):
            if e.b.max_coord() >= 0:
                raise _Unbounded
            _, Ab = walk(e.b, leaves, outer)
            try:
                v = e.b.eval_triple(p, ())[0]
            except PadicError:
                raise _Unbounded from None
            if v is None or Ab <= v:
                raise _Unbounded
            return Va - v, min(Aa - v, Ab + Va - 2 * v)
        Vb, Ab = walk(e.b, leaves, outer)
        if isinstance(e, Mul):
            return Va + Vb, min(Aa + Vb, Ab + Va)
        return min(Va, Vb), min(Aa, Ab)

    balls = []
    leaves = list(zip(vals, wins))
    try:
        return [walk(c, leaves, False) for c in f.components], balls
    except _Unbounded:
        return None


def _own_jet(num: MultiPoly, den: MultiPoly, degree: int) -> bool:
    """Whether num/den is its own jet through `degree` at every centre: den
    is the constant 1 and num has total degree at most `degree`.  Local
    normal forms fold every other constant denominator into num."""
    return len(den.terms) == 1 and den.terms.get((0,) * den.m) == 1 \
        and num.total_degree() <= degree


def local_jet(num: MultiPoly, den: MultiPoly, center, degree: int) -> MultiPoly:
    """The Taylor polynomial of num/den about `center` through total degree
    `degree`, in the ambient coordinates: the recentred num times the
    truncated series inverse of the recentred den.  A den vanishing at the
    centre raises PrecisionZeroDivision.  A constant den leaves a
    polynomial: of degree at most `degree` it is its own jet, otherwise
    it is shifted to the centre, truncated and shifted back."""
    if _own_jet(num, den, degree):
        return num
    num, den = _pair(num, den)
    center = [Fraction(c) for c in center]
    back = [-c for c in center]
    if den.total_degree() == 0:
        if num.total_degree() <= degree:
            return num
        return num.recenter(center).truncate_total_degree(degree) \
            .recenter(back)
    dz = den.recenter(center).truncate_total_degree(degree)
    d0 = dz.coefficient((0,) * den.m)
    if d0 == 0:
        raise PrecisionZeroDivision(
            "expression denominator vanishes at the jet centre")
    # 1/dz = (1/d0) * sum_k u^k with u = 1 - dz/d0, which has no constant
    # term: powers past `degree` drop out of the truncation
    u = MultiPoly.const(den.m, 1) - dz * (1 / d0)
    inverse = term = MultiPoly.const(den.m, 1 / d0)
    for _ in range(degree):
        term = (term * u).truncate_total_degree(degree)
        inverse = inverse + term
    jet = num.recenter(center).truncate_total_degree(degree) * inverse
    return jet.truncate_total_degree(degree).recenter(back)


# ---------------------------------------------------------------------------
# expression-language parser
# ---------------------------------------------------------------------------

# one alternation, tried in this order at each offset: a digit literal,
# an integer, a name, a punctuation mark; whitespace matches nothing and is
# skipped, and any other character is the last alternative's error
_TOKEN_RE = re.compile(r"(?P<lit>\d+(?:,\d+)*e-?\d+@\d+|0@\d+)|(?P<int>\d+)"
                       r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                       r"|(?P<punct>[-+*/();,])|(?P<bad>\S)")
_COORD_RE = re.compile(r"^x(\d+)$")


def _tokenize(src: str):
    toks = []
    for m in _TOKEN_RE.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {text!r}", m.start())
        toks.append((text if kind == "punct" else kind, text, m.start()))
    toks.append(("end", "", len(src)))
    return toks


#: The deepest expression the parser accepts.  Each parenthesis, call and
#: unary minus around a value counts one level, and so does each operator
#: of a chain: a chain builds a left-leaning tree, so a sum of n terms is
#: n - 1 levels deep.  Every walk of a parsed tree recurses once per level
#: and the parser four times per parenthesis, which keeps both inside
#: Python's default recursion limit of 1000.
MAX_DEPTH = 200


class _Parser:
    """Precedence climbing.  Each rule returns (expr, depth), the depth
    counted against MAX_DEPTH; `open` counts the parentheses being read,
    so that too deep a nest is refused before it can exhaust the stack."""

    def __init__(self, src: str, p: int, prec: int | None):
        self.toks = _tokenize(src)
        self.pos = 0
        self.p = p
        self.prec = prec
        self.open = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    @staticmethod
    def level(depth: int, off: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError("expression nests too deeply", off)
        return depth

    # precedence climbing ----------------------------------------------------

    def expr(self):
        left, depth = self.term()
        while self.peek()[0] in "+-":
            op, _, off = self.take()
            right, d = self.term()
            left = Add(left, right) if op == "+" else Sub(left, right)
            depth = self.level(max(depth, d) + 1, off)
        return left, depth

    def term(self):
        left, depth = self.unary()
        while self.peek()[0] in "*/":
            op, _, off = self.take()
            right, d = self.unary()
            left = Mul(left, right) if op == "*" else Div(left, right)
            depth = self.level(max(depth, d) + 1, off)
        return left, depth

    def unary(self):
        signs = []
        while self.peek()[0] == "-":
            signs.append(self.take()[2])
        e, depth = self.atom()
        for off in reversed(signs):
            e, depth = Neg(e), self.level(depth + 1, off)
        return e, depth

    def atom(self):
        kind, text, off = self.peek()
        if kind == "lit":
            self.take()
            try:
                v = parse_literal(text)
            except PadicError as e:
                raise ExprSyntaxError(str(e), off) from e
            if v.p != self.p:
                raise ExprSyntaxError(
                    f"literal is {v.p}-adic but the context prime is {self.p}",
                    off)
            return Const(_widen_const(v, self.prec)), 0
        if kind == "int":
            self.take()
            return Const(PAdicNumber.from_int(self.p, int(text),
                                              prec=self.prec)), 0
        if kind == "name":
            m = _COORD_RE.match(text)
            if m:
                self.take()
                return Coord(int(m.group(1))), 0
            if text not in ("ch", "comp"):
                raise ExprSyntaxError(f"unknown name {text!r}", off)
            self.take()
            off = self.take("(")[2]
        elif kind == "(":
            self.take()
        else:
            raise ExprSyntaxError("expected a value", off)
        # a parenthesis, or a call's: the arguments are read here, not in
        # a helper, so that each level costs the parser only four frames
        self.open = self.level(self.open + 1, off)
        args = [self.expr() + (self.peek()[2],)]
        while kind == "name" and self.peek()[0] in (";", ","):
            self.take()
            args.append(self.expr() + (self.peek()[2],))
        self.take(")")
        self.open -= 1
        depth = self.level(max(d for _, d, _ in args) + 1, off)
        if kind == "(":
            return args[0][0], depth
        if len(args) < 2:
            raise ExprSyntaxError(f"{text} needs at least two arguments",
                                  self.peek()[2])
        if text == "ch":
            return self.ch_call(args), depth
        return self.comp_call(args), depth

    # calls --------------------------------------------------------------

    def ch_call(self, args) -> Expr:
        center = []
        for e, _, off in args[:-1]:
            if e.max_coord() >= 0:
                raise ExprSyntaxError("ch center coordinates must be constant",
                                      off)
            center.append(PAdicNumber(self.p, *e.eval_triple(self.p, ())))
        last, _, off = args[-1]
        if last.max_coord() < 0:
            # read exactly: a constant's form is N/1.  Its indicators are
            # decided on their constant inner values, whatever the point.
            k = _local(last, PAdicVector.zero(self.p, 1), [], 0)[0] \
                .coefficient(())
            if k.denominator == 1:
                return ChBall(Ball(PAdicVector(center), int(k)))
        raise ExprSyntaxError("ch radius exponent must be an integer", off)

    @staticmethod
    def comp_call(args) -> Expr:
        off = args[1][2]
        try:
            return Compose(args[0][0], [e for e, _, _ in args[1:]])
        except PadicError as e:
            raise ExprSyntaxError(str(e), off) from e


def _widen_const(v: PAdicNumber, prec: int | None) -> PAdicNumber:
    """A literal denotes an exact rational: unstated digits are zeros, so the
    window may honestly extend past the written digits."""
    if v.is_zero() or prec is None or v.prec >= prec:
        return v
    return PAdicNumber(v.p, v.val, v.unit, prec)


def parse_expr(src: str, p: int, prec: int | None = None) -> Expr:
    """Parse one scalar expression; errors carry byte offsets."""
    parser = _Parser(src, p, prec if prec is not None else WORKING_PREC)
    e, _ = parser.expr()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {text!r}", off)
    return e
