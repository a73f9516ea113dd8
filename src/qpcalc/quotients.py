"""Partial difference quotients on Q_p^m, their exact values at vanishing
increments (read from the jets of `SymbolicFunction.jet`),
the Taylor expansion with exact residual, combinatorial
differentiation identities (chain, telescoping, product), Hölder constant
scans, and approximate derivatives with their bad-set densities.

The n-th quotient is normalized so that its value at vanishing increments is
the n-th divided-power (Hasse) part of the Taylor expansion:

    phin(f; x; v_1..v_n; t_1..t_n)
        = (1/n!) * sum_{S subset of {1..n}} (-1)^(n-|S|) f(x + sum_S v_i t_i)
          / (t_1 ... t_n)

so phi2 of x |-> x^2 is identically v1*v2, and for a polynomial of degree d
the (d+1)-st quotient vanishes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .funcs import MultiPoly, SymbolicFunction, local_jet
from .measure import (DEFAULT_CAP, VERDICT_LEVELS, CosetTree,
                      DensityEstimate, GridFunction, _check_cap, _descend,
                      _Pieces, _rep, _scaled, _taylor, coset_key,
                      density_levels, descent_forms, enumerate_cosets,
                      first_gaps, gap_val, level_estimate)
from .padic import (
    _ZERO,
    DEFAULT_PREC,
    Ball,
    PAdicNumber,
    PAdicVector,
    PadicError,
    PPow,
    ScaledBound,
    _abs_window,
    _product,
    _quotient,
    _sum,
    _triples,
    frac_str,
    holder_exponent,
)

_VALUE_PREC = 32          # window of exact rational values, such as jet terms


@dataclass(frozen=True)
class QuotientPoint:
    """The tuple (x; v_1..v_n; t_1..t_n) feeding an n-th quotient."""

    x: PAdicVector
    vs: tuple
    ts: tuple

    def __post_init__(self):
        object.__setattr__(self, "vs", tuple(self.vs))
        object.__setattr__(self, "ts", tuple(self.ts))
        if len(self.vs) != len(self.ts):
            raise PadicError("need one scalar t per direction v")
        m, p = self.x.dim, self.x.p
        if any(v.dim != m or v.p != p for v in self.vs):
            raise PadicError("direction dimension mismatch")

    @property
    def order(self) -> int:
        return len(self.vs)


def phin(f, n: int, q: QuotientPoint) -> PAdicVector:
    """The n-th partial difference quotient at q (all t_i nonzero)."""
    if n < 1:
        raise PadicError("quotient order must be >= 1")
    if q.order != n:
        raise PadicError(f"quotient point carries {q.order} directions, not {n}")
    if any(t.is_zero() for t in q.ts):
        raise PadicError("t_i = 0 in exact mode: use phin_exact_zero")
    acc = None
    for mask in range(2**n):
        point = q.x
        bits = 0
        for i in range(n):
            if mask >> i & 1:
                point = point + q.vs[i].scale(q.ts[i])
                bits += 1
        w = f(point)
        if (n - bits) % 2:
            w = -w
        acc = w if acc is None else acc + w
    # the exact n! is coerced to a window no shorter than the ts' own
    denom = math.prod(q.ts, start=math.factorial(n))
    return PAdicVector(c / denom for c in acc)


# ---------------------------------------------------------------------------
# values at vanishing increments and the Taylor expansion
# ---------------------------------------------------------------------------

def phin_poly(Q: MultiPoly, n: int) -> MultiPoly:
    """phin of the polynomial Q in m variables, as a polynomial in the
    (n+1)*m + n variables (x_1..x_m, v_1,1..v_1,m, .., v_n,m, t_1..t_n).

    The alternating sum over the increment subsets S of Q(x + sum_S v_i t_i)
    is the part of Q(x + v_1 t_1 + ... + v_n t_n) whose monomials contain
    every t_i (inclusion-exclusion), so one substitution gives it; dividing
    by t_1...t_n lowers each t-exponent by one, and the division by n! is
    exact over Q.  It equals phin wherever every t_i is nonzero, and its
    value at t = 0 is the limit there."""
    if n < 1:
        raise PadicError("quotient order must be >= 1")
    m = Q.m
    first_t = m * (n + 1)
    coord = lambda k: MultiPoly.coord(first_t + n, k)
    args = [coord(k) for k in range(m)]
    for i in range(n):
        for k in range(m):
            args[k] = args[k] + coord(m * (i + 1) + k) * coord(first_t + i)
    fact = Fraction(1, math.factorial(n))
    return MultiPoly(first_t + n, {
        e[:first_t] + tuple(a - 1 for a in e[first_t:]): c * fact
        for e, c in Q.substitute(args).terms.items() if all(e[first_t:])})


def phin_exact_zero(f: SymbolicFunction, n: int, x: PAdicVector,
                    vs) -> PAdicVector:
    """The exact value of phin at t = (0,..,0): the n-fold multilinear
    (divided-power) form of f at x, phin_poly of f's degree-n jet at x,
    evaluated at (x, vs, 0)."""
    vs = list(vs)
    if len(vs) != n:
        raise PadicError("need n directions")
    point = [c.as_fraction() for y in (x, *vs) for c in y.coords] + [0] * n
    return _values(x.p, [phin_poly(q, n).evaluate_fraction(point)
                         for q in f.jet(x, n)])


# The value at vanishing increments is exact, so the limit is this value:
# one implementation under both public names, which callers and the
# per-layer tracer of qpbench/tracing.py look up by name.
phin_limit = phin_exact_zero


@dataclass(frozen=True)
class TaylorExpansion:
    y: PAdicVector
    x: PAdicVector
    n: int
    total: PAdicVector          # f(y) + sum of the n+1 divided-power terms
    residual: PAdicVector       # f(x) - total
    terms: tuple                # the j = 1 .. n+1 terms

    exact = True                # every expansion is exact; reports say so

    def residual_norm(self) -> Fraction:
        return self.residual.sup_norm()

    def to_json(self):
        return {
            "y": self.y.to_json(), "x": self.x.to_json(), "n": self.n,
            "total": self.total.to_json(), "residual": self.residual.to_json(),
            "terms": [t.to_json() for t in self.terms],
            "exact": self.exact,
        }


def _values(p: int, fracs) -> PAdicVector:
    return PAdicVector(PAdicNumber.from_fraction(p, c, prec=_VALUE_PREC)
                       for c in fracs)


def taylor_eval(f: SymbolicFunction, n: int, y: PAdicVector,
                x: PAdicVector) -> TaylorExpansion:
    """f(x) against f(y) + sum_{j=1}^{n+1} phin(y; x-y,..; 0,..).

    The j-th term is the degree-j part, at x - y, of the degree-(n+1) jet
    of f's local normal form at y, and f(x) is the value of its local
    normal form at x (its degree-0 jet there).  Everything is rational
    arithmetic, so a polynomial of degree <= n+1 leaves residual exactly 0.
    """
    yf = [c.as_fraction() for c in y.coords]
    hf = [c.as_fraction() - b for c, b in zip(x.coords, yf)]
    zero = (0,) * f.m
    centred = [q.recenter(yf) for q in f.jet(y, n + 1)]
    total = [q.coefficient(zero) for q in centred]
    terms = []
    for j in range(1, n + 2):
        tj = [q.homogeneous_part(j).evaluate_fraction(hf) for q in centred]
        terms.append(_values(x.p, tj))
        total = [a + b for a, b in zip(total, tj)]
    fx = [q.coefficient(zero) for q in f.jet(x, 0)]
    return TaylorExpansion(
        y=y, x=x, n=n, total=_values(x.p, total),
        residual=_values(x.p, [a - b for a, b in zip(fx, total)]),
        terms=tuple(terms))


# ---------------------------------------------------------------------------
# combinatorial identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    lhs: PAdicVector
    rhs: PAdicVector
    equal: bool


# The identity checks walk (val, unit, prec) triples through
# padic's window rules in the steps of the PAdicVector expressions their
# docstrings state, coordinate by coordinate, so every triple is the one
# that PAdicNumber arithmetic would build; lhs and rhs become PAdicVectors
# at the end.  A function is anything with SymbolicFunction's
# eval_triples, such as the KeptFunction one identity item shares.

_ONE = (0, 1, DEFAULT_PREC)     # the 1 of a basis vector, as from_int made it


def _operands(x: PAdicVector, v: PAdicVector, t: PAdicNumber) -> tuple:
    """(p, triples of x, of v, of t) for a first quotient along v by t;
    a zero t, or a v or t of another dimension or prime, is refused."""
    if t.is_zero():
        raise PadicError("t = 0: use phin_exact_zero for boundary values")
    if v.dim != x.dim or {v.p, t.p} != {x.p}:
        raise PadicError("x, v and t differ in dimension or prime")
    return x.p, _triples(x), _triples(v), (t.val, t.unit, t.prec)


def _moved(p: int, xs: tuple, vs: tuple, t: tuple) -> tuple:
    """x + v*t."""
    return tuple([_sum(p, *a, *_product(p, *t, *b), 1)
                  for a, b in zip(xs, vs)])


def _stepped(p: int, xs: tuple, i: int, s: tuple) -> tuple:
    """x + e_i*s: the other coordinates gain s*0, the zero sentinel, and
    stay as they are."""
    return xs[:i] + (_sum(p, *xs[i], *_product(p, *s, *_ONE), 1),) \
        + xs[i + 1:]


def _difference(p: int, a: tuple, b: tuple, s: tuple) -> list:
    """(a - b) / s per coordinate, s nonzero."""
    return [_quotient(p, *_sum(p, *c, *d, -1), *s) for c, d in zip(a, b)]


def _along_basis(p: int, f, w: tuple, i: int, s: tuple) -> list:
    """phi1(f; w; e_i; s), s nonzero."""
    return _difference(p, f.eval_triples(p, _stepped(p, w, i, s)),
                       f.eval_triples(p, w), s)


def _plus_scaled(p: int, acc, c: tuple, w: list) -> list:
    """acc + c*w per coordinate; c*w itself when acc is None."""
    cw = [_product(p, *c, *d) for d in w]
    return cw if acc is None else [_sum(p, *a, *b, 1)
                                   for a, b in zip(acc, cw)]


def _vector(p: int, cs) -> PAdicVector:
    return PAdicVector._of(tuple([PAdicNumber(p, *c) for c in cs]))


def _identity(p: int, lhs: list, rhs) -> IdentityCheck:
    """lhs against rhs, the zero vector when rhs is None: equal when every
    coordinate of lhs - rhs is the zero sentinel."""
    if rhs is None:
        rhs = [_ZERO] * len(lhs)
    return IdentityCheck(_vector(p, lhs), _vector(p, rhs), all([
        _sum(p, *a, *b, -1)[0] is None for a, b in zip(lhs, rhs)]))


def chain_rule_check(f, u, y: PAdicVector, v: PAdicVector,
                     t: PAdicNumber) -> IdentityCheck:
    """phi1 of the composition f(u(.)) against its coordinate-splitting sum.

    The j-th summand is phi_j * phi1(f; w_j; e_j; t*phi_j) with
    phi_j = phi1 of the j-th component of u, and w_j the mixed point taking
    the first j coordinates from u(y) and the rest from u(y+vt); summands
    with phi_j = 0 are zero (the factor annihilates them).
    """
    p, ys, vs, tt = _operands(y, v, t)
    uyt = u.eval_triples(p, _moved(p, ys, vs, tt))
    fyt = f.eval_triples(p, uyt)
    uy = u.eval_triples(p, ys)
    lhs = _difference(p, fyt, f.eval_triples(p, uy), tt)
    rhs = None
    for j in range(len(uy)):
        phi_j = _quotient(p, *_sum(p, *uyt[j], *uy[j], -1), *tt)
        if phi_j[0] is None:
            continue
        w_j = uy[:j + 1] + uyt[j + 1:]
        s = _product(p, *tt, *phi_j)
        rhs = _plus_scaled(p, rhs, phi_j, _along_basis(p, f, w_j, j, s))
    return _identity(p, lhs, rhs)


def telescope_check(f, x: PAdicVector, v: PAdicVector,
                    t: PAdicNumber) -> IdentityCheck:
    """phi1 along direction v against the coordinate-wise telescoping sum
    sum_i v_i * phi1(f; x + t*sum_{j>i} e_j v_j; e_i; v_i t), the tail
    point built as x + e_(i+1)*(v_(i+1)*t) + ... over the nonzero v_j."""
    p, xs, vs, tt = _operands(x, v, t)
    lhs = _difference(p, f.eval_triples(p, _moved(p, xs, vs, tt)),
                      f.eval_triples(p, xs), tt)
    m = len(xs)
    rhs = None
    for i in range(m):
        v_i = vs[i]
        if v_i[0] is None:
            continue
        tail = xs
        for j in range(i + 1, m):
            if vs[j][0] is not None:
                tail = _stepped(p, tail, j, _product(p, *vs[j], *tt))
        rhs = _plus_scaled(p, rhs, v_i, _along_basis(
            p, f, tail, i, _product(p, *v_i, *tt)))
    return _identity(p, lhs, rhs)


def product_rule_check(f, g, x: PAdicVector, v: PAdicVector,
                       t: PAdicNumber) -> IdentityCheck:
    """phi1(f*g) = phi1(f)*g(x+vt) + f(x)*phi1(g) for scalar-valued f, g."""
    p, xs, vs, tt = _operands(x, v, t)

    def values(z):
        a, b = f.eval_triples(p, z), g.eval_triples(p, z)
        if len(a) != 1 or len(b) != 1:
            raise PadicError("product rule needs scalar-valued functions")
        return a[0], b[0]

    (fa, ga), (fb, gb) = values(_moved(p, xs, vs, tt)), values(xs)
    lhs = _difference(p, (_product(p, *fa, *ga),), (_product(p, *fb, *gb),),
                      tt)
    (df,), (dg,) = _difference(p, (fa,), (fb,), tt), \
        _difference(p, (ga,), (gb,), tt)
    return _identity(p, lhs, [_sum(p, *_product(p, *df, *ga),
                                   *_product(p, *fb, *dg), 1)])


# ---------------------------------------------------------------------------
# Hölder constants over grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderScan:
    constant: Fraction          # certified rational bound (p^ceil of the ratio)
    ratio: PPow                 # the exact maximal ratio as a power of p
    witness: object             # (x, y) attaining it, or None for constants
    r: Fraction

    def to_json(self):
        return {
            "constant": frac_str(self.constant),
            "ratio": self.ratio.to_json(),
            "witness": None if self.witness is None else
                       [self.witness[0].to_json(), self.witness[1].to_json()],
            "r": [self.r.numerator, self.r.denominator],
        }


def _pair_ratio(f: GridFunction, i: int, j: int, r) -> PPow:
    """|f(x)-f(y)| / |x-y|^r for the representatives x, y at positions i, j;
    the zero magnitude when f(x) = f(y)."""
    num = (f.values[i] - f.values[j]).norm_pow()
    if num.exp is None:
        return num
    return num / (f.reps[i] - f.reps[j]).norm_pow().pow_frac(r)


def holder_scan(f: GridFunction, r) -> HolderScan:
    """Max over grid pairs of |f(x)-f(y)| / |x-y|^r, exactly, as a power of p
    with fractional exponent; `constant` is its p^ceil rational bracketing.

    The pairs split across the children of a level-L coset C are at distance
    p^-L, so the maximum is that of p^(L*r) * diam f(C) over the branching
    cosets of the grid's CosetTree: O(N*K) subtractions.  Representatives
    are known to at least the resolution and distinct there, so every pair
    splits at some coset and the tree has no leaves.  The witness is the
    first pair in (i, j) order attaining it, as an all-pairs loop with a
    strict comparison would report."""
    r = holder_exponent(r)
    reps, values = f.reps, f.values
    tree = CosetTree(reps)
    best = PPow.zero(f.p)
    attaining = []
    for L, members, children in tree.splits:
        v = gap_val([values[i] for i in members])
        if v is None:
            continue
        ratio = PPow(f.p, L * r - v)
        if ratio > best:
            best, attaining = ratio, []
        if ratio == best:
            # the pairs at the largest gap v all split here: a pair inside
            # one child is closer and would make a larger ratio
            attaining += first_gaps(values, members, children, v, 1)
    witness = None
    if attaining:
        i, j = min(attaining)
        if _pair_ratio(f, i, j, r) != best:
            raise PadicError("internal: holder witness does not attain the "
                             "maximal ratio")
        witness = (reps[i], reps[j])
    return HolderScan(constant=best.ceil_fraction(), ratio=best,
                      witness=witness, r=r)


# ---------------------------------------------------------------------------
# approximate differentiability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApDerivative:
    """The gradient T at a point, one tuple of PAdicNumbers per component
    of f, and the density estimate of its bad set at tolerance eps."""

    linear_map: tuple
    estimate: DensityEstimate   # density of the bad set
    eps: Fraction

    @property
    def verdict(self) -> str:
        return self.estimate.verdict


def _point_map(f: SymbolicFunction, x: PAdicVector) -> tuple:
    """(T, the triples of T's rows, the triples of f(x), f's local normal
    form at x): T is the exact gradient at x of that form, row r the
    partial derivatives of component r."""
    form = f.local_form(x)
    center = [c.as_fraction() for c in x.coords]
    units = [tuple(int(i == k) for k in range(x.dim)) for i in range(x.dim)]
    t = tuple(_values(x.p, [jet.coefficient(e) for e in units]).coords
              for jet in (local_jet(num, den, center, 1)
                          for num, den in form))
    return t, [[(c.val, c.unit, c.prec) for c in row] for row in t], \
        f.eval_triples(x.p, _triples(x)), form


def _int_form(p: int, c: tuple, e: int):
    """(c / p^e, its absolute window) for the triple c: the canonical
    representative as an integer in units of p^e <= p^val(c).  The zero
    sentinel is the exact 0."""
    v, u, _ = c
    return (0 if v is None else u * p ** (v - e)), _abs_window(c)


def _vals(cs) -> list:
    """The valuations of the nonzero numbers among the triples cs."""
    return [c[0] for c in cs if c[0] is not None]


class _BallTable:
    """The cosets z of one shared ball B(x0, p^-j), x0 its first point, at
    one integer scale: the (val, unit, prec) triples of each z and of f(z),
    made once, z's coordinates in units of p^e, and f(z) in units of p^E
    with the least window of its components.  e, the least of 0, j and
    x0's valuations, is at most every valuation in the ball.  E is the
    least valuation among e, the points' f(x), e + those of their gradient
    entries, and the f(z) they need, so no pair test rescales.

    Every point needs every coset but the one whose representative it
    equals within their windows, its own resolution coset's.  x0's is the
    first, so all cosets are needed but that first one when every point
    equals its representative; then f is not made there."""

    def __init__(self, f, reps, points, maps, j: int):
        p = self.p = reps[0].p
        self.triples = [_triples(z) for z in reps]
        e = self.e = min([0, j] + _vals(_triples(points[0])))
        self.zs = [[_int_form(p, c, e) for c in z] for z in self.triples]
        # f is made at the cosets from n0 on
        n0 = int(all(zi == xi or not (zi - xi) % p ** (min(zw, xw) - e)
                     for x in points for (zi, zw), (xi, xw) in
                     zip(self.zs[0], (_int_form(p, c, e)
                                      for c in _triples(x)))))
        made = [f.eval_triples(p, z) for z in self.triples[n0:]]
        gradients = [c for _, t, _, _ in maps for row in t for c in row]
        values = [c for y in [fx for _, _, fx, _ in maps] + made for c in y]
        E = self.E = min([e] + [e + v for v in _vals(gradients)]
                         + _vals(values))
        self.values = [None] * n0 + made
        self.forms = [None] * n0 + [([_int_form(p, c, E)[0] for c in y],
                                     min(map(_abs_window, y)))
                                    for y in made]


def _windowed_vals(p: int, z, fz, x, fx, t) -> tuple:
    """(val(err), val(dz)) for err = f(z) - f(x) - T(dz), dz = z - x, on the
    (val, unit, prec) triples of z, f(z), x, f(x) and of T's rows, in the
    steps of the vector arithmetic: dz_i = z_i - x_i, acc_r = T_r0*dz_0 +
    T_r1*dz_1 + ... from the left, err_r = (f(z)_r - f(x)_r) - acc_r.
    Each step is padic's window rule for it, so the valuations are those
    of the PAdicVector expression."""
    dz = [_sum(p, *a, *b, -1) for a, b in zip(z, x)]
    err = []
    for row, a, b in zip(t, fz, fx):
        acc = _product(p, *row[0], *dz[0])
        for c, d in zip(row[1:], dz[1:]):
            acc = _sum(p, *acc, *_product(p, *c, *d), 1)
        err.append(_sum(p, *_sum(p, *a, *b, -1), *acc, -1)[0])
    return (min([v for v in err if v is not None] or [None]),
            min([v for v, _, _ in dz if v is not None] or [None]))


def _bad_levels(table: _BallTable, x: tuple, t: tuple, fx: tuple,
                tolerance: ScaledBound, res: int) -> Counter:
    """hits[L]: the cosets z of the table in the bad set of x that leave x
    at level L = min(res, val(z - x)), for the gradient rows t at x; x,
    the rows of t and f(x) are given as (val, unit, prec) triples.

    The pair test is f(z) - f(x) - T(z - x) against eps*|z - x| in
    windowed arithmetic.  That expression agrees with the same expression
    on the canonical representatives modulo p^W, W the least window of
    its leaves: f(z), f(x) and each product T_ri*dz_i, known below
    min(v(T_ri) + win dz_i, v(dz_i) + win T_ri), where win dz_i is the
    shorter window of z_i and x_i.  A zero is exact, its window infinite,
    so it only widens W.  A coordinate of z - x that vanishes below its
    window is the zero sentinel, so it is 0 here and left out of val(dz),
    as in PAdicVector.val.  So where thr = F + val(dz) <= W, F the
    tolerance level, the pair is good exactly when p^thr divides the
    integer err, read at the table's one scale p^E (Schikhof, Ultrametric
    Calculus, 1984).  The other pairs (eps = 0, or thr > W) are decided by
    the windowed expression itself, walked on (val, unit, prec) triples
    through padic's window rules (_windowed_vals), on the triples that the
    table and the point already hold."""
    p, e, E, F = table.p, table.e, table.E, tolerance.F
    # err in units of p^E, T in units of p^(E - e), dz in units of p^e
    T = [[_int_form(p, c, E - e)[0] for c in row] for row in t]
    FX = [_int_form(p, c, E)[0] for c in fx]
    # per column i, (min v(T_ri), min win T_ri): infinite for a zero column
    cols = [(min(_vals(col), default=math.inf), min(map(_abs_window, col)))
            for col in zip(*t)]
    W_x = min(map(_abs_window, fx))
    xs = [(*_int_form(p, c, e), *col) for c, col in zip(x, cols)]
    rows = list(zip(FX, T))
    hits = Counter()
    for n, Z in enumerate(table.zs):
        ds, vdz, W = [], None, W_x
        for (zi, zw), (xi, xw, vt, wt) in zip(Z, xs):
            d = zi - xi
            if d:
                w = zw if zw < xw else xw
                v, q = e, d
                while v < w and not q % p:
                    q //= p
                    v += 1
                if v < w:
                    if vdz is None or v < vdz:
                        vdz = v
                    W = min(W, vt + w, v + wt)
                else:
                    d = 0
            ds.append(d)
        if vdz is None:
            continue
        ints, W_z = table.forms[n]
        if F is not None and F + vdz <= min(W, W_z):
            good, k = True, F + vdz - E
            if k > 0:
                mod = p ** k
                for a, (b, row) in zip(ints, rows):
                    a -= b
                    for c, d in zip(row, ds):
                        a -= c * d
                    if a % mod:
                        good = False
                        break
        else:
            good = tolerance.holds(*_windowed_vals(
                p, table.triples[n], table.values[n], x, fx, t))
        if not good:
            hits[min(res, vdz)] += 1
    return hits


def _shell_rules(xs, maps, F, res) -> bool:
    """Whether the descent decides the ball's pairs as _bad_levels would:
    where F + val(dz) <= W for every pair it replaces, the integer test
    reads err on the canonical representatives, and with f known past
    F + res (descent_forms) so is err of the local forms.  T's rows are
    rounded from exact jets: each nonzero entry must be known to F, and
    times a difference known to its window w_i (the shorter of z_i's and
    x_i's) to F + res."""
    for x, (t, _, _, _) in zip(xs, maps):
        for i, col in enumerate(zip(*t)):
            w = min(res + DEFAULT_PREC, x[i].abs_window())
            for c in col:
                if c.val is not None and (c.abs_window() < F
                                          or c.val + w < F + res):
                    return False
    return True


def _point_pieces(forms, x: PAdicVector, form) -> callable:
    """pieces(key, Y): the _Pieces of S(h) = Q(x + h) - Q_x(x) -
    grad Q_x(x).h on the cosets of pattern key about p^s*Y, Q the local
    forms there and Q_x x's own, `form`: its constant and linear Taylor
    terms at x are taken off every pattern's."""
    p, s = x.p, forms.s
    X = _scaled(x, s)
    own = [_taylor(p, s, num.terms, X) for num, _ in form]

    def less_own(taylors) -> _Pieces:
        rows = []
        for (G0, D0), (G, D) in zip(own, taylors):
            lcm = math.lcm(D0, D)
            row = {b: g * (lcm // D) for b, g in G.items()}
            for b, g in G0.items():
                if sum(b) < 2:
                    row[b] = row.get(b, 0) - g * (lcm // D0)
            rows.append((row, lcm))
        return _Pieces(p, s, rows)

    kept = {}
    key = forms.key(X, forms.res)
    if key is not None:
        forms.keep(key, [num for num, _ in form])
        kept[key] = less_own(own)

    def pieces(key, Y) -> _Pieces:
        if key not in kept:
            kept[key] = less_own([_taylor(p, s, q.terms, X)
                                  for q in forms.polys(key, Y)])
        return kept[key]
    return pieces


def ap_derivatives(f: SymbolicFunction, points, j_range, eps,
                   resolution: int | None = None,
                   cap: int = DEFAULT_CAP) -> list:
    """ap_derivative at each of `points`, in order.

    Points in one level-j_min coset share the ball B(x, p^-j_min).  Where
    eps > 0 and descent_forms bounds f on the ball past F + resolution, F
    the tolerance level, and T's windows allow it (_shell_rules), each
    point's bad set is counted on the coset tree (_descend): on the shell
    val(z - x) = L, z is bad exactly where v(S(z - x)) < F + L, with
    S(h) = f(x+h) - f(x) - T.h, decided coset by coset (_Pieces).  The
    representatives the rule leaves open at the resolution, and the
    point's own resolution coset, take the windowed pair test of
    _bad_levels.  `cap` bounds each ball's coset visits.

    Elsewhere the ball is enumerated once at `resolution` and f is
    evaluated once per coset of it that some point needs (_BallTable).
    Each point's bad set is counted over that one table (_bad_levels),
    every coset z at the levels it has not left the point by,
    min(resolution, val(z - x)).  Coordinates and values enter as
    integers at one scale per ball, with their windows: where the window
    decides the tolerance test, one divisibility test on integers decides
    it, and the windowed expression, walked on (val, unit, prec) triples
    by padic's window rules, decides the rest (eps = 0, or a threshold
    past the window).  Only one ball's table is held at a time, so memory
    stays per ball; `cap` bounds each ball's cosets and its pair tests,
    points times cosets.

    A point with a coordinate whose absolute window ends before the
    resolution is refused: it agrees there with several cosets of its
    ball."""
    eps = Fraction(eps)
    if not points:
        return []
    p, m = points[0].p, points[0].dim
    if eps < 0:
        raise PadicError("the tolerance eps must be >= 0")
    tolerance = ScaledBound(p, eps)
    F = tolerance.F
    js, res = density_levels(j_range, resolution)
    for x in points:
        for c in x.coords:
            if (w := c.abs_window()) < res:
                raise PadicError(
                    f"a point coordinate known only mod p^{w} falls short "
                    f"of the resolution {res}: its coset there is undecided")
    groups = {}
    for i, x in enumerate(points):
        groups.setdefault(coset_key(x, js[0]), []).append(i)
    out = [None] * len(points)
    for members in groups.values():
        xs = [points[i] for i in members]
        # a first point that f refuses exits 2 ahead of a ball past the cap
        maps = [_point_map(f, xs[0])]
        forms = None if F is None else descent_forms(
            f, xs[0], js[0], res, F + res,
            [min(x[i].abs_window() for x in xs) for i in range(m)])
        if forms is not None:
            maps += [_point_map(f, x) for x in xs[1:]]
            if not _shell_rules(xs, maps, F, res):
                forms = None
        if forms is None:
            # each point of the ball is tested against each of its cosets
            _check_cap(len(xs) * p ** (m * (res - js[0])), cap, "pair tests")
            reps = enumerate_cosets(Ball(xs[0], js[0]), res, cap=cap)
            maps += [_point_map(f, x) for x in xs[len(maps):]]
            table = _BallTable(f, reps, xs, maps, js[0])
            found = [_bad_levels(table, _triples(x), tt, fx, tolerance, res)
                     for x, (_, tt, fx, _) in zip(xs, maps)]
        else:
            found, spent = [], 0
            for x, (_, tt, fx, form) in zip(xs, maps):
                hits, spent = _shell_descent(f, forms, x, tt, fx, form,
                                             tolerance, js[0], res, cap,
                                             spent)
                found.append(hits)
        for i, (t, _, _, _), hits in zip(members, maps, found):
            out[i] = ApDerivative(linear_map=t, eps=eps,
                                  estimate=level_estimate(p, m, js, res, hits))
    return out


def _shell_descent(f, forms, x, tt, fx, form, tolerance, j0, res, cap,
                   spent):
    """(hits, visits) of x's bad set on the coset tree of B(x, p^-j0)."""
    p, m, s, F = x.p, x.dim, forms.s, tolerance.F
    xt, X = _triples(x), _scaled(x, s)
    pieces = _point_pieces(forms, x, form)

    def paired(Y) -> int:
        """The windowed pair test of _bad_levels on the representative."""
        zt = _triples(_rep(p, s, res, Y))
        err, vdz = _windowed_vals(p, zt, f.eval_triples(p, zt), xt, fx, tt)
        return int(vdz is not None and not tolerance.holds(err, vdz))

    # the point's own coset counts nothing when x is its representative
    own = all(_sum(p, *a, *b, -1)[0] is None
              for a, b in zip(_triples(_rep(p, s, res, X)), xt))

    def decide(Y, L: int, shell):
        key = forms.key(Y, L)
        if key is not None:
            rule = pieces(key, Y)
            if shell is None:
                if own and L < res and rule.at_x(L, F + L) is False:
                    return 0
            else:
                inside = rule.off_x([a - b for a, b in zip(Y, X)], L, shell,
                                    F + shell)
                if inside is not None:
                    return p ** (m * (res - L)) if inside else 0
        return paired(Y) if L == res else None

    return _descend(p, m, s, res, X, j0, decide, cap, spent)


def ap_derivative(f: SymbolicFunction, x: PAdicVector, j_range, eps,
                  resolution: int | None = None,
                  cap: int = DEFAULT_CAP) -> ApDerivative:
    """T is the exact gradient at x of f's local normal form; then measure
    the density of {z : |f(z)-f(x)-T(z-x)| > eps*|z-x|} at x, which must
    converge to 0 for approximate differentiability.  A negative eps is
    refused.  The one-point case of ap_derivatives."""
    return ap_derivatives(f, [x], j_range, eps, resolution=resolution,
                          cap=cap)[0]


@dataclass(frozen=True)
class StepanoffScan:
    fraction: Fraction
    good: int
    total: int
    failures: tuple             # up to 16 offending grid points

    def to_json(self):
        return {
            "fraction": [self.fraction.numerator, self.fraction.denominator],
            "good": self.good, "total": self.total,
            "failures": [x.to_json() for x in self.failures],
        }


def stepanoff_scan(f: SymbolicFunction, domain: Ball, K: int, eps,
                   j_range=(1, 2, 3), resolution: int | None = None,
                   cap: int = DEFAULT_CAP) -> StepanoffScan:
    """Fraction of resolution-K grid points of the domain at which
    ap_derivative succeeds (bad set converges to 0) at tolerance eps; `cap`
    bounds the grid enumeration and each ball's (ap_derivatives).  Fewer
    than VERDICT_LEVELS levels are refused: no point could succeed."""
    if len(j_range) < VERDICT_LEVELS:
        raise PadicError(f"a Stepanoff scan needs at least {VERDICT_LEVELS} "
                         f"levels for a verdict, got {len(j_range)}")
    if resolution is None:
        resolution = max(j_range) + 2
    reps = enumerate_cosets(domain, K, cap=cap)
    good = [res.verdict == "converges-to-0" for res in
            ap_derivatives(f, reps, j_range, eps, resolution=resolution,
                           cap=cap)]
    failures = tuple(x for x, ok in zip(reps, good) if not ok)[:16]
    return StepanoffScan(fraction=Fraction(sum(good), len(reps)),
                         good=sum(good), total=len(reps), failures=failures)
