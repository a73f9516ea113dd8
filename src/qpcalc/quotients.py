"""Partial difference quotients on Q_p^m, their limits at vanishing
increments, the Taylor expansion with exact residual, combinatorial
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
from dataclasses import dataclass
from fractions import Fraction

from .funcs import LinearMap, SymbolicFunction, as_polynomials
from .measure import (CosetTree, DensityEstimate, GridFunction, density_at,
                      enumerate_cosets, first_gaps, gap_val)
from .padic import (
    Ball,
    PAdicNumber,
    PAdicVector,
    PadicError,
    PPow,
    frac_str,
    ppow_le_scaled,
    truncate,
    unit_vector,
)


class NonconvergenceError(PadicError):
    """A limit of difference quotients failed to stabilize."""


_DENOM_PREC = 64          # window for n! and assembled denominators


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


def phi1(f, x: PAdicVector, v: PAdicVector, t: PAdicNumber) -> PAdicVector:
    """[f(x+vt) - f(x)] / t, exactly."""
    if t.is_zero():
        raise PadicError("t = 0: use phin_limit for boundary values")
    w = f(x + v.scale(t)) - f(x)
    return PAdicVector(c / t for c in w)


def phin(f, n: int, q: QuotientPoint) -> PAdicVector:
    """The n-th partial difference quotient at q (all t_i nonzero)."""
    if n < 1:
        raise PadicError("quotient order must be >= 1")
    if q.order != n:
        raise PadicError(f"quotient point carries {q.order} directions, not {n}")
    if any(t.is_zero() for t in q.ts):
        raise PadicError("t_i = 0 in exact mode: use phin_limit")
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
    denom = PAdicNumber.from_int(q.x.p, math.factorial(n), prec=_DENOM_PREC)
    for t in q.ts:
        denom = denom * t
    return PAdicVector(c / denom for c in acc)


# ---------------------------------------------------------------------------
# limits at vanishing increments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitReport:
    """Values of a quotient along a shrinking schedule t = p^j."""

    value: object               # PAdicVector, or None if nothing stabilized
    converged: bool
    steps: tuple                # ((j, PAdicVector), ...)
    agree: int

    def to_json(self):
        return {
            "converged": self.converged,
            "value": None if self.value is None else self.value.to_json(),
            "steps": [[j, v.to_json()] for j, v in self.steps],
            "agree": self.agree,
        }


def _auto_schedule(x: PAdicVector, vs, fx: PAdicVector, agree: int,
                   n: int) -> range:
    """Shrink t deep enough for a genuine limit to show a Cauchy tail, but
    not so deep that the order-n quotient (which divides by t^n) runs out of
    certified digits: new digits stop appearing past W/(n+1), and the window
    W - n*j must stay positive.  W is the shortest window of x, of the
    directions vs and of the value fx = f(x); at x = 0 only fx may carry
    the short window of f's constants."""
    ws = [c.abs_window() for c in x.coords if not c.is_zero()]
    for v in vs + (fx,):
        ws.extend(c.abs_window() for c in v.coords if not c.is_zero())
    w = min(ws) if ws else (n + 1) * (agree + 3)
    top = min(w // (n + 1) + agree, (w - 1) // max(n, 1))
    return range(1, max(top, agree + 2) + 1)


def _stabilize(values, agree: int):
    """Decide convergence from the last agree+1 values.

    Per coordinate, consecutive differences must either vanish outright or
    have strictly increasing valuations (an explicit Cauchy tail; once a
    difference vanishes it must stay vanished).  The reported limit is the
    last value truncated to the digits the tail certifies.
    """
    if len(values) < agree + 1:
        return False, None
    tail = values[-(agree + 1):]
    coords = []
    for k in range(tail[0].dim):
        dvals = []
        for a, b in zip(tail, tail[1:]):
            d = b[k] - a[k]
            dvals.append(None if d.is_zero() else d.val)
        prev = None
        settled = False
        for v in dvals:
            if v is None:
                settled = True
            elif settled or (prev is not None and v <= prev):
                return False, None
            else:
                prev = v
        last = tail[-1][k]
        coords.append(last if prev is None else truncate(last, prev + 1))
    return True, PAdicVector(coords)


def phin_limit(f, n: int, x: PAdicVector, vs, schedule=None,
               agree: int = 3) -> LimitReport:
    """Evaluate phin at t_i = p^j along the schedule and report the limit.

    Convergence is an explicit Cauchy tail over the last `agree`+1 steps (see
    _stabilize); the reported value carries only the certified digits.
    Nothing is ever averaged or extrapolated.
    """
    vs = tuple(vs)
    if schedule is None:
        schedule = _auto_schedule(x, vs, f(x), agree, n)
    p = x.p
    steps = []
    for j in schedule:
        t = PAdicNumber.from_int(p, p**j, prec=_DENOM_PREC)
        q = QuotientPoint(x, vs, (t,) * n)
        steps.append((j, phin(f, n, q)))
    ok, value = _stabilize([v for _, v in steps], agree)
    return LimitReport(value=value, converged=ok, steps=tuple(steps),
                       agree=agree)


def phin_exact_zero(f: SymbolicFunction, n: int, x: PAdicVector, vs,
                    prec: int = 32) -> PAdicVector:
    """For polynomial f: the exact value of phin at t = (0,..,0) — the n-fold
    multilinear (divided-power) form — via symbolic expansion."""
    polys = as_polynomials(f)
    vs = list(vs)
    if len(vs) != n:
        raise PadicError("need n directions")
    from .funcs import MultiPoly
    xf = [c.as_fraction() for c in x.coords]
    vf = [[c.as_fraction() for c in v.coords] for v in vs]
    # substitute x_k -> x_k + sum_i v_{i,k} * t_i  (t_i the new variables)
    args = []
    for k in range(f.m):
        a = MultiPoly.const(n, xf[k])
        for i in range(n):
            if vf[i][k]:
                a = a + MultiPoly.monomial(n, tuple(1 if j == i else 0
                                                    for j in range(n)), vf[i][k])
        args.append(a)
    fact = Fraction(1, math.factorial(n))
    out = []
    for q in polys:
        expanded = q.substitute(args)
        out.append(PAdicNumber.from_fraction(
            x.p, expanded.coefficient((1,) * n) * fact, prec=prec))
    return PAdicVector(out)


# ---------------------------------------------------------------------------
# Taylor expansion with exact residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorExpansion:
    y: PAdicVector
    x: PAdicVector
    n: int
    total: PAdicVector          # f(y) + sum of the n+1 divided-power terms
    residual: PAdicVector       # f(x) - total
    terms: tuple                # the j = 1 .. n+1 terms
    exact: bool                 # True: symbolic polynomial route

    def residual_norm(self) -> Fraction:
        return self.residual.sup_norm()

    def to_json(self):
        return {
            "y": self.y.to_json(), "x": self.x.to_json(), "n": self.n,
            "total": self.total.to_json(), "residual": self.residual.to_json(),
            "terms": [t.to_json() for t in self.terms],
            "exact": self.exact,
        }


def taylor_eval(f, n: int, y: PAdicVector, x: PAdicVector,
                schedule=None, prec: int = 32) -> TaylorExpansion:
    """f(x) against f(y) + sum_{j=1}^{n+1} phin(y; x-y,..; 0,..).

    Polynomial functions take the exact symbolic route (the j-th term is the
    degree-j homogeneous part of the recentered polynomial, and the residual
    is computed in rational arithmetic, so degree <= n+1 gives residual
    exactly zero).  Everything else uses phin_limit and raises on
    nonconvergence.
    """
    polys = None
    if isinstance(f, SymbolicFunction):
        try:
            polys = as_polynomials(f)
        except PadicError:
            polys = None
    p = x.p
    if polys is not None:
        yf = [c.as_fraction() for c in y.coords]
        xf = [c.as_fraction() for c in x.coords]
        hf = [a - b for a, b in zip(xf, yf)]
        recentered = [q.recenter(yf) for q in polys]
        total = [q.evaluate_fraction(yf) for q in polys]
        terms = []
        for j in range(1, n + 2):
            tj = [r.homogeneous_part(j).evaluate_fraction(hf)
                  for r in recentered]
            terms.append(PAdicVector(
                PAdicNumber.from_fraction(p, c, prec=prec) for c in tj))
            total = [a + b for a, b in zip(total, tj)]
        residual = [q.evaluate_fraction(xf) - s for q, s in zip(polys, total)]
        return TaylorExpansion(
            y=y, x=x, n=n,
            total=PAdicVector(PAdicNumber.from_fraction(p, c, prec=prec)
                              for c in total),
            residual=PAdicVector(PAdicNumber.from_fraction(p, c, prec=prec)
                                 for c in residual),
            terms=tuple(terms), exact=True)

    h = x - y
    total = f(y)
    terms = []
    for j in range(1, n + 2):
        rep = phin_limit(f, j, y, [h] * j, schedule=schedule)
        if not rep.converged:
            raise NonconvergenceError(
                f"order-{j} quotient did not stabilize along the schedule")
        terms.append(rep.value)
        total = total + rep.value
    residual = f(x) - total
    return TaylorExpansion(y=y, x=x, n=n, total=total, residual=residual,
                           terms=tuple(terms), exact=False)


# ---------------------------------------------------------------------------
# combinatorial identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    lhs: PAdicVector
    rhs: PAdicVector
    equal: bool

    def to_json(self):
        return {"lhs": self.lhs.to_json(), "rhs": self.rhs.to_json(),
                "equal": self.equal}


def _identity(lhs: PAdicVector, rhs: PAdicVector) -> IdentityCheck:
    return IdentityCheck(lhs, rhs, all(c.is_zero() for c in (lhs - rhs).coords))


def chain_rule_check(f, u, y: PAdicVector, v: PAdicVector,
                     t: PAdicNumber) -> IdentityCheck:
    """phi1 of the composition f(u(.)) against its coordinate-splitting sum.

    The j-th summand is phi_j * phi1(f; w_j; e_j; t*phi_j) with
    phi_j = phi1 of the j-th component of u, and w_j the mixed point taking
    the first j coordinates from u(y) and the rest from u(y+vt); summands
    with phi_j = 0 are zero (the factor annihilates them).
    """
    lhs = phi1(lambda z: f(u(z)), y, v, t)
    uy = u(y)
    uyt = u(y + v.scale(t))
    m = uy.dim
    p = y.p
    rhs = None
    for j in range(1, m + 1):
        phi_j = (uyt[j - 1] - uy[j - 1]) / t
        if phi_j.is_zero():
            continue
        w_j = PAdicVector(list(uy.coords[:j]) + list(uyt.coords[j:]))
        e_j = unit_vector(p, m, j - 1)
        term = phi1(f, w_j, e_j, t * phi_j).scale(phi_j)
        rhs = term if rhs is None else rhs + term
    if rhs is None:
        rhs = PAdicVector.zero(p, lhs.dim)
    return _identity(lhs, rhs)


def telescope_check(f, x: PAdicVector, v: PAdicVector,
                    t: PAdicNumber) -> IdentityCheck:
    """phi1 along direction v against the coordinate-wise telescoping sum
    sum_i v_i * phi1(f; x + t*sum_{j>i} e_j v_j; e_i; v_i t)."""
    lhs = phi1(f, x, v, t)
    m = x.dim
    p = x.p
    rhs = None
    for i in range(1, m + 1):
        v_i = v[i - 1]
        if v_i.is_zero():
            continue
        tail = x
        for j in range(i + 1, m + 1):
            if not v[j - 1].is_zero():
                tail = tail + unit_vector(p, m, j - 1).scale(v[j - 1] * t)
        term = phi1(f, tail, unit_vector(p, m, i - 1), v_i * t).scale(v_i)
        rhs = term if rhs is None else rhs + term
    if rhs is None:
        rhs = PAdicVector.zero(p, lhs.dim)
    return _identity(lhs, rhs)


def product_rule_check(f, g, x: PAdicVector, v: PAdicVector,
                       t: PAdicNumber) -> IdentityCheck:
    """phi1(f*g) = phi1(f)*g(x+vt) + f(x)*phi1(g) for scalar-valued f, g."""
    def prod(z):
        a, b = f(z), g(z)
        if a.dim != 1 or b.dim != 1:
            raise PadicError("product rule needs scalar-valued functions")
        return PAdicVector([a[0] * b[0]])

    lhs = phi1(prod, x, v, t)
    xt = x + v.scale(t)
    rhs = PAdicVector([phi1(f, x, v, t)[0] * g(xt)[0]
                       + f(x)[0] * phi1(g, x, v, t)[0]])
    return _identity(lhs, rhs)


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


def _pair_ratio(f: GridFunction, x: PAdicVector, y: PAdicVector, r) -> PPow:
    """|f(x)-f(y)| / |x-y|^r; the zero magnitude when f(x) = f(y)."""
    num = (f.evaluate(x) - f.evaluate(y)).norm_pow()
    if num.exp is None:
        return num
    return num / (x - y).norm_pow().pow_frac(r)


def holder_scan(f: GridFunction, r) -> HolderScan:
    """Max over grid pairs of |f(x)-f(y)| / |x-y|^r, exactly, as a power of p
    with fractional exponent; `constant` is its p^ceil rational bracketing.

    The pairs split across the children of a level-L coset C are at distance
    p^-L, so the maximum is that of p^(L*r) * diam f(C) over the branching
    cosets of the grid's CosetTree: O(N*K) subtractions.  The witness is the
    first pair in (i, j) order attaining it, as an all-pairs loop with a
    strict comparison would report."""
    r = Fraction(r)
    if not 0 < r <= 1:
        raise PadicError("Hölder exponent must lie in (0, 1]")
    reps = f.reps
    values = [f.evaluate(x) for x in reps]
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
    for leaf in tree.leaves():
        for a, i in enumerate(leaf):
            for j in leaf[a + 1:]:
                ratio = _pair_ratio(f, reps[i], reps[j], r)
                if ratio.exp is None:
                    continue
                if ratio > best:
                    best, attaining = ratio, []
                if ratio == best:
                    attaining.append((i, j))
    witness = None
    if attaining:
        i, j = min(attaining)
        if _pair_ratio(f, reps[i], reps[j], r) != best:
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
    linear_map: LinearMap
    partials: tuple             # per-coordinate LimitReports
    estimate: DensityEstimate   # density of the bad set
    eps: Fraction

    @property
    def verdict(self) -> str:
        return self.estimate.verdict

    def to_json(self):
        return {
            "linear_map": self.linear_map.to_json(),
            "verdict": self.verdict,
            "eps": [self.eps.numerator, self.eps.denominator],
            "bad_set_ratios": self.estimate.csv_rows(),
        }


def ap_derivative(f, x: PAdicVector, j_range, eps,
                  resolution: int | None = None,
                  schedule=None,
                  cap: int | None = None) -> ApDerivative:
    """Assemble the candidate derivative from per-coordinate quotient limits,
    then measure the density of {z : |f(z)-f(x)-T(z-x)| > eps*|z-x|} at x;
    approximate differentiability needs that density to converge to 0."""
    eps = Fraction(eps)
    m, p = x.dim, x.p
    columns = []
    partials = []
    for i in range(m):
        rep = phin_limit(f, 1, x, [unit_vector(p, m, i)], schedule=schedule)
        partials.append(rep)
        if not rep.converged:
            raise NonconvergenceError(
                f"partial quotient in coordinate {i} did not stabilize")
        columns.append(rep.value)
    n_out = columns[0].dim
    t = LinearMap([[columns[i][k] for i in range(m)] for k in range(n_out)])
    fx = f(x)

    def bad(z: PAdicVector) -> bool:
        dz = z - x
        if dz.val is None:
            return False
        # a negative eps leaves no value within tolerance
        err = (f(z) - fx - t.apply(dz)).norm_pow()
        return eps < 0 or not ppow_le_scaled(err, eps, dz.norm_pow())

    kwargs = {} if cap is None else {"cap": cap}
    est = density_at(bad, x, j_range, resolution=resolution, **kwargs)
    return ApDerivative(linear_map=t, partials=tuple(partials), estimate=est,
                        eps=eps)


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


def stepanoff_scan(f, domain: Ball, K: int, eps, j_range=(1, 2, 3),
                   resolution: int | None = None,
                   schedule=None) -> StepanoffScan:
    """Fraction of resolution-K grid points of the domain at which
    ap_derivative succeeds (bad set converges to 0) at tolerance eps."""
    if resolution is None:
        resolution = max(j_range) + 2
    good, failures = 0, []
    reps = enumerate_cosets(domain, K)
    for x in reps:
        try:
            res = ap_derivative(f, x, j_range, eps, resolution=resolution,
                                schedule=schedule)
            ok = res.verdict == "converges-to-0"
        except NonconvergenceError:
            ok = False
        if ok:
            good += 1
        elif len(failures) < 16:
            failures.append(x)
    return StepanoffScan(fraction=Fraction(good, len(reps)), good=good,
                         total=len(reps), failures=tuple(failures))
