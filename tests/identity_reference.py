"""The first quotient and the three identity checks as they were written on
PAdicVectors: every step an operator of PAdicNumber or PAdicVector, with the
basis vector e_i built by PAdicNumber.from_int.  Kept unchanged as the
reference that the triple walk of qpcalc.quotients must reproduce bit for
bit: the same lhs, the same rhs, the same verdict and the same refusals.
The functions are called on PAdicVectors, so a SymbolicFunction serves.
"""

from __future__ import annotations

from qpcalc.padic import PAdicNumber, PAdicVector, PadicError
from qpcalc.quotients import IdentityCheck


def unit_vector(p: int, m: int, i: int) -> PAdicVector:
    """Standard basis vector e_i."""
    return PAdicVector(PAdicNumber.from_int(p, 1 if j == i else 0)
                       for j in range(m))


def phi1(f, x: PAdicVector, v: PAdicVector, t: PAdicNumber) -> PAdicVector:
    """[f(x+vt) - f(x)] / t, exactly."""
    if t.is_zero():
        raise PadicError("t = 0: use phin_exact_zero for boundary values")
    w = f(x + v.scale(t)) - f(x)
    return PAdicVector._of(tuple([c / t for c in w]))


def _identity(lhs: PAdicVector, rhs: PAdicVector) -> IdentityCheck:
    return IdentityCheck(lhs, rhs, all(c.is_zero() for c in (lhs - rhs).coords))


def chain_rule_check(f, u, y: PAdicVector, v: PAdicVector,
                     t: PAdicNumber) -> IdentityCheck:
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
        w_j = PAdicVector._of(uy.coords[:j] + uyt.coords[j:])
        e_j = unit_vector(p, m, j - 1)
        term = phi1(f, w_j, e_j, t * phi_j).scale(phi_j)
        rhs = term if rhs is None else rhs + term
    if rhs is None:
        rhs = PAdicVector.zero(p, lhs.dim)
    return _identity(lhs, rhs)


def telescope_check(f, x: PAdicVector, v: PAdicVector,
                    t: PAdicNumber) -> IdentityCheck:
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
    def prod(z):
        a, b = f(z), g(z)
        if a.dim != 1 or b.dim != 1:
            raise PadicError("product rule needs scalar-valued functions")
        return PAdicVector._of((a[0] * b[0],))

    lhs = phi1(prod, x, v, t)
    xt = x + v.scale(t)
    rhs = PAdicVector._of((phi1(f, x, v, t)[0] * g(xt)[0]
                           + f(x)[0] * phi1(g, x, v, t)[0],))
    return _identity(lhs, rhs)
