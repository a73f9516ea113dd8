"""The first-order identity checks as qpcalc wrote them before each check
kept its functions' values by point: every phi1 and every summand
evaluates its functions afresh.  Kept unchanged as the reference that the
memoized checks must agree with, bit for bit, in lhs, rhs and verdict.
"""

from __future__ import annotations

from qpcalc.padic import PAdicNumber, PAdicVector, PadicError, unit_vector
from qpcalc.quotients import IdentityCheck, _identity, phi1


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
