"""Reference implementations of the Whitney glue and its helpers.

These are the straightforward versions: distances to the closed set are
sup norms of PAdicVector differences read back as powers of p, coset keys
are built from truncations, polynomials are composed term by term with
fresh powers, supports are admitted by comparing each site with every
admitted one, the support holding a point is found by comparing it with
every site, nearest representatives come from a full scan, the glued
value off A is also summed over every support that holds the point, the
gauge check compares every pair of points, and the compatibility modulus
every pair of representatives with different jets, bounding each quotient
by an alternating sum over the 2^j increment subsets.  The property tests in
test_whitney_keys.py require the key-based versions in qpcalc to agree
with them on every output.
"""

from fractions import Fraction
from math import factorial

from norm_reference import floor_level, ppow_le_scaled
from qpcalc.funcs import MultiPoly
from qpcalc.measure import enumerate_cosets
from qpcalc.padic import PAdicVector, PadicError, PPow, rational_val, truncate
from qpcalc.whitney import _jet_signature


def dist_to_set(A, x):
    """Exact sup-norm distance from x to a finite union of balls."""
    best = None
    for ball in A:
        d = (x - ball.center).sup_norm()
        d = Fraction(0) if d <= Fraction(ball.p) ** -ball.rad_exp else d
        if best is None or d < best:
            best = d
    return best


def pexp(q, p):
    """Exponent d with q = p^(-d) for an exact power of p."""
    d = 0
    while q < 1:
        q *= p
        d += 1
    while q > 1:
        q /= p
        d -= 1
    if q != 1:
        raise PadicError("not a power of p")
    return d


def dist_exp(A, x):
    """The exponent of dist(x, A), None on A."""
    d = dist_to_set(A, x)
    return None if d == 0 else pexp(d, x.p)


def coset_key(x, resolution):
    """Per coordinate, the (val, unit) of the truncation at resolution."""
    out = []
    for c in x.coords:
        t = truncate(c, resolution)
        out.append((t.val, t.unit))
    return tuple(out)


def substitute(poly, args):
    """poly with args[i] in place of variable i, one power at a time."""
    out = MultiPoly.zero(args[0].m)
    for exps, c in poly.terms.items():
        term = MultiPoly.const(args[0].m, c)
        for a, e in zip(args, exps):
            for _ in range(e):
                term = term * a
        out = out + term
    return out


def recenter(poly, center):
    """Coefficients of w |-> poly(center + w)."""
    args = [MultiPoly.const(poly.m, Fraction(center[i]))
            + MultiPoly.coord(poly.m, i) for i in range(poly.m)]
    return substitute(poly, args)


def nearest_rep_index(reps, y):
    """First representative at the least observed distance from y."""
    best, d = 0, (y - reps[0]).sup_norm()
    for i in range(1, len(reps)):
        di = (y - reps[i]).sup_norm()
        if di < d:
            best, d = i, di
    return best


def glue(J, domain, resolution, s0=2):
    """The glued extension as a point query: a function giving g(x), or
    raising PadicError, at any x.  Sites are the representatives of the
    domain admitted greedily in enumeration order when their support
    B(y, p^-(s0 + max(0, D(y)) + 1)) meets no admitted support.  g(x) is
    the jet of x's own coset on A, and off A the jet of the representative
    nearest to the one site whose support contains x, found by subtraction
    from every site; a point held by no support, or by two, raises.
    Raises PadicError where whitney_extend must: no site, or a support
    finer than the resolution."""
    reps = J.reps()
    sites = []
    for y in enumerate_cosets(domain, resolution):
        d = dist_exp(J.A, y)
        if d is None:
            continue
        e = s0 + max(0, d) + 1
        if e > resolution:
            raise PadicError("resolution too coarse for the support radii")
        if all((y - g).sup_norm() > Fraction(J.p) ** -min(e, eg)
               for g, eg in sites):
            sites.append((y, e))
    if not sites:
        raise PadicError("A covers the domain: no sites")

    def value(x):
        if dist_exp(J.A, x) is None:
            _, polys = J.jet_at(x)
        else:
            hits = [g for g, e in sites
                    if (x - g).sup_norm() <= Fraction(J.p) ** -e]
            if len(hits) != 1:
                raise PadicError("partition property violated")
            _, polys = J.jets[nearest_rep_index(reps, hits[0])]
        return J.evaluate_jet(polys, x)

    return value


def evaluate_sum_form(J, fam, x):
    """The partition-sum form of the glue of J over the support family
    fam at x: the jet at x on A; off A, P_psi(y)(x) summed over every
    support site y that contains x, psi(y) the first representative
    nearest y by a full scan.  It assumes no partition property, so it
    cross-checks the nearest-jet glue."""
    if dist_exp(J.A, x) is None:
        _, polys = J.jet_at(x)
        return J.evaluate_jet(polys, x)
    total = PAdicVector.zero(J.p, J.n)
    for i in fam.support_indices(x):
        _, polys = J.jets[nearest_rep_index(J.reps(), fam.sites[i])]
        total = total + J.evaluate_jet(polys, x)
    return total


def lipschitz_gauge_check(h, points):
    """(ok, witness): |h(x)-h(y)| <= b|x-y| over all pairs, exactly."""
    points = list(points)
    for i in range(len(points)):
        hi = h(points[i])
        for j in range(i + 1, len(points)):
            gap = (hi - h(points[j])).norm_pow()
            dist = (points[i] - points[j]).norm_pow()
            if not ppow_le_scaled(gap, h.b, dist):
                return False, (points[i], points[j])
    return True, None


def divide_by_monomial(poly, exps):
    """Exact division by x^exps; raises if any term is not divisible."""
    exps = tuple(exps)
    t = {}
    for e, c in poly.terms.items():
        q = tuple(a - b for a, b in zip(e, exps))
        if any(a < 0 for a in q):
            raise PadicError("polynomial not divisible by the monomial")
        t[q] = c
    return MultiPoly(poly.m, t)


def quotient_bound(Q, z, order, zeta=1):
    """Ultrametric bound for the order-j difference quotient of Q at z,
    over unit directions and increments of norm <= p^(-zeta).

    Built symbolically: substitute z + v1*t1 + ... + vj*tj into Q with the
    v-coordinates and t's as fresh variables, alternate over increment
    subsets, divide by t1...tj exactly, and bound each monomial by the
    p-norm of its coefficient times p^(-zeta * t-degree).
    """
    p = z.p
    m = z.dim
    j = order
    if j == 0:
        # C0 norm over the unit ball: max coefficient norm
        return PPow.from_val(p, min(
            (rational_val(c, p) for c in Q.terms.values() if c), default=None))
    nv = j * m + j
    args_base = [MultiPoly.const(nv, z.coords[i].as_fraction())
                 for i in range(m)]
    total = MultiPoly.zero(nv)
    for mask in range(1 << j):
        args = list(args_base)
        for i in range(j):
            if mask >> i & 1:
                ti = MultiPoly.coord(nv, j * m + i)
                for c in range(m):
                    args[c] = args[c] + MultiPoly.coord(nv, i * m + c) * ti
        term = Q.substitute(args)
        sign = 1 if (j - bin(mask).count("1")) % 2 == 0 else -1
        total = total + term * Fraction(sign)
    exps = [0] * nv
    for i in range(j):
        exps[j * m + i] = 1
    total = divide_by_monomial(total, exps) * Fraction(1, factorial(j))
    # each monomial: |c| * p^(-zeta * its degree in the t's)
    return PPow.from_val(p, min(
        (rational_val(c, p) + zeta * sum(e[j * m:])
         for e, c in total.terms.items() if c), default=None))


def jet_compat_modulus(J, delta):
    """rho(S, delta) over every pair of representatives in different jet
    classes, for increments of norm <= p^-1."""
    p = J.p
    best = PPow.zero(p)
    if delta <= 0:
        return best
    D = floor_level(delta, p)      # |x - z| <= delta iff val >= D
    classes = {}
    for a, (_, px) in enumerate(J.jets):
        classes.setdefault(_jet_signature(px), []).append(a)
    groups = list(classes.values())
    for gi in range(len(groups)):
        for gj in range(gi + 1, len(groups)):
            for a in groups[gi]:
                x, px = J.jets[a]
                for bidx in groups[gj]:
                    z, pz = J.jets[bidx]
                    d = (x - z).val
                    if d is None or d < D:
                        continue
                    dpow = PPow(p, -d)
                    for comp in range(J.n):
                        Q = px[comp] - pz[comp]
                        if Q.is_zero():
                            continue
                        for j in range(J.k + 1):
                            bound = max(quotient_bound(Q, z, j),
                                        quotient_bound(Q, x, j))
                            scaled = bound * dpow.pow_frac(Fraction(j - J.k))
                            best = max(best, scaled)
    return best
