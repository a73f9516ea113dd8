"""All-pairs reference implementations of the coset-tree algorithms.

These are the straightforward O(N^2) loops: every pair is compared with
the PAdicVector subtraction, exactly as the definitions read, and every
site is scanned for each packing point.  The property tests in
test_coset_tree.py require the tree-based versions in qpcalc to agree with
them on every output.
"""

from fractions import Fraction

from norm_reference import ppow_le_scaled
from qpcalc.extension import (CertifyReport, ChebyshevResult, PackingResult,
                              nearest_point)
from qpcalc.measure import GridFunction, enumerate_cosets
from qpcalc.padic import PadicError, PPow, frac_str


def holder_scan(f, r):
    """(ratio, witness) maximizing |f(x)-f(y)| / |x-y|^r, first pair wins."""
    r = Fraction(r)
    best = PPow.zero(f.p)
    witness = None
    reps = f.reps
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            x, y = reps[i], reps[j]
            num = PPow.from_norm(f.p, (f.evaluate(x) - f.evaluate(y)).sup_norm())
            if num.exp is None:
                continue
            den = PPow.from_norm(f.p, (x - y).sup_norm()).pow_frac(r)
            ratio = num / den
            if ratio > best:
                best = ratio
                witness = (x, y)
    return best, witness


def certify(S, max_violations=8):
    pts = S.points
    violations = []
    checked = 0
    bad = False
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            checked += 1
            gap = PPow.from_norm(S.p, (pts[i][1] - pts[j][1]).sup_norm())
            dist = PPow.from_norm(S.p, (pts[i][0] - pts[j][0]).sup_norm())
            if not ppow_le_scaled(gap, S.C, dist.pow_frac(S.r)):
                bad = True
                if len(violations) < max_violations:
                    violations.append((i, j, gap, dist.pow_frac(S.r)))
    return CertifyReport(ok=not bad, pairs_checked=checked,
                         violations=tuple(violations))


def chebyshev_radius(H, r):
    r = Fraction(r)
    pairs = H.pairs
    p = H.p
    weights = [PPow.from_norm(p, x.norm()) for _, x in pairs]
    c = PPow.zero(p)
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            dist = PPow.from_norm(p, (pairs[i][0] - pairs[j][0]).sup_norm())
            if dist.exp is None:
                continue
            cand = dist / max(weights[i], weights[j]).pow_frac(r)
            if cand > c:
                c = cand
    qi = min(range(len(pairs)), key=lambda k: weights[k])
    q = pairs[qi][0]
    tight = []
    if c.exp is not None:
        for k, ((z, _), w) in enumerate(zip(pairs, weights)):
            lhs = PPow.from_norm(p, (q - z).sup_norm())
            if lhs == w.pow_frac(r) * c:
                tight.append(k)
    return ChebyshevResult(c=c, q=q, tight=tuple(tight),
                           zero_radius=c.exp is None)


def extend_to_grid(S, domain, resolution):
    """Nearest-site extension, one scan over the sites per coset."""
    sites = S.sites()
    table = []
    for rep in enumerate_cosets(domain, resolution):
        v0, _ = nearest_point(sites, rep)
        table.append((rep, next(value for site, value in S.points
                                if site is v0)))
    return GridFunction(domain, resolution, table)


def decompose_Ej(f, r, j_range=None):
    """(classes, unassigned) with the balls B(z, p^-l) found by filtering
    every grid point."""
    r = Fraction(r)
    K = f.resolution
    p = f.p
    if j_range is None:
        j_range = range(0, K)
    reps = f.reps
    m = f.dims[0]
    assigned = {}
    unassigned = []
    for z in reps:
        fz = f.evaluate(z)
        choice = None
        for j in j_range:
            ok = True
            for l in range(j + 1, K + 1):
                radius = Fraction(p) ** (-l)
                inside = [x for x in reps if (x - z).sup_norm() <= radius]
                bad = 0
                for x in inside:
                    dist = (x - z).sup_norm()
                    if dist == 0:
                        continue
                    gap = PPow.from_norm(p, (f.evaluate(x) - fz).sup_norm())
                    dpow = PPow.from_norm(p, dist).pow_frac(r)
                    if not ppow_le_scaled(gap, Fraction(p) ** j, dpow):
                        bad += 1
                if Fraction(bad, p ** ((K - l) * m)) >= Fraction(1, 2):
                    ok = False
                    break
            if ok:
                choice = j
                break
        if choice is None:
            unassigned.append(z)
        else:
            assigned.setdefault(choice, []).append(z)
    classes = tuple((j, tuple(assigned[j])) for j in sorted(assigned))
    return classes, tuple(unassigned)


def verify_Ej(f, dec, max_violations=8):
    p = f.p
    violations = []
    bad = False
    for j, pts in dec.classes:
        scale = Fraction(p) ** j
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                x, z = pts[a], pts[b]
                dist = (x - z).sup_norm()
                if dist >= Fraction(p) ** (-j):
                    continue
                gap = PPow.from_norm(p, (f.evaluate(x) - f.evaluate(z)).sup_norm())
                dpow = PPow.from_norm(p, dist).pow_frac(dec.r)
                if not ppow_le_scaled(gap, scale, dpow):
                    bad = True
                    if len(violations) < max_violations:
                        violations.append((j, x, z))
    return not bad, violations


def packing_check_many(G, h, b, alpha, beta, xs):
    """Family preconditions over every pair of sites, the first failing
    pair raised; then G_x by a scan of every site for each x."""
    G = list(G)
    b, alpha, beta = Fraction(b), Fraction(alpha), Fraction(beta)
    if not G:
        raise PadicError("empty packing family")
    if b <= 0 or alpha <= 0 or beta <= 0:
        raise PadicError("b, alpha, beta must be positive")
    if b * alpha >= 1 or b * beta >= 1:
        raise PadicError("need b*alpha < 1 and b*beta < 1")
    hv = [h(y) for y in G]
    if any(v.is_zero() for v in hv):
        raise PadicError("gauge h vanishes on a site")
    levels = [v.val for v in hv]
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            d = (G[i] - G[j]).val
            if d is None or d >= min(levels[i], levels[j]):
                raise PadicError(
                    f"balls at sites {i} and {j} are not disjoint")
            if not ppow_le_scaled((hv[i] - hv[j]).norm_pow(), b,
                                  PPow(G[i].p, -d)):
                raise PadicError(
                    f"b does not bound the Lipschitz quotient of h "
                    f"at sites {i} and {j}")
    return [_packing_at(G, levels, h, b, alpha, beta, G[0].dim, x)
            for x in xs]


def _packing_at(G, levels, h, b, alpha, beta, m, x):
    hxv = h(x)
    if hxv.is_zero():
        raise PadicError("gauge h vanishes at x")
    p = x.p
    hx = hxv.norm_pow()
    g_x = [i for i, y in enumerate(G)
           if ppow_le_scaled(d := (x - y).norm_pow(), alpha, hx)
           or ppow_le_scaled(d, beta, PPow.from_val(p, levels[i]))]
    lower = (1 - b * beta) / (1 + b * alpha)
    upper = (1 + b * beta) / (1 - b * alpha)
    violations = []
    for i in g_x:
        ratio = Fraction(p) ** (levels[i] - hxv.val)
        if not lower <= ratio <= upper:
            violations.append({"site": i, "ratio": frac_str(ratio)})
    card_bound = (max(alpha, beta * (1 + b * alpha) / (1 - b * beta)) ** m
                  * ((1 + b * beta) / (1 - b * alpha)) ** m)
    card_ok = len(g_x) <= card_bound
    if not card_ok:
        violations.append({"cardinality": len(g_x),
                           "bound": frac_str(card_bound)})
    ratio_ok = not any("site" in v for v in violations)
    return PackingResult(ratio_ok=ratio_ok,
                         card_ok=card_ok, g_x=tuple(g_x),
                         card_bound=card_bound,
                         ratio_bounds=(lower, upper),
                         violations=tuple(violations))
