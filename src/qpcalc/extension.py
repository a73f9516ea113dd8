"""Constructive ultrametric Lipschitz/Hölder extension: certified sample
sets, the weighted Chebyshev radius in closed form, nearest-point extension
with exact constant preservation, packing-family bounds, and the
regularity-class decomposition of a grid function.

Every bound |u| <= C*|w|^r is one integer test on valuations
(padic.ScaledBound); reported magnitudes are exact powers of p (PPow).
Nothing is floated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .measure import (DEFAULT_CAP, CosetTree, GridFunction, coset_key,
                      enumerate_cosets, first_gaps, gap_val, nearest_index)
from .padic import (Ball, PAdicVector, PadicError, PPow, ScaledBound,
                    frac_str, from_json as number_from_json,
                    holder_exponent, json_object, json_pairs, parse_frac)


# ---------------------------------------------------------------------------
# sample sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifyReport:
    ok: bool
    pairs_checked: int
    violations: tuple     # ((i, j, |dv|, C*|dx|^r as PPow), ...) capped

    def to_json(self):
        return {
            "ok": self.ok,
            "pairs_checked": self.pairs_checked,
            "violations": [
                {"i": i, "j": j, "value_gap": gap.to_json(),
                 "allowed": allowed.to_json()}
                for i, j, gap, allowed in self.violations],
        }


class SampleSet:
    """Finite sites in Q_p^m with values in Q_p^n and claimed Hölder data
    (C, r); certification checks |v_i - v_j| <= C|x_i - x_j|^r on all pairs
    exactly and is required before extension."""

    __slots__ = ("points", "C", "r", "certified")

    def __init__(self, points, C, r):
        points = tuple((site, value) for site, value in points)
        if not points:
            raise PadicError("empty sample set")
        p = points[0][0].p
        m = points[0][0].dim
        n = points[0][1].dim
        seen = set()
        for site, value in points:
            if site.p != p or site.dim != m or value.p != p or value.dim != n:
                raise PadicError("inconsistent shapes in sample set")
            # (val, unit) of a canonical number is one-to-one with its value
            key = tuple([(c.val, c.unit) for c in site.coords])
            if key in seen:
                raise PadicError("duplicate site in sample set")
            seen.add(key)
        self.points = points
        self.C = Fraction(C)
        self.r = holder_exponent(r)
        if self.C < 0:
            raise PadicError("Hölder constant must be nonnegative")
        self.certified = False

    @property
    def p(self) -> int:
        return self.points[0][0].p

    @property
    def m(self) -> int:
        return self.points[0][0].dim

    def sites(self):
        return [s for s, _ in self.points]

    def certify(self, max_violations: int = 8) -> CertifyReport:
        """Check |v_i - v_j| <= C|x_i - x_j|^r on all pairs exactly; marks
        the set certified on success.  The violations are the first
        max_violations in (i, j) order."""
        found = holder_violations(CosetTree(self.sites()),
                                  [value for _, value in self.points],
                                  self.C, self.r, max_violations)
        ok = not found
        self.certified = ok
        n = len(self.points)
        return CertifyReport(ok=ok, pairs_checked=n * (n - 1) // 2,
                             violations=tuple(found[:max(max_violations, 0)]))

    def to_json(self):
        return {
            "constants": {"C": frac_str(self.C),
                          "r": f"{self.r.numerator}/{self.r.denominator}"},
            "points": [[site.to_json(), value.to_json()]
                       for site, value in self.points],
        }

    @classmethod
    def from_json(cls, obj) -> "SampleSet":
        obj = json_object(obj, "sample set")
        constants = json_object(obj["constants"], "sample set's constants")
        C, r = parse_frac(constants["C"]), parse_frac(constants["r"])
        points = [(PAdicVector.from_json(site), PAdicVector.from_json(value))
                  for site, value in json_pairs(obj["points"],
                                                "sample set points")]
        return cls(points, C, r)


def holder_violations(tree: CosetTree, values, C: Fraction, r: Fraction,
                      budget: int, closer_than=float("-inf")) -> list:
    """The pairs of tree's points closer than p^-closer_than breaking
    |v_i - v_j| <= C|x_i - x_j|^r, as (i, j, |v_i - v_j|, |x_i - x_j|^r) in
    (i, j) order: the first max(budget, 1) of them and maybe more, so none
    exactly when the bound holds on every such pair.

    The pairs split across the children of a level-L coset are at distance
    p^-L, so the bound holds exactly when every branching coset below the
    cut has diam(values) <= C * p^(-L*r).  The violations are taken from
    the failing cosets and the leaves only."""
    sites = tree.points
    if not sites:
        return []
    p = sites[0].p
    bound = ScaledBound(p, C, r)

    def violation(i, j):
        d = (sites[i] - sites[j]).val
        if d is not None and d <= closer_than:
            return None
        gap = (values[i] - values[j]).val
        if bound.holds(gap, d):
            return None
        return i, j, PPow.from_val(p, gap), PPow.from_val(p, d).pow_frac(r)

    found = []
    for L, members, children in tree.splits:
        if L <= closer_than:
            continue
        v = gap_val([values[i] for i in members])
        if bound.holds(v, L):
            continue
        # G: the largest gap valuation still above C * p^(-L*r), short of
        # the widest window, past which no gap is observed
        G = max(c.abs_window() for i in members for c in values[i]
                if not c.is_zero()) - 1
        if (least := bound.least(L)) is not None:
            G = min(G, least - 1)
        # at least one pair, so that a violation is known when none are kept
        found += [violation(i, j) for i, j in first_gaps(
            values, members, children, G, max(budget, 1))]
    for leaf in tree.leaves():
        for a, i in enumerate(leaf):
            found += filter(None, (violation(i, j) for j in leaf[a + 1:]))
    found.sort(key=lambda vio: vio[:2])
    return found


class WeightedSiteSet:
    """Finite pairs (z, x) with x nonzero: the centers and weights feeding
    the Chebyshev radius."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        pairs = tuple((z, x) for z, x in pairs)
        if not pairs:
            raise PadicError("empty weighted site set")
        p = pairs[0][0].p
        n = pairs[0][0].dim
        for z, x in pairs:
            if z.p != p or z.dim != n or x.p != p:
                raise PadicError("inconsistent shapes in weighted site set")
            if x.is_zero():
                raise PadicError("weights must be nonzero")
        self.pairs = pairs

    @property
    def p(self) -> int:
        return self.pairs[0][0].p

    def to_json(self):
        return {"pairs": [[z.to_json(), x.to_json()] for z, x in self.pairs]}

    @classmethod
    def from_json(cls, obj) -> "WeightedSiteSet":
        pairs = json_object(obj, "weighted site set")["pairs"]
        return cls([(PAdicVector.from_json(z), number_from_json(x))
                    for z, x in json_pairs(pairs, "weighted site pairs")])


# ---------------------------------------------------------------------------
# Chebyshev radius
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChebyshevResult:
    c: PPow                  # minimal level (power of p, possibly fractional exp)
    q: PAdicVector           # a point of X_c
    tight: tuple             # indices whose constraint is met with equality
    zero_radius: bool        # degenerate c = 0 case (all centers coincide)

    def to_json(self):
        return {"c": self.c.to_json(), "q": self.q.to_json(),
                "tight": list(self.tight), "zero_radius": self.zero_radius}


def chebyshev_radius(H: WeightedSiteSet, r) -> ChebyshevResult:
    """Minimal c with  X_c = { y : |y - z| <= |x|^r * c  for all (z,x) }
    nonempty, and a point q of X_c.

    In an ultrametric the minimum is attained on the finite candidate set
    { |z_i - z_j| / max(|x_i|,|x_j|)^r } (pairwise ball intersection plus the
    Helly property), and q may be taken as the center whose weight norm is
    smallest: every other constraint ball has radius at least |z_q - z_i|.
    The candidates are maximized per branching coset of the centers'
    CosetTree, in O(N*K).
    """
    r = holder_exponent(r)
    pairs = H.pairs
    p = H.p
    weights = [x.norm_pow() for _, x in pairs]
    tree = CosetTree(z for z, _ in pairs)
    c = PPow.zero(p)
    for L, _, children in tree.splits:
        # a pair split at level L is at distance p^-L; the lightest such
        # pair weighs the second least of the per-child least weights
        w2 = sorted(min(weights[i] for i in group) for group in children)[1]
        c = max(c, PPow(p, -L) / w2.pow_frac(r))
    for leaf in tree.leaves():
        for a, i in enumerate(leaf):
            for j in leaf[a + 1:]:
                dist = (pairs[i][0] - pairs[j][0]).norm_pow()
                if dist.exp is not None:
                    c = max(c, dist / max(weights[i], weights[j]).pow_frac(r))
    qi = min(range(len(pairs)), key=lambda k: weights[k])
    q = pairs[qi][0]
    tight = []
    if c.exp is not None:
        for k, ((z, _), w) in enumerate(zip(pairs, weights)):
            if (q - z).norm_pow() == w.pow_frac(r) * c:
                tight.append(k)
    return ChebyshevResult(c=c, q=q, tight=tuple(tight),
                           zero_radius=c.exp is None)


def chebyshev_feasible(H: WeightedSiteSet, r, y: PAdicVector,
                       level: PPow) -> bool:
    """Exact replay: does y satisfy every constraint at the given level?"""
    r = Fraction(r)
    return all((y - z).norm_pow() <= x.norm_pow().pow_frac(r) * level
               for z, x in H.pairs)


# ---------------------------------------------------------------------------
# nearest-point extension
# ---------------------------------------------------------------------------

def nearest_point(T, v: PAdicVector):
    """(v0, delta): the first member of T at minimal sup-distance from v."""
    T = list(T)
    if not T:
        raise PadicError("empty site list")
    i, d = nearest_index(T, v)
    return T[i], d.sup_norm()


def extend_to_grid(S: SampleSet, domain: Ball, resolution: int,
                   cap: int = DEFAULT_CAP) -> GridFunction:
    """Tabulate the nearest-point extension on a full coset grid, with one
    CosetTree.nearest query over the sites per coset in place of a scan."""
    if not S.certified:
        raise PadicError("sample set is not certified; run certify() first")
    reps = enumerate_cosets(domain, resolution, cap=cap)
    # several sites may share a grid coset, so the walk is cut where the
    # tree's keys end, not at the resolution
    tree = CosetTree(S.sites())
    return GridFunction(domain, resolution,
                        [(rep, S.points[tree.nearest(rep, tree.hi)][1])
                         for rep in reps])


# ---------------------------------------------------------------------------
# packing families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PackingResult:
    ratio_ok: bool
    card_ok: bool
    g_x: tuple               # members y of G_x (indices into G)
    card_bound: Fraction
    ratio_bounds: tuple      # (lower, upper) as Fractions
    violations: tuple


def _packing_setup(G, h, b, alpha, beta):
    """Validate the family preconditions; raise with the first offending
    pair in (i, j) order, a pair that meets before one that breaks b.

    Returns (levels, tree): the ball at G[i] has radius p^-levels[i], and
    tree is the sites' CosetTree.  The balls are disjoint exactly when each
    site is alone in its own ball, and b bounds the Lipschitz quotient of h
    when the sites with values h certify (C, r) = (b, 1).
    """
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
    tree = CosetTree(G)
    # the first pair that meets is the least, over the sites i, of (i, j)
    # or (j, i) with j the first other site in i's ball
    meets = []
    for i, l in enumerate(levels):
        others = [j for j in tree.ball(i, l) if j != i]
        if others:
            meets.append((min(i, others[0]), max(i, others[0])))
    steep = holder_violations(tree, [PAdicVector([v]) for v in hv], b, 1, 1)
    if meets and (not steep or min(meets) <= steep[0][:2]):
        i, j = min(meets)
        raise PadicError(f"balls at sites {i} and {j} are not disjoint")
    if steep:
        i, j = steep[0][:2]
        raise PadicError(f"b does not bound the Lipschitz quotient of h "
                         f"at sites {i} and {j}")
    return levels, tree


def _packing_at(G, levels, tree, h, b, alpha, beta, x) -> PackingResult:
    hxv = h(x)
    if hxv.is_zero():
        raise PadicError("gauge h vanishes at x")
    p, m = x.p, G[0].dim
    near_x, near_site = ScaledBound(p, alpha), ScaledBound(p, beta)
    # a member of G_x is within p^-L of x, L the least of the levels of
    # alpha*|h(x)| and of beta*|h(y)| over the sites: the members of the
    # last group on x's path there are compared
    path = tree.locate(x, min(near_x.least(hxv.val),
                              near_site.least(min(levels))))
    g_x = [i for i in (path[-1][1] if path else ())
           if near_x.holds(d := (x - G[i]).val, hxv.val)
           or near_site.holds(d, levels[i])]
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


def packing_check(G, h, b, alpha, beta, x: PAdicVector) -> PackingResult:
    """Check the two packing bounds at x for the family G with gauge h.

    Preconditions (verified here, violations raise with the offending pair):
    the balls B(y, |h(y)|) are pairwise disjoint, b bounds the Lipschitz
    quotient of h on G, and b*alpha < 1 > b*beta.  x may be any point where
    h is defined; G_x collects the y whose beta-scaled ball meets the
    alpha-scaled ball of x (exact ultrametric intersection).  A bound
    failure falsifies the construction, not the inequality: it is reported,
    not raised.
    """
    return packing_check_many(G, h, b, alpha, beta, [x])[0]


def packing_check_many(G, h, b, alpha, beta, xs) -> list:
    """packing_check over many x with the family preconditions verified
    once, and G_x read from the sites' CosetTree.  Results are in xs
    order."""
    G = list(G)
    b, alpha, beta = Fraction(b), Fraction(alpha), Fraction(beta)
    levels, tree = _packing_setup(G, h, b, alpha, beta)
    return [_packing_at(G, levels, tree, h, b, alpha, beta, x) for x in xs]


# ---------------------------------------------------------------------------
# regularity-class decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EjDecomposition:
    classes: tuple           # ((j, (points...)), ...) nonempty, j increasing
    unassigned: tuple
    K: int
    r: Fraction

    def to_json(self):
        return {
            "K": self.K, "r": [self.r.numerator, self.r.denominator],
            "classes": [{"j": j, "points": [z.to_json() for z in pts]}
                        for j, pts in self.classes],
            "unassigned": [z.to_json() for z in self.unassigned],
        }


def decompose_Ej(f: GridFunction, r, j_range=None) -> EjDecomposition:
    """Assign each grid point z the least j in j_range (0..K-1 by default,
    in any order) such that for every scale p^(-l), j < l <= K, the bad
    set {x in B(z, p^(-l)) : |f(x)-f(z)| > p^j |x-z|^r} fills less than
    half the ball.

    Measures are exact coset counts at the grid resolution.  The points at
    distance p^-L from z are z's level-L coset less its level-(L+1) coset
    in the grid's CosetTree, and such an x is bad iff f(x) - f(z) has a
    valuation below T = ceil(L*r - j): iff the values' classes at T differ,
    when both windows reach T.  So each count is a difference of per-coset
    tallies of value classes, and only values with shorter windows are
    compared pair by pair.  Points admitting no j in the budget are
    reported unassigned.
    """
    r = holder_exponent(r)
    K = f.resolution
    p = f.p
    j_range = range(0, K) if j_range is None else sorted(j_range)
    # the bound p^j * |x - z|^r of each class j that checks a level l > j
    bounds = {j: ScaledBound(p, Fraction(p) ** j, r)
              for j in j_range if j < K - 1}
    reps = f.reps
    m = f.dims[0]
    values = f.values
    tree = CosetTree(reps)
    classes = {}        # T -> each value's class at T, None if it is short
    tallies = {}        # (L, first member, T) -> (class counts, short members)

    def tally(L, group, T):
        if T not in classes:
            classes[T] = [coset_key(v, T)
                          if all(c.abs_window() >= T for c in v) else None
                          for v in values]
        key = (L, group[0], T)
        if key not in tallies:
            cls = classes[T]
            tallies[key] = (Counter(cls[i] for i in group if cls[i] is not None),
                            {i for i in group if cls[i] is None})
        return tallies[key]

    def shell_bad(zi, L, T):
        """Points at distance p^-L from point zi whose values differ from
        its value at a valuation below T."""
        outer, inner = tree.ball(zi, L), tree.ball(zi, L + 1)
        (c_out, s_out), (c_in, s_in) = tally(L, outer, T), tally(L + 1, inner, T)
        kz = classes[T][zi]
        if kz is None:
            inside = set(inner)
            bad, pairwise = 0, [i for i in outer if i not in inside]
        else:
            bad = ((len(outer) - len(s_out) - c_out[kz])
                   - (len(inner) - len(s_in) - c_in[kz]))
            pairwise = s_out - s_in
        for xi in pairwise:
            v = gap_val([values[xi], values[zi]])
            if v is not None and v < T:
                bad += 1
        return bad

    assigned = {}
    unassigned = []
    for zi, z in enumerate(reps):
        choice = None
        for j in j_range:
            # bad points of B(z, p^-l), from l = K, where z is alone, outwards
            bad = 0
            for l in range(K - 1, j, -1):
                bad += shell_bad(zi, l, bounds[j].least(l))
                if Fraction(bad, p ** ((K - l) * m)) >= Fraction(1, 2):
                    break
            else:
                choice = j
                break
        if choice is None:
            unassigned.append(z)
        else:
            assigned.setdefault(choice, []).append(z)
    classes = tuple((j, tuple(assigned[j])) for j in sorted(assigned))
    return EjDecomposition(classes=classes, unassigned=tuple(unassigned),
                           K=K, r=r)


def verify_Ej(f: GridFunction, dec: EjDecomposition, max_violations: int = 8):
    """Per-class check: |f(x)-f(z)| <= p^j |x-z|^r for class pairs closer
    than p^(-j), the (C, r) = (p^j, r) certificate of the class cut at
    level j.  Returns (ok, violations), the first max_violations in class
    order and then pair order."""
    violations, bad = [], False
    for j, pts in dec.classes:
        budget = max(max_violations - len(violations), 0)
        if bad and not budget:
            break
        found = holder_violations(CosetTree(pts),
                                  [f.evaluate(x) for x in pts],
                                  Fraction(f.p) ** j, dec.r, budget,
                                  closer_than=j)
        bad = bad or bool(found)
        violations += [(j, pts[i], pts[k]) for i, k, *_ in found[:budget]]
    return not bad, violations
