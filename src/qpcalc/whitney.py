"""Whitney-style C^k gluing over Q_p^m: a distance-derived radius function,
a greedy disjoint clopen support family, the indicator partition of unity,
per-site Taylor jets, the glued extension, and exact verification that the
difference quotients of the glue match those of the jets on the closed set.

The closed set A is a finite union of cosets at the working resolution;
every construction below is exact, so "matches" means equality of p-adic
numbers, not smallness of a float.
"""

from __future__ import annotations

import itertools
import marshal
import math
from collections import Counter
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .extension import packing_check_many
from .funcs import MultiPoly, SymbolicFunction, taylor_shift
from .measure import (DEFAULT_CAP, CosetTree, _check_cap, ball_masks,
                      coset_key, enumerate_cosets, union_density)
from .padic import (
    WORKING_PREC,
    Ball,
    PAdicNumber,
    PAdicVector,
    PadicError,
    PairTable,
    PPow,
    _vp,
    json_int,
    json_list,
    json_object,
    json_pairs,
    literal_rows,
    parse_frac,
    rational_val,
)
from .quotients import QuotientPoint, phin, phin_poly

#: construction exponents (s0, s1, s2); the gauge scale is b = p^(-s0),
#: the enlargement factor p^(-s1), and the packing scale offset s2.
DEFAULT_CONSTANTS = (2, 0, -1)


# ---------------------------------------------------------------------------
# distance to a coset union and the radius function h
# ---------------------------------------------------------------------------

def dist_exp(A, x: PAdicVector):
    """The exponent D with dist(x, A) = p^(-D) in the sup norm, as the
    PAdicVector subtraction observes it; None when x lies in A."""
    A = list(A)
    if not A:
        raise PadicError("empty coset union")
    best = None
    for ball in A:
        v = (x - ball.center).val
        if v is None or v >= ball.rad_exp:
            return None
        best = v if best is None else max(best, v)
    return best


class RadiusFunction:
    """h(x) = p^(e(x)) with |h(x)| = p^(-s0) * min(1, dist(x, A)).

    Values are powers of p, h is defined off A only, and the Lipschitz
    quotient of h is bounded by b = p^(-s0) (checked pairwise by callers).
    """

    __slots__ = ("A", "p")
    s0 = DEFAULT_CONSTANTS[0]

    def __init__(self, A, p: int):
        self.A = tuple(A)
        self.p = p

    @property
    def b(self) -> Fraction:
        return Fraction(1, self.p ** self.s0)

    def dist_exp(self, x: PAdicVector):
        """dist_exp(A, x): one subtraction per ball of A."""
        return dist_exp(self.A, x)

    def exponent(self, x: PAdicVector) -> int:
        d = self.dist_exp(x)
        if d is None:
            raise PadicError("radius function is defined off the closed set")
        return self.s0 + max(0, d)

    def __call__(self, x: PAdicVector) -> PAdicNumber:
        return PAdicNumber.from_int(
            self.p, self.p ** self.exponent(x), prec=WORKING_PREC)

    def support_exp(self, x: PAdicVector) -> int:
        """Radius exponent of the support ball B(x, |pi*h(x)|)."""
        return self.exponent(x) + 1


# ---------------------------------------------------------------------------
# disjoint support family and partition of unity
# ---------------------------------------------------------------------------

class PartitionFamily:
    """Admitted support balls B(y, p^-e(y)), e(y) = h.support_exp(y), with
    one index (e, coset key of y at e) -> site position.  Two sites with one
    key would have one support, so a repeated key is refused."""

    __slots__ = ("sites", "h", "_index", "_levels")

    def __init__(self, sites, h: RadiusFunction):
        self.sites, self._index, self._levels = [], {}, []
        self.h = h
        for y in sites:
            if not self.admit(y, h.support_exp(y)):
                raise PadicError(f"site {len(self.sites)} repeats the "
                                 f"support of an earlier site")

    def admit(self, y: PAdicVector, e: int) -> bool:
        """Add y as a site unless an admitted support has y's key; e is
        h.support_exp(y), which the caller has computed."""
        key = (e, coset_key(y, e))
        if key in self._index:
            return False
        self._index[key] = len(self.sites)
        self.sites.append(y)
        if e not in self._levels:
            self._levels = sorted(self._levels + [e])
        return True

    def support_indices(self, x: PAdicVector) -> list:
        """Indices of every admitted support containing x.  A support at
        level e contains x exactly when x shares the site's level-e coset,
        so this is one key lookup per distinct level in the family."""
        return [self._index[(e, key)] for e in self._levels
                if (e, (key := coset_key(x, e))) in self._index]

    def site_index_for(self, x: PAdicVector) -> int:
        hits = self.support_indices(x)
        if len(hits) != 1:
            raise PadicError(
                f"partition property violated: {len(hits)} supports at a point")
        return hits[0]

    def weights(self, x: PAdicVector):
        """Nonzero indicator weights [(site, w)] at x: exactly one entry,
        with w = 1, because the supports partition W.  Every omitted site
        carries weight 0 at x."""
        hit = self.site_index_for(x)
        return [(self.sites[hit], 1)]


def disjoint_ball_family(reps, h: RadiusFunction,
                         resolution: int) -> PartitionFamily:
    """Greedy scan in enumeration order: admit y when its support ball is
    disjoint from every admitted support.  Because the gauge is Lipschitz
    with constant < 1, intersecting supports have equal radii and coincide,
    so y is admitted exactly when it is the first with its support's key
    (e(y), coset_key(y, e(y))), and the admitted supports cover every
    scanned representative.  That partition is certified at every
    representative.
    """
    reps = list(reps)
    if not reps:
        raise PadicError("empty site list")
    fam = PartitionFamily((), h)
    for y in reps:
        e = h.support_exp(y)
        if e > resolution:
            raise PadicError(
                "resolution too coarse for the support radii: need "
                f"K >= {e}")
        fam.admit(y, e)
    for y in reps:
        fam.site_index_for(y)   # raises unless exactly one support hits
    return fam


def family_packing_reports(fam: PartitionFamily, xs) -> list:
    """Packing bounds for the support family (gauge pi*h) at each of xs.

    Scales alpha = beta = 1 with b' = p^-(s0+1) >= Lip of pi*h make the
    ratio window exactly (1 -+ p^-(2*s0+s2))/(1 +- ...) at the default
    constants, and the cardinality bound exceeds 1 as a covering family
    requires.
    """
    p = fam.h.p
    pi_h = lambda y: PAdicNumber.from_int(
        p, p ** (fam.h.exponent(y) + 1), prec=WORKING_PREC)
    bprime = Fraction(1, p ** (fam.h.s0 + 1))
    return packing_check_many(list(fam.sites), pi_h, bprime, 1, 1, xs)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JetField:
    """Per-representative polynomial jets over a closed coset union.

    by_key is the coset-key index {coset_key(rep, resolution): position}
    of the jets when the caller has made it while collecting them, one jet
    per key (jet_field_from_function); None has it made here."""
    k: int
    A: tuple              # coset balls
    resolution: int
    jets: tuple           # ((rep: PAdicVector, polys: tuple[MultiPoly]), ...)
    by_key: InitVar[dict | None] = None

    def __post_init__(self, by_key):
        """Refuse anything but one field: jets of one order k >= 0 at
        representatives of one Q_p^m, each in a ball of A and alone in its
        resolution coset, each with the same n >= 1 components.  Built and
        read fields both pass here, once per jet; a field read from JSON
        has no index, and two of its jets in one coset are refused."""
        if self.k < 0:
            raise PadicError(f"jet order k must be at least 0, got {self.k}")
        if not self.jets:
            raise PadicError("a jet field holds at least one jet")
        p, m, n = self.p, self.m, self.n
        if not n:
            raise PadicError("a jet has at least one component")
        for ball in self.A:
            if ball.p != p or ball.dim != m:
                raise PadicError(f"a ball of the closed set is not in "
                                 f"Q_{p}^{m}, where the jets are")
        # coset-key lookup for jet_at; one jet per coset, as in a grid table
        keyed = by_key is None
        by_key = {} if keyed else by_key
        for i, (z, polys) in enumerate(self.jets):
            if z.p != p or z.dim != m:
                raise PadicError(f"jet representative {z!r} is not in "
                                 f"Q_{p}^{m}, where the first one is")
            if len(polys) != n:
                raise PadicError(f"the jet at {z!r} has {len(polys)} "
                                 f"components, and the first one {n}")
            if keyed and \
                    by_key.setdefault(coset_key(z, self.resolution), i) != i:
                raise PadicError("duplicate coset in jet field")
        for (z, _), mask in zip(self.jets, ball_masks(self.A, self.reps())):
            if not mask:
                raise PadicError(f"jet representative {z!r} lies outside "
                                 f"the closed set")
        object.__setattr__(self, "_by_key", by_key)

    @cached_property
    def tree(self) -> CosetTree:
        """The representatives' CosetTree, built on first use."""
        return CosetTree(self.reps())

    @cached_property
    def _bounded(self) -> "_Modulus":
        """What the compatibility moduli of this field have bounded, kept
        for the field's later moduli."""
        return _Modulus(self)

    @property
    def p(self) -> int:
        return self.jets[0][0].p

    @property
    def m(self) -> int:
        return self.jets[0][0].dim

    @property
    def n(self) -> int:
        return len(self.jets[0][1])

    def reps(self):
        return [z for z, _ in self.jets]

    def jet_at(self, x: PAdicVector):
        """The jet of the representative whose resolution-coset contains x."""
        i = self._by_key.get(coset_key(x, self.resolution))
        if i is None:
            raise PadicError("point lies in no jet coset")
        return self.jets[i]

    def nearest_rep_index(self, y: PAdicVector) -> int:
        """Index of the closest representative (first wins on ties), from
        the representatives' CosetTree."""
        return self.tree.nearest(y, self.resolution)

    def evaluate_jet(self, polys, x: PAdicVector) -> PAdicVector:
        return PAdicVector(tuple(q.evaluate(x, prec=WORKING_PREC)
                                 for q in polys))

    def to_json(self):
        """The field's JSON, its jets a PairTable of [representative,
        tables] rows.  Representatives share coordinate objects
        (enumerate_cosets) and jets their MultiPolys (SymbolicFunction.jet),
        so each distinct literal is formatted once, and each distinct
        tuple of polynomials makes one tables object, which the report
        writer encodes once.  The memo is keyed by the ids of polynomials
        this field holds, so it lives for this call only."""
        tables, rows = {}, PairTable()
        for (_, polys), literals in zip(self.jets, literal_rows(self.reps())):
            key = tuple(map(id, polys))
            if key not in tables:
                tables[key] = [sorted([list(e), _fr(c)]
                                      for e, c in q.terms.items())
                               for q in polys]
            rows.append([literals, tables[key]])
        return {
            "k": self.k,
            "resolution": self.resolution,
            "A": [b.to_json() for b in self.A],
            "jets": rows,
        }

    @classmethod
    def from_json(cls, obj) -> "JetField":
        """The field of a to_json document.  Each distinct literal text is
        parsed once, and each distinct jet text builds one tuple of
        MultiPolys, which every jet of that text shares; every check runs
        on every distinct text."""
        obj = json_object(obj, "jet field")
        A = tuple(Ball.from_json(b) for b in json_list(obj["A"], "closed set"))
        literals, read, jets = {}, {}, []
        for zj, tables in json_pairs(obj["jets"], "jets"):
            z = PAdicVector.from_json(zj, literals)
            # marshal (format 2, without back-references) writes 1, 1.0
            # and true apart, as the checks tell them apart, and its bytes
            # decode to one value: equal keys are jets of one text
            key = z.dim, marshal.dumps(tables, 2)
            polys = read.get(key)
            if polys is None:
                polys = read[key] = _read_jet(tables, z.dim)
            jets.append((z, polys))
        return cls(k=json_int(obj["k"], "jet order k"), A=A,
                   resolution=json_int(obj["resolution"], "jet resolution"),
                   jets=tuple(jets))


def _read_jet(tables, m: int) -> tuple:
    """The MultiPolys in m variables of one jet's decoded tables; the
    coefficients of a repeated exponent tuple are added."""
    polys = []
    for table in json_list(tables, "jet"):
        terms = {}
        for exps, c in json_pairs(table, "jet polynomial terms"):
            if type(exps) is not list or len(exps) != m:
                raise PadicError(f"a jet term's exponents are a list "
                                 f"of {m} integers, not {exps!r}")
            e = tuple(json_int(x, "jet term exponent") for x in exps)
            q = parse_frac(c)
            terms[e] = terms[e] + q if e in terms else q
        polys.append(MultiPoly(m, terms))
    return tuple(polys)


def _fr(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def jet_field_from_function(f: SymbolicFunction, A, resolution: int,
                            k: int, degree: int | None = None,
                            cap: int = DEFAULT_CAP) -> JetField:
    """Jets of f at every representative of the coset union A, one per
    resolution coset: where balls of A overlap, the first enumeration of a
    coset wins."""
    A = tuple(A)
    if any(b.p != f.p or b.dim != f.m for b in A):
        raise PadicError(f"a ball of the closed set is not in Q_{f.p}^{f.m}, "
                         f"where f is defined")
    degree = k + 1 if degree is None else degree
    jets, by_key = [], {}
    for ball in A:
        for z in enumerate_cosets(ball, resolution, cap=cap):
            key = coset_key(z, resolution)
            if key not in by_key:
                by_key[key] = len(jets)
                jets.append((z, f.jet(z, degree)))
    return JetField(k=k, A=A, resolution=resolution, jets=tuple(jets),
                    by_key=by_key)


# ---------------------------------------------------------------------------
# compatibility modulus
# ---------------------------------------------------------------------------

def _jet_signature(polys) -> tuple:
    return tuple(tuple(sorted(poly.terms.items())) for poly in polys)


def _least(p: int, values, best):
    """min(best, s + v_p(n)) over the (s, n) of `values` with n != 0,
    `values` ordered by s: best is None for no value yet.  An entry is
    read only while it can lower best, by one test of divisibility."""
    for s, n in values:
        if best is not None and s >= best:
            break
        if n and (best is None or n % p ** (best - s)):
            best = s + _vp(n, p)
    return best


class _JetInts:
    """The jet classes of a field on integers, for the modulus.

    Each class's coefficients are one integer vector per component over
    the field's exponents e, over one common denominator Lc.  phin_poly is
    linear and commutes with translation, so the order-j quotient of Q at
    y is the sum over d of T_d, the coefficient of h^d in Q(y + h), times
    phin_poly(x^d, j) at 0; and the (v, t) groups of phin_poly(x^d, j)
    at 0 are distinct for distinct d.  So the grouped quotient's least
    bound valuation is the least of v_p(T_d) + c_j(d) over d, c_j(d) that
    of phin_poly(x^d, j) at 0, made once here.  At y = Y p^low (Y
    integers), T_d of a class is its vector dotted with d's column of
    the integer Taylor shift (taylor_shift) of each x^e to Y, over the
    scale Lc p^(-low * deg), deg the largest degree (point())."""

    __slots__ = ("p", "k", "exps", "vals", "deg", "scale", "ds", "lifts")

    def __init__(self, p: int, k: int, classes, zeta: int):
        self.p, self.k = p, k
        m = classes[0][0].m
        self.exps = sorted({e for polys in classes for q in polys
                            for e in q.terms})
        Lc = math.lcm(*[c.denominator for polys in classes for q in polys
                        for c in q.terms.values()])
        self.vals = [tuple(tuple(c.numerator * (Lc // c.denominator)
                                 if (c := q.terms.get(e)) else 0
                                 for e in self.exps) for q in polys)
                     for polys in classes]
        self.deg = max([sum(e) for e in self.exps], default=0)
        self.scale = _vp(Lc, p)
        # the Taylor coefficients that some order reads, and per order j
        # its d grouped by c_j(d), least first: the least v_p(T_d) of a
        # group is that of their gcd
        self.ds = sorted({d for e in self.exps for d in itertools.product(
            *[range(a + 1) for a in e]) if sum(d) >= 1}) if k else []
        self.lifts = []
        for j in range(1, k + 1):
            groups = {}
            for i, d in enumerate(self.ds):
                if sum(d) >= j:
                    phi = phin_poly(MultiPoly(m, {d: 1}), j)
                    groups.setdefault(min(
                        rational_val(c, p) + zeta * sum(e[-j:])
                        for e, c in phi.terms.items() if not any(e[:m])),
                        []).append(i)
            self.lifts.append(sorted(groups.items()))

    def point(self, y: PAdicVector) -> tuple:
        """(columns, shift): the column of each T_d at y, in the order of
        self.ds, and the valuation of the scale there."""
        p, deg = self.p, self.deg
        low = min([0] + [c.val for c in y.coords if c.val is not None])
        Y = [0 if c.val is None else c.unit * p ** (c.val - low)
             for c in y.coords]
        shifted = [taylor_shift({e: p ** (-low * (deg - sum(e)))}, Y)
                   for e in self.exps]
        return ([tuple([t.get(d, 0) * p ** (-low * sum(d)) for t in shifted])
                 for d in self.ds], self.scale - low * deg)

    def quotient_vals(self, a: int, b: int, at) -> list:
        """[v_0, .., v_k]: v_0 the least valuation of a coefficient of
        class a's jet minus class b's (the Gauss norm, which bounds the
        difference on the unit ball whatever the point), and v_j the least
        valuation of the bounds of the difference of their order-j
        quotients at the point of `at` (point()), over unit directions and
        increments of norm <= p^-zeta; None where a difference is zero."""
        p, gcd = self.p, math.gcd
        columns, shift = at
        raw = [None] * (self.k + 1)
        for A, B in zip(self.vals[a], self.vals[b]):
            if A == B:
                continue
            diff = [x - z for x, z in zip(A, B)]
            raw[0] = _least(p, [(0, gcd(*diff))], raw[0])
            T = [sum(map(mul, diff, col)) for col in columns]
            for j, groups in enumerate(self.lifts, 1):
                raw[j] = _least(p, ((c, gcd(*[T[i] for i in idx]))
                                    for c, idx in groups), raw[j])
        return [None if r is None else r - (self.scale if j == 0 else shift)
                for j, r in enumerate(raw)]


class _Modulus:
    """What the moduli of one field have bounded: the jet class of each
    representative, the classes on integers (_JetInts), the least level D
    whose pairs are bounded, and per exact distance d = val(x - z) of a
    pair the largest exponent E of its bound p^E.  A modulus at a level
    below bounds only the pairs at the distances in between, so each
    pair is bounded once per field."""

    __slots__ = ("cls", "ints", "level", "worst")

    def __init__(self, J: "JetField"):
        classes = {}
        named = {id(px): px for _, px in J.jets}    # one signature per tuple
        for key, px in named.items():               # id -> its class
            named[key] = classes.setdefault(_jet_signature(px), len(classes))
        self.cls = [named[id(px)] for _, px in J.jets]
        self.ints = None
        if len(classes) > 1:
            polys = [None] * len(classes)
            for (_, px), c in zip(J.jets, self.cls):
                polys[c] = px
            self.ints = _JetInts(J.p, J.k, polys, INCREMENT_EXP)
        self.level, self.worst = None, {}

    def cover(self, J: "JetField", D: int) -> None:
        """Bound every pair of different classes at a distance d with
        D <= d < self.level.  Two representatives in different children
        of a level-L coset of the tree (L < hi) are at distance exactly
        p^-L; those sharing a leaf are subtracted.  A pair's bound is the
        larger of its bounds at its two ends, and the bound at x against
        z depends on z only through z's class: each representative is
        visited once, with the classes of its partners at each distance,
        and each class is evaluated there once."""
        top = self.level
        if top is not None and D >= top:
            return
        cls, tree = self.cls, J.tree
        partners = {}            # representative -> [(d, classes)]
        for L, _, children in tree.splits:
            if L < D or top is not None and L >= top:
                continue
            sets = [{cls[i] for i in child} for child in children]
            count = Counter(c for s in sets for c in s)
            for child, s in zip(children, sets):
                others = [c for c in count if count[c] > (c in s)]
                if others:
                    for i in child:
                        partners.setdefault(i, []).append((L, others))
        for leaf in tree.leaves():
            for n, a in enumerate(leaf):
                for b in leaf[n + 1:]:
                    d = (tree.points[a] - tree.points[b]).val
                    if cls[a] != cls[b] and d is not None and d >= D and \
                            (top is None or d < top):
                        partners.setdefault(a, []).append((d, [cls[b]]))
                        partners.setdefault(b, []).append((d, [cls[a]]))
        k, worst = J.k, self.worst
        for i, work in partners.items():
            at, own, seen = self.ints.point(tree.points[i]), cls[i], {}
            for d, others in work:
                for c in others:
                    if c == own:
                        continue
                    if c not in seen:
                        seen[c] = self.ints.quotient_vals(c, own, at)
                    for j, v in enumerate(seen[c]):
                        if v is not None and (
                                d not in worst or d * (k - j) - v > worst[d]):
                            worst[d] = d * (k - j) - v
        self.level = D


class PairBudget:
    """The pairs that the moduli of one command may bound: each pair of
    different jet classes that jet_compat_modulus compares spends one, and
    spending past `cap` raises ResourceCapExceeded (exit 3)."""

    __slots__ = ("cap", "spent")

    def __init__(self, cap: int = DEFAULT_CAP):
        self.cap, self.spent = cap, 0

    def spend(self, pairs: int) -> None:
        self.spent += pairs
        _check_cap(self.spent, self.cap, "pair bounds")


def jet_compat_modulus(J: JetField, D: int,
                       budget: PairBudget | None = None) -> PPow:
    """rho(S, p^-D): the worst scaled jet disagreement over representative
    pairs within p^-D, all orders j <= k, as an exact power-of-p bound,
    over the increments |t| <= p^-INCREMENT_EXP that the sampler draws.

    The pairs within p^-D are the pairs in a level-D ball of the
    representatives' CosetTree, and pairs with equal jets contribute
    nothing: only pairs of different jet classes are compared, and a field
    of identical jets (a globally polynomial source) costs one pass.  A
    pair at distance p^-d contributes p^(-v_j + d*(k - j)) per order j,
    v_j from _JetInts.quotient_vals at either end.  Each pair compared is
    spent from budget (a fresh DEFAULT_CAP one if None) before any is
    bounded; the field keeps what its moduli have bounded (_Modulus), so
    a pair is bounded once, however many levels are asked for.
    """
    budget = PairBudget() if budget is None else budget
    state = J._bounded
    cls = state.cls
    if state.ints is None:
        return PPow.zero(J.p)
    for a in range(len(cls)):
        budget.spend(sum(cls[b] != cls[a] for b in J.tree.ball(a, D) if b > a))
    state.cover(J, D)
    worst = max([E for d, E in state.worst.items() if d >= D], default=None)
    return PPow.zero(J.p) if worst is None else PPow(J.p, worst)


# ---------------------------------------------------------------------------
# the glued extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WhitneyExtension:
    """g(x) = P_x(x) on A; off A, g(x) = P_z(x) with z the first jet
    representative nearest x: the glue over disjoint_ball_family read
    without the family.  The support holding x off A is B(x, p^-e(x)),
    e = h.support_exp, and misses A, so every representative is as far
    from its site as from x (Schikhof, Ultrametric Calculus, 1984).  It is
    admitted exactly when e(x) <= resolution and it meets the domain;
    other points raise."""
    jets: JetField
    h: RadiusFunction         # the gauge, built over jets.A
    domain: Ball
    resolution: int

    def __call__(self, x: PAdicVector) -> PAdicVector:
        d = self.h.dist_exp(x)
        if d is None:                               # x is on A
            _, polys = self.jets.jet_at(x)
            return self.jets.evaluate_jet(polys, x)
        e = self.h.s0 + max(0, d) + 1               # h.support_exp(x)
        meet = min(e, self.domain.rad_exp)
        if e > self.resolution or \
                coset_key(x, meet) != coset_key(self.domain.center, meet):
            raise PadicError("partition property violated: 0 supports at a point")
        _, polys = self.jets.jets[self.jets.nearest_rep_index(x)]
        return self.jets.evaluate_jet(polys, x)


def whitney_extend(J: JetField, domain: Ball,
                   resolution: int) -> WhitneyExtension:
    """The glued extension of J over the domain at the given resolution,
    refused where the support family over domain \\ A has no site (A
    covers every domain coset) or a support finer than the resolution:
    some y off A needs e(y) = s0 + 1 + max(0, D(y)) > resolution exactly
    when T = resolution - s0 <= 0 or y is within p^-T of a centre of A.
    Both are counted by union_density, which enumerates no coset."""
    h = RadiusFunction(J.A, J.p)
    T = resolution - h.s0

    def covered(balls) -> int:         # domain cosets the balls cover
        return union_density(balls, domain.center, [domain.rad_exp],
                             resolution).ratios[0][1]

    inside = covered(J.A)
    if not J.A:
        raise PadicError("empty coset union")
    if inside == J.p ** (domain.dim * (resolution - domain.rad_exp)):
        raise PadicError("empty site list")
    if T <= 0 or covered(J.A + tuple(Ball(b.center, T) for b in J.A)) > inside:
        raise PadicError("resolution too coarse for the support radii: "
                         f"a support is finer than resolution {resolution}")
    return WhitneyExtension(J, h, domain, resolution)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WhitneyErrorRow:
    order: int
    samples: int
    observed: Fraction        # max |phi^j g - phi^j P_z| over samples
    bound: Fraction           # decay estimate; must dominate observed
    dominated: bool

    def to_json(self):
        return {"order": self.order, "samples": self.samples,
                "observed": _fr(Fraction(self.observed)),
                "bound": _fr(Fraction(self.bound)),
                "dominated": self.dominated}


#: the least exponent e of a sampled increment t = p^e: verify_whitney's
#: bound holds for |t| <= p^-INCREMENT_EXP, so t_exps stay at or above it
INCREMENT_EXP = 1


def sample_quotient_points(J: JetField, order: int, count: int, rng,
                           t_exps=(INCREMENT_EXP, 2, 3)) -> list:
    """Random (z; v; t) with z a jet representative, |v_i| = 1, |t_i| < 1."""
    p = J.p
    m = J.m
    reps = J.reps()
    out = []
    for _ in range(count):
        z = reps[rng.randrange(len(reps))]
        vs = []
        for _ in range(order):
            coords = [rng.randrange(p ** 3) for _ in range(m)]
            coords[rng.randrange(m)] = 1 + p * rng.randrange(p ** 2)
            vs.append(PAdicVector.from_ints(p, coords, prec=WORKING_PREC))
        ts = tuple(PAdicNumber.from_int(p, p ** rng.choice(list(t_exps)),
                                        prec=WORKING_PREC)
                   for _ in range(order))
        out.append(QuotientPoint(z, tuple(vs), ts))
    return out


def verify_whitney(g, J: JetField, samples, cap: int = DEFAULT_CAP) -> list:
    """Per order j <= k: max over the given quotient points of
    |phi^j g - phi^j P_z| (z the point's base), against the decay estimate
    p^j * rho(delta) * |x - z|^(k-j) with delta the largest increment span
    seen.  Rows report exact observed errors and whether the bound holds.
    The moduli share one PairBudget of `cap` pair bounds.
    """
    p = J.p
    budget = PairBudget(cap)
    by_order = {}
    for q in samples:
        by_order.setdefault(q.order, []).append(q)
    rho_cache = {}
    rows = []
    for j in sorted(by_order):
        if j > J.k:
            raise PadicError("sample order exceeds the jet degree k")
        errs = []
        bound = PPow.zero(p)
        for q in by_order[j]:
            z = q.x
            _, polys = J.jet_at(z)
            pz = lambda y: J.evaluate_jet(polys, y)
            err = (phin(g, j, q) - phin(pz, j, q)) if j else (g(z) - pz(z))
            errs.append(err.val)
            acc = z
            for v, t in zip(q.vs, q.ts):
                acc = acc + v.scale(t)
            span = (acc - z).val
            if span is None:
                continue
            if span not in rho_cache:
                rho_cache[span] = jet_compat_modulus(J, span, budget)
            # p^j * rho * |span|^(k-j)
            bound = max(bound, PPow(p, j - span * (J.k - j)) * rho_cache[span])
        observed = PPow.from_val(p, min(
            (v for v in errs if v is not None), default=None)).as_fraction()
        bound = bound.as_fraction()
        rows.append(WhitneyErrorRow(order=j, samples=len(by_order[j]),
                                    observed=observed, bound=bound,
                                    dominated=observed <= bound
                                    or observed == 0))
    return rows
