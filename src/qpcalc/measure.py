"""Haar measure on Q_p^m at desk scale: exact measures of balls and spheres,
exhaustive coset enumeration, grid (step) functions, densities of sets at
points, approximate limits, and the van-der-Put-net decomposition of a step
function into indicator series.

Everything is exact: measures are Fractions obtained by counting cosets, and
no ratio is ever extrapolated — verdicts about limits are three-valued and
honest about finite resolution.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .padic import (
    DEFAULT_PREC,
    Ball,
    PAdicNumber,
    PAdicVector,
    PadicError,
    ScaledBound,
    _make,
    _vp,
    json_int,
    json_object,
    json_pairs,
    truncate,
    vdp_dense_sequence,
)

DEFAULT_CAP = 10**7


class ResourceCapExceeded(RuntimeError):
    """An enumeration would exceed the configured coset cap."""


def sphere_measure(p: int, l: int) -> Fraction:
    """mu{x in Q_p : |x| = p^(-l)} = p^(-l) - p^(-l-1)."""
    return Fraction(p) ** (-l) - Fraction(p) ** (-l - 1)


def coset_key(x: PAdicVector, resolution: int):
    """Hashable identity of the radius-p^(-resolution) coset containing x:
    per coordinate, the (val, unit) of its truncation at `resolution`,
    read off the canonical digits without building the truncation (a
    unit below p^prec needs no cut at its window)."""
    key = []
    for c in x.coords:
        v = c.val
        key.append((None, 0) if v is None or v >= resolution
                   else (v, c.unit % c.p ** (resolution - v)))
    return tuple(key)


def nearest_index(points, x: PAdicVector):
    """(i, d): the index i of the first of `points` at the least sup-distance
    from x, and the difference d = x - points[i]."""
    best = best_v = None
    for i, y in enumerate(points):
        d = x - y
        v = d.val
        if best is None or best_v is not None and (v is None or v > best_v):
            best, best_v = (i, d), v
    return best


def gap_val(vectors):
    """Valuation of the largest difference a - b over a, b in `vectors`, as
    the PAdicNumber subtraction observes it; None when every one vanishes.

    Each coordinate is compared against the member with the widest window
    there: if a - b is observed at valuation v, then v < both windows, and
    by the ultrametric inequality a or b differs from that member at
    valuation <= v, which its own window lets the subtraction see.
    """
    best = None
    for col in zip(*(v.coords for v in vectors)):
        ref = max(col, key=PAdicNumber.abs_window)
        for c in col:
            d = (c - ref).val
            if d is not None and (best is None or d < best):
                best = d
    return best


def first_gaps(values, members, children, G: int, budget: int) -> list:
    """The first `budget` pairs (i, j), in (i, j) order, of members lying in
    different `children` whose values differ at a valuation <= G, as the
    PAdicNumber subtraction observes it.

    Members whose windows reach past G in every coordinate ("long") differ
    so iff their truncations at G + 1 differ, so suffix counts by child and
    by truncation tell which i has such a long partner; pairs with a
    shorter member are compared one by one.  The cost is O(|members|) per
    pair reported and per short member."""
    child = {i: k for k, group in enumerate(children) for i in group}
    cls = {i: coset_key(values[i], G + 1) for i in members
           if all(c.abs_window() > G for c in values[i])}
    later, total = {}, 0
    by_child, by_cls, by_both = Counter(), Counter(), Counter()
    for i in reversed(members):
        if i in cls:
            c, k = child[i], cls[i]
            later[i] = total - by_child[c] - by_cls[k] + by_both[c, k]
            total += 1
            by_child[c] += 1
            by_cls[k] += 1
            by_both[c, k] += 1
    short = [i for i in members if i not in cls]
    out = []
    for a, i in enumerate(members):
        for j in short if later.get(i) == 0 else members[a + 1:]:
            if len(out) >= budget:
                return out
            if j <= i or child[j] == child[i]:
                continue
            if i in cls and j in cls:
                hit = cls[i] != cls[j]
            else:
                v = gap_val([values[i], values[j]])
                hit = v is not None and v <= G
            if hit:
                out.append((i, j))
    return out


class CosetTree:
    """Point indices grouped by coset, level by level: the ball tree of a
    finite subset of Q_p^m (Schikhof, Ultrametric Calculus, 1984).

    Levels run from lo = min(0, lowest coordinate valuation), where all
    points share one coset, down to hi = the shortest coordinate window
    (lo when every coordinate is an exact zero).
    Up to hi coset keys are exact, so two points in different children of
    a level-L coset (L < hi) are at observed distance exactly p^-L.  Points
    still sharing a level-hi coset form a leaf: their distance is left to
    pairwise subtraction.
    Refinement stops once every coset holds a single point.

    levels: [(L, groups)], groups a list of member tuples in index order,
      holding every coset whose parent had two or more members;
    splits: [(L, members, children)] for every level-L coset (L < hi) whose
      members fall into two or more level-(L+1) cosets.
    """

    __slots__ = ("points", "lo", "hi", "levels", "splits", "_where",
                 "_keyed")

    def __init__(self, points):
        self.points = points = list(points)
        coords = [c for x in points for c in x.coords if not c.is_zero()]
        self.lo = min([0] + [c.val for c in coords])
        self.hi = max(self.lo, min((c.abs_window() for c in coords),
                                   default=self.lo))
        groups = [tuple(range(len(points)))]
        self.levels = [(self.lo, groups)]
        self.splits = []
        for L in range(self.lo, self.hi):
            nxt = []
            for members in groups:
                if len(members) < 2:
                    continue
                by_key = {}
                for i in members:
                    by_key.setdefault(coset_key(points[i], L + 1), []).append(i)
                children = [tuple(g) for g in by_key.values()]
                if len(children) > 1:
                    self.splits.append((L, members, children))
                nxt.extend(children)
            if not nxt:
                break
            groups = nxt
            self.levels.append((L + 1, groups))
        self._where = None
        self._keyed = {}        # level -> {coset key: members}, on demand

    def leaves(self) -> list:
        """Member tuples of the level-hi cosets holding two or more points."""
        L, groups = self.levels[-1]
        return [g for g in groups if len(g) > 1] if L == self.hi else []

    def ball(self, i: int, L: int) -> tuple:
        """Members within p^-L of point i, in index order.  Past hi the keys
        no longer decide: there the members of i's leaf are kept whose
        difference from it, as the subtraction observes it, has valuation
        >= L."""
        if self._where is None:
            self._where = [{j: g for g in groups for j in g}
                           for _, groups in self.levels]
        d = max(L - self.lo, 0)
        if d < len(self._where):
            return self._where[d].get(i, (i,))
        x = self.points[i]
        return tuple(j for j in self._where[-1].get(i, (i,))
                     if j == i or (v := (x - self.points[j]).val) is None
                     or v >= L)

    def locate(self, x: PAdicVector, hi: int) -> list:
        """The groups a point x, in the tree or not, falls into:
        [(L, members)], members the points sharing x's level-L coset in
        index order, from level lo (or the coarser level where hi or a
        window ends) down to the deepest level <= hi at which there are
        any.  Keys give the subtraction's distances only as far as the
        windows of x and of the points reach, so the walk stops there too,
        and at the tree's hi, where a tree of exact zeros ends."""
        limit = min(hi, self.hi, *(c.abs_window() for c in x.coords))
        path = []
        for L in range(min(self.lo, limit), limit + 1):
            if L not in self._keyed:
                self._keyed[L] = {coset_key(y, L): self.ball(i, L)
                                  for i, y in enumerate(self.points)}
            members = self._keyed[L].get(coset_key(x, L))
            if members is None:
                break
            path.append((L, members))
        return path

    def nearest(self, x: PAdicVector, hi: int) -> int:
        """nearest_index(self.points, x)[0], the first point nearest x: the
        first of the deepest group x shares (Schikhof, Ultrametric
        Calculus, 1984), as the other points split from x above, where the
        keys are exact.  A group the walk leaves at the windows or hi is
        compared by subtraction.  An x that shares no coset with the points
        differs from all of them at one valuation, below the windows, so
        the first is nearest."""
        path = self.locate(x, hi)
        if not path:
            return 0
        L, members = path[-1]
        if len(members) > 1 and \
                L == min(hi, self.hi, *(c.abs_window() for c in x.coords)):
            k, _ = nearest_index([self.points[i] for i in members], x)
            return members[k]
        return members[0]


def _check_cap(count: int, cap: int, what: str = "cosets") -> None:
    if count > cap:
        raise ResourceCapExceeded(
            f"{count} {what} exceed the cap of {cap}; raise the cap or coarsen")


def enumerate_cosets(b: Ball, resolution: int, cap: int = DEFAULT_CAP) -> list:
    """All canonical representatives of radius-p^(-resolution) cosets of b,
    in deterministic (digit-lexicographic, coordinate-nested) order: the
    first coordinate varies slowest, and within a coordinate the offset
    digit at p^rad_exp varies slowest (see coset_levels)."""
    if resolution < b.rad_exp:
        raise PadicError("resolution must be at least the ball's rad_exp")
    p, m, k = b.p, b.dim, b.rad_exp
    _check_cap(p ** ((resolution - k) * m), cap)

    # representatives are exact points, so they carry the window of an
    # exact value past the resolution; the coset identity itself lives in
    # coset_key (truncation to `resolution`).
    # Every coordinate is p^v times an integer, v the least valuation of the
    # ball: the representative is that integer mod p^(resolution - v).
    v = _least_val(b.center, k)
    mod, window = p ** (resolution - v), resolution + DEFAULT_PREC
    offsets = [sum(d * p ** (k - v + i) for i, d in enumerate(digits))
               for digits in itertools.product(range(p), repeat=resolution - k)]
    columns = []
    for base in _scaled(b.center, v):
        columns.append([_make(p, v, (base + off) % mod, window)
                        for off in offsets])
    return [PAdicVector(coords) for coords in itertools.product(*columns)]


def _least_val(x: PAdicVector, floor: int) -> int:
    return min([floor] + [c.val for c in x.coords if not c.is_zero()])


def _scaled(x: PAdicVector, v: int) -> list:
    """The coordinates of x as integers times p^v (v <= every valuation)."""
    return [0 if c.is_zero() else c.unit * c.p ** (c.val - v)
            for c in x.coords]


def coset_levels(b: Ball, resolution: int) -> list:
    """levels[n]: the level at which the n-th coset of
    enumerate_cosets(b, resolution) leaves the coset of the centre, that
    is min(resolution, the valuation of its offset from the centre); so the
    cosets of B(centre, p^-j) are those with level >= j.

    Read from the enumeration digits, not by subtracting points: within a
    coordinate, coset t has offset digits d_0..d_(n-1) at p^k..p^(k+n-1)
    (k = rad_exp, n = resolution - k) with t = sum d_i p^(n-1-i), so the
    cosets sharing the first i digits of the centre's coset (t = 0) form a
    block of p^(n-i) consecutive numbers."""
    p, k = b.p, b.rad_exp
    n = resolution - k
    col = [0] * p ** n
    for i in range(n + 1):              # coarse blocks first, finer ones over
        col[:p ** (n - i)] = [k + i] * p ** (n - i)
    return [min(ls) for ls in itertools.product(*[col] * b.dim)]


class GridFunction:
    """A function constant on radius-p^(-resolution) cosets of a domain ball,
    tabulated on canonical representatives.  Values live in Q_p^n.

    values[i] is the value on the coset of reps[i]; the coset-key index is
    read only by evaluate(x), for points that are not representatives.
    Grids derived by with_values share reps, the index and the JSON rows
    of reps, which to_json builds on first use."""

    __slots__ = ("domain", "resolution", "dims", "reps", "values", "_index",
                 "_rep_rows")

    def __init__(self, domain: Ball, resolution: int, pairs):
        # a centre known to rad_exp digits makes domain.contains exact for
        # representatives known to resolution >= rad_exp digits
        if any(c.abs_window() < domain.rad_exp
               for c in domain.center.coords):
            raise PadicError(
                f"domain centre {domain.center!r} is known to fewer than "
                f"{domain.rad_exp} digits")
        self.domain = domain
        self.resolution = resolution
        reps, values, index = [], [], {}
        n = None
        for rep, value in pairs:
            if not isinstance(value, PAdicVector):
                value = PAdicVector([value])
            if n is None:
                n = value.dim
            elif value.dim != n:
                raise PadicError("inconsistent value dimension in grid table")
            if any(c.abs_window() < resolution for c in rep.coords):
                raise PadicError(
                    f"grid representative {rep!r} is known to fewer than "
                    f"{resolution} digits")
            key = coset_key(rep, resolution)
            if key in index:
                raise PadicError("duplicate coset in grid table")
            index[key] = len(reps)
            reps.append(rep)
            values.append(value)
        expected = domain.p ** ((resolution - domain.rad_exp) * domain.dim)
        if len(reps) != expected:
            raise PadicError(
                f"grid table has {len(reps)} entries, expected {expected}")
        self.dims = (domain.dim, n)
        self.reps = reps
        self.values = values
        self._index = index
        self._rep_rows = []

    @property
    def p(self) -> int:
        return self.domain.p

    @classmethod
    def from_callable(cls, domain: Ball, resolution: int, fn,
                      cap: int = DEFAULT_CAP) -> "GridFunction":
        reps = enumerate_cosets(domain, resolution, cap=cap)
        return cls(domain, resolution, ((r, fn(r)) for r in reps))

    def with_values(self, values) -> "GridFunction":
        """The function on the same grid with values[i] on the coset of
        reps[i]: the grid and its index are shared, not checked again."""
        g = object.__new__(type(self))
        g.domain, g.resolution, g.reps, g._index, g._rep_rows = \
            self.domain, self.resolution, self.reps, self._index, \
            self._rep_rows
        g.values = list(values)
        g.dims = (self.domain.dim, g.values[0].dim)
        return g

    def evaluate(self, x: PAdicVector) -> PAdicVector:
        try:
            return self.values[self._index[coset_key(x, self.resolution)]]
        except KeyError:
            raise PadicError("point is outside the grid domain") from None

    def scalar(self, x: PAdicVector) -> PAdicNumber:
        v = self.evaluate(x)
        if v.dim != 1:
            raise PadicError("scalar access on a vector-valued grid function")
        return v[0]

    def to_json(self):
        rows = self._rep_rows
        if not rows:
            rows.extend(rep.to_json() for rep in self.reps)
        texts = {}          # id of a value object -> its JSON, once per call
        table = []
        for row, value in zip(rows, self.values):
            text = texts.get(id(value))
            if text is None:
                text = texts[id(value)] = value.to_json()
            table.append([row, text])
        return {"domain": self.domain.to_json(),
                "resolution": self.resolution,
                "dims": list(self.dims),
                "table": table}

    @classmethod
    def from_json(cls, obj) -> "GridFunction":
        obj = json_object(obj, "grid function")
        domain = Ball.from_json(obj["domain"])
        pairs = [(PAdicVector.from_json(r), PAdicVector.from_json(v))
                 for r, v in json_pairs(obj["table"], "grid table entries")]
        for rep, _ in pairs:
            if not domain.contains(rep):
                raise PadicError(f"grid representative {rep!r} lies outside "
                                 f"the domain")
        return cls(domain, json_int(obj["resolution"], "grid resolution"),
                   pairs)


def set_measure(indicator, b: Ball, resolution: int, cap: int = DEFAULT_CAP) -> Fraction:
    """(number of satisfying cosets) * p^(-resolution*m).  The indicator must be
    constant on radius-p^(-resolution) cosets; that is the caller's contract."""
    reps = enumerate_cosets(b, resolution, cap=cap)
    count = sum(1 for r in reps if indicator(r))
    return count * Fraction(b.p) ** (-resolution * b.dim)


@dataclass(frozen=True)
class DensityEstimate:
    """Exact density ratios of a set in shrinking balls around a point.

    ratios: list of (j, count, total) — mu(S_j ∩ A)/mu(S_j) = count/total at
    S_j = B(x, p^-j), counted over every radius-p^-res coset of S_j.
    verdict is one of 'converges-to-0' / 'converges-to-1' / 'inconclusive'
    under the decay profile ratio_j <= p^-(j-j0), j0 the coarsest level,
    on the last three resolutions.
    """
    ratios: tuple
    verdict: str
    p: int


#: the levels the decay profile reads: fewer leave every verdict inconclusive
VERDICT_LEVELS = 3


def _verdict(p: int, entries, j0: int) -> str:
    if len(entries) < VERDICT_LEVELS:
        return "inconclusive"
    tail = entries[-VERDICT_LEVELS:]
    def decays(vals):
        return all(v <= Fraction(p) ** (-(j - j0)) for j, v in vals)
    if decays([(j, Fraction(c, t)) for j, c, t in tail]):
        return "converges-to-0"
    if decays([(j, 1 - Fraction(c, t)) for j, c, t in tail]):
        return "converges-to-1"
    return "inconclusive"


def density_levels(j_range, resolution: int | None = None):
    """(js, res): the ball levels in increasing order and the enumeration
    resolution, 2*max(js)+1 by default.  An empty or repeated level, or a
    resolution coarser than the finest ball, is refused: a level counted
    twice would pass for a third level of the decay profile."""
    js = sorted(j_range)
    if not js:
        raise PadicError("empty resolution range")
    for a, b in zip(js, js[1:]):
        if a == b:
            raise PadicError(f"level j={a} is given twice")
    res = resolution if resolution is not None else 2 * js[-1] + 1
    if res < js[-1]:
        raise PadicError("enumeration resolution is coarser than the finest ball")
    return js, res


def level_estimate(p: int, m: int, js, res: int,
                   hits: Counter) -> DensityEstimate:
    """The DensityEstimate of a set of which hits[L] cosets of B(x, p^-js[0])
    leave x at level L (coset_levels): level j counts those with L >= j,
    out of the p^(m*(res-j)) cosets of B(x, p^-j)."""
    return _estimate(p, m, js, res,
                     [sum(c for L, c in hits.items() if L >= j) for j in js])


def _estimate(p: int, m: int, js, res: int, counts) -> DensityEstimate:
    entries = [(j, c, p ** (m * (res - j))) for j, c in zip(js, counts)]
    return DensityEstimate(tuple(entries), _verdict(p, entries, js[0]), p)


def density_at(indicator, x: PAdicVector, j_range, resolution: int | None = None,
               cap: int = DEFAULT_CAP) -> DensityEstimate:
    """Exact density ratios of {indicator} in B(x, p^-j) for j in j_range.

    The balls are nested, so the coarsest is enumerated once, the indicator
    is read once per coset, and each coset counts at every level it has not
    left x by (coset_levels).  The enumeration resolution defaults to
    2*max(j)+1 so that moderately thin sets are still resolved; the
    indicator must be constant on cosets at that resolution (caller's
    contract, as with set_measure); `cap` bounds that one enumeration.
    """
    js, res = density_levels(j_range, resolution)
    b = Ball(x, js[0])
    levels = coset_levels(b, res)
    hits = Counter(L for L, z in zip(levels, enumerate_cosets(b, res, cap=cap))
                   if indicator(z))
    return level_estimate(x.p, x.dim, js, res, hits)


def union_density(balls, x: PAdicVector, j_range,
                  resolution: int | None = None) -> DensityEstimate:
    """density_at(lambda z: any(b.contains(z) for b in balls), x, ...),
    counted on the coset tree instead of by enumeration.

    From each B(x, p^-j), a coset at level L that some ball covers counts
    p^(m*(res-L)) at once, one that every ball misses counts 0, and only
    one that a ball splits descends to its p^m children (the ultrametric
    trichotomy).  Ball.contains(z) reads z - c at the shorter window of z
    and c, and is True where that difference vanishes there; so per
    coordinate a ball takes in every z with val(z_i - c_i) >= the least of
    k, c_i's window and z_i's, which below the resolution is decided by
    the digits the coset fixes.  A coset at the resolution that a ball
    still splits is its canonical representative's, tested with contains
    as enumeration would.  Nothing is enumerated, so nothing is capped.
    """
    js, res = density_levels(j_range, resolution)
    p, m = x.p, x.dim
    for b in balls:
        if b.dim != m:
            raise PadicError("dimension mismatch")
        if b.p != p:
            raise PadicError(f"prime mismatch: {p} vs {b.p}")
    # every point involved is p^s times an integer
    s = min((_least_val(b.center, js[0]) for b in balls), default=js[0])
    s = min(s, _least_val(x, s))
    shapes = [(_scaled(b.center, s),
               [min(b.rad_exp, c.abs_window()) for c in b.center.coords])
              for b in balls]
    window = res + DEFAULT_PREC

    def gap(a: int, c: int):
        return float("inf") if a == c else s + _vp(a - c, p)

    def covered(Y, L: int) -> int:
        split = False
        for C, taus in shapes:
            gaps = [gap(a, c) for a, c in zip(Y, C)]
            if any(g < min(t, L) for g, t in zip(gaps, taus)):
                continue                        # the ball misses this coset
            if all(t <= L for t in taus):
                return p ** (m * (res - L))     # ... or covers it
            split = True
        if not split:
            return 0
        if L == res:
            z = PAdicVector(_make(p, s, a % p ** (res - s), window) for a in Y)
            return int(any(b.contains(z) for b in balls))
        step = p ** (L - s)
        return sum(covered([a + d * step for a, d in zip(Y, ds)], L + 1)
                   for ds in itertools.product(range(p), repeat=m))

    X = _scaled(x, s)
    return _estimate(p, m, js, res, [covered(X, j) for j in js])


def ap_limit(f, x: PAdicVector, candidate, eps: Fraction, j_range,
             resolution: int | None = None, cap: int = DEFAULT_CAP):
    """Approximate limit test: with W = {|value - candidate| <= eps}, the set
    f^-1(W) must have full density at x, i.e. its complement density 0.

    Returns (verdict, DensityEstimate) with verdict in
    {'confirmed', 'refuted', 'inconclusive'}.  f may be a GridFunction or any
    callable on PAdicVector.  A negative eps is refused.
    """
    if isinstance(candidate, PAdicNumber):
        candidate = PAdicVector([candidate])
    if Fraction(eps) < 0:
        raise PadicError("the tolerance eps must be >= 0")
    tolerance = ScaledBound(x.p, eps)
    if isinstance(f, GridFunction):
        fn = f.evaluate
        if resolution is None:
            resolution = max(f.resolution, max(j_range))
    else:
        fn = f

    def outside(z):
        return not tolerance.holds((fn(z) - candidate).val)

    est = density_at(outside, x, j_range, resolution=resolution, cap=cap)
    verdict = {"converges-to-0": "confirmed",
               "converges-to-1": "refuted"}.get(est.verdict, "inconclusive")
    return verdict, est


# ---------------------------------------------------------------------------
# indicator-series decomposition of a step function
# ---------------------------------------------------------------------------

def _net_depth(ys, p: int, val_floor: int) -> int:
    """Largest d such that every net value p^val_floor * u, u < p^d, occurs in ys."""
    have = {y.as_fraction() for y in ys}
    scale = Fraction(p) ** val_floor
    d = 0
    while all(scale * u in have for u in range(p**d, p ** (d + 1))):
        d += 1
    return d


def decompose_series(f: GridFunction, ys, tol_exp: int):
    """Write a scalar GridFunction as Σ y_n * ch_{A_n} with the y_n drawn from
    the dense sequence ys, sup-residual <= p^(-tol_exp).

    One pass over ys in index order at the finest complete net depth D of ys:
    A_n collects the cosets whose current residual truncates at absolute depth
    val_floor+D exactly to y_n (truncation = ≺-floor in the van der Put order,
    so A_n is the order interval [y_n, successor) of the net).  Zero terms are
    skipped; ties are impossible as net values are distinct.

    Returns a list of (y_n, A_n) with A_n an indicator GridFunction.
    """
    if f.dims[1] != 1:
        raise PadicError("decompose_series needs a scalar-valued GridFunction")
    p = f.domain.p
    nonzero = [y for y in ys if not y.is_zero()]
    if not nonzero:
        raise PadicError("ys holds no nonzero values")
    val_floor = min(y.val for y in nonzero)
    depth = _net_depth(ys, p, val_floor)
    need = tol_exp - val_floor
    if need > depth:
        raise PadicError(
            f"dense sequence too shallow: tolerance p^-{tol_exp} needs a complete "
            f"net of depth {need} over val_floor {val_floor} "
            f"({p**need} values), got depth {depth}")

    residual = [v[0] for v in f.values]
    for r in residual:
        if not r.is_zero() and r.val < val_floor:
            raise PadicError(
                f"dense sequence too shallow: a value of norm p^{-r.val} needs "
                f"val_floor <= {r.val}, got {val_floor}")

    # each coset is consumed by exactly one net value: the truncation of its
    # residual at the net's absolute depth (its ≺-floor), a nonzero value of
    # the complete net, so a member of ys.  A nonzero rational p^val * unit
    # with p not dividing unit is named by (val, unit).
    cut = val_floor + depth
    groups = {}
    for i, r in enumerate(residual):
        t = truncate(r, cut)
        if not t.is_zero():
            groups.setdefault((t.val, t.unit), []).append(i)

    one = PAdicVector([PAdicNumber.from_int(p, 1)])
    zero = PAdicVector([PAdicNumber.zero(p)])
    terms = []
    for y in ys:
        if y.is_zero():
            continue
        members = groups.get((y.val, y.unit))
        if not members:
            continue
        indicator = [zero] * len(residual)
        for i in members:
            residual[i] = residual[i] - y
            indicator[i] = one
        terms.append((y, f.with_values(indicator)))

    for r in residual:
        if not r.is_zero() and r.val < tol_exp:
            raise PadicError("internal: decomposition left residual above tolerance")
    return terms


def decompose_default_ys(p: int, val_floor: int, depth: int) -> list:
    """The canonical ys for decompose_series: the dense sequence through the
    complete depth-`depth` net (p^depth members)."""
    return vdp_dense_sequence(p, val_floor, p**depth)
