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
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .funcs import SymbolicFunction, reach, taylor_shift
from .padic import (
    DEFAULT_PREC,
    Ball,
    PAdicNumber,
    PAdicVector,
    PadicError,
    PairTable,
    ScaledBound,
    _agrees_below,
    _make,
    _vp,
    json_int,
    json_object,
    json_pairs,
    literal_rows,
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


def _check_power(p: int, e: int, cap: int, what: str = "cosets",
                 times: int = 1) -> None:
    """_check_cap(times * p^e, cap, what), comparing exponents first: as
    p^e >= 2^e, an e past the cap's bit length is over the cap."""
    if e > cap.bit_length() or times * p ** e > cap:
        raise ResourceCapExceeded(f"{_power_text(p, e, times)} {what} exceed "
                                  f"the cap of {cap}; raise the cap or coarsen")


def _power_text(p: int, e: int, times: int = 1) -> str:
    """times * p^e in digits wherever Python prints an int that long
    (sys.get_int_max_str_digits, 4300 unless set), and as p^e past that."""
    if e * math.log10(p) + math.log10(times) <= \
            (sys.get_int_max_str_digits() or 4300):
        try:
            return str(times * p ** e)
        except ValueError:
            pass
    return f"{p}^{e}" if times == 1 else f"{times}*{p}^{e}"


def enumerate_cosets(b: Ball, resolution: int, cap: int = DEFAULT_CAP) -> list:
    """All canonical representatives of radius-p^(-resolution) cosets of b,
    in deterministic (digit-lexicographic, coordinate-nested) order: the
    first coordinate varies slowest, and within a coordinate the offset
    digit at p^rad_exp varies slowest (see coset_levels)."""
    if resolution < b.rad_exp:
        raise PadicError("resolution must be at least the ball's rad_exp")
    p, m, k = b.p, b.dim, b.rad_exp
    _check_power(p, (resolution - k) * m, cap)

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
    return list(map(PAdicVector._of, itertools.product(*columns)))


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
    Grids derived by with_values share reps, the index and the family
    column, the JSON rows of reps (see to_json); evaluate builds the
    index of a grid that from_callable tabulates on first use."""

    __slots__ = ("domain", "resolution", "dims", "reps", "values", "_index",
                 "_rep_rows")

    def __init__(self, domain: Ball, resolution: int, pairs):
        _check_grid_domain(domain, resolution)
        self._tabulate(domain, resolution, pairs, True)

    def _tabulate(self, domain: Ball, resolution: int, pairs,
                  checked: bool) -> None:
        """The table on a domain that _check_grid_domain accepts.
        Checked, pairs are (representative, value) pairs, each
        representative is known to the resolution and alone in its coset,
        and the coset-key index is built here.  Unchecked, pairs is the
        list of representatives of enumerate_cosets(domain, resolution),
        which are, and the list of their values, whose dimension is
        checked once per distinct value object; the index is built on the
        first evaluate."""
        self.domain = domain
        self.resolution = resolution
        index, n = {}, None
        if checked:
            reps, values = [], []
            for rep, value in pairs:
                if not isinstance(value, PAdicVector):
                    value = PAdicVector([value])
                if n is None:
                    n = value.dim
                elif value.dim != n:
                    raise PadicError(
                        "inconsistent value dimension in grid table")
                if any(c.abs_window() < resolution for c in rep.coords):
                    raise PadicError(
                        f"grid representative {rep!r} is known to fewer "
                        f"than {resolution} digits")
                key = coset_key(rep, resolution)
                if key in index:
                    raise PadicError("duplicate coset in grid table")
                index[key] = len(reps)
                reps.append(rep)
                values.append(value)
        else:
            reps, values = pairs
            distinct = dict(zip(map(id, values), values))
            wrapped = False
            for key, value in distinct.items():
                if not isinstance(value, PAdicVector):
                    value = distinct[key] = PAdicVector([value])
                    wrapped = True
                if n is None:
                    n = value.dim
                elif value.dim != n:
                    raise PadicError(
                        "inconsistent value dimension in grid table")
            if wrapped:
                values = list(map(distinct.__getitem__, map(id, values)))
        e = (resolution - domain.rad_exp) * domain.dim
        if e > len(reps).bit_length() or len(reps) != domain.p ** e:
            raise PadicError(f"grid table has {len(reps)} entries, expected "
                             f"{_power_text(domain.p, e)}")
        self.dims = (domain.dim, n)
        self.reps = reps
        self.values = values
        self._index = index
        self._rep_rows = None

    @property
    def p(self) -> int:
        return self.domain.p

    @classmethod
    def from_callable(cls, domain: Ball, resolution: int, fn,
                      cap: int = DEFAULT_CAP) -> "GridFunction":
        """fn tabulated on enumerate_cosets(domain, resolution).  fn is
        called once per class of representatives that it cannot tell
        apart, at the class's first representative in order, and every
        member shares that value object: a class is an indicator
        signature (see _signatures), or one representative."""
        reps = enumerate_cosets(domain, resolution, cap=cap)
        _check_grid_domain(domain, resolution)
        classes = _signatures(fn, domain, reps)
        if classes is None:
            values = [fn(r) for r in reps]
        else:
            # the first representative of each class, and fn there in the
            # order of the classes' first members
            firsts = dict(zip(reversed(classes), reversed(reps)))
            kept = {key: fn(firsts[key]) for key in dict.fromkeys(classes)}
            values = list(map(kept.__getitem__, classes))
        g = object.__new__(cls)
        g._tabulate(domain, resolution, (reps, values), False)
        return g

    def with_values(self, values) -> "GridFunction":
        """The function on the same grid with values[i] on the coset of
        reps[i]: the grid and its index are shared, not checked again.
        The two grids are then of one family, and share its column."""
        if self._rep_rows is None:
            self._rep_rows = []
        g = object.__new__(type(self))
        g.domain, g.resolution, g.reps, g._index, g._rep_rows = \
            self.domain, self.resolution, self.reps, self._index, \
            self._rep_rows
        g.values = list(values)
        g.dims = (self.domain.dim, g.values[0].dim)
        return g

    def evaluate(self, x: PAdicVector) -> PAdicVector:
        if not self._index:     # a tabulated grid's, shared by with_values
            self._index.update((coset_key(r, self.resolution), i)
                               for i, r in enumerate(self.reps))
        try:
            return self.values[self._index[coset_key(x, self.resolution)]]
        except KeyError:
            raise PadicError("point is outside the grid domain") from None

    def scalar_values(self) -> list:
        """values[i][0] for each i: a scalar grid's value on the coset of
        reps[i]."""
        return [v.coords[0] for v in self.values]

    def scalar(self, x: PAdicVector) -> PAdicNumber:
        v = self.evaluate(x)
        if v.dim != 1:
            raise PadicError("scalar access on a vector-valued grid function")
        return v[0]

    def to_json(self):
        """The grid's JSON, its table a PairTable of [representative,
        value] rows.  The grids of one family (see with_values) give their
        tables the family column, the representatives' rows, made on the
        family's first to_json; a lone grid's table has no column, and its
        rows are made for this call.  Each distinct value object's JSON is
        made once per call."""
        rows = self._rep_rows
        if not rows:
            # enumerate_cosets shares coordinate objects among the reps:
            # each distinct one is formatted once
            made = literal_rows(self.reps)
            if rows is None:
                rows = made
            else:
                rows.extend(made)
        values = self.values
        texts = dict(zip(map(id, values), values))
        for key, value in texts.items():
            texts[key] = value.to_json()
        table = PairTable(map(list, zip(rows, map(texts.__getitem__,
                                                  map(id, values)))),
                          self._rep_rows)
        return {"domain": self.domain.to_json(),
                "resolution": self.resolution,
                "dims": list(self.dims),
                "table": table}

    @classmethod
    def from_json(cls, obj) -> "GridFunction":
        obj = json_object(obj, "grid function")
        domain = Ball.from_json(obj["domain"])
        literals = {}       # each distinct literal text is parsed once
        pairs = [(PAdicVector.from_json(r, literals),
                  PAdicVector.from_json(v, literals))
                 for r, v in json_pairs(obj["table"], "grid table entries")]
        for rep, _ in pairs:
            if not domain.contains(rep):
                raise PadicError(f"grid representative {rep!r} lies outside "
                                 f"the domain")
        return cls(domain, json_int(obj["resolution"], "grid resolution"),
                   pairs)


def _check_grid_domain(domain: Ball, resolution: int) -> None:
    """Refuse a grid domain whose coset count or membership test is not
    exact: a resolution below the ball's rad_exp, or a centre known to
    fewer than rad_exp digits."""
    if resolution < domain.rad_exp:
        raise PadicError("resolution must be at least the ball's rad_exp")
    # a centre known to rad_exp digits makes domain.contains exact for
    # representatives known to resolution >= rad_exp digits
    if any(c.abs_window() < domain.rad_exp for c in domain.center.coords):
        raise PadicError(
            f"domain centre {domain.center!r} is known to fewer than "
            f"{domain.rad_exp} digits")


def _signatures(fn, domain: Ball, reps) -> list | None:
    """The indicator signature of each representative, when fn is a
    SymbolicFunction of domain's (p, m) that reads the point only through
    ch balls of that prime and dimension: bit b is set iff the
    representative lies in ball b (ball_masks), so fn's value (or error)
    is the same at representatives of one signature.  None for any other
    fn."""
    balls = fn.balls() if isinstance(fn, SymbolicFunction) else None
    p, m = domain.p, domain.dim
    if balls is None or (fn.p, fn.m) != (p, m) or any(
            (ch.ball.p, ch.ball.dim) != (p, m) for ch in balls):
        return None
    return ball_masks([ch.ball for ch in balls], reps)


def ball_masks(balls, points) -> list:
    """Per point, the mask whose bit b is set iff the point lies in
    balls[b], all of one Q_p^m with the points.

    A point lies in a ball iff each coordinate agrees with the centre's
    below the radius, the test Ball.contains and ChBall.eval_triple make,
    so the mask is the AND of one mask per coordinate object; points
    often share those objects (enumerate_cosets, and readers with a
    literal memo) and keep them alive, so each distinct one is tested
    once, keyed by its id, and the masks of the coordinates are ANDed
    column by column."""
    if not points:
        return []
    p = points[0].p
    signatures = None
    for i, column in enumerate(zip(*[x.coords for x in points])):
        masks = dict(zip(map(id, column), column))
        for key, c in masks.items():
            mask = 0
            for b, ball in enumerate(balls):
                e = ball.center.coords[i]
                if _agrees_below(p, c.val, c.unit, c.prec,
                                 e.val, e.unit, e.prec, ball.rad_exp):
                    mask |= 1 << b
            masks[key] = mask
        column = list(map(masks.__getitem__, map(id, column)))
        signatures = column if signatures is None else \
            list(map(operator.and_, signatures, column))
    return signatures


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
    contract, as with set_measure); `cap` bounds that one enumeration, and
    is checked before anything is allocated.
    """
    js, res = density_levels(j_range, resolution)
    _check_power(x.p, x.dim * (res - js[0]), cap)
    b = Ball(x, js[0])
    levels = coset_levels(b, res)
    hits = Counter(L for L, z in zip(levels, enumerate_cosets(b, res, cap=cap))
                   if indicator(z))
    return level_estimate(x.p, x.dim, js, res, hits)


# ---------------------------------------------------------------------------
# counting on the coset tree
# ---------------------------------------------------------------------------

def _rep(p: int, s: int, res: int, Y) -> PAdicVector:
    """The canonical representative enumerate_cosets makes for the
    resolution-res coset of the point p^s*Y (Y integers)."""
    window = res + DEFAULT_PREC
    return PAdicVector(_make(p, s, a % p ** (res - s), window) for a in Y)


def _shapes(balls, s: int) -> list:
    """Per ball, its centre as integers times p^s and, per coordinate, the
    level below which Ball.contains reads z - c: the least of k and the
    centre's window (a point past the resolution is known further)."""
    return [(_scaled(b.center, s),
             [min(b.rad_exp, c.abs_window()) for c in b.center.coords])
            for b in balls]


def _relation(p: int, s: int, Y, L: int, shape):
    """1 where the ball of `shape` covers the level-L coset about p^s*Y,
    0 where it misses it, None where it splits it (the ultrametric
    trichotomy).  Below the resolution the digits the coset fixes decide
    it: the ball takes in every z with val(z_i - c_i) >= its level."""
    C, taus = shape
    for a, c, t in zip(Y, C, taus):
        if a != c and s + _vp(a - c, p) < min(t, L):
            return 0
    return 1 if all(t <= L for t in taus) else None


def _descend(p: int, m: int, s: int, res: int, X, j0: int, decide,
             cap: int | None = None, spent: int = 0) -> tuple:
    """(hits, visits): hits[L] counts the resolution-res cosets of
    B(x, p^-j0), x = p^s*X, in a set that leave x at level L (as
    coset_levels), counted on the coset tree; visits is `spent` plus the
    cosets visited, and a visit past `cap` raises ResourceCapExceeded.

    decide(Y, L, shell) counts the set's cosets in the level-L coset about
    p^s*Y, or returns None to descend to its p^m children.  shell None is a
    coset holding x, where only 0 or all of its cosets can be counted;
    otherwise every z of the coset has val(z - x) = shell.  At L = res it
    must count the one coset."""
    hits = Counter()
    visits = spent
    full = p ** m

    def visit(Y, L, shell):
        nonlocal visits
        visits += 1
        if cap is not None and visits > cap:
            _check_cap(visits, cap, "coset visits")
        return decide(Y, L, shell)

    def below(Y, L, shell):
        c = visit(Y, L, shell)
        if c is None:
            step = p ** (L - s)
            for ds in itertools.product(range(p), repeat=m):
                below([a + d * step for a, d in zip(Y, ds)], L + 1, shell)
        else:
            hits[shell] += c

    for L in range(j0, res + 1):
        c = visit(X, L, None)
        if c is not None:
            if c:
                for k in range(L, res):
                    hits[k] += (full - 1) * full ** (res - k - 1)
                hits[res] += 1
            break
        step = p ** (L - s)
        for ds in itertools.product(range(p), repeat=m):
            if any(ds):
                below([a + d * step for a, d in zip(X, ds)], L + 1, L)
    return hits, visits


def union_density(balls, x: PAdicVector, j_range,
                  resolution: int | None = None) -> DensityEstimate:
    """density_at(lambda z: any(b.contains(z) for b in balls), x, ...),
    counted on the coset tree instead of by enumeration (_descend).

    A coset that some ball covers counts all its cosets at once, one that
    every ball misses counts 0, and only one that a ball splits descends
    to its p^m children (_relation).  Ball.contains(z) reads z - c at the
    shorter window of z and c, and is True where that difference vanishes
    there; below the resolution the representatives' windows reach past
    the coset's digits.  A coset at the resolution that a ball still
    splits is its canonical representative's, tested with contains as
    enumeration would.  Nothing is enumerated, so nothing is capped.
    """
    js, res = density_levels(j_range, resolution)
    p, m = x.p, x.dim
    for b in balls:
        if b.dim != m:
            raise PadicError("dimension mismatch")
        if b.p != p:
            raise PadicError(f"prime mismatch: {p} vs {b.p}")
    s = min([_least_val(x, js[0])]
            + [_least_val(b.center, js[0]) for b in balls])
    shapes = _shapes(balls, s)

    def decide(Y, L: int, shell):
        split = False
        for shape in shapes:
            r = _relation(p, s, Y, L, shape)
            if r:
                return p ** (m * (res - L))
            split = split or r is None
        if not split:
            return 0
        if L == res:
            z = _rep(p, s, res, Y)
            return int(any(b.contains(z) for b in balls))
        return None

    hits, _ = _descend(p, m, s, res, _scaled(x, s), js[0], decide)
    return level_estimate(p, m, js, res, hits)


def _integer_form(p: int, s: int, terms) -> tuple:
    """(G, D): the integers with P(p^s*Y) = sum_b G[b] Y^b / D, for the
    polynomial P with Fraction coefficients `terms`: one denominator D."""
    scaled = {b: c * Fraction(p) ** (s * sum(b)) for b, c in terms.items()}
    D = math.lcm(*[c.denominator for c in scaled.values()])
    return {b: int(c * D) for b, c in scaled.items()}, D


def _less(form, other) -> tuple:
    """(row, lcm): form minus other, two integer tables (G, D) over one
    denominator each, brought to their least common denominator."""
    (G, D), (G0, D0) = form, other
    lcm = math.lcm(D, D0)
    row = {b: g * (lcm // D) for b, g in G.items()}
    for b, g in G0.items():
        row[b] = row.get(b, 0) - g * (lcm // D0)
    return row, lcm


class _Pieces:
    """The set of z near x = p^s*X where some polynomial P_r has
    v(P_r(z)) < c, decided coset by coset (Schikhof, Ultrametric Calculus,
    1984; Denef, Invent. Math. 1984).  Each P_r is given by its Taylor
    coefficients at x as integers (_Forms.taylor, the one Taylor shift
    over one denominator): P_r(x + p^s*H) = sum_b G_b H^b / D.

    On a coset z in a + p^L*Z_p^m, write P_r(a + p^L*u) = sum_a b_a u^a.
    If every v(b_a) >= c, no z of the coset is in for P_r; if v(b_0) < c
    and v(b_0) < v(b_a) for every a != 0, every z is in.  A coset is in
    the set when some P_r puts every z in, and out of it when no P_r puts
    any in; otherwise the rule leaves it open.  b_0 = P_r(a) is one
    evaluation, and for a != 0, v(b_a) >= mu + (L - shell) with mu the
    least v(g_b) + shell*|b| over b != 0, where val(a - x) >= shell; the
    same shift of G to H (_shifted_low) is made only where these bounds
    leave the rule open, and then decides as the rule does."""

    __slots__ = ("p", "s", "rows")

    def __init__(self, p: int, s: int, rows):
        self.p, self.s = p, s
        self.rows = []
        for G, D in rows:
            vD = _vp(D, p)
            items = {b: g for b, g in G.items() if g}
            w0 = next((_vp(g, p) - vD for b, g in items.items()
                       if not any(b)), math.inf)
            rest = [(sum(b), _vp(g, p) - vD) for b, g in items.items()
                    if any(b)]
            self.rows.append((items, vD, w0, rest))

    def at_x(self, L: int, c) -> bool | None:
        """The rule on the coset B(x, p^-L), where b_a = g_a p^(L|a|)."""
        k, out = L - self.s, True
        for _, _, w0, rest in self.rows:
            low = min([w + k * n for n, w in rest], default=math.inf)
            if w0 < c and w0 < low:
                return True
            out = out and w0 >= c and low >= c
        return False if out else None

    def off_x(self, H, L: int, shell: int, c) -> bool | None:
        """The rule on the level-L coset about x + p^s*H, at val(p^s*H) =
        shell < L."""
        p, s, out = self.p, self.s, True
        for items, vD, _, rest in self.rows:
            b0 = 0
            for b, g in items.items():
                for h, e in zip(H, b):
                    if e:
                        g *= h ** e
                b0 += g
            v0 = _vp(b0, p) - vD if b0 else math.inf
            low = min([w + (shell - s) * n for n, w in rest],
                      default=math.inf) + L - shell
            if not (v0 < c and v0 < low or v0 >= c and low >= c):
                low = _shifted_low(p, items, H, L - s) - vD
            if v0 < c and v0 < low:
                return True
            out = out and v0 >= c and low >= c
        return False if out else None


def _shifted_low(p: int, items: dict, H, k: int):
    """The least v(b_a D) over a != 0 of the polynomial sum_b G_b
    (H + p^k*u)^b in u: b_a = p^(k|a|) c_a, c the Taylor shift of the
    integer table G = items to H."""
    return min([k * sum(a) + _vp(c, p)
                for a, c in taylor_shift(items, H).items() if c and any(a)],
               default=math.inf)


class _Forms:
    """f's local normal forms on the cosets about p^s*Y: a coset that every
    indicator ball covers or misses (_relation) has one polynomial per
    component, read at its representative and kept by the pattern of
    balls.  The form's denominator is the constant 1 wherever reach()
    bounds f."""

    __slots__ = ("f", "p", "s", "res", "shapes", "_polys", "_ints")

    def __init__(self, f, balls, s: int, res: int):
        self.f, self.p, self.s, self.res = f, f.p, s, res
        self.shapes = _shapes(balls, s)
        self._polys = {}
        self._ints = {}         # id(q) -> (q, its _integer_form)

    def key(self, Y, L: int):
        """The pattern of the coset, None where a ball splits it."""
        key = []
        for shape in self.shapes:
            r = _relation(self.p, self.s, Y, L, shape)
            if r is None:
                return None
            key.append(r)
        return tuple(key)

    def polys(self, key, Y) -> list:
        if key not in self._polys:
            self.keep(key, [num for num, _ in self.f.local_form(
                _rep(self.p, self.s, self.res, Y))])
        return self._polys[key]

    def keep(self, key, polys) -> None:
        """The polynomials of pattern key, read at a point of it."""
        self._polys.setdefault(key, polys)

    def taylor(self, q, X) -> tuple:
        """(G, D) with q(p^s*(X + H)) = sum_b G[b] H^b / D, X integers: q
        is brought to integers (_integer_form) once per polynomial object,
        which every point of a pattern shares, and shifted per point."""
        if id(q) not in self._ints:
            self._ints[id(q)] = q, _integer_form(self.p, self.s, q.terms)
        G, D = self._ints[id(q)][1]
        return taylor_shift(G, X), D


def descent_forms(f, x: PAdicVector, j0: int, res: int, t, wins=None):
    """The _Forms for counting a valuation set of f on B(x, p^-j0) by
    descent, with f known past t: None where reach() cannot bound f
    there, a bound falls short of t, or an indicator's centre is known to
    fewer digits than its radius.  Coordinate i has valuation at least
    min(j0, val(x_i)) on the ball, and the points f is read at are known
    to the representatives' window res + DEFAULT_PREC, or to wins[i] if
    shorter."""
    if not isinstance(f, SymbolicFunction) or (f.p, f.m) != (x.p, x.dim):
        return None
    found = reach(f, [j0 if c.val is None else min(j0, c.val)
                      for c in x.coords],
                  [min(res + DEFAULT_PREC, w) for w in wins or
                   [math.inf] * x.dim])
    if found is None:
        return None
    bounds, balls = found
    if any(A < t for _, A in bounds) or any(
            b.dim != x.dim or b.p != x.p
            or any(c.abs_window() < b.rad_exp for c in b.center.coords)
            for b in balls):
        return None
    s = min([_least_val(x, j0)] + [_least_val(b.center, j0) for b in balls])
    return _Forms(f, balls, s, res)


def ap_limit(f, x: PAdicVector, candidate, eps: Fraction, j_range,
             resolution: int | None = None, cap: int = DEFAULT_CAP):
    """Approximate limit test: with W = {|value - candidate| <= eps}, the set
    f^-1(W) must have full density at x, i.e. its complement density 0.

    Returns (verdict, DensityEstimate) with verdict in
    {'confirmed', 'refuted', 'inconclusive'}.  f may be a GridFunction or any
    callable on PAdicVector.  A negative eps is refused.

    For a SymbolicFunction with eps > 0 whose windows reach() bounds past
    the tolerance level F, the outside set {v(f(z) - candidate) < F} is
    counted by descent (_Pieces on _descend); the representatives at the
    resolution that the rule leaves open are tested as enumeration would.
    Otherwise density_at enumerates.  On both routes `cap` bounds the
    p^(m*(res - j)) cosets of the coarsest ball.
    """
    if isinstance(candidate, PAdicNumber):
        candidate = PAdicVector([candidate])
    if Fraction(eps) < 0:
        raise PadicError("the tolerance eps must be >= 0")
    tolerance = ScaledBound(x.p, eps)
    F = tolerance.F
    if isinstance(f, GridFunction):
        fn = f.evaluate
        if resolution is None:
            resolution = max(f.resolution, max(j_range))
    else:
        fn = f

    def outside(z):
        return not tolerance.holds((fn(z) - candidate).val)

    js, res = density_levels(j_range, resolution)
    forms = None if F is None else descent_forms(f, x, js[0], res, F)
    if forms is None or (candidate.p, candidate.dim) != (x.p, f.n) or \
            any(c.abs_window() < F for c in candidate.coords):
        est = density_at(outside, x, js, resolution=res, cap=cap)
    else:
        p, m, s = x.p, x.dim, forms.s
        _check_power(p, m * (res - js[0]), cap)
        X, zero = _scaled(x, s), (0,) * m
        target = [({zero: c.numerator}, c.denominator)
                  for c in (c.as_fraction() for c in candidate.coords)]
        pieces = {}

        def decide(Y, L: int, shell):
            key = forms.key(Y, L)
            if key is not None:
                if key not in pieces:
                    pieces[key] = _Pieces(p, s, [
                        _less(forms.taylor(q, X), c)
                        for q, c in zip(forms.polys(key, Y), target)])
                rule = pieces[key]
                inside = rule.at_x(L, F) if shell is None else \
                    rule.off_x([a - b for a, b in zip(Y, X)], L, shell, F)
                if inside is not None:
                    return p ** (m * (res - L)) if inside else 0
            return int(outside(_rep(p, s, res, Y))) if L == res else None

        hits, _ = _descend(p, m, s, res, X, js[0], decide)
        est = level_estimate(p, m, js, res, hits)
    verdict = {"converges-to-0": "confirmed",
               "converges-to-1": "refuted"}.get(est.verdict, "inconclusive")
    return verdict, est


# ---------------------------------------------------------------------------
# indicator-series decomposition of a step function
# ---------------------------------------------------------------------------

def _net_depth(ys, p: int, val_floor: int) -> int:
    """Largest d such that every net value p^val_floor * u, u < p^d, occurs in ys."""
    # a nonzero rational p^val * unit with p not dividing unit is named
    # by (val, unit)
    have = {(y.val, y.unit) for y in ys if not y.is_zero()}

    def name(u):
        t = _vp(u, p)
        return val_floor + t, u // p ** t
    d = 0
    while all(name(u) in have for u in range(p**d, p ** (d + 1))):
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

    Cosets that share a value object share its residuals and its terms:
    each is computed once per class of cosets with one value object, keyed
    by the object's id, while f holds the object.
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

    scalars = f.scalar_values()
    classes = list(map(id, scalars))
    residual = dict(zip(classes, scalars))      # class -> its residual
    for r in residual.values():
        if not r.is_zero() and r.val < val_floor:
            raise PadicError(
                f"dense sequence too shallow: a value of norm p^{-r.val} needs "
                f"val_floor <= {r.val}, got {val_floor}")

    # each class is consumed by exactly one net value: the truncation of its
    # residual at the net's absolute depth (its ≺-floor), a nonzero value of
    # the complete net, so a member of ys, named by its (val, unit)
    cut = val_floor + depth
    groups = {}
    for key, r in residual.items():
        t = truncate(r, cut)
        if not t.is_zero():
            groups.setdefault((t.val, t.unit), []).append(key)

    one = PAdicVector([PAdicNumber.from_int(p, 1)])
    zero = PAdicVector([PAdicNumber.zero(p)])
    terms = []
    for y in ys:
        if y.is_zero():
            continue
        members = groups.get((y.val, y.unit))
        if not members:
            continue
        inside = dict.fromkeys(residual, zero)
        for key in members:
            residual[key] = residual[key] - y
            inside[key] = one
        terms.append((y, f.with_values(map(inside.__getitem__, classes))))

    for r in residual.values():
        if not r.is_zero() and r.val < tol_exp:
            raise PadicError("internal: decomposition left residual above tolerance")
    return terms


def decompose_default_ys(p: int, val_floor: int, depth: int) -> list:
    """The canonical ys for decompose_series: the dense sequence through the
    complete depth-`depth` net (p^depth members)."""
    return vdp_dense_sequence(p, val_floor, p**depth)
