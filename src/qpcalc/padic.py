"""Exact arithmetic in Q_p and Q_p^m: canonical digit representatives with explicit
precision windows, norms and valuations, the van der Put linear ordering, dense
sequence generation, balls, the exact power-of-p magnitude type of reported
bounds, and the one test |u| <= C*|w|^r of Hölder arithmetic on valuations.

A value is stored as the canonical representative

    p^val * (d0 + d1*p + ... + d_{N-1}*p^(N-1)),    d0 != 0,

together with the window N = number of known digits; the value is known modulo
p^(val+N).  Arithmetic combines representatives exactly (they are rationals with
p-power denominators) and then truncates to the pessimistically propagated
window.  Zero is a single sentinel with +infinity valuation and an empty digit
list; a combination that vanishes modulo its propagated window collapses to this
sentinel, and dividing by it raises.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction


#: the digits given to a value known exactly: by a constructor called
#: without a window, to a coerced int or Fraction, and to an enumerated
#: coset representative past its resolution
DEFAULT_PREC = 12
#: the working window of the command line (its --prec default), of parsed
#: expressions and of Whitney jets and gauges
WORKING_PREC = 24

# Miller-Rabin with these bases is exact for every n < 3.317e24
# (Sorenson and Webster, 2015); larger p are rejected, not guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_PRIMES = set()           # primes certified so far: one test per prime


class PadicError(ValueError):
    """Invalid p-adic operation (prime mismatch, malformed literal, ...)."""


class PrecisionZeroDivision(PadicError, ZeroDivisionError):
    """Division by a value indistinguishable from zero at the current precision."""


def _check_prime(p: int) -> None:
    if p in _PRIMES:
        return
    if p >= _MR_LIMIT:
        raise PadicError(f"{p} is too large to certify as a prime")
    if p < 2 or not _is_prime(p):
        raise PadicError(f"{p} is not a prime")
    _PRIMES.add(p)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < _MR_LIMIT."""
    if n in _MR_BASES:
        return True
    if any(n % q == 0 for q in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_val(q: Fraction, p: int):
    """p-adic valuation of a rational; None for 0."""
    if q == 0:
        return None
    return _vp(q.numerator, p) - _vp(q.denominator, p)


def _floor_level(q: Fraction, p: int) -> int:
    """Least L with p^(-L) <= q, for a rational q > 0: a value of
    valuation v has norm at most q exactly when v >= L."""
    n, d = q.numerator, q.denominator
    # L = ceil(log_p(d/n)), and d/n lies within a factor 2 of
    # 2^(bits(d) - bits(n)): estimate from the bit lengths, then correct
    # by a step or two with the exact test
    #   p^-L <= n/d  <=>  d * p^max(-L, 0) <= n * p^max(L, 0)
    L = math.ceil((d.bit_length() - n.bit_length()) / math.log2(p))
    while d * p ** max(-L, 0) > n * p ** max(L, 0):
        L += 1
    while d * p ** max(1 - L, 0) <= n * p ** max(L - 1, 0):
        L -= 1
    return L


class PAdicNumber:
    """A canonical p-adic representative with an explicit precision window.

    Immutable by convention; all operations return new values.  `==` is
    bit-exact (same prime, valuation, digits AND window); class equality at the
    shared window is what vdp_compare reports as EQUAL.
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val, unit: int, prec: int):
        # Raw constructor: arguments must already be canonical.  Use the
        # classmethods / module functions for anything else.
        self.p = p
        self.val = val          # int, or None for the zero sentinel
        self.unit = unit        # 0 <= unit < p**prec, unit % p != 0 unless zero
        self.prec = prec        # number of known digits (0 for zero)

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PAdicNumber":
        return cls(p, None, 0, 0)

    @classmethod
    def from_int(cls, p: int, n: int, prec: int | None = None) -> "PAdicNumber":
        _check_prime(p)
        N = DEFAULT_PREC if prec is None else prec
        if n == 0:
            return cls.zero(p)
        v = _vp(n, p)
        return _make(p, v, n // p**v, v + N)

    @classmethod
    def from_fraction(cls, p: int, q: Fraction, prec: int | None = None) -> "PAdicNumber":
        _check_prime(p)
        N = DEFAULT_PREC if prec is None else prec
        q = Fraction(q)
        if q == 0:
            return cls.zero(p)
        a, b = q.numerator, q.denominator
        va, vb = _vp(a, p), _vp(b, p)
        v = va - vb
        a //= p**va
        b //= p**vb
        unit = a * pow(b, -1, p**N) % p**N
        return _make(p, v, unit, v + N)

    # -- predicates / accessors --------------------------------------------

    def is_zero(self) -> bool:
        return self.val is None

    def digits(self) -> tuple:
        """Known digits (d0, d1, ...), exactly `prec` of them; () for zero."""
        out, u, p = [], self.unit, self.p
        for _ in range(self.prec):
            u, d = divmod(u, p)
            out.append(d)
        return tuple(out)

    def norm(self) -> Fraction:
        """|x| = p^(-val); exactly 0 for the zero sentinel.  No verb reads
        it: acceptance criterion 1 checks the ultrametric inequality and
        multiplicativity of |x| through it."""
        return self.norm_pow().as_fraction()

    def norm_pow(self) -> "PPow":
        """|x| as the exact magnitude type."""
        return PPow.from_val(self.p, self.val)

    def as_fraction(self) -> Fraction:
        """The exact rational value of the canonical representative."""
        if self.val is None:
            return Fraction(0)
        return Fraction(self.p) ** self.val * self.unit

    def abs_window(self):
        """Absolute exponent up to which digits are known: the digits at
        p^i for i below it.  The exact zero is known to every digit, so its
        window is math.inf.  Outside this module's arithmetic and
        membership rules, every window is read here, or by _abs_window
        from a (val, unit, prec) triple."""
        if self.val is None:
            return math.inf
        return self.val + self.prec

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "PAdicNumber":
        if isinstance(other, PAdicNumber):
            if other.p != self.p:
                raise PadicError(f"prime mismatch: {self.p} vs {other.p}")
            return other
        if isinstance(other, int):
            return PAdicNumber.from_int(self.p, other, prec=max(self.prec, DEFAULT_PREC))
        if isinstance(other, Fraction):
            return PAdicNumber.from_fraction(self.p, other, prec=max(self.prec, DEFAULT_PREC))
        return NotImplemented

    def __add__(self, other):
        b = other if type(other) is PAdicNumber and other.p == self.p \
            else self._coerce(other)
        return b if b is NotImplemented else _combine(self, b, 1)

    __radd__ = __add__

    def __sub__(self, other):
        b = other if type(other) is PAdicNumber and other.p == self.p \
            else self._coerce(other)
        return b if b is NotImplemented else _combine(self, b, -1)

    def __rsub__(self, other):
        b = self._coerce(other)
        return b if b is NotImplemented else _combine(b, self, -1)

    def __neg__(self):
        if self.val is None:
            return self
        v, u, n = _negated(self.p, self.val, self.unit, self.prec)
        return PAdicNumber(self.p, v, u, n)

    def __mul__(self, other):
        b = other if type(other) is PAdicNumber and other.p == self.p \
            else self._coerce(other)
        if b is NotImplemented:
            return b
        v, u, n = _product(self.p, self.val, self.unit, self.prec,
                           b.val, b.unit, b.prec)
        return PAdicNumber(self.p, v, u, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = other if type(other) is PAdicNumber and other.p == self.p \
            else self._coerce(other)
        if b is NotImplemented:
            return b
        if b.val is None:
            raise PrecisionZeroDivision(
                "division by a value indistinguishable from zero at the current precision")
        if self.val is None:
            return self
        v, u, n = _quotient(self.p, self.val, self.unit, self.prec,
                            b.val, b.unit, b.prec)
        return PAdicNumber(self.p, v, u, n)

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return b
        return b / self

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, PAdicNumber) and self.p == other.p
                and self.val == other.val and self.unit == other.unit
                and self.prec == other.prec)

    def __hash__(self):
        return hash((self.p, self.val, self.unit, self.prec))

    def __repr__(self):
        return f"PAdicNumber({self.format_literal()!r})"

    # -- text / JSON ---------------------------------------------------------

    def format_literal(self) -> str:
        p = self.p
        if self.val is None:
            return f"0@{p}"
        if p > _TEXT_BOUND:
            ds = ",".join(map(str, self.digits()))
        else:
            # k digits per divmod, their text read from the table
            P, k, texts = _digit_texts(p)
            u, out = self.unit, []
            for _ in range(self.prec // k):
                u, c = divmod(u, P)
                out.append(texts[c])
            short = self.prec % k
            if short:       # u < p^short: drop the k - short digits ",0"
                out.append(texts[u][:2 * (short - k)])
            ds = ",".join(out)
        return f"{ds}e{self.val}@{p}"

    def to_json(self):
        return {"p": self.p, "val": self.val, "digits": list(self.digits())}


# Digit text is read from a table only for p <= _TEXT_BOUND, whose chunks
# have p^k <= _TEXT_BOUND: 54 tables of at most 256 strings.  A table for
# every accepted prime (up to 3.3e24) would be unbounded.
_TEXT_BOUND = 256
_DIGIT_TEXTS = {}         # p -> _digit_texts(p)


def _digit_texts(p: int) -> tuple:
    """(P, k, texts) with P = p^k <= _TEXT_BOUND for the largest such k,
    and texts[c] the k base-p digits of c < P, least first, comma-joined."""
    table = _DIGIT_TEXTS.get(p)
    if table is None:
        k = 1
        while p ** (k + 1) <= _TEXT_BOUND:
            k += 1
        texts = [""]
        for _ in range(k):      # one more digit, the most significant
            texts = [f"{t},{d}" if t else str(d)
                     for d in range(p) for t in texts]
        table = _DIGIT_TEXTS[p] = (p ** k, k, texts)
    return table


# -- the window rules --------------------------------------------------------
#
# Each rule maps the (val, unit, prec) fields of its operands to those of
# the result, with (None, 0, 0) the zero sentinel.  The operators above,
# the expression walk of qpcalc.funcs and the quotient and identity walks of
# qpcalc.quotients all compute through them, so a window is propagated the
# same way whichever builds the value.

_ZERO = (None, 0, 0)


def _abs_window(c: tuple):
    """PAdicNumber.abs_window of the value whose triple is c."""
    v, _, n = c
    return math.inf if v is None else v + n


def _canon(p: int, val: int, raw: int, abs_window: int) -> tuple:
    """p^val * raw truncated to the digits below abs_window, canonical: the
    zero sentinel when none of them is nonzero."""
    n = abs_window - val
    if n <= 0:
        return _ZERO
    raw %= p**n
    if raw == 0:
        return _ZERO
    while raw % p == 0:
        raw //= p
        val += 1
        n -= 1
    return val, raw, n


def _sum(p: int, av, au: int, an: int, bv, bu: int, bn: int,
         sign: int) -> tuple:
    """a + sign*b, sign = +-1: known up to the shorter absolute window."""
    if bv is None:
        return av, au, an
    if av is None:
        return (bv, bu, bn) if sign > 0 else _negated(p, bv, bu, bn)
    wa, wb = av + an, bv + bn
    w = wa if wa < wb else wb
    if av <= bv:
        return _canon(p, av, au + sign * bu * p ** (bv - av), w)
    return _canon(p, bv, au * p ** (av - bv) + sign * bu, w)


def _negated(p: int, v, u: int, n: int) -> tuple:
    """-a: the same valuation and window, the complementary unit."""
    return _ZERO if v is None else (v, p**n - u, n)


def _product(p: int, av, au: int, an: int, bv, bu: int, bn: int) -> tuple:
    """a * b: known to the shorter relative window."""
    if av is None or bv is None:
        return _ZERO
    n = an if an < bn else bn
    return av + bv, au * bu % p**n, n


def _quotient(p: int, av, au: int, an: int, bv, bu: int, bn: int) -> tuple:
    """a / b for a nonzero b: the shorter relative window, the unit times
    the inverse of b's modulo p to that window."""
    if av is None:
        return _ZERO
    n = an if an < bn else bn
    m = p**n
    return av - bv, au * pow(bu, -1, m) % m, n


def _combine(a: PAdicNumber, b: PAdicNumber, sign: int) -> PAdicNumber:
    """a + sign*b, sign = +-1, in one step: for -1 the digits and window
    of a + (-b)."""
    if b.val is None:
        return a
    if a.val is None:
        return b if sign > 0 else -b
    v, u, n = _sum(a.p, a.val, a.unit, a.prec, b.val, b.unit, b.prec, sign)
    return PAdicNumber(a.p, v, u, n)


def _make(p: int, val: int, raw: int, abs_window: int) -> PAdicNumber:
    """Canonicalize p^val * raw truncated to digits below abs_window."""
    v, u, n = _canon(p, val, raw, abs_window)
    return PAdicNumber(p, v, u, n)


def truncate(x: PAdicNumber, abs_exp: int) -> PAdicNumber:
    """Keep only the digits at positions < abs_exp (coset representative)."""
    if x.val is None or x.val >= abs_exp:
        return PAdicNumber.zero(x.p)
    return _make(x.p, x.val, x.unit, min(x.val + x.prec, abs_exp))


# -- literals ---------------------------------------------------------------

_LITERAL_RE = re.compile(r"^(\d+(?:,\d+)*)e(-?\d+)@(\d+)$")
_ZERO_RE = re.compile(r"^0@(\d+)$")


def parse_literal(s: str) -> PAdicNumber:
    """Parse `d0,d1,...eV@p` (value p^V*(d0+d1*p+...)); `0@p` is zero."""
    s = s.strip()
    m = _ZERO_RE.match(s)
    if m:
        p = int(m.group(1))
        _check_prime(p)
        return PAdicNumber.zero(p)
    m = _LITERAL_RE.match(s)
    if not m:
        raise PadicError(f"malformed p-adic literal: {s!r}")
    ds, val, p = m.groups()
    val, p = int(val), int(p)
    _check_prime(p)
    n = ds.count(",") + 1
    unit = None
    if len(ds) == 2 * n - 1 and p <= 36:
        # one character per digit: the digits, most significant first, are
        # the base-p text of the unit (int() reads every digit \d matches)
        try:
            unit = int(ds[::-2], p)
        except ValueError:      # a digit >= p, or past int's length limit
            pass
    if unit is None:
        digits = [int(d) for d in ds.split(",")]
        if max(digits) >= p:
            raise PadicError(f"digit out of range for p={p} in literal {s!r}")
        unit = _unit(p, digits)
    if unit % p:        # d0 != 0 and unit < p^n: already canonical
        return PAdicNumber(p, val, unit, n)
    return _make(p, val, unit, val + n)


def from_json(obj) -> PAdicNumber:
    """Decode the to_json form; reject anything it does not write."""
    try:
        p, val, digits = obj["p"], obj["val"], obj["digits"]
    except (KeyError, TypeError):
        raise PadicError(f"malformed p-adic JSON number: {obj!r}") from None
    if type(p) is not int or type(digits) is not list \
            or not {*map(type, digits)} <= {int} \
            or (val is not None and type(val) is not int):
        raise PadicError(f"non-integer entry in p-adic JSON number: {obj!r}")
    _check_prime(p)
    if val is None:
        if digits:
            raise PadicError(f"zero carries digits in {obj!r}")
        return PAdicNumber.zero(p)
    if not digits:
        raise PadicError(f"nonzero p-adic JSON number without digits: {obj!r}")
    if min(digits) < 0 or max(digits) >= p:
        raise PadicError(f"digit out of range for p={p} in {obj!r}")
    return _make(p, val, _unit(p, digits), val + len(digits))


def _unit(p: int, digits) -> int:
    """d0 + d1*p + d2*p^2 + ..., folded from the last digit."""
    unit = 0
    for d in reversed(digits):
        unit = unit * p + d
    return unit


# -- van der Put ordering ---------------------------------------------------

class Order(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def vdp_compare_full(x: PAdicNumber, y: PAdicNumber):
    """(Order, precision_limited): compare digit expansions from the lowest
    index over the shared window; EQUAL with flag=True means the values agree
    on every digit both windows cover but one window extends further."""
    if x.p != y.p:
        raise PadicError(f"prime mismatch: {x.p} vs {y.p}")
    p = x.p
    if x.val is None or y.val is None:
        if x.val is None and y.val is None:
            return Order.EQUAL, False
        if x.val is None:
            return Order.LESS, False     # zero's digits are all 0; y leads with d0 > 0
        return Order.GREATER, False
    wx = x.val + x.prec
    wy = y.val + y.prec
    w = wx if wx < wy else wy
    base = x.val if x.val < y.val else y.val
    xs = x.unit * p ** (x.val - base)
    ys = y.unit * p ** (y.val - base)
    if wx > w:
        xs %= p ** (w - base)
    if wy > w:
        ys %= p ** (w - base)
    if xs == ys:
        return Order.EQUAL, wx != wy
    d = xs - ys
    k = _vp(d, p)
    dx = (xs // p**k) % p
    dy = (ys // p**k) % p
    return (Order.LESS if dx < dy else Order.GREATER), False


def vdp_compare(x: PAdicNumber, y: PAdicNumber) -> Order:
    return vdp_compare_full(x, y)[0]


def vdp_dense_sequence(p: int, val_floor: int, count: int) -> list:
    """Deterministic two-sided ≺-dense enumeration: 0, then for each depth d
    the values p^val_floor * u for u in [p^(d-1), p^d) in increasing u order.
    The prefix of length p^d is the complete net {p^val_floor*u : u < p^d}."""
    _check_prime(p)
    if count < 1:
        raise PadicError("count must be >= 1")
    out = [PAdicNumber.zero(p)]
    d = 1
    while len(out) < count:
        prec = max(DEFAULT_PREC, d)
        for u in range(p ** (d - 1), p**d):
            t = _vp(u, p)
            out.append(PAdicNumber(p, val_floor + t, u // p**t, prec))
            if len(out) == count:
                return out
        d += 1
    return out


# -- vectors -----------------------------------------------------------------

class PAdicVector:
    """A point of Q_p^m under the sup-norm.  Immutable by convention."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise PadicError("empty coordinate list")
        p = coords[0].p
        if any(c.p != p for c in coords):
            raise PadicError("mixed primes in one vector")
        self.coords = coords

    @classmethod
    def _of(cls, coords: tuple) -> "PAdicVector":
        """The vector of coordinates built by PAdicNumber arithmetic, which
        already refuses a prime mismatch: nothing is checked again."""
        x = object.__new__(cls)
        x.coords = coords
        return x

    @property
    def p(self) -> int:
        return self.coords[0].p

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other):
        self._same_shape(other)
        return PAdicVector._of(tuple([a + b for a, b in
                                      zip(self.coords, other.coords)]))

    def __sub__(self, other):
        self._same_shape(other)
        return PAdicVector._of(tuple([a - b for a, b in
                                      zip(self.coords, other.coords)]))

    def __neg__(self):
        return PAdicVector._of(tuple([-a for a in self.coords]))

    def scale(self, c: PAdicNumber) -> "PAdicVector":
        return PAdicVector._of(tuple([c * a for a in self.coords]))

    def _same_shape(self, other):
        if not isinstance(other, PAdicVector) or other.dim != self.dim:
            raise PadicError("dimension mismatch")

    @property
    def val(self):
        """The least coordinate valuation, so |x| = p^(-val); None for the
        zero vector."""
        vals = [c.val for c in self.coords if c.val is not None]
        return min(vals) if vals else None

    def norm_pow(self) -> "PPow":
        """|x| as the exact magnitude type."""
        return PPow.from_val(self.p, self.val)

    def sup_norm(self) -> Fraction:
        return self.norm_pow().as_fraction()

    def __eq__(self, other):
        return isinstance(other, PAdicVector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "PAdicVector[" + ", ".join(c.format_literal() for c in self.coords) + "]"

    def to_json(self):
        return [c.format_literal() for c in self.coords]

    @classmethod
    def from_json(cls, arr, literals: dict | None = None) -> "PAdicVector":
        """The vector of a list of literal texts.  literals, when given, is
        one document's memo of the texts read so far: a text read before
        shares its number, so each distinct text is parsed once."""
        if type(arr) is not list or {*map(type, arr)} != {str}:
            raise PadicError(f"a p-adic JSON vector is a non-empty list of "
                             f"literal strings, got {arr!r}")
        if literals is None:
            coords = tuple([parse_literal(s) for s in arr])
        else:
            coords = tuple([c if (c := literals.get(s)) is not None
                            else literals.setdefault(s, parse_literal(s))
                            for s in arr])
        p = coords[0].p
        for c in coords:
            if c.p != p:
                raise PadicError("mixed primes in one vector")
        return cls._of(coords)

    @classmethod
    def from_ints(cls, p: int, ns, prec: int | None = None) -> "PAdicVector":
        return cls(PAdicNumber.from_int(p, n, prec=prec) for n in ns)

    @classmethod
    def zero(cls, p: int, m: int) -> "PAdicVector":
        return cls(PAdicNumber.zero(p) for _ in range(m))


# -- balls -------------------------------------------------------------------

def _agree_below(x: PAdicVector, y: PAdicVector, k: int) -> bool:
    """Whether x - y is the zero sentinel or has valuation >= k, decided
    from the digits below k without building the difference."""
    xs = x.coords
    if not isinstance(y, PAdicVector) or len(xs) != len(y.coords):
        raise PadicError("dimension mismatch")
    p = xs[0].p
    if y.coords[0].p != p:
        raise PadicError(f"prime mismatch: {p} vs {y.coords[0].p}")
    return _triples_agree_below(p, _triples(x), _triples(y), k)


def _triples(x: PAdicVector) -> tuple:
    """The (val, unit, prec) triple of each coordinate of x."""
    return tuple([(c.val, c.unit, c.prec) for c in x.coords])


def _triples_agree_below(p: int, xs, ys, k: int) -> bool:
    """_agree_below on the (val, unit, prec) triples of two points of one
    dimension."""
    for (av, au, an), (bv, bu, bn) in zip(xs, ys):
        if not _agrees_below(p, av, au, an, bv, bu, bn, k):
            return False
    return True


def _agrees_below(p: int, av, au: int, an: int, bv, bu: int, bn: int,
                  k: int) -> bool:
    """Whether a - b is the zero sentinel or has valuation >= k.

    With v the lesser valuation, the difference that _sum would build is
    p^v * s truncated below the shorter absolute window w, s = a.unit *
    p^(a.val - v) - b.unit * p^(b.val - v); it passes iff p^(min(k, w) - v)
    divides s.  A zero coordinate leaves the other one's valuation, which
    passes iff it is at least k."""
    if bv is None:
        return av is None or av >= k
    if av is None:
        return bv >= k
    v = av if av < bv else bv
    n = min(k, av + an, bv + bn) - v
    return n <= 0 or not (au * p ** (av - v) - bu * p ** (bv - v)) % p ** n


@dataclass(frozen=True)
class Ball:
    """Closed ball B(center, p^(-rad_exp)) in Q_p^m (clopen; any member is a center)."""
    center: PAdicVector
    rad_exp: int

    @property
    def p(self) -> int:
        return self.center.p

    @property
    def dim(self) -> int:
        return self.center.dim

    def contains(self, x: PAdicVector) -> bool:
        return _agree_below(x, self.center, self.rad_exp)

    def to_json(self):
        return {"center": self.center.to_json(), "rad_exp": self.rad_exp}

    @classmethod
    def from_json(cls, obj) -> "Ball":
        obj = json_object(obj, "ball")
        return cls(PAdicVector.from_json(obj["center"]),
                   json_int(obj["rad_exp"], "ball's rad_exp"))


# -- exact power-of-p magnitudes ---------------------------------------------

class PPow:
    """Exact magnitude p^exp with exp rational (or zero): the value lattice of
    |x|^r terms in Hölder arithmetic.  No floating point anywhere."""

    __slots__ = ("p", "exp")

    def __init__(self, p: int, exp):
        self.p = p
        self.exp = None if exp is None else Fraction(exp)   # None = the zero magnitude

    @classmethod
    def zero(cls, p: int) -> "PPow":
        return cls(p, None)

    @classmethod
    def from_val(cls, p: int, val) -> "PPow":
        """p^(-val), the norm of a value of valuation val (None: zero)."""
        return cls.zero(p) if val is None else cls(p, -val)

    @classmethod
    def from_norm(cls, p: int, q: Fraction) -> "PPow":
        """Lift a norm value (a power of p, or 0) into the exact type."""
        q = Fraction(q)
        e = rational_val(q, p)
        if e is None:
            return cls.zero(p)
        if (Fraction(p) ** e) != q:
            raise PadicError(f"{q} is not a power of {p}")
        return cls(p, e)

    def is_zero(self) -> bool:
        return self.exp is None

    def __mul__(self, other: "PPow") -> "PPow":
        if self.exp is None or other.exp is None:
            return PPow.zero(self.p)
        return PPow(self.p, self.exp + other.exp)

    def __truediv__(self, other: "PPow") -> "PPow":
        if other.exp is None:
            raise ZeroDivisionError("division by zero magnitude")
        if self.exp is None:
            return self
        return PPow(self.p, self.exp - other.exp)

    def pow_frac(self, r) -> "PPow":
        if self.exp is None:
            return self
        return PPow(self.p, self.exp * Fraction(r))

    def _cmp_key(self):
        return (0,) if self.exp is None else (1, self.exp)

    def __eq__(self, other):
        return isinstance(other, PPow) and self.p == other.p and self.exp == other.exp

    def __hash__(self):
        return hash((self.p, self.exp))

    def __lt__(self, other):
        return self._cmp_key() < other._cmp_key()

    def __le__(self, other):
        return self._cmp_key() <= other._cmp_key()

    def __gt__(self, other):
        return other < self

    def as_fraction(self) -> Fraction:
        """Exact rational value; only for integral exponents."""
        if self.exp is None:
            return Fraction(0)
        if self.exp.denominator != 1:
            raise PadicError(f"p^{self.exp} is irrational; use ceil_fraction()")
        return Fraction(self.p) ** int(self.exp)

    def ceil_fraction(self) -> Fraction:
        """Smallest integral power of p dominating the value: p^ceil(exp)."""
        if self.exp is None:
            return Fraction(0)
        e = -((-self.exp.numerator) // self.exp.denominator)   # ceil
        return Fraction(self.p) ** e

    def __repr__(self):
        return "PPow(0)" if self.exp is None else f"PPow({self.p}^{self.exp})"

    def to_json(self):
        if self.exp is None:
            return {"zero": True}
        return {"p": self.p, "exp": [self.exp.numerator, self.exp.denominator],
                "upper_bound": frac_str(self.ceil_fraction())}


class ScaledBound:
    """The ultrametric bound |u| <= C * |w|^r for a rational C >= 0 and
    r = a/d, decided on valuations: with |u| = p^-val(u), |w| = p^-val(w)
    it holds exactly when d*val(u) - a*val(w) >= F, F the least level with
    p^-F <= C^d (Schikhof, Ultrametric Calculus, 1984).  F is found once;
    every test after that is one integer comparison.  A valuation of None
    is the zero value: u = 0 always passes, and against w = 0 or C = 0
    nothing else does."""

    __slots__ = ("a", "d", "F")

    def __init__(self, p: int, C, r=1):
        C, r = Fraction(C), Fraction(r)
        if C < 0:
            raise PadicError("negative scale in magnitude comparison")
        self.a, self.d = r.numerator, r.denominator
        self.F = _floor_level(C ** self.d, p) if C else None

    def least(self, w_val=0):
        """The least val(u) that passes against val(w) = w_val: the ceiling
        of (F + a*w_val)/d.  None when only u = 0 passes."""
        if self.F is None or w_val is None:
            return None
        return -((-self.F - self.a * w_val) // self.d)

    def holds(self, u_val, w_val=0) -> bool:
        """|u| <= C * |w|^r for val(u) = u_val and val(w) = w_val."""
        return u_val is None or (self.F is not None and w_val is not None
                                 and self.d * u_val - self.a * w_val >= self.F)


# -- rationals in reports and input files ----------------------------------

_FRAC_RE = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")


def frac_str(q: Fraction) -> str:
    """The canonical text of a rational: "n", or "n/d" when d > 1."""
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 \
        else str(q.numerator)


def parse_frac(s) -> Fraction:
    """Read a rational written "n" or "n/d" with d > 0; reject anything
    else, numbers and booleans included."""
    if not isinstance(s, str) or not _FRAC_RE.fullmatch(s):
        raise PadicError(f"malformed rational {s!r}: expected n or n/d")
    a, _, b = s.partition("/")
    return Fraction(int(a), int(b or 1))


def holder_exponent(r) -> Fraction:
    """r as a Fraction, refused unless it lies in (0, 1]."""
    r = Fraction(r)
    if not 0 < r <= 1:
        raise PadicError("Hölder exponent must lie in (0, 1]")
    return r


def json_object(obj, what: str) -> dict:
    """obj, when it is a JSON object; PadicError otherwise."""
    if type(obj) is not dict:
        raise PadicError(f"a {what} is a JSON object, not a "
                         f"{type(obj).__name__}")
    return obj


def json_int(obj, what: str) -> int:
    """obj, when it is a JSON integer (not a boolean); PadicError
    otherwise."""
    if type(obj) is not int:
        raise PadicError(f"a {what} is a JSON integer, not {obj!r}")
    return obj


def json_list(obj, what: str) -> list:
    """obj, when it is a JSON list; PadicError otherwise."""
    if type(obj) is not list:
        raise PadicError(f"a {what} is a JSON list, not {obj!r}")
    return obj


class PairTable(list):
    """A list of [a, b] rows, a a list of strings and b either a list of
    strings (a grid table, as GridFunction.to_json gives it) or any JSON
    value (a jet table, as JetField.to_json gives it).  To json.dumps and
    every reader it is a list; the report writer (cli._write_json)
    recognises the type and writes the rows without walking each one, and
    a b that is not a list of strings once per object.

    column is None, or the list that holds the a of every row in row
    order (rows[i][0] is column[i]): the family column, which the tables
    of the grids GridFunction.with_values derives from one grid share.
    The writer encodes a family column once per report and indent."""
    __slots__ = ("column",)

    def __init__(self, rows=(), column=None):
        super().__init__(rows)
        self.column = column


def literal_rows(points) -> list:
    """[c.format_literal() for c in x.coords] for each point x, each
    distinct coordinate object formatted once, so points that share a
    coordinate object share its text."""
    texts, rows = {}, []
    for x in points:
        row = []
        for c in x.coords:
            text = texts.get(id(c))
            if text is None:
                text = texts[id(c)] = c.format_literal()
            row.append(text)
        rows.append(row)
    return rows


def json_pairs(obj, what: str) -> list:
    """obj, when it is a JSON list of two-element lists; PadicError
    otherwise.  A PairTable is accepted too: decoded JSON never holds
    one, so decoded input is judged as before."""
    if type(obj) is not list and type(obj) is not PairTable \
            or any(type(e) is not list or len(e) != 2 for e in obj):
        raise PadicError(f"{what} are a JSON list of [a, b] pairs")
    return obj
