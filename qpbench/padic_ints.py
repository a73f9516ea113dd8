"""Plain-integer p-adic helpers shared by the input generators and the
output checks.  Nothing here imports qpcalc: the checks must be computed
apart from the program they judge.

A value is written to the program as a digit literal ``d0,d1,...eV@p``
(see ``qpcalc.padic.parse_literal``) padded to a fixed absolute window, so
differences of generated values never lose digits to the window.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

P = 5
WINDOW = 16          # absolute digit window of every generated literal

_LIT = re.compile(r"^(\d+(?:,\d+)*)e(-?\d+)@(\d+)$")
_ZERO = re.compile(r"^0@(\d+)$")


def vp(n: int, p: int = P) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_frac(q: Fraction, p: int = P):
    """p-adic valuation of a rational; None for 0."""
    if q == 0:
        return None
    return vp(q.numerator, p) - vp(q.denominator, p)


def _digits(n: int, p: int) -> list:
    """The WINDOW base-p digits of 0 <= n < p^WINDOW, lowest first."""
    digits = []
    for _ in range(WINDOW):
        n, d = divmod(n, p)
        digits.append(d)
    if n:
        raise ValueError("integer exceeds the literal window")
    return digits


def literal(n: int, val: int = 0, p: int = P) -> str:
    """Literal of p^val * n for 0 <= n < p^WINDOW, padded to the window."""
    if n == 0:
        return f"0@{p}"
    return ",".join(map(str, _digits(n, p))) + f"e{val}@{p}"


def number_json(n: int, val: int = 0, p: int = P) -> dict:
    """``padic.from_json`` form of p^val * n (n a unit or 0)."""
    if n == 0:
        return {"p": p, "val": None, "digits": []}
    return {"p": p, "val": val, "digits": _digits(n, p)}


def number_value(obj: dict) -> Fraction:
    """Exact rational value of a ``padic.to_json`` object."""
    if obj["val"] is None:
        return Fraction(0)
    return sum(d * Fraction(obj["p"]) ** (obj["val"] + i)
               for i, d in enumerate(obj["digits"]))


def parse(lit: str) -> Fraction:
    """Exact rational value of a literal printed by the program."""
    if _ZERO.match(lit):
        return Fraction(0)
    m = _LIT.match(lit)
    if not m:
        raise ValueError(f"not a p-adic literal: {lit!r}")
    p = int(m.group(3))
    unit = sum(int(d) * p ** i for i, d in enumerate(m.group(1).split(",")))
    return Fraction(unit) * Fraction(p) ** int(m.group(2))


def parse_vec(lits) -> tuple:
    return tuple(parse(s) for s in lits)


def frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"


def ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def ball_points(m: int, K: int, center=None, k: int = 0) -> list:
    """Integer representatives of the radius-p^-K cosets of ball(center; k)."""
    center = center or (0,) * m
    return list(itertools.product(*[[c + P ** k * j
                                     for j in range(P ** (K - k))]
                                    for c in center]))


def ball_literal(center, k: int) -> str:
    return "ball(" + ",".join(map(str, center)) + f";{k})"


def balls_text(balls) -> str:
    """A union of balls as the ``--set`` argument: ``ball(c;k)|...``."""
    return "|".join(ball_literal(c, k) for c, k in balls)
