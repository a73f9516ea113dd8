"""The p-adic decoders that qpcalc replaced: the literal parser, which
split the digit list, converted each digit with int(), range-checked them
and summed d * p**i, where one int(text, p) now reads a literal of
one-character digits; the vector decoder, which rebuilt its coordinates
through the checking constructor; and the JSON number decoder.  Kept
unchanged as the reference that the decoded values and the refusals must
agree with.
"""

from __future__ import annotations

import re

from qpcalc.padic import (PAdicNumber, PAdicVector, PadicError, _check_prime,
                          _make)

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
    digits = [int(d) for d in m.group(1).split(",")]
    val = int(m.group(2))
    p = int(m.group(3))
    _check_prime(p)
    if any(d >= p for d in digits):
        raise PadicError(f"digit out of range for p={p} in literal {s!r}")
    unit = sum(d * p**i for i, d in enumerate(digits))
    return _make(p, val, unit, val + len(digits))


def vector_from_json(arr) -> PAdicVector:
    """PAdicVector.from_json as it was: the list checked, then every
    coordinate parsed and handed to the checking constructor."""
    if type(arr) is not list or not arr \
            or any(type(s) is not str for s in arr):
        raise PadicError(f"a p-adic JSON vector is a non-empty list of "
                         f"literal strings, got {arr!r}")
    return PAdicVector(parse_literal(s) for s in arr)


def number_from_json(obj) -> PAdicNumber:
    """padic.from_json as it was, checking its digits in generators and
    summing d * p**i."""
    try:
        p, val, digits = obj["p"], obj["val"], obj["digits"]
    except (KeyError, TypeError):
        raise PadicError(f"malformed p-adic JSON number: {obj!r}") from None
    if type(p) is not int or type(digits) is not list \
            or any(type(d) is not int for d in digits) \
            or (val is not None and type(val) is not int):
        raise PadicError(f"non-integer entry in p-adic JSON number: {obj!r}")
    _check_prime(p)
    if val is None:
        if digits:
            raise PadicError(f"zero carries digits in {obj!r}")
        return PAdicNumber.zero(p)
    if not digits:
        raise PadicError(f"nonzero p-adic JSON number without digits: {obj!r}")
    if any(not 0 <= d < p for d in digits):
        raise PadicError(f"digit out of range for p={p} in {obj!r}")
    unit = sum(d * p**i for i, d in enumerate(digits))
    return _make(p, val, unit, val + len(digits))
