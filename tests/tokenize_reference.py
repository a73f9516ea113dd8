"""The expression tokenizer that qpcalc replaced by one compiled alternation
walked with finditer: a character loop that skips whitespace and tries the
literal, integer and name patterns in turn at each offset, then the
punctuation.  Kept unchanged as the reference that the token lists and
the "unexpected character" errors must agree with.
"""

from __future__ import annotations

import re

from qpcalc.funcs import ExprSyntaxError

_LIT_RE = re.compile(r"\d+(?:,\d+)*e-?\d+@\d+|0@\d+")
_INT_RE = re.compile(r"\d+")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def tokenize(src: str):
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        m = _LIT_RE.match(src, i)
        if m:
            toks.append(("lit", m.group(), i))
            i = m.end()
            continue
        m = _INT_RE.match(src, i)
        if m:
            toks.append(("int", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(src, i)
        if m:
            toks.append(("name", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/();,":
            toks.append((c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    toks.append(("end", "", n))
    return toks
