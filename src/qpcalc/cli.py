"""Command-line front end: evaluate expressions and difference quotients,
measure densities, run decompositions, extensions and their verifications,
and emit deterministic JSON/CSV reports.

Conventions shared by every verb:

  * scalars are integers, fractions (``3/25``) or digit literals
    (``1,2e0@5``); vectors are comma-separated scalars (``1,2``)
  * sets are ``ball(c1,...,cm;k)`` (radius p^-k), joined with ``|`` for
    finite unions; a domain is a single ball
  * ``--out FILE`` writes the machine-readable report: canonical JSON
    (sorted keys, two-space indent: byte for byte what ``json.dumps``
    writes with ``sort_keys=True, indent=2``, then a trailing newline) for
    every verb except ``density``, which writes CSV rows
    ``j,numerator,denominator``
  * exit codes: 0 success, 1 invariant violation (with witnesses on
    stdout), 2 usage or parse error, 3 resource cap exceeded
  * randomized verbs require ``--seed``; batch items draw their generators
    from ``random.Random(f"{seed}:{index}")`` and results are aggregated in
    index order, so reports are byte-identical for any ``--jobs`` value.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import random
import sys
from fractions import Fraction

from .extension import (
    SampleSet,
    WeightedSiteSet,
    chebyshev_radius,
    decompose_Ej,
    extend_to_grid,
    verify_Ej,
)
from .funcs import (
    Add,
    ChBall,
    Const,
    Coord,
    Expr,
    ExprSyntaxError,
    KeptFunction,
    Mul,
    Neg,
    Sub,
    SymbolicFunction,
)
from .measure import (
    DEFAULT_CAP,
    GridFunction,
    ResourceCapExceeded,
    _check_cap,
    ap_limit,
    decompose_default_ys,
    decompose_series,
    density_levels,
    union_density,
)
from .padic import (WORKING_PREC, Ball, PAdicNumber, PAdicVector, PadicError,
                    PairTable, frac_str, parse_literal)
from .quotients import (
    QuotientPoint,
    chain_rule_check,
    holder_scan,
    phin,
    product_rule_check,
    stepanoff_scan,
    taylor_eval,
    telescope_check,
)
from .whitney import (
    JetField,
    jet_field_from_function,
    sample_quotient_points,
    verify_whitney,
    whitney_extend,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3

DEFAULT_P = 5


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def _scalar(s: str, p: int, prec: int) -> PAdicNumber:
    s = s.strip()
    try:
        q = Fraction(s)
    except (ValueError, ZeroDivisionError):
        value = parse_literal(s)
        if value.p != p:
            raise PadicError(f"literal {s!r} is {value.p}-adic, expected p={p}")
        return value
    return PAdicNumber.from_fraction(p, q, prec=prec)


def _vector(s: str, p: int, prec: int) -> PAdicVector:
    return PAdicVector([_scalar(c, p, prec) for c in s.split(",")])


def _ball(s: str, p: int, prec: int) -> Ball:
    s = s.strip()
    if not (s.startswith("ball(") and s.endswith(")")):
        raise PadicError(f"malformed set literal {s!r}: expected ball(coords;k)")
    body = s[5:-1]
    if ";" not in body:
        raise PadicError(f"malformed set literal {s!r}: missing ';radius-exp'")
    coords, k = body.rsplit(";", 1)
    return Ball(_vector(coords, p, prec), int(k))


def _ball_union(s: str, p: int, prec: int) -> tuple:
    return tuple(_ball(part, p, prec) for part in s.split("|"))


def _levels(s: str):
    return tuple(int(tok) for tok in s.split(","))


def _fmt(value) -> str:
    if isinstance(value, PAdicVector):
        return ",".join(str(c.as_fraction()) for c in value.coords)
    return str(value.as_fraction())


def _at_least(args, low: int, *names) -> None:
    """Refuse a count option below the least value it can mean."""
    for name in names:
        value = getattr(args, name, None)      # None: the verb lacks it
        if value is not None and value < low:
            raise PadicError(f"--{name} must be at least {low}, got {value}")


def _function(args) -> SymbolicFunction:
    if not args.f:
        raise PadicError("missing --f expression")
    return SymbolicFunction.from_sources(args.p, list(args.f), m=args.m,
                                         prec=args.prec)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: str, obj) -> None:
    """Write to path what json.dumps writes for obj with sort_keys=True
    and indent=2, and a newline.

    With an indent, CPython's json has no C encoder and runs a chain of
    Python generators; this one recursive encoder writes the same bytes at
    a fraction of the cost.  It writes out the pending text whenever a list
    closes with _CHUNK_PARTS or more parts pending, and a PairTable in
    chunks of _CHUNK_ROWS rows, so a report of many rows is never held
    whole in memory.  Under tracemalloc, writing the 15625-row grid of a
    Z_5^2 resolution-3 tabulation (2.8 MB) peaked 0.06 MB above the start,
    as the stdlib encoder does; the 4-term resolution-3 decompose (13 MB)
    peaked 3.7 MB, the texts of the one column of representatives that its
    terms share (see _encode_table).  A jet file's PairTable is written
    the same way, each distinct jet's tables encoded once: the 1250 jets
    of a Z_5^2 field that share one jet are 980,731 bytes from one jet
    text."""
    with open(path, "w") as fh:
        parts = []
        _encode(obj, "\n", parts, fh, {})
        parts.append("\n")
        fh.write("".join(parts))


_escape = json.encoder.encode_basestring_ascii
# about 6 KB of text per write; a larger chunk is no faster, and at 2048
# parts writing a grid report peaked 0.17 MB above the stdlib encoder
_CHUNK_PARTS = 256
# about 11 KB of Z_5^2 grid table rows per write: at 256 rows a table is
# written no faster, and a pairscan round peaked 0.13 MB higher in RSS
_CHUNK_ROWS = 64
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _atom(o) -> str:
    """The JSON text of a value that is neither a str nor a container."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


def _encode(o, nl: str, parts: list, fh, kept: dict) -> None:
    """Append the text of o, nested at the indent that nl ends with."""
    if isinstance(o, str):
        parts.append(_escape(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        if type(o) is PairTable:
            _encode_table(o, nl, parts, fh, kept)
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in o:
            if isinstance(item, str):
                parts.append(sep + _escape(item))
            else:
                parts.append(sep)
                _encode(item, inner, parts, fh, kept)
            sep = "," + inner
        parts.append(nl + "]")
        if len(parts) >= _CHUNK_PARTS:
            fh.write("".join(parts))
            parts.clear()
    elif isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            parts.append(sep + _escape(key if isinstance(key, str)
                                       else _atom(key)) + ": ")
            sep = "," + inner
            _encode(value, inner, parts, fh, kept)
        parts.append(nl + "}")
    else:
        parts.append(_atom(o))


def _encode_table(rows: PairTable, nl: str, parts: list, fh,
                  kept: dict) -> None:
    """Write the non-empty rows, nested at the indent that nl ends with,
    in chunks of _CHUNK_ROWS rows, each row from the texts of its a and b.

    kept maps a list indent to the ids of the first a of each table
    written there, and to texts of lists by id.  A table that begins with
    the first a of an earlier one shares its a lists with it (the grids of
    GridFunction.with_values share their reps' rows), so its texts are
    kept and read by every later table: a decompose report encodes each
    representative twice, not once per term.  Any other table keeps
    nothing, so a report of one table holds no more than a chunk's text.
    The report holds every list kept by id until the call returns.

    A b that is not a list of strings (a jet's tables, which
    JetField.to_json shares among the jets of one tuple of polynomials)
    is encoded once per object id, at the row's indent, for this table."""
    inner = nl + "  "
    leaf_nl = inner + "  "
    firsts, texts = kept.setdefault(leaf_nl, (set(), {}))
    shared = id(rows[0][0]) in firsts
    firsts.add(id(rows[0][0]))
    item_nl = leaf_nl + "  "
    opening, comma, closing = "[" + item_nl, "," + item_nl, leaf_nl + "]"
    values = {}

    def text(leaf):
        if not leaf:
            return "[]"
        if type(leaf[0]) is str:
            return opening + comma.join(map(_escape, leaf)) + closing
        t = values.get(id(leaf))
        if t is None:
            buf, pending = io.StringIO(), []
            _encode(leaf, leaf_nl, pending, buf, kept)
            t = values[id(leaf)] = buf.getvalue() + "".join(pending)
        return t

    head, mid, tail = "[" + leaf_nl, "," + leaf_nl, inner + "]"
    sep = "," + inner
    fh.write("".join(parts))
    parts.clear()
    fh.write("[" + inner)
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        if shared:
            lines = []
            for a, b in chunk:
                ta = texts.get(id(a))
                if ta is None:
                    ta = texts[id(a)] = text(a)
                tb = texts.get(id(b))
                if tb is None:
                    tb = texts[id(b)] = text(b)
                lines.append(head + ta + mid + tb + tail)
        else:
            lines = [head + text(a) + mid + text(b) + tail for a, b in chunk]
        if start:
            fh.write(sep)
        fh.write(sep.join(lines))
    parts.append(nl + "]")


def _write_csv(path: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write("j,numerator,denominator\n")
        for j, num, den in rows:
            fh.write(f"{j},{num},{den}\n")


def _grid_input(args) -> GridFunction:
    """A GridFunction from --in JSON, or tabulated from --f over --domain."""
    if getattr(args, "infile", None):
        return GridFunction.from_json(_read_json(args.infile))
    if not args.f or not args.domain:
        raise PadicError("needs either --in FILE or --f EXPR with --domain")
    if args.resolution is None:
        raise PadicError("tabulating --f needs --resolution")
    fn = _function(args)
    domain = _ball(args.domain, args.p, args.prec)
    return GridFunction.from_callable(domain, args.resolution, fn,
                                      cap=args.cap)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    fn = _function(args)
    x = _vector(args.x, args.p, args.prec)
    value = fn(x)
    print(_fmt(value))
    if args.out:
        _write_json(args.out, {"verb": "eval", "p": args.p,
                               "sources": list(args.f),
                               "x": x.to_json(), "value": value.to_json(),
                               "pretty": _fmt(value)})
    return EXIT_OK


def cmd_quotient(args) -> int:
    fn = _function(args)
    x = _vector(args.x, args.p, args.prec)
    vs = tuple(_vector(v, args.p, args.prec) for v in args.v)
    ts = tuple(_scalar(t, args.p, args.prec) for t in args.t)
    if len(vs) != len(ts) or not vs:
        raise PadicError("need equally many --v and --t, at least one each")
    q = QuotientPoint(x, vs, ts)
    value = phin(fn, q.order, q)
    print(_fmt(value))
    if args.out:
        _write_json(args.out, {"verb": "quotient", "p": args.p,
                               "order": q.order, "sources": list(args.f),
                               "x": x.to_json(),
                               "vs": [v.to_json() for v in vs],
                               "ts": [t.to_json() for t in ts],
                               "value": value.to_json(),
                               "pretty": _fmt(value)})
    return EXIT_OK


def cmd_taylor(args) -> int:
    _at_least(args, 0, "n")
    fn = _function(args)
    y = _vector(args.y, args.p, args.prec)
    x = _vector(args.x, args.p, args.prec)
    exp = taylor_eval(fn, args.n, y, x)
    print(f"order {args.n} about {args.y}: residual norm "
          f"{exp.residual_norm()} (exact route)")
    if args.out:
        _write_json(args.out, {"verb": "taylor", **exp.to_json()})
    return EXIT_OK


def cmd_density(args) -> int:
    balls = _ball_union(args.set, args.p, args.prec)
    x = _vector(args.at, args.p, args.prec)
    # the cap bounds the p^(m*(res-j)) totals printed; no coset is listed
    js, res = density_levels(_levels(args.levels), args.resolution)
    _check_cap(x.p ** (x.dim * (res - js[0])), args.cap)
    est = union_density(balls, x, js, resolution=res)
    for j, count, total in est.ratios:
        print(f"j={j}: {Fraction(count, total)} ({count}/{total})")
    print(f"verdict: {est.verdict}")
    if args.out:
        _write_csv(args.out, est.ratios)
    return EXIT_OK


def cmd_aplimit(args) -> int:
    if args.infile:
        f = GridFunction.from_json(_read_json(args.infile))
        p = f.p
    else:
        if not args.f:
            raise PadicError("needs either --in FILE or --f EXPR")
        f = _function(args)
        p = args.p
    x = _vector(args.x, p, args.prec)
    candidate = _vector(args.value, p, args.prec)
    eps = Fraction(args.eps)
    verdict, est = ap_limit(f, x, candidate, eps, _levels(args.levels),
                            resolution=args.resolution, cap=args.cap)
    for j, count, total in est.ratios:
        print(f"j={j}: off-target density {Fraction(count, total)}"
              f" ({count}/{total})")
    print(f"ap-limit {args.value} at {args.x}: {verdict}")
    if args.out:
        _write_json(args.out, {"verb": "aplimit", "verdict": verdict,
                               "candidate": candidate.to_json(),
                               "eps": frac_str(eps),
                               "ratios": [list(r) for r in est.ratios],
                               "density_verdict": est.verdict})
    return EXIT_OK


def cmd_decompose(args) -> int:
    f = _grid_input(args)
    p = f.p
    if f.dims[1] != 1:
        raise PadicError("scalar access on a vector-valued grid function")
    values = [v[0] for v in f.values]
    nonzero = [v for v in values if not v.is_zero()]
    if not nonzero:
        print("0 terms (function is identically zero)")
        if args.out:
            _write_json(args.out, {"verb": "decompose", "terms": [],
                                   "residual": "0"})
        return EXIT_OK
    val_floor = min(v.val for v in nonzero)
    if args.tol_exp <= val_floor:
        terms = []          # the empty series meets the tolerance
    else:
        # the dense sequence has one member per net value: count it first
        _check_cap(p ** (args.tol_exp - val_floor), args.cap)
        ys = decompose_default_ys(p, val_floor, args.tol_exp - val_floor)
        terms = decompose_series(f, ys, args.tol_exp)
    # re-check f - Σ y·ch(A) once per class of cosets with one value
    # object of f and one term membership (indicator value objects)
    classes = {}
    for row in zip(values, *[a.values for _, a in terms]):
        classes.setdefault(tuple(map(id, row)), row)
    worst = None            # least valuation of a residual; None: all zero
    for fv, *members in classes.values():
        acc = PAdicNumber.zero(p)
        for (y, _), a in zip(terms, members):
            if not a[0].is_zero():
                acc = acc + y
        v = (fv - acc).val
        if v is not None and (worst is None or v < worst):
            worst = v
    residual = Fraction(0) if worst is None else Fraction(p) ** -worst
    print(f"{len(terms)} terms, max residual {residual}"
          f" (tolerance {Fraction(p) ** -args.tol_exp})")
    if args.out:
        _write_json(args.out, {
            "verb": "decompose", "tol_exp": args.tol_exp,
            "residual": f"{residual.numerator}/{residual.denominator}",
            "terms": [{"y": y.to_json(), "set": a.to_json()}
                      for y, a in terms]})
    return EXIT_OK


def cmd_certify(args) -> int:
    S = SampleSet.from_json(_read_json(args.infile))
    report = S.certify(max_violations=args.max_violations)
    if args.out:
        _write_json(args.out, {"verb": "certify", **report.to_json()})
    if report.ok:
        print(f"certified: C={S.C}, r={S.r}, "
              f"{report.pairs_checked} pairs checked")
        return EXIT_OK
    for i, j, gap, scaled in report.violations:
        print(f"violation: sites {i},{j}: gap {gap!r} > C * {scaled!r}")
    if not report.violations:
        print(f"not certified: C={S.C}, r={S.r} fails on some pair "
              f"(--max-violations {args.max_violations} lists none)")
    return EXIT_VIOLATION


def cmd_extend(args) -> int:
    S = SampleSet.from_json(_read_json(args.infile))
    report = S.certify()
    if not report.ok:
        print(f"sample set is not ({S.C}, {S.r})-Hölder; refusing to extend")
        return EXIT_VIOLATION
    domain = _ball(args.domain, S.p, args.prec)
    g = extend_to_grid(S, domain, args.resolution, cap=args.cap)
    print(f"extended {len(S.points)} sites to {len(g.reps)} cosets "
          f"at resolution {args.resolution}")
    if args.out:
        _write_json(args.out, g.to_json())
    return EXIT_OK


def cmd_cheb(args) -> int:
    H = WeightedSiteSet.from_json(_read_json(args.infile))
    r = Fraction(args.r)
    result = chebyshev_radius(H, r)
    if result.zero_radius:
        print("c = 0 (all centers coincide)")
    else:
        e = result.c.exp
        print(f"c = {H.p}^{e}  (tight at sites {list(result.tight)})")
    print(f"q = {_fmt(result.q)}")
    if args.out:
        _write_json(args.out, {"verb": "cheb", "r": frac_str(r),
                               **result.to_json()})
    return EXIT_OK


def cmd_ej(args) -> int:
    f = _grid_input(args)
    j_range = None if args.j_range is None else _levels(args.j_range)
    dec = decompose_Ej(f, Fraction(args.r), j_range=j_range)
    ok, violations = verify_Ej(f, dec)
    for j, pts in dec.classes:
        print(f"E_{j}: {len(pts)} points")
    if dec.unassigned:
        print(f"unassigned: {len(dec.unassigned)} points")
    if args.out:
        _write_json(args.out, {"verb": "ej", "verified": ok,
                               **dec.to_json()})
    if not ok:
        for j, x, z in violations:
            print(f"violation in E_{j}: {_fmt(x)} vs {_fmt(z)}")
        return EXIT_VIOLATION
    print("per-class Hölder bounds verified")
    return EXIT_OK


def _jet_field(args) -> JetField:
    return JetField.from_json(_read_json(args.jets))


def _whitney_glue(J: JetField, args):
    domain = Ball(PAdicVector.zero(J.p, J.m), 0) if args.domain is None \
        else _ball(args.domain, J.p, args.prec)
    resolution = J.resolution if args.resolution is None else args.resolution
    return whitney_extend(J, domain, resolution)


def cmd_whitney_build(args) -> int:
    _at_least(args, 0, "k", "degree")
    fn = _function(args)
    A = _ball_union(args.set, args.p, args.prec)
    J = jet_field_from_function(fn, A, args.resolution, args.k,
                                degree=args.degree, cap=args.cap)
    print(f"built {len(J.jets)} jets of order k={args.k} "
          f"at resolution {args.resolution}")
    if args.out:
        _write_json(args.out, J.to_json())
    return EXIT_OK


def cmd_whitney_eval(args) -> int:
    J = _jet_field(args)
    g = _whitney_glue(J, args)
    x = _vector(args.x, J.p, args.prec)
    value = g(x)
    print(_fmt(value))
    if args.out:
        _write_json(args.out, {"verb": "whitney eval", "x": x.to_json(),
                               "value": value.to_json(),
                               "pretty": _fmt(value)})
    return EXIT_OK


def cmd_whitney_verify(args) -> int:
    _at_least(args, 1, "samples")
    J = _jet_field(args)
    g = _whitney_glue(J, args)
    orders = range(J.k + 1) if args.orders is None else _levels(args.orders)
    if any(not 0 <= j <= J.k for j in orders):
        raise PadicError(f"--orders must lie in 0..{J.k}, got {args.orders}")
    samples = []
    for order in orders:
        rng = random.Random(f"{args.seed}:{order}")
        samples += sample_quotient_points(J, order, args.samples, rng)
    rows = verify_whitney(g, J, samples, cap=args.cap)
    for row in rows:
        print(f"order {row.order}: {row.samples} samples, observed "
              f"{row.observed}, bound {row.bound}, "
              f"{'dominated' if row.dominated else 'VIOLATED'}")
    if args.out:
        _write_json(args.out, {"verb": "whitney verify", "seed": args.seed,
                               "rows": [row.to_json() for row in rows]})
    return EXIT_OK if all(row.dominated for row in rows) else EXIT_VIOLATION


def cmd_scan(args) -> int:
    if args.kind == "stepanoff":
        if not args.f:
            raise PadicError("stepanoff scan needs --f EXPR")
        fn = _function(args)
        domain = _ball(args.domain, args.p, args.prec)
        result = stepanoff_scan(fn, domain, args.K, Fraction(args.eps),
                                j_range=_levels(args.levels),
                                resolution=args.resolution, cap=args.cap)
        print(f"differentiable fraction: {result.fraction} "
              f"({result.good}/{result.total})")
        if args.out:
            _write_json(args.out, {"verb": "scan", "kind": "stepanoff",
                                   **result.to_json()})
    else:
        f = _grid_input(args)
        result = holder_scan(f, Fraction(args.r))
        print(f"Hölder constant (r={args.r}): {result.constant}")
        if args.out:
            _write_json(args.out, {"verb": "scan", "kind": "holder",
                                   **result.to_json()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# the seeded identity suite
# ---------------------------------------------------------------------------

_COEFFS = (-4, -3, -2, -1, 1, 2, 3, 4)


@functools.lru_cache(maxsize=64)
def _const(p: int, n: int, prec: int) -> Const:
    """The Const node of n that the drawn trees share: a Const is never
    changed after it is built."""
    return Const(PAdicNumber.from_int(p, n, prec=prec))


def _poly_expr(rng: random.Random, m: int, p: int, indicator: bool,
               prec: int) -> Expr:
    """A random polynomial in x0..x_(m-1) of one to three terms with
    nonzero coefficients in -4..4, plus a*ch(c;k) when indicator is set.
    It is the tree that parse_expr builds from the source text, such as
    "-4*x0*x0-2*x0+1*ch(3;1)", made without that text: a later negative
    coefficient c subtracts its term with -c, a negative first one is
    Neg(Const(-c)), and each term is a left-leaning Mul chain."""
    expr = None
    for _ in range(rng.randrange(1, 4)):
        c = rng.choice(_COEFFS)
        term = _const(p, abs(c), prec)
        if expr is None and c < 0:
            term = Neg(term)
        for coord in range(m):
            for _ in range(rng.randrange(0, 3)):
                term = Mul(term, Coord(coord))
        if expr is None:
            expr = term
        elif c > 0:
            expr = Add(expr, term)
        else:
            expr = Sub(expr, term)
    if indicator:
        center = PAdicVector.from_ints(
            p, [rng.randrange(p ** 2) for _ in range(m)], prec=prec)
        a = _const(p, rng.randrange(1, p), prec)
        expr = Add(expr, Mul(a, ChBall(Ball(center, rng.randrange(3)))))
    return expr


def _identity_item(p: int, prec: int, seed: int, index: int) -> dict:
    """One seeded instance of each exact first-order identity; the rng is
    derived from (seed, index) alone so batches split identically for any
    job count.  The item's checks share one KeptFunction of each
    function, which evaluates it once per distinct point."""
    rng = random.Random(f"{seed}:{index}")
    m = rng.choice([1, 2])
    mu = rng.choice([1, 2])
    indicator = rng.random() < 0.5

    def fun(nvars: int, with_ind: bool, components: int = 1):
        return SymbolicFunction(p, nvars, [
            _poly_expr(rng, nvars, p, with_ind, prec)
            for _ in range(components)])

    f, g_outer, u, h = map(KeptFunction, (
        fun(m, indicator), fun(mu, indicator), fun(m, False, components=mu),
        fun(m, indicator)))
    x = PAdicVector.from_ints(
        p, [rng.randrange(p ** 3) for _ in range(m)], prec=prec)
    v_coords = [rng.randrange(p ** 3) for _ in range(m)]
    v_coords[rng.randrange(m)] = 1 + p * rng.randrange(p)
    v = PAdicVector.from_ints(p, v_coords, prec=prec)
    t = PAdicNumber.from_int(
        p, rng.randrange(1, p) * p ** rng.randrange(3), prec=prec)
    return {
        "chain": chain_rule_check(g_outer, u, x, v, t).equal,
        "telescope": telescope_check(f, x, v, t).equal,
        "product": product_rule_check(f, h, x, v, t).equal,
    }


def cmd_identities(args) -> int:
    _at_least(args, 0, "samples")
    _at_least(args, 1, "jobs")
    # one loop in index order: threads under the GIL were never faster,
    # so --jobs is checked and otherwise unused
    results = [_identity_item(args.p, args.prec, args.seed, i)
               for i in range(args.samples)]
    names = ("chain", "telescope", "product")
    passed = {name: sum(1 for r in results if r[name]) for name in names}
    failures = [{"index": i, "identity": name}
                for i, r in enumerate(results)
                for name in names if not r[name]]
    for name in names:
        print(f"{name}: {passed[name]}/{args.samples} exact")
    if args.out:
        _write_json(args.out, {"verb": "identities", "seed": args.seed,
                               "samples": args.samples,
                               "passed": passed, "failures": failures})
    if failures:
        for fail in failures[:8]:
            print(f"FAILED: {fail['identity']} at index {fail['index']}")
        return EXIT_VIOLATION
    print("all identities exact")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, p=True, prec=True):
    """--out, and --p and --prec unless the verb takes its prime, or its
    prime and every value, from its JSON input."""
    if p:
        sub.add_argument("--p", type=int, default=DEFAULT_P,
                         help="prime (default 5)")
    if prec:
        sub.add_argument("--prec", type=int, default=WORKING_PREC,
                         help="working window of digits (default 24)")
    sub.add_argument("--out", help="write the machine-readable report here")


def _add_function(sub):
    sub.add_argument("--f", action="append",
                     help="component expression (repeat for vector values)")
    sub.add_argument("--m", type=int, default=None,
                     help="arity override (default: inferred from coordinates)")


@functools.cache       # built on the first main call, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpcalc",
        description="exact desk-scale computation in Q_p: difference "
                    "quotients, densities, extensions, and their checks")
    # an option is read under its full name only: with prefixes allowed,
    # extend's --p would be read as --prec, and density's --r as
    # --resolution
    exact = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    verbs = parser.add_subparsers(dest="verb", required=True,
                                  parser_class=exact)

    sub = verbs.add_parser("eval", help="evaluate an expression at a point")
    _add_common(sub)
    _add_function(sub)
    sub.add_argument("--x", required=True, help="evaluation point")
    sub.set_defaults(func=cmd_eval)

    sub = verbs.add_parser("quotient",
                           help="iterated difference quotient at (x; v...; t...)")
    _add_common(sub)
    _add_function(sub)
    sub.add_argument("--x", required=True)
    sub.add_argument("--v", action="append", required=True,
                     help="direction vector (repeat per order)")
    sub.add_argument("--t", action="append", required=True,
                     help="increment scalar (repeat per order)")
    sub.set_defaults(func=cmd_quotient)

    sub = verbs.add_parser("taylor",
                           help="divided-power expansion about y, evaluated at x")
    _add_common(sub)
    _add_function(sub)
    sub.add_argument("--x", required=True)
    sub.add_argument("--y", required=True, help="expansion center")
    sub.add_argument("--n", type=int, required=True, help="expansion order")
    sub.set_defaults(func=cmd_taylor)

    sub = verbs.add_parser("density",
                           help="exact density ratios of a set at a point")
    _add_common(sub)
    sub.add_argument("--set", required=True,
                     help='e.g. "ball(0;1)" or unions joined with |')
    sub.add_argument("--at", required=True, help="base point")
    sub.add_argument("--levels", default="1,2,3",
                     help="ball exponents j (default 1,2,3)")
    sub.add_argument("--resolution", type=int, default=None)
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sub.set_defaults(func=cmd_density)

    sub = verbs.add_parser("aplimit",
                           help="test an approximate limit of f at x")
    _add_common(sub)
    _add_function(sub)
    sub.add_argument("--in", dest="infile", help="GridFunction JSON")
    sub.add_argument("--x", required=True)
    sub.add_argument("--value", required=True, help="candidate limit")
    sub.add_argument("--eps", default="1/2", help="target tolerance")
    sub.add_argument("--levels", default="1,2,3")
    sub.add_argument("--resolution", type=int, default=None)
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sub.set_defaults(func=cmd_aplimit)

    sub = verbs.add_parser("decompose",
                           help="indicator-series decomposition of a grid function")
    _add_common(sub)
    _add_function(sub)
    sub.add_argument("--in", dest="infile", help="GridFunction JSON")
    sub.add_argument("--domain", help="tabulation domain for --f")
    sub.add_argument("--resolution", type=int, default=3)
    sub.add_argument("--tol-exp", type=int, default=3,
                     help="residual tolerance exponent (default 3)")
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sub.set_defaults(func=cmd_decompose)

    sub = verbs.add_parser("certify",
                           help="all-pairs Hölder certificate of a sample set")
    _add_common(sub, p=False, prec=False)
    sub.add_argument("--in", dest="infile", required=True,
                     help="SampleSet JSON")
    sub.add_argument("--max-violations", type=int, default=8)
    sub.set_defaults(func=cmd_certify)

    sub = verbs.add_parser("extend",
                           help="nearest-point extension of a certified sample set")
    _add_common(sub, p=False)
    sub.add_argument("--in", dest="infile", required=True,
                     help="SampleSet JSON")
    sub.add_argument("--domain", required=True)
    sub.add_argument("--resolution", type=int, required=True)
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sub.set_defaults(func=cmd_extend)

    sub = verbs.add_parser("cheb",
                           help="weighted Chebyshev radius of a site set")
    _add_common(sub, p=False, prec=False)
    sub.add_argument("--in", dest="infile", required=True,
                     help="WeightedSiteSet JSON")
    sub.add_argument("--r", default="1", help="Hölder exponent in (0,1]")
    sub.set_defaults(func=cmd_cheb)

    sub = verbs.add_parser("ej",
                           help="pointwise Hölder-class decomposition of a grid function")
    _add_common(sub)
    _add_function(sub)
    sub.add_argument("--in", dest="infile", help="GridFunction JSON")
    sub.add_argument("--domain")
    sub.add_argument("--resolution", type=int, default=3)
    sub.add_argument("--r", default="1")
    sub.add_argument("--j-range", default=None, help='e.g. "0,1,2"')
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sub.set_defaults(func=cmd_ej)

    sub = verbs.add_parser("whitney", help="jet fields and the glued extension")
    actions = sub.add_subparsers(dest="action", required=True,
                                 parser_class=exact)

    act = actions.add_parser("build", help="jet field of f on a closed set")
    _add_common(act)
    _add_function(act)
    act.add_argument("--set", required=True, help="the closed set A")
    act.add_argument("--resolution", type=int, required=True)
    act.add_argument("--k", type=int, required=True, help="jet order")
    act.add_argument("--degree", type=int, default=None,
                     help="truncation degree (default k+1)")
    act.add_argument("--cap", type=int, default=DEFAULT_CAP)
    act.set_defaults(func=cmd_whitney_build)

    act = actions.add_parser("eval", help="evaluate the glued extension")
    _add_common(act, p=False)
    act.add_argument("--jets", required=True, help="JetField JSON")
    act.add_argument("--x", required=True)
    act.add_argument("--domain", default=None)
    act.add_argument("--resolution", type=int, default=None)
    act.set_defaults(func=cmd_whitney_eval)

    act = actions.add_parser("verify",
                             help="quotient-error bounds of the glued extension")
    _add_common(act, p=False)
    act.add_argument("--jets", required=True, help="JetField JSON")
    act.add_argument("--samples", type=int, default=25,
                     help="quotient points per order")
    act.add_argument("--seed", type=int, required=True)
    act.add_argument("--orders", default=None, help="default: all j <= k")
    act.add_argument("--domain", default=None)
    act.add_argument("--resolution", type=int, default=None)
    act.add_argument("--cap", type=int, default=DEFAULT_CAP,
                     help="pair bounds the moduli may make")
    act.set_defaults(func=cmd_whitney_verify)

    sub = verbs.add_parser("scan",
                           help="differentiability or Hölder scan over a grid")
    _add_common(sub)
    _add_function(sub)
    sub.add_argument("--kind", choices=("stepanoff", "holder"),
                     default="stepanoff")
    sub.add_argument("--in", dest="infile", help="GridFunction JSON (holder)")
    sub.add_argument("--domain", help="scan domain")
    sub.add_argument("--K", type=int, default=3, help="grid depth (stepanoff)")
    sub.add_argument("--eps", default="1/25", help="tolerance (stepanoff)")
    sub.add_argument("--levels", default="1,2,3")
    sub.add_argument("--resolution", type=int, default=None)
    sub.add_argument("--r", default="1", help="Hölder exponent (holder)")
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sub.set_defaults(func=cmd_scan)

    sub = verbs.add_parser("identities",
                           help="seeded exact first-order identity suite")
    _add_common(sub)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--samples", type=int, default=1000)
    sub.add_argument("--jobs", type=int, default=1)
    sub.set_defaults(func=cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # argparse: 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        _at_least(args, 1, "prec")
        return args.func(args)
    except ExprSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (PadicError, json.JSONDecodeError, OSError,
            ValueError, ZeroDivisionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
