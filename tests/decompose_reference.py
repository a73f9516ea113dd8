"""The indicator-series decomposition that groups cosets by the Fraction
value of their residual's truncation, before measure.decompose_series
named each net value by its canonical (val, unit).  test_report_path.py
requires the two to give the same terms, value for value and table for
table, and the same errors.
"""

from qpcalc.measure import _net_depth
from qpcalc.padic import PAdicNumber, PAdicVector, PadicError, truncate


def decompose_series(f, ys, tol_exp):
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

    cut = val_floor + depth
    groups = {}
    for i, r in enumerate(residual):
        t = truncate(r, cut)
        if not t.is_zero():
            groups.setdefault(t.as_fraction(), []).append(i)

    one = PAdicVector([PAdicNumber.from_int(p, 1)])
    zero = PAdicVector([PAdicNumber.zero(p)])
    terms = []
    for y in ys:
        if y.is_zero():
            continue
        members = groups.get(y.as_fraction())
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
