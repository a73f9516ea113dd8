"""Tabulating a function on a grid by classes of representatives:
GridFunction.from_callable evaluates a step source once per indicator
signature and gives the members of a class one value object.  The grid it
writes, or the error it raises, equals the one of evaluating at every
coset, which a plain callable (lambda r: f(r)) still does.  Every
hypothesis example is derandomized."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from qpcalc.cli import main
from qpcalc.funcs import Add, ChBall, SymbolicFunction, parse_expr
from qpcalc.measure import GridFunction
from qpcalc.padic import Ball, PAdicVector, PadicError

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


def outcome(domain, resolution, fn):
    """The grid's JSON text, or the error's type and message."""
    try:
        return json.dumps(
            GridFunction.from_callable(domain, resolution, fn).to_json())
    except PadicError as exc:
        return type(exc), str(exc)


@pytest.fixture()
def calls(monkeypatch):
    """The points at which a SymbolicFunction is evaluated, in order."""
    seen = []
    real = SymbolicFunction.eval_triples

    def counted(self, p, xs):
        seen.append(xs)
        return real(self, p, xs)
    monkeypatch.setattr(SymbolicFunction, "eval_triples", counted)
    return seen


@st.composite
def ch_calls(draw, p, dim, resolution, near):
    """ch(centre; k) with centre coordinates that are integers near the
    domain centre `near`, p-adic literals such as 1e0@p (short windows
    under a small --prec) or integers over p, and k from -1 to
    resolution + 2."""
    coords = []
    for i in range(dim):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            coords.append(str(near[i] + draw(st.integers(0, p**2))))
        elif kind == 1:
            coords.append(f"{draw(st.integers(1, p - 1))}"
                          f"e{draw(st.integers(-1, 1))}@{p}")
        else:
            coords.append(f"{draw(st.integers(1, p**2))}/{p}")
    k = draw(st.integers(-1, resolution + 2))
    return f"ch({';'.join(coords)};{k})"


@st.composite
def sources(draw, p, m, resolution, near):
    """c0 followed by +, -, * or / by indicator terms; with kind 'coord'
    or 'comp' the point is also read through x0 or a composition, and
    with kind 'dim' one indicator has too few coordinates."""
    kind = draw(st.sampled_from(["step"] * 6 + ["coord", "comp", "dim"]))
    text = str(draw(st.integers(0, p**2)))
    for _ in range(draw(st.integers(1, 3))):
        dim = m
        if kind == "dim" and m == 2 and draw(st.booleans()):
            dim = 1
        ch = draw(ch_calls(p, dim, resolution, near))
        op = draw(st.sampled_from("+-*/"))
        if op in "+-" and draw(st.booleans()):
            ch = f"{draw(st.integers(1, p**2))}*{ch}"
        elif op == "/" and draw(st.booleans()):
            ch = f"({draw(st.integers(1, p))}+{ch})"
        text += op + ch
    if kind == "coord":
        text = f"x{m - 1}*{draw(st.integers(1, p))}+{text}"
    elif kind == "comp":
        text = f"comp(x0*x0;{text})"
    return text


@st.composite
def cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    k = draw(st.integers(-1, 1))
    depth = draw(st.integers(1, {2: 3, 3: 2, 5: 1}[p] if m == 2
                             else {2: 5, 3: 3, 5: 2}[p]))
    near = [draw(st.integers(0, p**2)) for _ in range(m)]
    centre = PAdicVector.from_ints(p, near, prec=8)
    prec = draw(st.sampled_from([None, None, 1, 2, 4]))
    texts = [draw(sources(p, m, k + depth, near))
             for _ in range(draw(st.integers(1, 2)))]
    try:
        f = SymbolicFunction.from_sources(p, texts, m=m, prec=prec)
    except PadicError:
        f = SymbolicFunction.from_sources(p, ["1"], m=m)
    return Ball(centre, k), k + depth, f


@given(cases())
@SETTINGS
def test_step_sources_tabulate_as_per_coset(case):
    domain, resolution, f = case
    assert outcome(domain, resolution, f) == \
        outcome(domain, resolution, lambda r: f(r))


@pytest.mark.parametrize("source, m, prec, resolution", [
    # under --prec 1 the centre 1e0@5 is known mod 5: the ball of radius
    # 5^-3 about it holds every x0 = 1 mod 5
    ("1+ch(1e0@5,3;3)", 2, 1, 2),
    ("1/(3-ch(1e0@5;2))+2*ch(1;1)", 1, 2, 3),
    # a representative is known to 12 digits past the resolution (14
    # here), so the one at 1 lies in the ball of radius 5^-15 about
    # 1 + 5^14
    ("2+ch(1" + ",0" * 13 + ",1e0@5;15)", 1, None, 2)])
def test_short_windows_decide_as_per_coset(source, m, prec, resolution):
    f = SymbolicFunction.from_sources(5, [source], m=m, prec=prec)
    domain = Ball(PAdicVector.zero(5, m), 0)
    grid = outcome(domain, resolution, f)
    assert grid == outcome(domain, resolution, lambda r: f(r))
    assert len(set(json.loads(grid)["table"][i][1][0]
                   for i in range(5**(m * resolution)))) > 1


@given(cases(), st.sampled_from(["prime", "m", "ball prime", "ball dim"]))
@SETTINGS
def test_mismatches_tabulate_as_per_coset(case, mismatch):
    """f's prime or dimension, or a ball's, differs from the domain's: the
    error that per-coset evaluation raises is raised."""
    domain, resolution, f = case
    p, m, comps = f.p, f.m, f.components
    q = 7 if p == 5 else 5
    if mismatch == "prime":
        f = SymbolicFunction(q, m, comps)
    elif mismatch == "m":
        f = SymbolicFunction(p, m + 1, comps)
    elif mismatch == "ball prime":
        ball = Ball(PAdicVector.from_ints(q, [1] * m), 1)
        f = SymbolicFunction(p, m, [Add(c, ChBall(ball)) for c in comps])
    else:
        ball = Ball(PAdicVector.from_ints(p, [1]), 1)
        f = SymbolicFunction(p, 2, [Add(c, ChBall(ball)) for c in comps])
    expected = outcome(domain, resolution, lambda r: f(r))
    assert isinstance(expected, tuple)
    assert outcome(domain, resolution, f) == expected


def test_a_step_source_is_evaluated_once_per_signature(calls):
    """Three balls on Z_5^2 at resolution 3: 15625 cosets, at most 2^3
    indicator signatures, and one value object per signature."""
    f = SymbolicFunction.from_sources(
        5, ["1+ch(4,2;1)+2*ch(7,1;2)+3*ch(1e0@5,3;3)"], m=2)
    domain = Ball(PAdicVector.zero(5, 2), 0)
    g = GridFunction.from_callable(domain, 3, f)
    assert len(g.reps) == 5**6
    assert 0 < len(calls) <= 2**3
    assert len({id(v) for v in g.values}) == len(calls)


@pytest.mark.parametrize("source", ["x0+ch(4,2;1)", "comp(x0;1+ch(4,2;1))"])
def test_a_source_reading_the_point_is_evaluated_per_coset(calls, source):
    f = SymbolicFunction.from_sources(5, [source], m=2)
    domain = Ball(PAdicVector.zero(5, 2), 0)
    g = GridFunction.from_callable(domain, 2, f)
    assert len(calls) == len(g.reps) == 625


def test_an_error_is_raised_at_the_coset_of_per_coset_evaluation(calls):
    """1/(1-ch(0,3;1)) is 1 at the first three cosets of Z_5^2 at
    resolution 1 and vanishes at the fourth: one evaluation per class,
    and the error at the same coset as per coset."""
    f = SymbolicFunction.from_sources(5, ["1/(1-ch(0,3;1))"], m=2)
    domain = Ball(PAdicVector.zero(5, 2), 0)
    with pytest.raises(PadicError, match="denominator vanishes"):
        GridFunction.from_callable(domain, 1, f)
    by_class = list(calls)
    calls.clear()
    with pytest.raises(PadicError, match="denominator vanishes"):
        GridFunction.from_callable(domain, 1, lambda r: f(r))
    assert len(calls) == 4 and by_class == [calls[0], calls[-1]]


@pytest.mark.parametrize("source, balls", [
    ("3", 0), ("1+2*ch(1;1)-ch(1;1)/3", 2), ("-ch(0;0)*ch(1;1)", 2),
    ("x0+ch(1;1)", None), ("comp(x0;ch(1;1))", None), ("-x0", None)])
def test_balls_are_the_indicators_the_value_reads(source, balls):
    found = parse_expr(source, 5).balls()
    if balls is None:
        assert found is None
    else:
        assert len(found) == balls
        assert all(isinstance(e, ChBall) for e in found)


# ---------------------------------------------------------------------------
# decompose reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source, tol_exp", [
    ("1+ch(4,2;1)+2*ch(7,1;2)+3*ch(1e0@5,3;3)", "2"),
    ("1+5*ch(4,2;1)+2*ch(7,1;2)", "1"),
    ("1/5+ch(4,2;1)/25-3*ch(1,1;1)", "3")])
def test_decompose_from_f_writes_the_report_of_its_per_coset_table(
        capsys, tmp_path, source, tol_exp):
    """The value objects a step source shares leave the report and the
    printed residual as they are for a table with one object per coset."""
    domain = Ball(PAdicVector.zero(5, 2), 0)
    f = SymbolicFunction.from_sources(5, [source], m=2)
    table = tmp_path / "table.json"
    table.write_text(json.dumps(GridFunction.from_callable(
        domain, 2, lambda r: f(r)).to_json()))
    reports = []
    for head in (["--in", str(table)],
                 ["--p", "5", "--f", source, "--m", "2",
                  "--domain", "ball(0,0;0)", "--resolution", "2"]):
        path = tmp_path / f"report{len(reports)}.json"
        code = main(["decompose", *head, "--tol-exp", tol_exp,
                     "--out", str(path)])
        reports.append((code, capsys.readouterr().out, path.read_bytes()))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0


@pytest.mark.parametrize("tol_exp, line", [
    ("0", "0 terms, max residual 1 (tolerance 1)"),
    ("-1", "0 terms, max residual 1 (tolerance 5)")])
def test_decompose_at_or_below_the_least_valuation_has_no_terms(
        capsys, tmp_path, tol_exp, line):
    """Values of valuation 0 meet p^-t for t <= 0 with the empty series,
    whose residual is f itself."""
    path = tmp_path / "dec.json"
    code = main(["decompose", "--p", "5", "--f", "1+ch(1,2;1)", "--m", "2",
                 "--domain", "ball(0,0;0)", "--resolution", "1",
                 "--tol-exp", tol_exp, "--out", str(path)])
    assert (code, capsys.readouterr().out) == (0, line + "\n")
    assert json.loads(path.read_text()) == {
        "residual": "1/1", "terms": [], "tol_exp": int(tol_exp),
        "verb": "decompose"}
