"""The jet-file codec: JetField.to_json through the report writer gives the
bytes of json.dumps, JetField.from_json reads back the built field, jets of
one text share one tuple of polynomials, and a file that is not one field
exits 2 with one stderr line.  Every hypothesis example is derandomized."""

import copy
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from qpcalc.cli import _ball_union, _write_json, main
from qpcalc.funcs import SymbolicFunction
from qpcalc.padic import Ball, PadicError
from qpcalc.whitney import JetField, jet_field_from_function

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def _monomial(m: int, exps) -> str:
    return "*".join(f"x{i}" for i in range(m) for _ in range(exps[i])) or "1"


@st.composite
def sources(draw, p, m, k):
    """A polynomial source of degree <= k + 1 (its own jet), a cubic one
    (degree 3), or a limit-route one (a polynomial plus c*ch(B))."""
    kind = draw(st.sampled_from(["polynomial", "cubic", "limit"]))
    top = 3 if kind == "cubic" else k + 1
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        exps = [0] * m
        for _ in range(draw(st.integers(0, top))):
            exps[draw(st.integers(0, m - 1))] += 1
        terms.append(f"{draw(st.integers(1, 2 * p))}*{_monomial(m, exps)}")
    if kind == "cubic":
        terms.append(f"{draw(st.integers(1, p - 1))}*x{m - 1}*x0*x0")
    if kind == "limit":
        centre = ",".join(str(draw(st.integers(0, p ** 2))) for _ in range(m))
        terms.append(f"{draw(st.integers(1, p))}"
                     f"*ch({centre};{draw(st.integers(0, 2))})")
    return "+".join(terms)


@st.composite
def fields(draw):
    """A built field over one or two balls of at most 64 cosets each:
    p in {2, 3, 5}, m <= 2, k <= 2."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    k = draw(st.integers(0, 2))
    f = SymbolicFunction.from_sources(p, [draw(sources(p, m, k))], m=m)
    depth = max(d for d in range(1, 7) if p ** (m * d) <= 64)
    rads = [draw(st.integers(1, 2)) for _ in range(draw(st.integers(1, 2)))]
    resolution = max(rads) + draw(st.integers(0, depth - 1))
    text = "|".join(
        "ball(" + ",".join(str(draw(st.integers(0, p ** 3)))
                           for _ in range(m)) + f";{r})" for r in rads)
    A = _ball_union(text, p, 24)
    return jet_field_from_function(f, A, resolution, k)


def _written(J: JetField) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "jets.json")
        _write_json(path, J.to_json())
        with open(path) as fh:
            return fh.read()


@SETTINGS
@given(fields())
def test_written_field_is_json_dumps_and_reads_back(J):
    text = _written(J)
    obj = json.loads(text)
    assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    K = JetField.from_json(obj)
    assert (K.k, K.A, K.resolution) == (J.k, J.A, J.resolution)
    assert len(K.jets) == len(J.jets)
    for (z, polys), (y, read) in zip(J.jets, K.jets):
        assert y == z and read == polys
    # jets of one text share one tuple, and jets of two texts do not
    first = {}
    for (_, tables), (_, read) in zip(obj["jets"], K.jets):
        key = json.dumps(tables)
        assert read is first.setdefault(key, read)
    assert len({id(read) for _, read in K.jets}) == len(first)


def _field(tmp_path, *argv) -> dict:
    path = tmp_path / "jets.json"
    assert main(["whitney", "build", "--p", "5", *argv,
                 "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _refused(capsys, tmp_path, field) -> str:
    """The one stderr line of whitney eval and verify on the field, which
    both exit 2; eval's line is returned."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(field))
    for action in (("verify", "--seed", "3"), ("eval", "--x", "1")):
        capsys.readouterr()
        code = main(["whitney", *action, "--jets", str(path),
                     "--resolution", "4"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), action
        assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("value", [True, 1.0])
def test_a_repeated_jet_with_a_non_integer_exponent_exits_2(
        capsys, tmp_path, value):
    """1 == 1.0 == True in Python, but a jet exponent is a JSON integer:
    the second jet repeats the first with one exponent 1 written as true
    or 1.0, and is refused although it equals the first as a value."""
    field = _field(tmp_path, "--f", "x0*x0+x0", "--set", "ball(0;1)",
                   "--resolution", "3", "--k", "1")
    tables = copy.deepcopy(field["jets"][0][1])
    assert [1] in [exps for exps, _ in tables[0]]
    for term in tables[0]:
        if term[0] == [1]:
            term[0] = [value]
    assert tables == field["jets"][0][1]
    field["jets"][1][1] = tables
    err = _refused(capsys, tmp_path, field)
    assert "a jet term exponent is a JSON integer" in err
    with pytest.raises(PadicError):
        JetField.from_json(json.loads(json.dumps(field)))


def _cubic(tmp_path) -> dict:
    return _field(tmp_path, "--f", "x0*x0*x0", "--set", "ball(0;1)",
                  "--resolution", "3", "--k", "1")


def _no_table(field):
    field["jets"][1][1] = []


def _no_components(field):
    for jet in field["jets"]:
        jet[1] = []


def _two_components(field):
    field["jets"][1][1] *= 2


def _two_coordinates(field):
    field["jets"][1] = [field["jets"][1][0] * 2, [[[[0, 0], "1/1"]]]]


def _outside(field):
    field["jets"][1][0] = ["1e0@5"]


@pytest.mark.parametrize("spoil, message", [
    (_no_table, "has 0 components, and the first one 1"),
    (_no_components, "a jet has at least one component"),
    (_two_components, "has 2 components, and the first one 1"),
    (_two_coordinates, "is not in Q_5^1, where the first one is"),
    (_outside, "jet representative PAdicVector[1e0@5] lies outside the "
               "closed set")])
def test_a_jet_file_must_be_one_field(capsys, tmp_path, spoil, message):
    """A jet without a component table once made verify --seed 3 exit 1
    with an IndexError traceback; two components among one-component jets, a
    two-coordinate representative in a Q_5 field and a representative
    outside A were accepted, and eval answered.  Each exits 2, as does a
    field whose jets have no components at all."""
    field = _cubic(tmp_path)
    spoil(field)
    assert message in _refused(capsys, tmp_path, field)


def test_a_built_field_passes_the_same_checks():
    """JetField refuses a built field whose representative lies outside A,
    as it refuses a read one."""
    f = SymbolicFunction.from_sources(5, ["x0"])
    J = jet_field_from_function(f, (Ball.from_json(
        {"center": ["0@5"], "rad_exp": 1}),), 2, 1)
    with pytest.raises(PadicError, match="lies outside the closed set"):
        JetField(k=1, A=(Ball(J.jets[1][0], 2),), resolution=2,
                 jets=J.jets)
