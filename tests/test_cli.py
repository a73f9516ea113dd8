"""Command-line front end: golden outputs for every verb, exit codes, and
byte-identical reports across --jobs values."""

import json
import os
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from qpcalc.cli import _CHUNK_PARTS, _write_json, main
from qpcalc.extension import SampleSet, WeightedSiteSet
from qpcalc.funcs import MAX_DEPTH, SymbolicFunction
from qpcalc.measure import (GridFunction, decompose_default_ys,
                             decompose_series)
from qpcalc.padic import Ball, PAdicNumber, PAdicVector, PairTable
from qpcalc.whitney import jet_field_from_function

P = 5


def vec(*ns):
    return PAdicVector.from_ints(P, ns, prec=24)


def num(n):
    return PAdicNumber.from_int(P, n, prec=24)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def sample_file(tmp_path):
    S = SampleSet([(vec(0), vec(0)), (vec(1), vec(3)), (vec(5), vec(25))],
                  1, 1)
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(S.to_json()))
    return str(path)


@pytest.fixture()
def sites_file(tmp_path):
    H = WeightedSiteSet([(vec(0), num(1)), (vec(25), num(1)),
                         (vec(3), num(5))])
    path = tmp_path / "sites.json"
    path.write_text(json.dumps(H.to_json()))
    return str(path)


# ---------------------------------------------------------------------------
# pointwise verbs
# ---------------------------------------------------------------------------

def test_eval_prints_value(capsys):
    code, out, _ = run(capsys, "eval", "--p", "5", "--f", "x0*x0+3",
                       "--x", "2")
    assert code == 0
    assert out == "7\n"


def test_eval_writes_canonical_json(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "eval", "--p", "5", "--f", "x0+1", "--x", "4",
                     "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.endswith("\n")
    obj = json.loads(text)
    assert obj["pretty"] == "5"
    assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_quotient_golden(capsys):
    code, out, _ = run(capsys, "quotient", "--p", "5", "--f", "x0*x0",
                       "--x", "1", "--v", "1", "--t", "5")
    assert code == 0
    assert out == "7\n"


def test_quotient_second_order(capsys):
    # phi2 of x^2 at (0; 1, 1; t, s) is the constant second divided power 1
    code, out, _ = run(capsys, "quotient", "--p", "5", "--f", "x0*x0",
                       "--x", "0", "--v", "1", "--v", "1",
                       "--t", "5", "--t", "25")
    assert code == 0
    assert out == "1\n"


def test_quotient_keeps_the_window_of_its_inputs(capsys, tmp_path):
    # every input is known to 80 digits and 1! is exact: (1 + 5)^3 - 1 =
    # 5 * 43 is known mod 5^80, so its quotient by t = 5 is 43 known to 79
    # digits, not cut at a fixed window of 64 for the denominator
    out_path = tmp_path / "q.json"
    code, out, _ = run(capsys, "quotient", "--prec", "80", "--f", "x0*x0*x0",
                       "--x", "1", "--v", "1", "--t", "5",
                       "--out", str(out_path))
    assert (code, out) == (0, "43\n")
    [value] = json.loads(out_path.read_text())["value"]
    digits, _, rest = value.partition("e")
    assert rest == "0@5"
    assert digits.split(",") == ["3", "3", "1"] + ["0"] * 76


def test_taylor_exact_route(capsys, tmp_path):
    out_path = tmp_path / "taylor.json"
    code, out, _ = run(capsys, "taylor", "--p", "5", "--f", "x0*x0*x0",
                       "--y", "2", "--x", "7", "--n", "2",
                       "--out", str(out_path))
    assert code == 0
    assert "residual norm 0" in out
    assert json.loads(out_path.read_text())["exact"] is True


@pytest.mark.parametrize("f,y,x", [("1/(1+x0)", "0", "5"),
                                   ("x0*x0*x0+ch(1;1)", "1", "6")])
def test_taylor_rational_and_indicator_sources_are_exact(capsys, f, y, x):
    """1/(1+x0) about 0: 1/6 - (1 - 5 + 25) = -125/6; the cubic with its
    indicator about 1: 217 - (2 + 15 + 75) = 125."""
    code, out, _ = run(capsys, "taylor", "--p", "5", f"--f={f}", "--y", y,
                       "--x", x, "--n", "1")
    assert code == 0
    assert out == f"order 1 about {y}: residual norm 1/125 (exact route)\n"


# ---------------------------------------------------------------------------
# measure verbs
# ---------------------------------------------------------------------------

def test_density_golden(capsys):
    code, out, _ = run(capsys, "density", "--p", "5",
                       "--set", "ball(0;1)", "--at", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert [l.split()[1] for l in lines[:3]] == ["1", "1", "1"]
    assert lines[-1] == "verdict: converges-to-1"


def test_density_csv_report(capsys, tmp_path):
    out_path = tmp_path / "density.csv"
    code, _, _ = run(capsys, "density", "--p", "5", "--set", "ball(0;1)",
                     "--at", "0", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "j,numerator,denominator"
    assert lines[1].startswith("1,")
    assert all(len(l.split(",")) == 3 for l in lines[1:])


def test_aplimit_confirmed(capsys):
    code, out, _ = run(capsys, "aplimit", "--p", "5", "--f", "ch(0;1)",
                       "--x", "0", "--value", "1", "--eps", "1/2")
    assert code == 0
    assert "confirmed" in out


def test_aplimit_on_a_grid_counts_at_its_resolution(capsys, tmp_path):
    """With no --resolution, a grid read with --in is counted at its own
    resolution, 4 here, and not at the finest level 3."""
    f = SymbolicFunction.from_sources(P, ["x0*x0+ch(1;1)"])
    grid = GridFunction.from_callable(Ball(vec(0), 0), 4, f)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid.to_json()))
    argv = ["aplimit", "--in", str(path), "--x", "1", "--value", "2",
            "--eps", "1/25"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "j=1: off-target density 4/5 (100/125)",
        "j=2: off-target density 0 (0/25)",
        "j=3: off-target density 0 (0/5)",
        "ap-limit 2 at 1: confirmed"]
    assert run(capsys, *argv, "--resolution", "4")[:2] == (0, out)
    assert run(capsys, *argv, "--resolution", "3")[:2] != (0, out)


@pytest.mark.parametrize("source", ["f", "grid"])
def test_aplimit_checks_the_cap_before_it_counts(capsys, tmp_path, source):
    """5^30 cosets at level 0: the descent (--f) and the enumeration (--in)
    each refuse them with one resource cap: line before they allocate
    anything."""
    if source == "f":
        head = ["--p", "5", "--f", "x0"]
    else:
        f = SymbolicFunction.from_sources(P, ["x0"])
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(
            GridFunction.from_callable(Ball(vec(0), 0), 2, f).to_json()))
        head = ["--in", str(path)]
    assert run(capsys, "aplimit", *head, "--x", "0", "--value", "0",
               "--eps", "1/25", "--levels", "0,1,2",
               "--resolution", "30") == (3, "", (
                   "resource cap: 931322574615478515625 cosets exceed the "
                   "cap of 10000000; raise the cap or coarsen\n"))


def test_aplimit_cap_bounds_the_totals_it_counts(capsys):
    """5^11 cosets at level 1 exceed the default cap, though the descent
    counts them in a few visits: --cap 10^8 lets aplimit answer, and
    --cap 1 refuses."""
    argv = ["aplimit", "--p", "5", "--f", "x0*x0", "--x", "1", "--value",
            "1", "--eps", "1/25", "--levels", "1,2,3", "--resolution", "12"]
    refusal = ("resource cap: 48828125 cosets exceed the cap of {}; raise "
               "the cap or coarsen\n")
    assert run(capsys, *argv) == (3, "", refusal.format(10000000))
    code, out, _ = run(capsys, *argv, "--cap", "100000000")
    assert (code, out.splitlines()[-1]) == (0, "ap-limit 1 at 1: confirmed")
    assert run(capsys, *argv, "--cap", "1") == (3, "", refusal.format(1))


_HUGE = "99999999999"


@pytest.mark.parametrize("argv, count", [
    (["density", "--p", "5", "--set", "ball(0;0)", "--at", "0",
      "--levels", "0,1,2", "--resolution", "10000"], "5^10000"),
    (["density", "--p", "5", "--set", "ball(0;0)", "--at", "0",
      "--levels", "0,1,2", "--resolution", _HUGE], "5^" + _HUGE),
    (["density", "--p", "5", "--set", "ball(0;0)", "--at", "0",
      "--levels", "0,1,2", "--resolution", "5000"], str(5 ** 5000)),
    (["aplimit", "--p", "5", "--f", "x0", "--x", "0", "--value", "0",
      "--eps", "1/25", "--levels", "0,1,2", "--resolution", _HUGE],
     "5^" + _HUGE),
    (["aplimit", "--p", "5", "--f", "x0", "--x", "0", "--value", "0",
      "--eps", "0", "--levels", "0,1,2", "--resolution", "10000"],
     "5^10000"),
    (["decompose", "--p", "5", "--f", "x0", "--domain", "ball(0;0)",
      "--resolution", "1", "--tol-exp", _HUGE], "5^" + _HUGE),
    (["scan", "--kind", "stepanoff", "--p", "5", "--f", "x0*x0",
      "--domain", "ball(0;0)", "--K", "10000", "--eps", "1/25"],
     "5^10000")])
def test_cap_checks_compare_exponents_first(capsys, argv, count):
    """density, aplimit by descent and by enumeration (density_at),
    decompose and the Stepanoff grid (enumerate_cosets) refuse a count past
    the cap without raising p to it: digit for digit where Python prints
    an int that long, as p^e past that."""
    assert run(capsys, *argv) == (3, "", (
        f"resource cap: {count} cosets exceed the cap of 10000000; raise "
        f"the cap or coarsen\n"))


def test_grid_row_count_compares_exponents_first(capsys, tmp_path):
    """A grid file whose domain has rad_exp -99999999 expects 5^100000000
    rows at resolution 1: refused without raising 5 to that power."""
    f = SymbolicFunction.from_sources(P, ["x0"])
    grid = GridFunction.from_callable(Ball(vec(0), 0), 1, f).to_json()
    path = tmp_path / "grid.json"
    for rad_exp, expected in [(-3, "625"), (-99999999, "5^100000000")]:
        grid["domain"]["rad_exp"] = rad_exp
        path.write_text(json.dumps(grid))
        assert run(capsys, "scan", "--kind", "holder", "--in", str(path),
                   "--r", "1") == (2, "", (
                       f"error: grid table has 5 entries, expected "
                       f"{expected}\n"))


@pytest.mark.parametrize("verb", [["scan", "--kind", "holder", "--r", "1"],
                                  ["decompose", "--tol-exp", "2"]])
def test_a_grid_resolution_below_its_rad_exp_is_refused(capsys, tmp_path,
                                                        verb):
    """A grid file whose resolution (1) is below its domain's rad_exp (3)
    has no coset count: both grid readers refuse it as enumerate_cosets
    does, not with a fractional row count."""
    grid = {"domain": {"center": ["0@5"], "rad_exp": 3}, "resolution": 1,
            "dims": [1, 1], "table": [[["0@5"], ["0@5"]]]}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    assert run(capsys, *verb, "--in", str(path)) == (2, "", (
        "error: resolution must be at least the ball's rad_exp\n"))


def test_reports_write_the_parsed_rational(capsys, tmp_path, sites_file):
    """aplimit's eps and cheb's r are written as the rational they parse
    to, so every spelling of one value gives one report."""
    for argv, option, spellings in (
            (["aplimit", "--p", "5", "--f", "ch(0;1)", "--x", "0",
              "--value", "1"], "--eps", ("0.5", "1/2", "2/4")),
            (["cheb", "--in", sites_file], "--r", ("0.5", "1/2", "2/4"))):
        reports = set()
        for i, text in enumerate(spellings):
            path = tmp_path / f"{argv[0]}{i}.json"
            code, out, _ = run(capsys, *argv, option, text, "--out", str(path))
            assert code == 0
            reports.add((out, path.read_bytes()))
        assert len(reports) == 1
        assert f'"{option[2:]}": "1/2"' in reports.pop()[1].decode()


@pytest.mark.parametrize("argv", [
    ["aplimit", "--p", "5", "--f", "x0", "--x", "0", "--value", "0"],
    ["scan", "--kind", "stepanoff", "--p", "5", "--f", "x0",
     "--domain", "ball(0;0)", "--K", "1"]])
def test_negative_tolerance_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--eps=-1/25")
    assert code == 2
    assert "eps" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["density", "--p", "5", "--set", "ball(0;1)", "--at", "0"],
    ["aplimit", "--p", "5", "--f", "x0", "--x", "0", "--value", "0",
     "--eps", "1"],
    ["scan", "--kind", "stepanoff", "--p", "5", "--f", "x0",
     "--domain", "ball(0;0)", "--K", "1"]])
@pytest.mark.parametrize("levels", ["1,1,1", "1,1,2", "2,1,2"])
def test_repeated_levels_exit_2(capsys, argv, levels):
    """One level counted twice would pass for a third level of the decay
    profile and confirm a limit from a single ratio."""
    code, out, err = run(capsys, *argv, "--levels", levels)
    assert code == 2
    assert "given twice" in err and out == ""


def test_decompose_reports_residual(capsys, tmp_path):
    out_path = tmp_path / "dec.json"
    code, out, _ = run(capsys, "decompose", "--p", "5",
                       "--f", "ch(0;1)+2*ch(2;1)", "--domain", "ball(0;0)",
                       "--resolution", "2", "--tol-exp", "2",
                       "--out", str(out_path))
    assert code == 0
    assert "max residual 0" in out
    obj = json.loads(out_path.read_text())
    assert len(obj["terms"]) == 2
    # the indicator sets round-trip as grid functions
    for term in obj["terms"]:
        GridFunction.from_json(term["set"])


def test_decompose_of_zero_has_no_terms(capsys, tmp_path):
    out_path = tmp_path / "zero.json"
    code, out, _ = run(capsys, "decompose", "--p", "5", "--f", "0",
                       "--domain", "ball(0;0)", "--out", str(out_path))
    assert (code, out) == (0, "0 terms (function is identically zero)\n")
    assert json.loads(out_path.read_text()) == \
        {"residual": "0", "terms": [], "verb": "decompose"}


def test_decompose_counts_its_dense_sequence_against_the_cap(capsys):
    """--tol-exp 6 over values of valuation 0 needs 5^6 = 15625 net
    values: past --cap 1000, refused before any is built."""
    code, out, err = run(capsys, "decompose", "--p", "5", "--f", "x0",
                         "--domain", "ball(0;0)", "--resolution", "1",
                         "--tol-exp", "6", "--cap", "1000")
    assert code == 3 and out == ""
    assert err.startswith("resource cap: 15625 ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# extension verbs
# ---------------------------------------------------------------------------

def test_certify_ok(capsys, sample_file):
    code, out, _ = run(capsys, "certify", "--in", sample_file)
    assert code == 0
    assert "certified" in out


def test_certify_violation_exits_1(capsys, tmp_path):
    bad = SampleSet([(vec(0), vec(0)), (vec(5), vec(1))], 1, 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, out, _ = run(capsys, "certify", "--in", str(path))
    assert code == 1
    assert "violation" in out


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_certify_violation_exits_1_without_listing(capsys, tmp_path, budget):
    bad = SampleSet([(vec(0), vec(0)), (vec(5), vec(1))], 1, 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "certify", "--in", str(path),
                       "--max-violations", budget, "--out", str(out_path))
    assert code == 1
    assert out.startswith("not certified")
    report = json.loads(out_path.read_text())
    assert report["ok"] is False and report["violations"] == []


@pytest.mark.parametrize("C", [0.1, True, 1, "1/0", "1.5", " 1"])
def test_certify_rejects_non_canonical_constant(capsys, tmp_path, C):
    """C must be written "n" or "n/d": a float would be certified against
    its binary expansion and true would be read as 1."""
    obj = SampleSet([(vec(0), vec(0)), (vec(5), vec(1))], 1, 1).to_json()
    obj["constants"]["C"] = C
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "certify", "--in", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: malformed rational")


def test_extend_writes_grid(capsys, sample_file, tmp_path):
    out_path = tmp_path / "ext.json"
    code, out, _ = run(capsys, "extend", "--in", sample_file,
                       "--domain", "ball(0;0)", "--resolution", "2",
                       "--out", str(out_path))
    assert code == 0
    assert "25 cosets" in out
    g = GridFunction.from_json(json.loads(out_path.read_text()))
    assert (g.evaluate(vec(1)) - vec(3)).sup_norm() == 0


def test_extend_refuses_a_set_that_fails_its_constants(capsys, tmp_path):
    """|1 - 0| = 1 > 1 * |5 - 0|: the set is not (1, 1)-Hölder, so no
    grid is written."""
    bad = SampleSet([(vec(0), vec(0)), (vec(5), vec(1))], 1, 1)
    path, out_path = tmp_path / "bad.json", tmp_path / "grid.json"
    path.write_text(json.dumps(bad.to_json()))
    code, out, _ = run(capsys, "extend", "--in", str(path), "--domain",
                       "ball(0;0)", "--resolution", "1", "--out",
                       str(out_path))
    assert (code, out) == \
        (1, "sample set is not (1, 1)-Hölder; refusing to extend\n")
    assert not out_path.exists()


def test_cheb_over_coincident_centres_has_radius_zero(capsys, tmp_path):
    H = WeightedSiteSet([(vec(3), num(1)), (vec(3), num(5))])
    path, out_path = tmp_path / "same.json", tmp_path / "cheb.json"
    path.write_text(json.dumps(H.to_json()))
    code, out, _ = run(capsys, "cheb", "--in", str(path), "--out",
                       str(out_path))
    assert (code, out) == (0, "c = 0 (all centers coincide)\nq = 3\n")
    report = json.loads(out_path.read_text())
    assert report["zero_radius"] is True and report["tight"] == []


def test_cheb_reports_radius_and_center(capsys, sites_file):
    code, out, _ = run(capsys, "cheb", "--in", sites_file, "--r", "1")
    assert code == 0
    assert "c = 5^0" in out
    assert "q = 3" in out


def test_ej_verifies(capsys):
    code, out, _ = run(capsys, "ej", "--p", "5", "--f", "ch(0;1)",
                       "--domain", "ball(0;0)", "--resolution", "2",
                       "--r", "1")
    assert code == 0
    assert "E_0: 25 points" in out
    assert "verified" in out


def test_ej_finds_the_least_class_whatever_the_order_of_the_j_range(capsys):
    argv = ["ej", "--p", "5", "--f", "x0*x0*x0+ch(3;2)", "--domain",
            "ball(0;0)", "--resolution", "3", "--j-range"]
    up, down = run(capsys, *argv, "0,1,2"), run(capsys, *argv, "2,1,0")
    assert up == down
    assert up[1].startswith("E_0: 120 points\nE_1: 5 points\n")


@pytest.mark.parametrize("r", ["0", "-1", "3/2"])
def test_ej_refuses_an_exponent_outside_the_unit_interval(capsys, tmp_path,
                                                          r):
    """An r outside (0, 1] gives no Hölder classes: exit 2 with one line,
    not "verified"."""
    path = tmp_path / "ej.json"
    code, out, err = run(capsys, "ej", "--p", "5", "--f", "x0",
                         "--domain", "ball(0;0)", "--resolution", "2",
                         f"--r={r}", "--out", str(path))
    assert code == 2 and out == ""
    assert err == "error: Hölder exponent must lie in (0, 1]\n"
    assert not path.exists()


# ---------------------------------------------------------------------------
# whitney verbs
# ---------------------------------------------------------------------------

@pytest.fixture()
def jets_file(capsys, tmp_path):
    path = tmp_path / "jets.json"
    code, _, _ = run(capsys, "whitney", "build", "--p", "5",
                     "--f", "x0*x0", "--set", "ball(0;1)",
                     "--resolution", "3", "--k", "1", "--out", str(path))
    assert code == 0
    return str(path)


def test_whitney_build_counts_jets(capsys, tmp_path):
    path = tmp_path / "jets.json"
    code, out, _ = run(capsys, "whitney", "build", "--p", "5",
                       "--f", "x0*x0", "--set", "ball(0;1)",
                       "--resolution", "3", "--k", "1", "--out", str(path))
    assert code == 0
    assert "built 25 jets" in out
    json.loads(path.read_text())


def test_whitney_build_overlapping_balls_one_jet_per_coset(capsys, tmp_path):
    """ball(0;2) lies inside ball(0;1): its five cosets get one jet each."""
    path = tmp_path / "jets.json"
    code, out, _ = run(capsys, "whitney", "build", "--p", "5",
                       "--f", "x0*x0", "--set", "ball(0;1)|ball(0;2)",
                       "--resolution", "3", "--k", "1", "--out", str(path))
    assert code == 0
    assert "built 25 jets" in out
    reps = [z for z, _ in json.loads(path.read_text())["jets"]]
    assert len(reps) == len({tuple(z) for z in reps}) == 25


def test_whitney_build_limit_route_jet_at_zero(capsys, tmp_path):
    """At the representative 0 only f(0) carries the window of the ch()
    constants; the slope 4 must survive there as at every other point."""
    path = tmp_path / "jets.json"
    code, out, _ = run(capsys, "whitney", "build", "--p", "5",
                       "--f=4*x0+4+2*ch(0;2)+3*ch(8;1)",
                       "--set", "ball(0;2)|ball(7;2)",
                       "--resolution", "4", "--k", "1", "--out", str(path))
    assert code == 0
    assert "built 50 jets" in out
    jets = json.loads(path.read_text())["jets"]
    assert jets[0] == [["0@5"], [[[[0], "6/1"], [[1], "4/1"]]]]
    assert all([[1], "4/1"] in tables[0] for _, tables in jets)


def test_whitney_build_rational_jet_at_zero(capsys, tmp_path):
    """The jet of 1/(1+x0) at 0 is 1 - x0 + x0^2."""
    path = tmp_path / "jets.json"
    code, _, _ = run(capsys, "whitney", "build", "--p", "5",
                     "--f=1/(1+x0)", "--set", "ball(0;2)",
                     "--resolution", "3", "--k", "1", "--out", str(path))
    assert code == 0
    jets = json.loads(path.read_text())["jets"]
    assert jets[0] == [["0@5"], [[[[0], "1/1"], [[1], "-1/1"],
                                  [[2], "1/1"]]]]


def test_whitney_build_polynomial_plus_indicator_sources(capsys, tmp_path):
    """40 seeded poly + c*ch(...) sources on two balls of radius 5^-2: every
    build succeeds, and every jet reproduces f at its representative."""
    from qpcalc.whitney import JetField
    rng = random.Random(40)
    path = tmp_path / "jets.json"
    for _ in range(40):
        terms = [f"{rng.randrange(1, 25)}*x0"] + [
            f"{rng.randrange(1, 25)}" + "*x0" * e
            for e in range(2, rng.randrange(2, 4))]
        src = "+".join(terms) + (f"+{rng.randrange(1, 5)}+{rng.randrange(1, 5)}"
                                 f"*ch({rng.randrange(125)};{rng.randrange(3)})")
        balls = "|".join(f"ball({rng.randrange(125)};2)" for _ in range(2))
        code, _, err = run(capsys, "whitney", "build", "--p", "5",
                           f"--f={src}", "--set", balls, "--resolution", "3",
                           "--k", "1", "--out", str(path))
        assert code == 0, (src, err)
        f = SymbolicFunction.from_sources(5, [src])
        J = JetField.from_json(json.loads(path.read_text()))
        for z, polys in J.jets:
            assert J.evaluate_jet(polys, z).coords[0].as_fraction() == \
                f(z).coords[0].as_fraction()


def test_whitney_eval_reproduces_polynomial(capsys, jets_file):
    code, out, _ = run(capsys, "whitney", "eval", "--jets", jets_file,
                       "--x", "7")
    assert code == 0
    assert out == "49\n"


def test_whitney_eval_refuses_two_jets_in_one_coset(capsys, tmp_path):
    """The later of two jets in one coset once answered: this printed 2."""
    path = tmp_path / "jets.json"
    path.write_text(json.dumps(
        {"k": 0, "resolution": 1, "A": [{"center": ["0@5"], "rad_exp": 1}],
         "jets": [[["0@5"], [[[[0], "1/1"]]]], [["1e1@5"], [[[[0], "2/1"]]]]]}))
    code, out, err = run(capsys, "whitney", "eval", "--jets", str(path),
                         "--x", "0", "--resolution", "5")
    assert code == 2 and out == ""
    assert err == "error: duplicate coset in jet field\n"


def test_whitney_verify_dominated(capsys, jets_file, tmp_path):
    out_path = tmp_path / "verify.json"
    code, out, _ = run(capsys, "whitney", "verify", "--jets", jets_file,
                       "--samples", "8", "--seed", "3",
                       "--out", str(out_path))
    assert code == 0
    assert "VIOLATED" not in out
    rows = json.loads(out_path.read_text())["rows"]
    assert [row["order"] for row in rows] == [0, 1]


@pytest.fixture()
def q5_field(capsys, tmp_path):
    """x0*x1+x0 on two radius-5^-2 balls of Z_5^2: 50 jets at resolution 3."""
    path = tmp_path / "q52.json"
    code, out, _ = run(capsys, "whitney", "build", "--p", "5",
                       "--f", "x0*x1+x0", "--set", "ball(0,0;2)|ball(7,3;2)",
                       "--resolution", "3", "--k", "1", "--out", str(path))
    assert code == 0 and "built 50 jets" in out
    return str(path)


def test_whitney_eval_enumerates_no_domain_coset(capsys, q5_field, monkeypatch):
    """At glue resolution 5 the domain Z_5^2 has 5^10 cosets; the glue
    counts its two checks, and eval and verify evaluate jets only."""
    import qpcalc.measure
    import qpcalc.whitney
    calls = []
    for module in (qpcalc.measure, qpcalc.whitney):
        real = module.enumerate_cosets
        monkeypatch.setattr(module, "enumerate_cosets",
                            lambda *a, real=real, **kw:
                            calls.append(a) or real(*a, **kw))
    code, out, _ = run(capsys, "whitney", "eval", "--jets", q5_field,
                       "--x", "1,2", "--resolution", "5")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "whitney", "verify", "--jets", q5_field,
                       "--samples", "4", "--seed", "1", "--resolution", "5")
    assert code == 0 and "VIOLATED" not in out
    assert calls == []


@pytest.mark.parametrize("extra,code,message", [
    (("--resolution", "2"), 2, "too coarse"),
    (("--resolution", "6"), 0, "3"),
    (("--domain", "ball(1,0;1)"), 2, "partition property violated"),
])
def test_whitney_eval_exits(capsys, q5_field, extra, code, message):
    """A resolution below s0 + 1 and a point that lies outside the domain
    and its supports are refused with the message given; a glue over the
    5^12 domain cosets of resolution 6 prints the value given, as no coset
    is enumerated."""
    got, out, err = run(capsys, "whitney", "eval", "--jets", q5_field,
                        "--x", "1,2", *extra)
    assert got == code
    if code:
        assert out == "" and message in err
    else:
        assert (out, err) == (message + "\n", "")


_EVAL = ("eval", "--x", "1,2")
_VERIFY = ("verify", "--seed", "1", "--samples", "1")


@pytest.mark.parametrize("option, action", [
    pytest.param(("--cap", "100"), _EVAL, id="option0-action0"),
    pytest.param(("--zeta", "2"), _EVAL, id="option1-action0"),
    pytest.param(("--zeta", "2"), _VERIFY, id="option1-action1")])
def test_whitney_glue_takes_no_cap_or_zeta(capsys, q5_field, action, option):
    """The glue counts its domain and the bound is built for the sampler's
    increments, so eval takes neither option and verify no --zeta:
    argparse refuses them.  verify's --cap counts the modulus's pair
    bounds (test_whitney_verify_counts_pair_bounds_against_the_cap)."""
    code, out, err = run(capsys, "whitney", action[0], "--jets", q5_field,
                         *action[1:], *option)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_whitney_verify_counts_pair_bounds_against_the_cap(capsys, tmp_path):
    """The moduli of one verify share one budget of --cap pair bounds: a
    field of two jet classes answers under the default cap and exits 3,
    with one stderr line and no report, under a cap below its pairs."""
    path, report = tmp_path / "jets.json", tmp_path / "rows.json"
    code, _, _ = run(capsys, "whitney", "build", "--p", "5",
                     "--f", "x0*x0*x0", "--set", "ball(0;1)",
                     "--resolution", "3", "--k", "1", "--out", str(path))
    assert code == 0
    argv = ("whitney", "verify", "--jets", str(path), "--seed", "1",
            "--samples", "4", "--out", str(report))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "VIOLATED" not in out
    report.unlink()
    code, out, err = run(capsys, *argv, "--cap", "3")
    assert (code, out) == (3, "")
    assert err.startswith("resource cap: ") and err.count("\n") == 1
    assert "pair bounds exceed the cap of 3" in err
    assert not report.exists()


# one argv per verb, with the options argparse requires; certify and cheb
# take no --prec (their JSON input carries every window)
_EVERY_VERB = [
    ("eval", "--x", "1"), ("quotient", "--x", "1", "--v", "1", "--t", "1"),
    ("taylor", "--x", "1", "--y", "0", "--n", "1"),
    ("density", "--set", "ball(0;1)", "--at", "0"),
    ("aplimit", "--x", "0", "--value", "0"), ("decompose",),
    ("certify", "--in", "s.json"),
    ("extend", "--in", "s.json", "--domain", "ball(0;0)", "--resolution", "1"),
    ("cheb", "--in", "h.json"), ("ej",),
    ("whitney", "build", "--set", "ball(0;1)", "--resolution", "2", "--k", "1"),
    ("whitney", "eval", "--jets", "j.json", "--x", "1"),
    ("whitney", "verify", "--jets", "j.json", "--seed", "1"),
    ("scan",), ("identities", "--seed", "1"),
]
_NO_PREC = {"certify", "cheb"}


@pytest.mark.parametrize("argv", _EVERY_VERB, ids=lambda a: " ".join(a[:2]))
@pytest.mark.parametrize("prec", ["0", "-3"])
def test_every_verb_refuses_a_window_below_one_digit(capsys, argv, prec):
    """`eval --f x0+1 --x 3 --prec 0` once printed 0 and exited 0, and
    `--prec -3` ended in a TypeError traceback.  certify and cheb have no
    --prec, so argparse refuses the option itself."""
    code, out, err = run(capsys, *argv, "--prec", prec)
    assert (code, out) == (2, "")
    if argv[0] in _NO_PREC:
        assert err.startswith("usage: ")
        assert err.endswith(
            f" error: unrecognized arguments: --prec {prec}\n")
    else:
        assert err == f"error: --prec must be at least 1, got {prec}\n"


_READS_ITS_INPUT = {
    "certify": ("certify", "--in", "s.json"),
    "cheb": ("cheb", "--in", "h.json"),
    "extend": ("extend", "--in", "s.json", "--domain", "ball(0;0)",
               "--resolution", "1"),
    "whitney eval": ("whitney", "eval", "--jets", "j.json", "--x", "1"),
    "whitney verify": ("whitney", "verify", "--jets", "j.json", "--seed", "1"),
}


@pytest.mark.parametrize("verb,option", [
    pytest.param(_READS_ITS_INPUT[name], option, id=f"{name} {option[0]}")
    for name, option in (
        ("certify", ("--p", "7")), ("certify", ("--prec", "8")),
        ("cheb", ("--p", "7")), ("cheb", ("--prec", "8")),
        ("extend", ("--p", "7")), ("whitney eval", ("--p", "7")),
        ("whitney verify", ("--p", "7")))])
def test_a_verb_that_reads_its_input_refuses_p_and_prec(capsys, verb, option):
    """These verbs take their prime, and certify and cheb every window,
    from their JSON input; `certify --p 7` on a 5-adic file once ran in
    Q_5 and exited 0.  Argparse now refuses each option before any file
    is read."""
    code, out, err = run(capsys, *verb, *option)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(option)}" in err


def _refused(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_ch_radius_is_an_integer_negatives_allowed(capsys):
    """ch(0;-1) is 1 on p^-1 Z_p; it once folded its radius to 5^24 - 1 and
    printed 0 here.  A radius that is not an integer exits 2."""
    assert run(capsys, "eval", "--p", "5", "--x", "1", "--f",
               "ch(0;-1)") == (0, "1\n", "")
    for src in ["ch(0;1/2)", "ch(0;x0)"]:
        code, out, err = run(capsys, "eval", "--p", "5", "--x", "1",
                             "--f", src)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert "ch radius exponent must be an integer" in err


def test_taylor_refuses_a_negative_order(capsys):
    """This once printed "order -1 ... residual norm 1" and exited 0."""
    _refused(capsys, ["taylor", "--f", "x0*x0", "--y", "0", "--x", "1",
                      "--n", "-1"], "--n must be at least 0, got -1")


@pytest.mark.parametrize("option, message", [
    (("--k", "-1"), "--k must be at least 0, got -1"),
    (("--k", "1", "--degree", "-1"), "--degree must be at least 0, got -1")])
def test_whitney_build_refuses_a_negative_order(capsys, tmp_path, option,
                                                message):
    """--k -1 once wrote 25 jets of order -1, on which verify printed no
    row and exited 0."""
    path = tmp_path / "jets.json"
    _refused(capsys, ["whitney", "build", "--f", "x0*x0", "--set",
                      "ball(0;1)", "--resolution", "3", *option,
                      "--out", str(path)], message)
    assert not path.exists()


@pytest.mark.parametrize("f, balls, m", [
    ("x0", "ball(0;1)|ball(0,0;1)", 1), ("x0*x1", "ball(0;1)", 2),
    ("x0", "ball(0,0;1)", 1)])
def test_whitney_build_refuses_a_set_outside_the_domain_of_f(
        capsys, tmp_path, f, balls, m):
    """A ball of another dimension once gave a jet file that `whitney
    eval` refused ("a jet term's exponents are a list of 2 integers")."""
    path = tmp_path / "jets.json"
    _refused(capsys, ["whitney", "build", "--f", f, "--set", balls,
                      "--resolution", "2", "--k", "1", "--out", str(path)],
             f"a ball of the closed set is not in Q_5^{m}, where f is "
             f"defined")
    assert not path.exists()


@pytest.mark.parametrize("option, message", [
    (("--samples", "0"), "--samples must be at least 1, got 0"),
    (("--orders=-1",), "--orders must lie in 0..1, got -1"),
    (("--orders", "0,2"), "--orders must lie in 0..1, got 0,2")])
def test_whitney_verify_refuses_a_vacuous_check(capsys, jets_file, tmp_path,
                                                option, message):
    """--samples 0 once wrote "rows": [] and exited 0, and --orders=-1
    checked order 0."""
    path = tmp_path / "verify.json"
    _refused(capsys, ["whitney", "verify", "--jets", jets_file, "--seed",
                      "1", *option, "--out", str(path)], message)
    assert not path.exists()


@pytest.mark.parametrize("action", [("verify", "--seed", "1"),
                                    ("eval", "--x", "1")])
def test_whitney_refuses_a_jet_file_of_negative_order(capsys, jets_file,
                                                      action):
    """A file of order -1 once verified with no row and exit 0."""
    field = json.loads(open(jets_file).read())
    field["k"] = -1
    with open(jets_file, "w") as fh:
        json.dump(field, fh)
    _refused(capsys, ["whitney", action[0], "--jets", jets_file,
                      *action[1:]], "jet order k must be at least 0, got -1")


def test_whitney_eval_domain_inside_a_has_no_site(capsys, tmp_path):
    """The domain ball(11;2) lies inside A = ball(1;1): no support site."""
    path = tmp_path / "jets.json"
    assert run(capsys, "whitney", "build", "--p", "5", "--f", "x0*x0",
               "--set", "ball(1;1)", "--resolution", "3", "--k", "1",
               "--out", str(path))[0] == 0
    code, out, err = run(capsys, "whitney", "eval", "--jets", str(path),
                         "--x", "11", "--domain", "ball(11;2)")
    assert (code, out) == (2, "")
    assert "empty site list" in err


# ---------------------------------------------------------------------------
# scans and identities
# ---------------------------------------------------------------------------

def test_scan_stepanoff_full_fraction(capsys):
    code, out, _ = run(capsys, "scan", "--p", "5", "--f", "x0*x0",
                       "--domain", "ball(0;0)", "--K", "2",
                       "--eps", "1/25")
    assert code == 0
    assert "fraction: 1 (25/25)" in out


def test_scan_stepanoff_indicator_mix_full_fraction(capsys):
    code, out, _ = run(capsys, "scan", "--p", "5", "--f=125*x0+2*ch(18;1)",
                       "--domain", "ball(0;0)", "--K", "1", "--eps", "1/25")
    assert code == 0
    assert "fraction: 1 (5/5)" in out


def test_scan_stepanoff_cap(capsys, tmp_path):
    """--cap bounds the grid and, without the counting rule (eps = 0),
    every density estimate; a cap no count reaches changes nothing."""
    argv = ["scan", "--p", "5", "--f", "x0*x0", "--domain", "ball(0;0)",
            "--K", "1", "--eps", "0"]
    code, _, err = run(capsys, *argv, "--cap", "1")
    assert code == 3 and "cap" in err
    code, _, err = run(capsys, *argv, "--cap", "100")   # grid 5, densities 625
    assert code == 3 and "cap" in err
    reports = []
    for extra in ([], ["--cap", "625"]):
        path = tmp_path / f"scan{len(reports)}.json"
        code, out, _ = run(capsys, *argv, *extra, "--out", str(path))
        assert code == 0
        reports.append((out, path.read_bytes()))
    assert reports[0] == reports[1]


def test_scan_stepanoff_counts_pair_tests_against_the_cap(capsys,
                                                          monkeypatch):
    """Without the counting rule (eps = 0) each point of a ball is tested
    against each of the ball's cosets: at K = 2 in Z_5 a level-1 ball
    holds 5 points and 625 cosets, 3125 pair tests.  At eps = 1/25 the
    Z_5^2 scan at K = 3 takes the rule, whose 25 balls of 625 points would
    make 2.4e8 pair tests each: it counts the cosets it visits, 26 per
    point, and enumerates only the grid."""
    argv = ["scan", "--p", "5", "--f", "x0*x0", "--domain", "ball(0;0)",
            "--K", "2", "--eps", "0"]
    assert run(capsys, *argv, "--cap", "3125")[0] == 0
    assert run(capsys, *argv, "--cap", "3124") == (3, "", (
        "resource cap: 3125 pair tests exceed the cap of 3124; "
        "raise the cap or coarsen\n"))
    from qpcalc import quotients
    calls = []
    real = quotients.enumerate_cosets
    monkeypatch.setattr(quotients, "enumerate_cosets",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    argv = ["scan", "--kind", "stepanoff", "--p", "5", "--f", "x0*x1",
            "--m", "2", "--domain", "ball(0,0;0)", "--K", "3",
            "--eps", "1/25"]
    assert run(capsys, *argv, "--cap", "16250") == (
        0, "differentiable fraction: 1 (15625/15625)\n", "")
    assert [K for _, K in calls] == [3]
    assert run(capsys, *argv, "--cap", "16249") == (3, "", (
        "resource cap: 16250 coset visits exceed the cap of 16249; "
        "raise the cap or coarsen\n"))


@pytest.mark.parametrize("levels", ["2,3", "3"])
def test_scan_stepanoff_needs_three_levels(capsys, tmp_path, levels):
    """Below three levels every verdict is inconclusive, so the scan exits
    2 rather than print a differentiable fraction of 0."""
    path = tmp_path / "scan.json"
    code, out, err = run(capsys, "scan", "--p", "5", "--f", "x0*x0",
                         "--domain", "ball(0;0)", "--K", "2",
                         "--levels", levels, "--out", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "levels" in err
    assert not path.exists()


def test_scan_holder_constant(capsys):
    code, out, _ = run(capsys, "scan", "--p", "5", "--kind", "holder",
                       "--f", "ch(0;1)", "--domain", "ball(0;0)",
                       "--resolution", "2", "--r", "1")
    assert code == 0
    assert "constant (r=1): 1" in out


def test_identities_all_exact(capsys):
    code, out, _ = run(capsys, "identities", "--seed", "42",
                       "--samples", "40")
    assert code == 0
    assert "chain: 40/40 exact" in out
    assert "telescope: 40/40 exact" in out
    assert "product: 40/40 exact" in out
    assert "all identities exact" in out


def test_identities_byte_identical_across_jobs(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, _, _ = run(capsys, "identities", "--seed", "7", "--samples", "30",
                      "--jobs", "1", "--out", str(a))
    code2, _, _ = run(capsys, "identities", "--seed", "7", "--samples", "30",
                      "--jobs", "4", "--out", str(b))
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("samples, cpus, threads", [
    (5, 3, [3, 64]), (2, 8, [2, 64]), (5, None, [64]), (1, 4, [64]),
    (0, 4, [64])])
def test_identities_threads_are_capped(capsys, tmp_path, monkeypatch,
                                       samples, cpus, threads):
    """The suite runs in the calling thread, so --jobs is only checked:
    at every requested thread count and whatever the cores, the report is
    that of --jobs 1."""
    one, many = tmp_path / "one.json", tmp_path / "many.json"
    assert main(["identities", "--seed", "3", "--samples", str(samples),
                 "--out", str(one)]) == 0
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    for jobs in threads:
        assert main(["identities", "--seed", "3", "--samples", str(samples),
                     "--jobs", str(jobs), "--out", str(many)]) == 0
        assert many.read_bytes() == one.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["--samples", "-5"], "--samples"),
    (["--samples", "-1", "--jobs", "2"], "--samples"),
    (["--jobs", "0"], "--jobs"),
    (["--jobs", "-3"], "--jobs")])
def test_identities_refuses_invalid_counts(capsys, tmp_path, argv, flag):
    """A negative sample count once printed "chain: 0/-5 exact" and exited
    0, and a job count below 1 ran as if it were 1."""
    out_path = tmp_path / "ids.json"
    code, out, err = run(capsys, "identities", "--seed", "1", *argv,
                         "--out", str(out_path))
    assert code == 2
    assert out == "" and not out_path.exists()
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} must be")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_identities_refuses_a_composite_prime(capsys, tmp_path, jobs):
    """The suite's constants certify the prime, on every thread count."""
    out_path = tmp_path / "ids.json"
    code, out, err = run(capsys, "identities", "--p", "4", "--seed", "1",
                         "--samples", "3", "--jobs", jobs,
                         "--out", str(out_path))
    assert code == 2
    assert out == "" and not out_path.exists()
    assert err == "error: 4 is not a prime\n"


def test_identities_accepts_zero_samples(capsys):
    code, out, _ = run(capsys, "identities", "--seed", "1", "--samples", "0")
    assert code == 0
    assert "chain: 0/0 exact" in out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_parse_error_exits_2_with_offset(capsys):
    code, _, err = run(capsys, "eval", "--p", "5", "--f", "x0*+2", "--x", "1")
    assert code == 2
    assert "byte 3" in err


def test_resource_cap_exits_3(capsys):
    code, _, err = run(capsys, "density", "--p", "5", "--set", "ball(0;1)",
                       "--at", "0", "--cap", "10")
    assert code == 3
    assert "cap" in err


def test_usage_error_exits_2(capsys):
    code, _, _ = run(capsys, "no-such-verb")
    assert code == 2


def test_repeated_calls_in_one_process_print_the_same_bytes(capsys):
    """main reuses one argparse tree, built on its first call: usage
    errors, --help and repeated (appended) options in between leave the
    output of every later call unchanged."""
    calls = [["density", "--p", "5", "--set", "ball(0;1)|ball(3;2)",
              "--at", "0", "--levels", "1,2"],
             ["quotient", "--p", "5", "--f", "x0*x0", "--x", "1",
              "--v", "1", "--t", "5", "--v", "2", "--t", "25"],
             ["density", "--p"], ["--help"], ["quotient", "--help"],
             ["no-such-verb"]]
    first = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 2, 0, 0, 2]
    for _ in range(2):
        assert [run(capsys, *argv) for argv in calls] == first


def test_missing_function_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--p", "5", "--x", "1")
    assert code == 2
    assert "--f" in err


def test_large_prime_is_certified_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "--p", str(2**61 - 1), "--f", "x0+1",
                       "--x", "2")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == "3\n"


@pytest.mark.parametrize("p", [2**61 + 1, 3317044064679887385961981])
def test_composite_or_uncertifiable_prime_exits_2(capsys, p):
    code, _, err = run(capsys, "eval", "--p", str(p), "--f", "x0",
                       "--x", "1")
    assert code == 2
    assert err.startswith("error:")


def test_mismatched_literal_prime_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--p", "5", "--f", "x0",
                       "--x", "1,0e0@7")
    assert code == 2
    assert "7-adic" in err


@pytest.mark.parametrize("weight", [
    {"p": 5, "val": 0, "digits": [7]},
    {"p": 5, "val": 3, "digits": []},
    {"p": 5, "val": 0, "digits": ["1"]},
])
def test_malformed_json_number_exits_2(capsys, tmp_path, weight):
    path = tmp_path / "sites.json"
    path.write_text(json.dumps({"pairs": [[["1,0e0@5"], weight]]}))
    code, _, err = run(capsys, "cheb", "--in", str(path), "--r", "1")
    assert code == 2
    assert err.startswith("error:")


def test_grid_rep_outside_domain_exits_2(capsys, tmp_path):
    domain = {"center": ["0@5"], "rad_exp": 1}
    # the reps 0..4 name five distinct radius-5^-2 cosets, but only 0 lies
    # in ball(0;1)
    table = [[[f"{d},0e0@5" if d else "0@5"], ["1,0e0@5"]] for d in range(5)]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"domain": domain, "resolution": 2,
                                "dims": [1, 1], "table": table}))
    code, _, err = run(capsys, "scan", "--kind", "holder", "--in", str(path),
                       "--r", "1")
    assert code == 2
    assert "outside the domain" in err


MALFORMED = [
    ("certify", "--in", "[1,2]"),
    ("certify", "--in", '{"constants": {"C": "1", "r": "1"},'
                        ' "points": [[[5], ["1,0e0@5"]]]}'),
    ("cheb", "--in", '{"pairs": 3}'),
    ("scan", "--kind", "holder", "--in", "[]"),
    ("extend", "--domain", "ball(0;0)", "--resolution", "1", "--in",
     "[1,2]"),
    ("whitney", "eval", "--x", "1", "--jets", "[1,2]"),
    ("eval", "--x", "1", "--f", "(" * 3000 + "x0" + ")" * 3000),
]


def _grid(rad_exp, resolution):
    return json.dumps({"domain": {"center": ["0@5"], "rad_exp": rad_exp},
                       "resolution": resolution, "dims": [1, 1],
                       "table": []})


def _jets(entry, resolution):
    return json.dumps({"k": 1, "resolution": resolution,
                       "A": [{"center": ["0@5"], "rad_exp": 1}],
                       "jets": [entry]})


# nested fields that are not JSON integers or lists where the decoders
# need them
MALFORMED += [
    pytest.param(("scan", "--kind", "holder", "--in", _grid([1], 1)),
                 id="grid rad_exp list"),
    pytest.param(("scan", "--kind", "holder", "--in", _grid(0, [1])),
                 id="grid resolution list"),
    pytest.param(("whitney", "eval", "--x", "1", "--jets",
                  _jets([["0@5"], 5], 1)), id="jet tables number"),
    pytest.param(("whitney", "eval", "--x", "1", "--jets",
                  _jets([["0@5"], [[[[0], "1"]]]], "2")),
                 id="jet resolution string"),
    pytest.param(("whitney", "eval", "--x", "1", "--jets",
                  json.dumps({"k": 1, "resolution": 1, "A": [],
                              "jets": []})), id="no jets"),
]


@pytest.mark.parametrize("argv", MALFORMED, ids=lambda a: " ".join(a[:2]))
def test_malformed_input_exits_2_without_traceback(capsys, tmp_path, argv):
    """A top-level array, a coordinate written as a number, a pair list
    that is a number, and an expression nested past funcs.MAX_DEPTH are
    refused with exit 2 and one error line."""
    argv = list(argv)
    flag = "--f" if argv[0] == "eval" else \
        "--jets" if argv[0] == "whitney" else "--in"
    if flag != "--f":
        path = tmp_path / "input.json"
        path.write_text(argv[argv.index(flag) + 1])
        argv[argv.index(flag) + 1] = str(path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(("error:", "parse error:"))
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("verb,op,at_bound", [
    (("eval", "--x", "1"), "+", str(MAX_DEPTH + 1)),
    (("quotient", "--x", "1", "--v", "1", "--t", "5"), "*", None)])
def test_a_chain_past_the_depth_bound_exits_2(capsys, tmp_path, verb, op,
                                              at_bound):
    """A flat chain of MAX_DEPTH operators is evaluated; one of 3000
    operators, which overflowed the stack in the tree walks, exits 2 with
    one stderr line and writes no report."""
    out_file = tmp_path / "r.json"
    code, out, _ = run(capsys, *verb, "--p", "5",
                       "--f", op.join(["x0"] * (MAX_DEPTH + 1)))
    assert code == 0
    if at_bound is not None:
        assert out.strip() == at_bound
    code, out, err = run(capsys, *verb, "--p", "5", "--out", str(out_file),
                         "--f", op.join(["x0"] * 3000))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: expression nests too deeply")
    assert len(err.splitlines()) == 1
    assert not out_file.exists()


@pytest.mark.parametrize("V", [100, 1000])
def test_certify_deep_violation_level_in_closed_form(capsys, tmp_path,
                                                     monkeypatch, V):
    """Sites 0 and 5^V with values 1 and 5^V break C = 1, r = 1 at the
    split level V.  The gap level bounding the search is found without a
    comparison per level, so the count of magnitude comparisons does not
    grow with V."""
    from qpcalc.padic import ScaledBound
    real, calls = ScaledBound.holds, []
    monkeypatch.setattr(ScaledBound, "holds",
                        lambda *a: calls.append(a) or real(*a))
    S = SampleSet([(vec(0), vec(1)), (vec(5 ** V), vec(5 ** V))], 1, 1)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(S.to_json()))
    code, out, _ = run(capsys, "certify", "--in", str(path))
    assert code == 1
    assert out == f"violation: sites 0,1: gap PPow(5^0) > C * PPow(5^-{V})\n"
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the report writer
# ---------------------------------------------------------------------------

TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
LEAF = st.lists(TEXT, max_size=3)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(-10**60, 10**60), st.floats(), TEXT,
              st.lists(st.tuples(LEAF, LEAF).map(list),
                       max_size=4).map(PairTable)),
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.lists(inner, max_size=6).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=6)),
    max_leaves=60)


def _nested(depth, leaf):
    obj = leaf
    for i in range(depth):
        obj = [obj, i] if i % 2 else {"k": obj, "": []}
    return obj


def _terms(rows, count):
    """A decompose-shaped report: count tables whose rows share the lists
    of rows, each table with its own value lists, as GridFunction.to_json
    gives the terms of one grid."""
    terms = []
    for k in range(count):
        one, zero = [f"{k + 1}e0@5"], ["0@5"]
        terms.append({"y": one, "set": {"table": PairTable(
            [row, one if (i + k) % 3 else zero]
            for i, row in enumerate(rows))}})
    return {"terms": terms}


_SHARED = ["1,2e0@5", "3e1@5"]
_REPS = [[f"{i},1e0@5", f"{i % 7}e2@5"] for i in range(3 * _CHUNK_PARTS + 1)]


def _grid(source, m, resolution):
    """A step source tabulated on the Z_5^m grid at the resolution."""
    f = SymbolicFunction.from_sources(P, [source], m=m)
    return GridFunction.from_callable(Ball(PAdicVector.zero(P, m), 0),
                                      resolution, f)


def _family(grid, tol_exp):
    """The decompose report of a grid: its terms' tables are one family,
    which shares the grid's column."""
    terms = decompose_series(grid, decompose_default_ys(P, 0, tol_exp),
                             tol_exp)
    return {"terms": [{"y": y.to_json(), "set": a.to_json()}
                      for y, a in terms]}


# 625 rows, more than one chunk per table
_FAMILY = _family(_grid("1+ch(4,2;1)+2*ch(7,1;2)", 2, 2), 2)
_STEP = _grid("3+ch(1;1)+x0*ch(2;2)", 1, 2)
_LONE = _grid("2+ch(3;1)", 1, 2).to_json()
_JETS = jet_field_from_function(
    SymbolicFunction.from_sources(P, ["x0*x1+2*x0+ch(1,1;2)"], m=2),
    (Ball(vec(0, 0), 1), Ball(vec(1, 1), 1)), 2, 1).to_json()


@given(JSON_VALUES)
@settings(derandomize=True, max_examples=400, deadline=None)
@example("caf\u00e9 \x00\x1f\x7f \ud800 \udfff \U0001f600 \"\\/")
@example([10**300, -10**300, True, False, None, 0, -0.0, float("nan"),
          float("inf"), float("-inf"), 1e-300])
@example(((), {}, [[]], [{}], {"a": ()}, ((1, "x"),)))
@example(_nested(200, "leaf"))
@example({3: "int key", -1: None, 10**30: []})
@example({2.5: "float key", float("inf"): 0})
@example({True: [], False: {}})
@example({None: "null key"})
@example(["v%d" % i for i in range(3 * _CHUNK_PARTS)])
@example([[i, ["1,2e0@5", "0@5"], {"j": i}] for i in range(_CHUNK_PARTS)])
@example({"a": PairTable([[["x"], ["1e0@5"]]]),
          "b": [{"c": PairTable([[["y", "z"], ["0@5"]], [["w"], ["0@5"]]])}]})
@example({"a": PairTable([[_SHARED, ["0@5"]]]),
          "b": [[PairTable([[_SHARED, _SHARED], [["x"], _SHARED]])]],
          "c": PairTable([[_SHARED, ["1e0@5"]]])})
@example({"empty": PairTable(), "leaves": PairTable([[[], []], [["a"], []]]),
          "nested": [PairTable(), [PairTable([[[], ["b"]]])]]})
@example(PairTable([[["caf\u00e9", "\x00\x1f\x7f \"\\/"],
                     ["\ud800 \udfff \U0001f600"]],
                    [["\u2028"], ["\n\t"]]]))
@example(PairTable([row, ["0@5"]] for row in _REPS))
@example(_terms(_REPS, 4))
@example({"a": _terms(_REPS[:5], 3), "b": [_terms(_REPS[:5], 2)]})
@example(_FAMILY)
@example({"a": _FAMILY, "b": [_FAMILY], "c": [[_family(_STEP, 1)]]})
@example({"a": _LONE, "b": {"c": _family(_STEP, 2), "d": _STEP.to_json()}})
@example({"terms": _family(_STEP, 2)["terms"] + [{"set": _LONE}]
          + _family(_grid("4+ch(0;2)", 1, 2), 1)["terms"]})
@example(_JETS)
@example({"jets": [_JETS, _FAMILY], "grid": _LONE})
def test_report_writer_writes_the_bytes_of_json_dumps(tmp_path_factory, obj):
    """--out reports are json.dumps(obj, sort_keys=True, indent=2) + "\\n"
    byte for byte: escapes of non-ASCII, control characters and lone
    surrogates, big ints, floats and constants, tuples, empty and deeply
    nested containers, non-str keys, and lists that span several chunks.
    Grid tables (PairTable) too: nested at two depths, one list shared by
    tables at two indents, empty tables and lists, escaped strings in
    rows, 3 * _CHUNK_PARTS + 1 rows, and decompose-shaped reports whose
    tables share their row lists, at one indent and at two.  And real
    GridFunction families (PairTable.column): decompose_series reports at
    one indent and at two, a family whose first table is not the report's
    first PairTable, families beside a lone grid at one indent, the
    family's own grid written with its terms, and a jet field's table."""
    path = tmp_path_factory.getbasetemp() / "writer.json"
    _write_json(str(path), obj)
    assert path.read_bytes() == \
        (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("ascii")


def test_report_writer_streams_a_grid_table(tmp_path):
    """A 20,000-row grid report is written in chunks: while _write_json
    writes it, the memory it allocates peaks below a quarter of the bytes
    it writes.  A writer that held the table's text whole would not."""
    firsts = [f"{i % 5},{i // 5 % 5},{i // 25},0,0,0,0,0,0,0,0,0,0,0,0e0@5"
              for i in range(200)]
    seconds = [f"{j % 5},{j // 5 % 5},{j // 25},0,0,0,0,0,0,0,0,0,0,0,0e1@5"
               for j in range(100)]
    one, zero = ["1e0@5"], ["0@5"]
    report = {"domain": {"center": ["0@5", "0@5"], "rad_exp": 0},
              "resolution": 3, "dims": [2, 1],
              "table": PairTable([[x, y], one if (i + j) % 3 else zero]
                                 for i, x in enumerate(firsts)
                                 for j, y in enumerate(seconds))}
    path = tmp_path / "grid.json"
    tracemalloc.start()
    try:
        _write_json(str(path), report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    assert len(report["table"]) == 20000
    assert peak < written / 4, (peak, written)
    assert path.read_text() == json.dumps(report, sort_keys=True, indent=2) + "\n"
