"""Arithmetic-layer tests: frozen oracle values first, then property tests.

Oracle values were derived by independent rational arithmetic (Fraction) and
by hand digit expansion, and are frozen here as literals.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import literal_reference
from norm_reference import ppow_le_scaled
from qpcalc import padic
from qpcalc.padic import (
    Ball,
    Order,
    PAdicNumber,
    PAdicVector,
    PadicError,
    PPow,
    PrecisionZeroDivision,
    frac_str,
    from_json,
    parse_frac,
    parse_literal,
    truncate,
    vdp_compare,
    vdp_compare_full,
    vdp_dense_sequence,
)


def n5(x, prec=None):
    return PAdicNumber.from_int(5, x, prec=prec)


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------

def test_div_75_by_5_is_15():
    q = n5(75) / n5(5)
    assert q.val == 1
    assert q.digits()[0] == 3
    assert q.as_fraction() == 15


def test_add_zero_identity():
    x = n5(37)
    assert PAdicNumber.zero(5) + x == x
    assert x + PAdicNumber.zero(5) == x


def test_self_subtraction_gives_the_zero_sentinel():
    x = n5(1234)
    z = x - x
    assert z.is_zero()
    assert z.val is None
    assert z.digits() == ()
    assert z.norm() == 0


def test_division_by_indistinguishable_zero_raises():
    x = n5(7)
    with pytest.raises(PrecisionZeroDivision):
        x / (x - x)


def test_prime_mismatch_rejected():
    with pytest.raises(PadicError):
        n5(1) + PAdicNumber.from_int(3, 1)


def test_norm_examples():
    assert PAdicNumber.zero(5).norm() == 0
    assert n5(75).norm() == Fraction(1, 25)
    assert PAdicNumber.from_fraction(5, Fraction(1, 5)).norm() == 5


def test_literal_parse_example():
    # 3,0,1e-2@5 = 5^{-2} * (3 + 0*5 + 1*25) = 28/25
    x = parse_literal("3,0,1e-2@5")
    assert x.p == 5 and x.val == -2
    assert x.digits() == (3, 0, 1)
    assert x.as_fraction() == Fraction(28, 25)
    assert x.to_json() == {"p": 5, "val": -2, "digits": [3, 0, 1]}


def test_literal_zero_form():
    z = parse_literal("0@7")
    assert z.is_zero()
    assert z.format_literal() == "0@7"


def test_malformed_literals_raise():
    for bad in ("3,5e0@5", "e0@5", "1,2@5", "1e0@6", "1e0"):
        with pytest.raises(PadicError):
            parse_literal(bad)


def test_noncanonical_literal_is_normalized():
    # leading zero digit: 0,3e0@5 is 3*5 = canonical val 1, one known digit lost
    x = parse_literal("0,3e0@5")
    assert x.val == 1 and x.digits() == (3,)


def test_literals_read_non_ascii_decimal_digits():
    """\\d and int() read every Unicode decimal digit, in the digits and
    in the prime alike."""
    assert parse_literal("٣e0@5") == parse_literal("3e0@5")
    assert parse_literal("1e0@٥") == parse_literal("1e0@5")


# Arabic-Indic 0 and 3, extended Arabic-Indic 5, Devanagari 7, fullwidth 9
_WIDE_DIGITS = "٠٣۵७９"
_PARSE_PRIMES = (2, 3, 5, 7, 11, 13, 31, 37)
_NON_PRIMES = (0, 1, 4, 9, 35)


@st.composite
def literal_texts(draw):
    """Literal text as a user may write it: the prime or a non-prime, 1-30
    digits each in range, out of range, with leading zeros or non-ASCII,
    valuations of either sign with leading zeros, surrounding whitespace;
    the zero form; and text outside the grammar."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.text(alphabet="0123456789,e-@ \n٣", max_size=24))
    p = draw(st.sampled_from(_PARSE_PRIMES + _NON_PRIMES))
    arabic = str(p).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    ptext = draw(st.sampled_from((str(p), f"0{p}", arabic)))
    if kind == 1:
        return f"0@{ptext}"
    top = max(p, 2)
    digit = st.integers(0, top - 1).map(str)
    if kind > 5:
        digit = st.one_of(
            digit, digit, st.integers(0, 2 * top + 3).map(str),
            st.builds(lambda z, d: "0" * z + str(d),
                      st.integers(1, 2), st.integers(0, top - 1)),
            st.sampled_from(_WIDE_DIGITS))
    digits = draw(st.lists(digit, min_size=1, max_size=30))
    val = draw(st.integers(-40, 40))
    vtext = draw(st.sampled_from((str(val), f"{'-' if val < 0 else ''}0"
                                  f"{abs(val)}")))
    pad = st.sampled_from(("", " ", "\t", "\n", " \n"))
    return f"{draw(pad)}{','.join(digits)}e{vtext}@{ptext}{draw(pad)}"


def _parsed_or_refused(parse, arg):
    """The fields of what parse builds, or the type and text of its
    refusal."""
    try:
        x = parse(arg)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(x, PAdicVector):
        return tuple((c.p, c.val, c.unit, c.prec) for c in x.coords)
    return x.p, x.val, x.unit, x.prec


@given(literal_texts())
@settings(derandomize=True, max_examples=800, deadline=None)
@example("٣e0@5")
@example("1e0@٥")
@example("1,2,10e0@11")
@example("1,2,3e0@37")
@example("9,9e-3@31")
@example("0,0,3e-1@5")
@example("0,0e0@5")
@example("1,5e0@5")
@example("1e0@4")
@example("10e0@4")
@example(" 1,1e0@2\n")
@example("0@9")
def test_parse_literal_matches_the_digit_fold(text):
    """parse_literal builds what the digit-by-digit parser built, or
    refuses with the same exception and message."""
    assert _parsed_or_refused(parse_literal, text) == \
        _parsed_or_refused(literal_reference.parse_literal, text)


@given(st.one_of(
    st.lists(st.one_of(literal_texts(), literal_texts(), st.integers(),
                       st.none()), max_size=3),
    st.lists(st.sampled_from(("1,2e0@5", "3e-1@5", "0@5", "1e0@7",
                              "0@7")), max_size=3),
    st.sampled_from(("1e0@5", {"0": "1e0@5"}, ("1e0@5",), None))))
@settings(derandomize=True, max_examples=500, deadline=None)
@example([])
@example(["1e0@5", "1e0@7"])
@example(["1e0@5", 3])
@example(["bad", 3])
@example(["0@5", "0@5"])
def test_vector_from_json_matches_the_checking_constructor(arr):
    """PAdicVector.from_json builds the vector that the checking
    constructor built from the same literals, or refuses as it did: empty,
    non-string and mixed-prime lists included."""
    assert _parsed_or_refused(PAdicVector.from_json, arr) == \
        _parsed_or_refused(literal_reference.vector_from_json, arr)


_JSON_ENTRY = st.one_of(st.integers(-2, 14), st.none(), st.booleans(),
                        st.just(1.5), st.just("1"))


@given(st.one_of(
    st.fixed_dictionaries({
        "p": st.one_of(st.sampled_from(_PARSE_PRIMES + _NON_PRIMES),
                       _JSON_ENTRY),
        "val": st.one_of(st.integers(-5, 5), _JSON_ENTRY),
        "digits": st.one_of(st.lists(st.integers(0, 12), max_size=20),
                            st.lists(_JSON_ENTRY, max_size=4),
                            _JSON_ENTRY)}),
    st.sampled_from(({"p": 5}, [5, 0, [1]], "1e0@5", None))))
@settings(derandomize=True, max_examples=500, deadline=None)
@example({"p": 5, "val": 0, "digits": [0, 0, 3]})
@example({"p": 5, "val": None, "digits": []})
@example({"p": 5, "val": None, "digits": [1]})
@example({"p": 5, "val": 1, "digits": []})
@example({"p": 5, "val": 1, "digits": [-1]})
@example({"p": 5, "val": 1, "digits": [True]})
@example({"p": 4, "val": 1, "digits": [7]})
def test_number_from_json_matches_the_digit_sum(obj):
    """from_json decodes a JSON number as the generator checks and the
    digit sum did, or refuses it with the same message."""
    assert _parsed_or_refused(from_json, obj) == \
        _parsed_or_refused(literal_reference.number_from_json, obj)


def test_vdp_examples():
    a = parse_literal("2,1e0@5")   # 2 + 1*5
    b = parse_literal("2,3e0@5")   # 2 + 3*5
    assert vdp_compare(a, b) is Order.LESS
    assert vdp_compare(b, a) is Order.GREATER
    assert vdp_compare(a, a) is Order.EQUAL

    # 3 vs 1/5: aligned from index -1, x has digit 0 there, y has 1 -> x before y
    x = n5(3, prec=3)
    y = PAdicNumber.from_fraction(5, Fraction(1, 5), prec=3)
    assert vdp_compare(x, y) is Order.LESS

    # EQUAL does not chain across windows: 3 ~ 1 at one digit, 1 ~ 1 at
    # one digit, but 3 > 1 at two
    x, y, z = (parse_literal(s) for s in ("1,1e0@2", "1e0@2", "1,0e0@2"))
    assert [vdp_compare(x, y), vdp_compare(y, z), vdp_compare(x, z)] == \
        [Order.EQUAL, Order.EQUAL, Order.GREATER]


def test_vdp_zero_precedes_everything():
    z = PAdicNumber.zero(5)
    assert vdp_compare(z, n5(4)) is Order.LESS
    assert vdp_compare(n5(4), z) is Order.GREATER
    assert vdp_compare(z, PAdicNumber.zero(5)) is Order.EQUAL


def test_vdp_precision_flag():
    # same class at the shared window, but windows differ
    a = n5(1, prec=2)
    b = n5(1, prec=6)
    order, limited = vdp_compare_full(a, b)
    assert order is Order.EQUAL and limited
    order, limited = vdp_compare_full(a, n5(1, prec=2))
    assert order is Order.EQUAL and not limited


def test_dense_sequence_seed_and_first_depth():
    assert [x.is_zero() for x in vdp_dense_sequence(5, 0, 1)] == [True]
    got = vdp_dense_sequence(5, 0, 5)
    assert sorted(x.as_fraction() for x in got) == [0, 1, 2, 3, 4]


def test_dense_sequence_depth2_is_the_full_net():
    got = vdp_dense_sequence(5, 0, 25)
    assert sorted(x.as_fraction() for x in got) == list(range(25))
    assert len({x.as_fraction() for x in got}) == 25


def test_dense_sequence_two_sided_at_depth_2():
    """For y = 2+3*5 and eps = 1/25 the depth-2 prefix holds members on both
    ≺-sides within eps (y itself is representable and serves both sides)."""
    y = parse_literal("2,3e0@5")
    prefix = vdp_dense_sequence(5, 0, 25)
    below = [u for u in prefix
             if vdp_compare(u, y) in (Order.LESS, Order.EQUAL)
             and (u - y).norm() <= Fraction(1, 25)]
    above = [u for u in prefix
             if vdp_compare(y, u) in (Order.LESS, Order.EQUAL)
             and (u - y).norm() <= Fraction(1, 25)]
    assert below and above


def test_dense_sequence_respects_val_floor():
    got = vdp_dense_sequence(5, -2, 6)
    fracs = sorted(x.as_fraction() for x in got)
    assert fracs == [Fraction(u, 25) for u in range(6)]


def test_sup_norm_examples():
    v = PAdicVector.from_ints(5, [5, 1])
    assert v.sup_norm() == 1
    w = PAdicVector([PAdicNumber.from_fraction(5, Fraction(1, 5)), n5(25)])
    assert w.sup_norm() == 5
    assert PAdicVector.zero(5, 2).sup_norm() == 0


def test_vector_json_roundtrip():
    v = PAdicVector([parse_literal("3,0,1e-2@5"), n5(7, prec=4)])
    assert PAdicVector.from_json(v.to_json()) == v


def test_a_foreign_prime_still_raises_and_ints_still_coerce():
    n3 = PAdicNumber.from_int(3, 1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(PadicError):
            op(n5(1), n3)
        with pytest.raises(PadicError):
            op(n3, n5(1))
    # int and Fraction operands coerce at the window they did before
    assert n5(3, prec=20) + 2 == n5(3, prec=20) + n5(2, prec=20)
    assert Fraction(1, 5) * n5(3) == PAdicNumber.from_fraction(
        5, Fraction(1, 5)) * n5(3)


def test_vector_arithmetic_refuses_a_mixed_prime():
    x5 = PAdicVector.from_ints(5, [1, 2])
    x3 = PAdicVector.from_ints(3, [1, 2])
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(PadicError):
            op(x5, x3)
        with pytest.raises(PadicError):
            op(x3, x5)
    with pytest.raises(PadicError):
        x5.scale(PAdicNumber.from_int(3, 2))
    with pytest.raises(PadicError):
        x3.scale(n5(2))


def test_truncate_to_coset_representative():
    x = parse_literal("3,1,4e0@5")        # 3 + 5 + 4*25
    assert truncate(x, 2).as_fraction() == 8
    assert truncate(x, 1).as_fraction() == 3
    assert truncate(x, 0).is_zero()
    assert truncate(PAdicNumber.zero(5), 3).is_zero()


def test_ball_membership_and_negative_radius_exponent():
    b = Ball(PAdicVector.from_ints(2, [0]), -1)   # radius 2^1
    assert b.contains(PAdicVector([PAdicNumber.from_fraction(2, Fraction(1, 2))]))
    assert not b.contains(PAdicVector([PAdicNumber.from_fraction(2, Fraction(1, 4))]))


@pytest.mark.parametrize("rad_exp", [1.5, "2", True, None])
def test_ball_from_json_needs_an_integer_radius_exponent(rad_exp):
    """1.5 was read as 1 and "2" as 2."""
    obj = {"center": ["0@5"], "rad_exp": rad_exp}
    with pytest.raises(PadicError, match="JSON integer"):
        Ball.from_json(obj)
    assert Ball.from_json({**obj, "rad_exp": 2}).rad_exp == 2


def test_ppow_basics():
    a = PPow(5, Fraction(-3, 2))
    b = PPow(5, -1)
    assert PPow.zero(5) < a < b
    assert (a * a).exp == -3
    assert a.pow_frac(2).exp == -3
    assert b.as_fraction() == Fraction(1, 5)
    assert a.ceil_fraction() == Fraction(1, 5)    # ceil(-3/2) = -1
    with pytest.raises(PadicError):
        a.as_fraction()
    assert PPow.from_norm(5, Fraction(1, 25)).exp == -2
    with pytest.raises(PadicError):
        PPow.from_norm(5, Fraction(3, 25))


def test_ppow_scaled_comparison_is_exact():
    # p^(-1/2) <= C exactly when C^2 >= 1/5
    half = PPow(5, Fraction(-1, 2))
    one = PPow(5, 0)
    assert ppow_le_scaled(half, Fraction(1, 2), one)       # 1/4 >= 1/5
    assert not ppow_le_scaled(half, Fraction(2, 5), one)   # 4/25 < 5/25
    assert ppow_le_scaled(PPow.zero(5), Fraction(0), one)
    assert not ppow_le_scaled(one, Fraction(1), PPow.zero(5))


@pytest.mark.parametrize("q", [Fraction(0), Fraction(7), Fraction(-7),
                               Fraction(3, 25), Fraction(-1, 2)])
def test_frac_str_roundtrip(q):
    assert parse_frac(frac_str(q)) == q
    assert frac_str(q) == (str(q.numerator) if q.denominator == 1
                           else f"{q.numerator}/{q.denominator}")


def test_parse_frac_reads_slash_forms():
    assert parse_frac("6/1") == 6
    assert parse_frac("-4/10") == Fraction(-2, 5)
    assert parse_frac("007") == 7


@pytest.mark.parametrize("s", [0.1, True, 1, None, [1, 2], "", "1.5",
                               " 1", "1/0", "1/00", "1/-2", "+1", "1/2/3",
                               "1e3", "\u0661"])
def test_parse_frac_rejects_everything_else(s):
    with pytest.raises(PadicError):
        parse_frac(s)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def padics(draw, primes=(2, 3, 5), allow_zero=True):
    p = draw(st.sampled_from(primes))
    if allow_zero and draw(st.integers(0, 9)) == 0:
        return PAdicNumber.zero(p)
    val = draw(st.integers(-4, 4))
    depth = draw(st.integers(1, 5))
    d0 = draw(st.integers(1, p - 1))
    rest = draw(st.lists(st.integers(0, p - 1), min_size=depth - 1, max_size=depth - 1))
    unit = d0 + sum(d * p**(i + 1) for i, d in enumerate(rest))
    return PAdicNumber(p, val, unit, depth)


def same_prime(x, y):
    return x.p == y.p


@given(padics(), padics())
@settings(max_examples=300)
def test_ultrametric_inequality(x, y):
    if not same_prime(x, y):
        return
    s = x + y
    assert s.norm() <= max(x.norm(), y.norm())
    if x.norm() != y.norm():
        assert s.norm() == max(x.norm(), y.norm())


@given(padics(allow_zero=False), padics(allow_zero=False))
@settings(max_examples=300)
def test_norm_multiplicativity(x, y):
    if not same_prime(x, y):
        return
    assert (x * y).norm() == x.norm() * y.norm()


@given(padics(allow_zero=False), padics(allow_zero=False))
@settings(max_examples=200)
def test_division_inverts_multiplication_at_shared_window(x, y):
    if not same_prime(x, y):
        return
    q = (x * y) / y
    assert vdp_compare(q, x) is Order.EQUAL


@given(padics())
@settings(max_examples=300)
@example(parse_literal("3,0,1e-2@5"))
@example(PAdicNumber.zero(3))
def test_literal_roundtrip_bit_exact(x):
    assert parse_literal(x.format_literal()) == x
    assert from_json(x.to_json()) == x


LITERAL_PRIMES = (2, 3, 5, 7, 251, 2**61 - 1)


@st.composite
def windowed(draw):
    """A nonzero value of one of LITERAL_PRIMES with a window of 1..40
    digits: the first digit nonzero, the others anything."""
    p = draw(st.sampled_from(LITERAL_PRIMES))
    prec = draw(st.integers(1, 40))
    d0 = draw(st.integers(1, p - 1))
    rest = draw(st.integers(0, p ** (prec - 1) - 1))
    return PAdicNumber(p, draw(st.integers(-30, 30)), d0 + p * rest, prec)


@given(windowed())
@settings(derandomize=True, max_examples=400, deadline=None)
@example(PAdicNumber(2, 0, 2**8 - 1, 8))
@example(PAdicNumber(2, 3, 2**9 - 1, 9))
@example(PAdicNumber(2, -1, 1, 7))
@example(PAdicNumber(3, 0, 3**6 - 1, 6))
@example(PAdicNumber(5, 2, 1, 40))
@example(PAdicNumber(5, 0, 5**40 - 1, 40))
@example(PAdicNumber(7, 0, 7**3 - 1, 3))
@example(PAdicNumber(251, -4, 250 + 251 * 17, 2))
def test_format_literal_matches_the_digit_loop(x):
    """The digit text read in chunks from a per-prime table is the digit
    loop's text, and parses back to the same value; the chunk boundaries of
    p = 2, 3, 5 and 7 (8, 5, 3 and 2 digits) and all-(p-1) digits are
    pinned."""
    text = x.format_literal()
    assert text == ",".join(map(str, x.digits())) + f"e{x.val}@{x.p}"
    assert parse_literal(text) == x


@st.composite
def difference_operands(draw):
    """(a, b) of one prime: a of valuation -6..6 with a window of 1..30
    digits, or zero; b another such value, zero, a itself, a copy of a,
    an int or a Fraction."""
    p = draw(st.sampled_from((2, 3, 5, 251, 2**61 - 1)))

    def value():
        if draw(st.integers(0, 5)) == 0:
            return PAdicNumber.zero(p)
        prec = draw(st.integers(1, 30))
        d0 = draw(st.integers(1, p - 1))
        rest = draw(st.integers(0, p ** (prec - 1) - 1))
        return PAdicNumber(p, draw(st.integers(-6, 6)), d0 + p * rest, prec)

    a = value()
    kind = draw(st.integers(0, 4))
    if kind == 0:
        b = value()
    elif kind == 1:
        b = a
    elif kind == 2:
        b = PAdicNumber(a.p, a.val, a.unit, a.prec)
    else:
        n = draw(st.integers(-p**3, p**3))
        b = n if kind == 3 else Fraction(n, draw(st.sampled_from(
            [1, 2, 3, p, p * p, 7 * p])))
    return a, b


@given(difference_operands())
@settings(derandomize=True, max_examples=500, deadline=None)
@example((PAdicNumber.zero(5), PAdicNumber.zero(5)))
@example((PAdicNumber.zero(5), n5(7)))
@example((n5(7), PAdicNumber.zero(5)))
@example((n5(7, prec=3), n5(7, prec=3)))
@example((n5(7, prec=3), 7))
@example((PAdicNumber.zero(5), Fraction(-3, 25)))
def test_subtraction_is_the_sum_with_the_negation(case):
    """a - b has the digits and window of a + (-b), with b an int or a
    Fraction on either side."""
    a, b = case
    if isinstance(b, PAdicNumber):
        assert a - b == a + (-b)
        assert b - a == b + (-a)
    else:
        assert a - b == a + (-b)
        assert b - a == (-a) + b


def test_digit_tables_only_for_primes_up_to_256():
    """Zero prints as 0@p for every prime; the digit text builds a table
    of at most 256 entries for p <= 256 and none for a larger prime."""
    for p in LITERAL_PRIMES + (257,):
        z = PAdicNumber.zero(p)
        assert z.format_literal() == f"0@{p}"
        assert parse_literal(z.format_literal()) == z
        assert PAdicNumber.from_int(p, p + 1, prec=5).format_literal() \
            == f"1,1,0,0,0e0@{p}"
    assert all(p <= 256 for p in padic._DIGIT_TEXTS)
    assert 257 not in padic._DIGIT_TEXTS and 2**61 - 1 not in padic._DIGIT_TEXTS
    for P, k, texts in padic._DIGIT_TEXTS.values():
        assert len(texts) == P <= 256


# vdp_compare reads the shared window only: EQUAL means that window cannot
# decide, so ⪯ is no order across windows (the triple in test_vdp_examples).
# These tests pin down what does hold.

@st.composite
def one_window(draw):
    """Three values of one prime whose digits are known up to one absolute
    position w; zero, whose digits are all known, may be among them."""
    p = draw(st.sampled_from((2, 3, 5)))
    w = draw(st.integers(-3, 5))

    def value():
        if draw(st.integers(0, 9)) == 0:
            return PAdicNumber.zero(p)
        val = draw(st.integers(w - 5, w - 1))
        unit = draw(st.integers(1, p - 1)) + \
            p * draw(st.integers(0, p ** (w - val - 1) - 1))
        return PAdicNumber(p, val, unit, w - val)

    return value(), value(), value()


def _digit(x, i):
    """The digit of x at p^i: 0 below its valuation, and all 0 for zero."""
    if x.val is None or i < x.val:
        return 0
    return x.unit // x.p ** (i - x.val) % x.p


def _shared_digits_agree(x, y):
    vals = [v.val for v in (x, y) if v.val is not None]
    window = min(x.abs_window(), y.abs_window())
    return not vals or all(_digit(x, i) == _digit(y, i)
                           for i in range(min(vals), window))


@given(padics(), padics())
@settings(max_examples=300)
def test_vdp_is_antisymmetric(x, y):
    if same_prime(x, y):
        assert vdp_compare(y, x) is Order(-vdp_compare(x, y))


@given(one_window())
@settings(max_examples=300)
def test_vdp_is_a_strict_total_order(xyz):
    """On values that share one absolute window, EQUAL is equality and
    LESS is transitive."""
    x, y, z = xyz
    for a, b in ((x, y), (y, z), (x, z)):
        assert (vdp_compare(a, b) is Order.EQUAL) == (a == b)
    if vdp_compare(x, y) is Order.LESS and vdp_compare(y, z) is Order.LESS:
        assert vdp_compare(x, z) is Order.LESS


@given(padics(), padics(), padics())
@example(parse_literal("1,1e0@2"), parse_literal("1e0@2"),
         parse_literal("1,0e0@2"))
@settings(max_examples=300)
def test_vdp_less_is_transitive_across_windows(x, y, z):
    if not (same_prime(x, y) and same_prime(y, z)):
        return
    if vdp_compare(x, y) is Order.LESS and vdp_compare(y, z) is Order.LESS:
        assert vdp_compare(x, z) is Order.LESS


@given(padics(), padics())
@example(parse_literal("1,1e0@2"), parse_literal("1e0@2"))
@example(parse_literal("1,1e0@2"), parse_literal("1,0e0@2"))
@settings(max_examples=300)
def test_vdp_equal_exactly_when_the_shared_digits_agree(x, y):
    if same_prime(x, y):
        assert (vdp_compare(x, y) is Order.EQUAL) == _shared_digits_agree(x, y)


@st.composite
def balls(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    m = draw(st.integers(1, 2))
    coords = [PAdicNumber.from_int(p, draw(st.integers(-20, 20)), prec=8)
              for _ in range(m)]
    return Ball(PAdicVector(coords), draw(st.integers(-2, 3)))


@given(balls(), balls())
@settings(max_examples=300)
def test_ball_trichotomy(b1, b2):
    if b1.p != b2.p or b1.dim != b2.dim:
        return
    # two balls are disjoint or one holds the other: the larger holds
    # the smaller exactly when it contains the smaller's centre
    big, small = sorted([b1, b2], key=lambda b: b.rad_exp)
    d = (b1.center - b2.center).sup_norm()
    radius = Fraction(big.p) ** -big.rad_exp
    assert big.contains(small.center) == (d <= radius)


@given(padics(), padics())
@settings(max_examples=200)
def test_arith_matches_rational_arithmetic_when_exact(x, y):
    """On representatives whose combination needs no truncation, +,-,* agree
    with Fraction arithmetic."""
    if not same_prime(x, y):
        return
    for op in (operator.add, operator.sub, operator.mul):
        got = op(x, y)
        want = op(x.as_fraction(), y.as_fraction())
        if want == 0:
            assert got.is_zero() or got.as_fraction() != 0  # truncation may round away
        else:
            # compare modulo the result window
            w = got.abs_window()
            if not got.is_zero():
                diff = got.as_fraction() - want
                if diff != 0:
                    num, den = diff.numerator, diff.denominator
                    vp = 0
                    while num % x.p == 0:
                        num //= x.p
                        vp += 1
                    while den % x.p == 0:
                        den //= x.p
                        vp -= 1
                    assert vp >= w


@pytest.mark.parametrize("obj", [
    {"p": 5, "val": 0, "digits": [7]},          # digit outside 0..p-1
    {"p": 5, "val": 0, "digits": [1, -1]},
    {"p": 5, "val": 3, "digits": []},           # nonzero value without digits
    {"p": 5, "val": None, "digits": [1]},       # zero carrying digits
    {"p": 5, "val": 0, "digits": [1.5]},        # non-integer entries
    {"p": 5, "val": "0", "digits": [1]},
    {"p": "5", "val": 0, "digits": [1]},
    {"p": 5, "val": 0, "digits": [True]},
    {"p": 5, "val": 0, "digits": "12"},
    {"p": 5, "val": 0},                         # missing key
    [5, 0, [1]],                                # not an object
])
def test_from_json_rejects_malformed(obj):
    with pytest.raises(PadicError):
        from_json(obj)


def _trial_division(n):
    return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))


def test_prime_check_matches_trial_division():
    for n in range(-3, 5000):
        if _trial_division(n):
            PAdicNumber.from_int(n, 1)
        else:
            with pytest.raises(PadicError):
                PAdicNumber.from_int(n, 1)


@pytest.mark.parametrize("n", [
    # strong pseudoprimes to the prime bases through 7, 11, 13, 17, 23, 37
    3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 318665857834031151167461,
    2**61 + 1, (2**13 - 1) * (2**61 - 1)])
def test_prime_check_rejects_pseudoprimes(n):
    with pytest.raises(PadicError, match="not a prime"):
        from_json({"p": n, "val": 0, "digits": [1]})


def test_large_prime_accepted_and_oversized_rejected():
    x = from_json({"p": 2**61 - 1, "val": 0, "digits": [1]})
    assert x.p == 2**61 - 1
    assert PAdicNumber.from_int(2**79 - 67, 1).p == 2**79 - 67
    # 2^89 - 1 is prime, but past the range the bases certify
    with pytest.raises(PadicError, match="too large"):
        PAdicNumber.from_int(2**89 - 1, 1)


@st.composite
def same_prime_vectors(draw):
    """Two vectors of one dimension and a scalar, all over one prime."""
    p = draw(st.sampled_from((2, 3, 5)))
    m = draw(st.integers(1, 3))
    coords = st.lists(padics(primes=(p,)), min_size=m, max_size=m)
    return (PAdicVector(draw(coords)), PAdicVector(draw(coords)),
            draw(padics(primes=(p,))))


@given(same_prime_vectors())
@settings(max_examples=300)
def test_vector_arithmetic_equals_its_checked_rebuild(xyc):
    """+, -, negation and scale build their results unchecked; each is
    the vector that the checking constructor makes of its coordinates."""
    x, y, c = xyc
    for got in (x + y, x - y, -x, x.scale(c), x.scale(3)):
        assert type(got.coords) is tuple
        assert got == PAdicVector(list(got.coords))
        assert got.p == x.p and got.dim == x.dim
