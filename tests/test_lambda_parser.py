import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpoisson.exterior import MixedElement, form_gen, vec_gen
from nilpoisson.lambda_parser import LambdaExpr, LambdaParseError, expr_from_element, parse_lambda
from nilpoisson.scalars import GR_ONE, Rational, gauss


def test_basic_two_terms():
    e = parse_lambda("2 v1^v4 - v2^v3")
    assert e.terms == (
        (1, 4, gauss(2)),
        (2, 3, gauss(-1)),
    )


def test_coefficient_forms():
    assert parse_lambda("i v1^v2").terms == ((1, 2, gauss(0, 1)),)
    assert parse_lambda("-i v1^v2").terms == ((1, 2, gauss(0, -1)),)
    assert parse_lambda("3/4 v1^v2").terms == ((1, 2, gauss(Rational(3, 4))),)
    assert parse_lambda("5/2i v1^v2").terms == ((1, 2, gauss(0, Rational(5, 2))),)
    assert parse_lambda("(1/2+3i) v2^v5").terms == ((2, 5, gauss(Rational(1, 2), 3)),)
    assert parse_lambda("(1-1/3i) v1^v2").terms == ((1, 2, gauss(1, Rational(-1, 3))),)


def test_leading_minus_and_spacing():
    assert parse_lambda("-v1^v2") == parse_lambda("  -  v1 ^ v2  ")
    assert parse_lambda("- 2 v1^v2").terms == ((1, 2, gauss(-2)),)


def test_reversed_wedge_normalizes():
    assert parse_lambda("v2^v1").terms == ((1, 2, gauss(-1)),)
    assert parse_lambda("3 v4^v2").terms == ((2, 4, gauss(-3)),)


def test_duplicate_terms_merge():
    e = parse_lambda("1/2 v1^v3 + 1/2 v1^v3")
    assert e.terms == ((1, 3, GR_ONE),)
    z = parse_lambda("v1^v2 - v1^v2")
    assert z.terms == ()
    assert str(z) == "0"


def test_round_trip_strings():
    for src in ("2 v1^v4 - v2^v3", "v3^v4", "-v1^v2", "i v1^v2 + 2 v2^v3", "(1/2+3i) v1^v5"):
        e = parse_lambda(src)
        assert parse_lambda(str(e)) == e


_FRACTIONS = st.fractions(min_value=-99, max_value=99, max_denominator=99)
# terms (coeff, i, j) with i < j, as the parser normalizes them
_EXPR = st.lists(
    st.builds(lambda c, ij: (c, *sorted(ij)), st.builds(gauss, _FRACTIONS, _FRACTIONS),
              st.sets(st.integers(1, 12), min_size=2, max_size=2)),
    min_size=1, max_size=6).map(LambdaExpr).filter(lambda e: e.terms)


@settings(max_examples=300, deadline=None)
@given(_EXPR)
def test_str_parse_round_trip_random(e):
    # the echo of an expression is read back as the same expression
    assert parse_lambda(str(e)) == e


def test_parse_errors_carry_position():
    cases = {
        "": "position 0",
        "v1": "position 2",
        "v1^": "position 3",
        "v1^v1": "position 5",
        "2": "position 1",
        "v1^v2 +": "position 7",
        "q1^v2": "position 0",
        "v1^v2 x": "position 6",
        # digits are ASCII: a superscript or fullwidth digit is no digit
        "v1^v\u00b2": "expected an index at position 4",
        "\u00b2 v1^v2": "expected 'v' at position 0",
        "1/\u00b2 v1^v2": "expected a denominator at position 2",
        "\uff13 v1^v2": "expected 'v' at position 0",
        "v1^v\uff12": "expected an index at position 4",
    }
    for bad, where in cases.items():
        with pytest.raises(LambdaParseError) as err:
            parse_lambda(bad)
        assert where in str(err.value), bad


def test_zero_denominator_rejected_with_position():
    cases = {
        "1/0 v1^v4": "zero denominator at position 2",
        "(1/0+1i) v1^v4": "zero denominator at position 3",
        "(1+2/00i) v1^v4": "zero denominator at position 5",
        "v1^v2 - 3/0i v3^v4": "zero denominator at position 10",
    }
    for bad, want in cases.items():
        with pytest.raises(LambdaParseError) as err:
            parse_lambda(bad)
        assert str(err.value) == want, bad


# rational literals "a" or "a/b" with small denominators, 0 included
_RATIONAL = st.builds(lambda a, b: a if b is None else f"{a}/{b}",
                      st.integers(0, 12).map(str),
                      st.none() | st.integers(0, 3).map(str))
# the coefficient forms of the grammar, and runs of its tokens in any order
_COEFF = st.one_of(
    _RATIONAL,
    _RATIONAL.map(lambda r: r + "i"),
    st.builds(lambda a, sign, b: f"({a}{sign}{b}i)",
              _RATIONAL, st.sampled_from("+-"), _RATIONAL),
    st.lists(st.sampled_from(["1", "0", "/", "i", "(", ")", "+", "-", " ",
                              "v", "^", "v1", "x"]), max_size=8).map("".join),
)
_TERM = st.builds(lambda c, i, j, rest: f"{c} v{i}^v{j}{rest}", _COEFF,
                  st.integers(0, 9), st.integers(0, 9),
                  st.sampled_from(["", " + v1^v2", " - 2 v3^v4", " +", "^"]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_COEFF, _TERM))
def test_fuzz_parses_or_raises_parse_error(src):
    # every coefficient or term string either parses or is a LambdaParseError
    try:
        parse_lambda(src)
    except LambdaParseError:
        pass


def test_degenerate_wedge_rejected():
    with pytest.raises(LambdaParseError, match="degenerate wedge"):
        parse_lambda("v3^v3")


def test_bind_range_checks():
    e = parse_lambda("v1^v9")
    with pytest.raises(LambdaParseError, match=r"v9 out of range 1\.\.4"):
        e.bind(4)
    lo = parse_lambda("v0^v2")
    with pytest.raises(LambdaParseError, match=r"v0 out of range"):
        lo.bind(4)
    bound = parse_lambda("2 v1^v4 - v2^v3").bind(4)
    assert bound.terms == {
        (vec_gen(1), vec_gen(4)): gauss(2),
        (vec_gen(2), vec_gen(3)): gauss(-1),
    }


def test_expr_from_element_round_trip():
    e = parse_lambda("2 v1^v4 - v2^v3")
    el = e.bind(4)
    assert expr_from_element(el) == e
    assert str(expr_from_element(el)) == "2 v1^v4 - v2^v3"


def test_expr_from_element_rejects_non_bivector():
    from nilpoisson.errors import UsageError

    with pytest.raises(UsageError):
        expr_from_element(MixedElement.term((vec_gen(1), form_gen(1)), GR_ONE))
    with pytest.raises(UsageError):
        expr_from_element(MixedElement.term((vec_gen(1),), GR_ONE))


def test_equality_and_hash():
    a = parse_lambda("v1^v2 + v3^v4")
    b = parse_lambda("v3^v4 + v1^v2")
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_lambda("v1^v2")
