import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpoisson.lambda_parser import LambdaParseError, parse_lambda
from nilpoisson.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussRational,
    Rational,
    gauss,
    gauss_to_string,
    rational_from_string,
    rational_to_string,
)


def rand_gauss(rng, span=40):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    num2 = rng.randint(-span, span)
    den2 = rng.randint(1, span)
    return GaussRational(Rational(num, den), Rational(num2, den2))


def test_constructor_coerces_ints():
    z = GaussRational(3, -2)
    assert z.re == Rational(3)
    assert z.im == Rational(-2)
    assert gauss(1, 0) == GR_ONE
    assert gauss(0, 1) == GR_I


def test_zero_and_truthiness():
    assert not GR_ZERO
    assert GR_ONE
    assert GaussRational(0, Rational(1, 7))
    assert GaussRational(Rational(0), Rational(0)) == GR_ZERO


def test_i_squared():
    assert GR_I * GR_I == -GR_ONE


def test_equality_against_plain_numbers():
    assert gauss(5) == 5
    assert gauss(5, 1) != 5
    assert gauss(Rational(2, 4)) == Rational(1, 2)


def test_hash_consistent_with_eq():
    a = gauss(Rational(1, 2), Rational(-3, 4))
    b = GaussRational(Rational(2, 4), Rational(-6, 8))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_field_axioms_random():
    rng = random.Random(20831)
    for _ in range(300):
        a = rand_gauss(rng)
        b = rand_gauss(rng)
        c = rand_gauss(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + GR_ZERO == a
        assert a * GR_ONE == a
        assert a - a == GR_ZERO


def test_exact_division_random():
    rng = random.Random(411)
    for _ in range(200):
        a = rand_gauss(rng)
        b = rand_gauss(rng)
        if not b:
            continue
        q = a / b
        assert q * b == a


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO


def test_conjugate_properties():
    rng = random.Random(77)
    for _ in range(100):
        a = rand_gauss(rng)
        b = rand_gauss(rng)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a
        norm = a * a.conjugate()
        assert norm.im == 0
        assert norm.re >= 0


def test_scale_by_rational():
    z = gauss(Rational(2, 3), Rational(-1, 5))
    assert z.scale(Rational(3)) == gauss(2, Rational(-3, 5))


def test_complex_cast():
    assert complex(gauss(Rational(1, 2), -1)) == 0.5 - 1j


def test_rational_string_round_trip():
    for text in ("0", "7", "-3", "1/2", "-22/7", "1000000000000000000001/3"):
        v = rational_from_string(text)
        assert rational_from_string(rational_to_string(v)) == v


def test_rational_string_rejects_garbage():
    for bad in ("", "  ", "1/0", "x", "2+3"):
        with pytest.raises(ValueError):
            rational_from_string(bad)


def test_rational_string_accepts_exact_decimals():
    # both rational backends parse decimal literals exactly
    assert rational_from_string("1.5") == Rational(3, 2)


def read_back(text):
    """The coefficient that --lambda reads from text, as the echo prints it."""
    ((_, _, c),) = parse_lambda(f"{text} v1^v2").terms
    return c


def test_gauss_string_round_trip():
    cases = [
        GR_ONE,
        -GR_ONE,
        GR_I,
        -GR_I,
        gauss(Rational(1, 2)),
        gauss(0, Rational(-3, 7)),
        gauss(Rational(1, 2), -3),
        gauss(-2, Rational(5, 9)),
    ]
    for z in cases:
        assert read_back(gauss_to_string(z)) == z
    # a zero coefficient drops its term
    assert parse_lambda(f"{gauss_to_string(GR_ZERO)} v1^v2").terms == ()


def test_gauss_string_pinned_forms():
    assert gauss_to_string(gauss(Rational(1, 2), -3)) == "(1/2-3i)"
    assert gauss_to_string(gauss(0, 1)) == "i"
    assert gauss_to_string(gauss(0, -1)) == "-i"
    assert gauss_to_string(gauss(Rational(-2, 3))) == "-2/3"
    assert read_back("-5/4i") == gauss(0, Rational(-5, 4))


def test_gauss_string_rejects_garbage():
    with pytest.raises(LambdaParseError):
        parse_lambda("")
    for bad in ("()", "(1+2)", "(i+1i)", "1//2", "(1+2i"):
        with pytest.raises(LambdaParseError):
            parse_lambda(f"{bad} v1^v2")


_FRACTIONS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@settings(max_examples=300, deadline=None)
@given(st.builds(gauss, _FRACTIONS, _FRACTIONS).filter(bool))
def test_random_string_round_trip(z):
    assert read_back(gauss_to_string(z)) == z
