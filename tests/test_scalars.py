import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
    # a real value is the int or Fraction it equals, as a key too
    for real, value in ((gauss(1), 1), (gauss(-3), -3), (gauss(0), 0),
                        (gauss(Rational(-5, 6)), Fraction(-5, 6))):
        assert real == value
        assert hash(real) == hash(value)
        assert len({real, value}) == 1
        assert {value: "x"}[real] == "x"


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


def test_complex_cast():
    assert complex(gauss(Rational(1, 2), -1)) == 0.5 - 1j


def test_rational_string_round_trip():
    for text in ("0", "7", "-3", "1/2", "-22/7", "1000000000000000000001/3"):
        v = rational_from_string(text)
        assert rational_from_string(rational_to_string(v)) == v


def test_rational_string_rejects_garbage():
    # Fraction alone reads "1_0" as 10 and a fullwidth three as 3
    for bad in ("", "  ", "1/0", "x", "2+3", "1_0", "\uff13"):
        with pytest.raises(ValueError):
            rational_from_string(bad)


def test_rational_string_accepts_exact_decimals():
    # Fraction parses decimal literals exactly
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
    # the triple holds each over the lcm of both parts: each part reduces
    assert gauss_to_string(gauss(Rational(1, 4), Rational(1, 2))) == "(1/4+1/2i)"
    assert gauss_to_string(gauss(Rational(-10**12 + 1, 6), Rational(1, 3))) \
        == "(-333333333333/2+1/3i)"
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


class _RefGauss:
    """Reference arithmetic: a Gaussian rational held as two Fractions, with
    the formulas the package used before it held (a + b*i)/d as ints."""

    def __init__(self, re, im):
        self.re, self.im = Fraction(re), Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, _RefGauss):
            return self.re == other.re and self.im == other.im
        return self.im == 0 and self.re == other

    def __add__(self, other):
        return _RefGauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _RefGauss(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return _RefGauss(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return _RefGauss(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        c, d = other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero")
            return _RefGauss(self.re / c, self.im / c)
        n = c * c + d * d
        a, b = self.re, self.im
        return _RefGauss((a * c + b * d) / n, (b * c - a * d) / n)

    def conjugate(self):
        return _RefGauss(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussRational({self.re!s}, {self.im!s})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = self.im if self.im > 0 else -self.im
        return f"({self.re}{sign}{mag}i)"


# zero parts, small values (so that sums cancel and units appear), and
# large numerators and denominators up to 10^12, of either sign
_PARTS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12)),
)


def _assert_matches(z, ref):
    a, b, d = z.a, z.b, z.d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    if not ref:
        assert (a, b, d) == (0, 0, 1)
    assert z.re == ref.re and z.im == ref.im
    assert bool(z) == bool(ref)
    assert str(z) == str(ref)
    assert repr(z) == repr(ref)
    assert complex(z) == complex(ref)
    # equal values hold equal fields, so they hash alike
    same = GaussRational(ref.re, ref.im)
    assert z == same and hash(z) == hash(same)


@settings(max_examples=500, deadline=None)
@given(_PARTS, _PARTS, _PARTS, _PARTS)
@example(Fraction(1, 2), Fraction(-1, 3), Fraction(-2, 3), Fraction(0))
@example(Fraction(5), Fraction(0), Fraction(-7, 10**12), Fraction(0))
@example(Fraction(1, 6), Fraction(0), Fraction(1, 3), Fraction(0))
@example(Fraction(0), Fraction(3, 4), Fraction(0), Fraction(-3, 4))
# parts that reduce over d on their own: (1 + 2i)/4, and -3i/8
@example(Fraction(1, 4), Fraction(1, 2), Fraction(0), Fraction(-3, 8))
# a large negative numerator beside a small imaginary part, and i/3
@example(Fraction(-10**12 + 1, 6), Fraction(5, 4), Fraction(0), Fraction(1, 3))
def test_arithmetic_matches_two_fraction_reference(p, q, r, s):
    x, y = GaussRational(p, q), GaussRational(r, s)
    rx, ry = _RefGauss(p, q), _RefGauss(r, s)
    _assert_matches(x, rx)
    _assert_matches(y, ry)
    _assert_matches(x + y, rx + ry)
    _assert_matches(x - y, rx - ry)
    _assert_matches(x * y, rx * ry)
    _assert_matches(y * x, ry * rx)
    _assert_matches(-x, -rx)
    _assert_matches(x.conjugate(), rx.conjugate())
    if ry:
        _assert_matches(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert (x == y) == (rx == ry)
    assert (x == p) == (rx == p)
    assert (x == p.numerator) == (rx == p.numerator)
    assert (x != y) == (not rx == ry)
