"""Exact rationals and Gaussian rationals, and the one reader of number text.

The whole engine runs over Q(i), structure constants and J included.  A
Gaussian rational is held as three Python ints (a + b*i)/d in lowest terms,
so every arithmetic step is a few integer operations and one gcd.  Real
rationals appear only at the boundary, as stdlib Fractions: parsed literals,
the input structure constants and J before a presentation compiles them,
and `.re` and `.im` for `repr`.  Rendering (`gauss_to_string`) reads the
triple itself and builds no Fraction: each part over d is reduced by one gcd
when d is not 1.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = Fraction

RAT_ZERO = Rational(0)
RAT_ONE = Rational(1)


# The one definition of a digit in input text: int() and Fraction alone
# also read "1_0" as 10 and a fullwidth "３" as 3, and isdigit() takes "²".
DIGITS = frozenset("0123456789")
_RATIONAL_CHARS = DIGITS | frozenset("+-/.eE")


def read_integer(value, what: str) -> int:
    """An integer from outside the package: an int but not a bool (a JSON
    integer), or a string of an optional sign and digits, spaces around
    allowed.  int() alone would truncate a float and read True as 1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        digits = value.strip()
        if digits[:1] in ("+", "-"):
            digits = digits[1:]
        if digits and DIGITS.issuperset(digits):
            return int(value)
    raise ValueError(f"{what} must be an integer, not {value!r}")


def rational_from_string(text: str) -> Rational:
    """Parse "p" or "p/q" (optional sign, arbitrary precision), or an exact
    decimal, written in digits and "+-/.eE"; Fraction reads the grammar."""
    if not isinstance(text, str):
        raise TypeError(f"rational literal {text!r} is not a string")
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if not _RATIONAL_CHARS.issuperset(s):
        raise ValueError(f"bad rational literal {text!r}")
    try:
        return Rational(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


class GaussRational:
    """A Gaussian rational re + im*i, held as ints (a + b*i)/d with d > 0
    and gcd(a, b, d) = 1.  The form is canonical: equal values hold equal
    fields, and zero is (0, 0, 1)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=RAT_ZERO, im=RAT_ZERO):
        # re and im in lowest terms over their lcm leave gcd(a, b, d) = 1
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        d = lcm(q, s)
        self.a, self.b, self.d = p * (d // q), r * (d // s), d

    @property
    def re(self) -> Rational:
        return Rational(self.a, self.d)

    @property
    def im(self) -> Rational:
        return Rational(self.b, self.d)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return (not self.b and self.a == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        # a real value hashes as the int or Fraction it equals
        return hash((self.a, self.b, self.d) if self.b else
                    Fraction(self.a, self.d))

    def __add__(self, other: "GaussRational") -> "GaussRational":
        d, e = self.d, other.d
        if d == e:
            return _make(self.a + other.a, self.b + other.b, d)
        return _make(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        d, e = self.d, other.d
        if d == e:
            return _make(self.a - other.a, self.b - other.b, d)
        return _make(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self) -> "GaussRational":
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        a, b, c, e = self.a, self.b, other.a, other.b
        if not b:
            return _make(a * c, a * e, self.d * other.d)
        if not e:
            return _make(a * c, b * c, self.d * other.d)
        return _make(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        # (a + b*i)/d divided by (c + e*i)/f is (a + b*i)(c - e*i) f / (d n)
        # with n = c^2 + e^2 > 0; a real divisor c/f gives (a + b*i) f / (d c)
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero GaussRational")
            if c < 0:
                return _make(-a * f, -b * f, -c * self.d)
            return _make(a * f, b * f, c * self.d)
        return _make((a * c + b * e) * f, (b * c - a * e) * f,
                     (c * c + e * e) * self.d)

    def conjugate(self) -> "GaussRational":
        return _make(self.a, -self.b, self.d)

    def __complex__(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self) -> str:
        return f"GaussRational({self.re!s}, {self.im!s})"

    def __str__(self) -> str:
        return gauss_to_string(self)


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d for ints with d > 0, reduced to lowest terms."""
    g = gcd(a, b, d)
    z = _new(GaussRational)
    if g == 1:
        z.a, z.b, z.d = a, b, d
    else:
        z.a, z.b, z.d = a // g, b // g, d // g
    return z


GR_ZERO = GaussRational(RAT_ZERO, RAT_ZERO)
GR_ONE = GaussRational(RAT_ONE, RAT_ZERO)
GR_I = GaussRational(RAT_ZERO, RAT_ONE)


def gauss(re=0, im=0) -> GaussRational:
    return GaussRational(Rational(re), Rational(im))


def _ratio_to_string(n: int, d: int) -> str:
    """n/d for d > 0, written as `str(Fraction(n, d))` writes it."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        if d != 1:
            return f"{n}/{d}"
    return str(n)


def gauss_to_string(z: GaussRational) -> str:
    """The coefficient grammar of `lambda_parser`, which reads it back,
    written from the triple: each nonzero part reduced over d by itself."""
    a, b, d = z.a, z.b, z.d
    if not b:
        return _ratio_to_string(a, d)
    if not a:
        if b == d:
            return "i"
        if b == -d:
            return "-i"
        return f"{_ratio_to_string(b, d)}i"
    if b > 0:
        return f"({_ratio_to_string(a, d)}+{_ratio_to_string(b, d)}i)"
    return f"({_ratio_to_string(a, d)}-{_ratio_to_string(-b, d)}i)"
