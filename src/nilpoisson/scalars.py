"""Exact scalars: rationals and Gaussian rationals.

The whole engine runs over Q(i), except that an elimination whose input is
all real lowers to Q: `exact_linalg.eliminate` then reduces the real parts
and hands back GaussRationals.  Real rationals are stdlib Fractions unless
gmpy2 is importable, in which case its mpq type (same semantics, much faster)
is used transparently.
"""
from __future__ import annotations

from fractions import Fraction

try:  # pragma: no cover - exercised implicitly by the whole suite
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover
    Rational = Fraction

RAT_ZERO = Rational(0)
RAT_ONE = Rational(1)


def rational_from_string(text: str) -> Rational:
    """Parse "p" or "p/q" (optional sign, arbitrary precision)."""
    if not isinstance(text, str):
        raise TypeError(f"rational literal {text!r} is not a string")
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    try:
        return Rational(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def rational_to_string(value) -> str:
    return str(value)


class GaussRational:
    """A Gaussian rational re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=RAT_ZERO, im=RAT_ZERO):
        self.re = re if type(re) is type(RAT_ZERO) else Rational(re)
        self.im = im if type(im) is type(RAT_ZERO) else Rational(im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)) or type(other) is type(RAT_ZERO):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Fraction(self.re), Fraction(self.im)))

    def __add__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            if not a:
                return GR_ZERO
            return GaussRational(a * c, a * d)
        if not d:
            return GaussRational(a * c, b * c)
        return GaussRational(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        c, d = other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero GaussRational")
            return GaussRational(self.re / c, self.im / c)
        n = c * c + d * d
        a, b = self.re, self.im
        return GaussRational((a * c + b * d) / n, (b * c - a * d) / n)

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def scale(self, r) -> "GaussRational":
        return GaussRational(self.re * r, self.im * r)

    def __complex__(self) -> complex:
        return complex(float(Fraction(self.re)), float(Fraction(self.im)))

    def __repr__(self) -> str:
        return f"GaussRational({self.re!s}, {self.im!s})"

    def __str__(self) -> str:
        return gauss_to_string(self)


GR_ZERO = GaussRational(RAT_ZERO, RAT_ZERO)
GR_ONE = GaussRational(RAT_ONE, RAT_ZERO)
GR_I = GaussRational(RAT_ZERO, RAT_ONE)


def gauss(re=0, im=0) -> GaussRational:
    return GaussRational(Rational(re), Rational(im))


def gauss_to_string(z: GaussRational) -> str:
    """The coefficient grammar of `lambda_parser`, which reads it back."""
    if not z.im:
        return str(z.re)
    if not z.re:
        if z.im == 1:
            return "i"
        if z.im == -1:
            return "-i"
        return f"{z.im}i"
    sign = "+" if z.im > 0 else "-"
    mag = z.im if z.im > 0 else -z.im
    return f"({z.re}{sign}{mag}i)"
