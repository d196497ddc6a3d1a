"""Mini-language for bivector expressions such as "2 v1^v4 - v2^v3".

Grammar, whitespace insensitive:

    expr  := ['-'] term (('+' | '-') term)*
    term  := [coeff] 'v' INT '^' 'v' INT
    coeff := rational | rational 'i' | 'i' | '(' rational sign rational 'i' ')'

Coefficients are exact Gaussian rationals; "v2^v1" normalizes to the
negative of "v1^v2"; repeated index pairs are combined.
"""
from __future__ import annotations

from .errors import UsageError
from .exact_linalg import _axpy
from .exterior import FORM_BASE, MixedElement
from .scalars import (GR_ONE, GaussRational, RAT_ZERO, gauss,
                      gauss_to_string, rational_from_string)


# ASCII only: str.isdigit() also takes '²', which int() refuses, and '３',
# which int() reads as 3
_DIGITS = frozenset("0123456789")


class LambdaParseError(UsageError):
    """Bad bivector expression; the message carries the position."""


class _Scanner:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def fail(self, message: str):
        raise LambdaParseError(f"{message} at position {self.pos}")

    def number(self) -> str:
        """Unsigned rational literal: digits, optionally /digits."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number")
        if self.pos < len(self.src) and self.src[self.pos] == "/":
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.src) and self.src[self.pos] in _DIGITS:
                self.pos += 1
            if self.pos == dstart:
                self.fail("expected a denominator")
            if not int(self.src[dstart:self.pos]):
                self.pos = dstart
                self.fail("zero denominator")
        return self.src[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            self.fail("expected an index")
        return int(self.src[start:self.pos])


def _parse_signed_rational(sc: _Scanner):
    sign = 1
    if sc.peek() in "+-":
        if sc.take() == "-":
            sign = -1
    value = rational_from_string(sc.number())
    return -value if sign < 0 else value


def _parse_coeff(sc: _Scanner) -> GaussRational:
    """Coefficient immediately preceding a generator, if any."""
    ch = sc.peek()
    if ch == "(":
        sc.take()
        re = _parse_signed_rational(sc)
        if sc.peek() not in "+-":
            sc.fail("expected '+' or '-' inside parentheses")
        im = _parse_signed_rational(sc)
        if sc.peek() != "i":
            sc.fail("expected 'i' inside parentheses")
        sc.take()
        if sc.peek() != ")":
            sc.fail("expected ')'")
        sc.take()
        return gauss(re, im)
    if ch == "i":
        sc.take()
        return gauss(RAT_ZERO, rational_from_string("1"))
    if ch in _DIGITS:
        value = rational_from_string(sc.number())
        if sc.peek() == "i":
            sc.take()
            return gauss(RAT_ZERO, value)
        return gauss(value, RAT_ZERO)
    return GR_ONE


def _parse_term(sc: _Scanner):
    coeff = _parse_coeff(sc)
    if sc.peek() != "v":
        sc.fail("expected 'v'")
    sc.take()
    i = sc.integer()
    if sc.peek() != "^":
        sc.fail("expected '^'")
    sc.take()
    if sc.peek() != "v":
        sc.fail("expected 'v'")
    sc.take()
    j = sc.integer()
    if i == j:
        sc.fail(f"degenerate wedge v{i}^v{j}")
    if i > j:
        i, j = j, i
        coeff = -coeff
    return coeff, i, j


class LambdaExpr:
    """Normalized sum of coeff * v_i^v_j terms, i < j."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: dict = {}
        for coeff, i, j in terms:
            if coeff:  # `_axpy` takes only a nonzero factor
                _axpy(merged, coeff, {(i, j): GR_ONE})
        self.terms = tuple((ij[0], ij[1], c) for ij, c in sorted(merged.items()))

    def __eq__(self, other):
        return isinstance(other, LambdaExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def bind(self, n: int) -> MixedElement:
        """Validate indices against the complex dimension and build the element."""
        for i, j, _ in self.terms:
            for idx in (i, j):
                if not 1 <= idx <= n:
                    raise LambdaParseError(f"index v{idx} out of range 1..{n}")
        return MixedElement({(i, j): c for i, j, c in self.terms})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k, (i, j, c) in enumerate(self.terms):
            # a unit coefficient is written as a bare sign
            text = gauss_to_string(c)
            text = {"1": "", "-1": "-"}.get(text, text)
            sign = "-" if text.startswith("-") else "+"
            body = text[1:] if text.startswith("-") else text
            lead = body + " " if body else ""
            if k == 0:
                parts.append(("-" if sign == "-" else "") + f"{lead}v{i}^v{j}")
            else:
                parts.append(f" {sign} {lead}v{i}^v{j}")
        return "".join(parts)


def expr_from_element(e: MixedElement) -> LambdaExpr:
    """Rebuild an expression from a (2,0) bivector element."""
    terms = []
    for mono, c in e.terms.items():
        if len(mono) != 2 or any(g >= FORM_BASE for g in mono):
            raise UsageError("element is not a vector 2-blade combination")
        terms.append((c, mono[0], mono[1]))
    return LambdaExpr(terms)


def parse_lambda(src: str) -> LambdaExpr:
    sc = _Scanner(src)
    terms = []
    if sc.peek() == "":
        sc.fail("empty expression")
    negate = False
    if sc.peek() == "-":
        sc.take()
        negate = True
    coeff, i, j = _parse_term(sc)
    terms.append((-coeff if negate else coeff, i, j))
    while sc.peek():
        op = sc.take()
        if op not in "+-":
            sc.pos -= 1
            sc.fail(f"expected '+' or '-', found {op!r}")
        coeff, i, j = _parse_term(sc)
        terms.append((-coeff if op == "-" else coeff, i, j))
    return LambdaExpr(terms)
