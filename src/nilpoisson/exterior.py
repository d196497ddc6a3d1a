"""Mixed exterior algebra on n vector generators and n conjugate-form generators.

A monomial is a strictly increasing tuple of generator codes: vector v_i
is coded as i, conjugate form (written ow_j in text output) as FORM_BASE + j.
Every generator is odd, and the canonical factor order is vectors before
forms with indices ascending, which the code order realizes directly.

The derivation kernel in `calculus` reads a monomial of the n-dimensional
complex as a bitmask instead: v_i is bit i-1 and ow_j is bit n+j-1, so
ascending bit order is again the canonical factor order.  `mono_mask` and
`mask_mono` convert.  In cell (p, q) the monomial of vector half rank a and
form half rank b (`subset_masks`) sits at a * C(n, q) + b.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import cache
from itertools import accumulate, combinations

from .errors import InternalInvariantError
from .exact_linalg import _axpy
from .scalars import GR_ONE, GaussRational, gauss_to_string

_MINUS_ONE = -GR_ONE

FORM_BASE = 1 << 20

Monomial = tuple  # of ints, strictly increasing


def vec_gen(i: int) -> int:
    return i


def form_gen(j: int) -> int:
    return FORM_BASE + j


def mono_bidegree(mono: Monomial) -> tuple[int, int]:
    p = sum(1 for g in mono if g < FORM_BASE)
    return p, len(mono) - p


def wedge_mono(a: Monomial, b: Monomial):
    """Merge monomials with the Koszul sign; None when a factor repeats."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    inv = 0
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            return 0, None
        if x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
            inv += la - i
    out.extend(a[i:])
    out.extend(b[j:])
    return (1 if inv % 2 == 0 else -1), tuple(out)


def mono_mask(mono: Monomial, n: int) -> int:
    """The bitmask of a monomial: v_i is bit i-1, ow_j is bit n+j-1."""
    mask = 0
    for g in mono:
        mask |= 1 << (g - 1 if g < FORM_BASE else n + g - FORM_BASE - 1)
    return mask


def mask_mono(mask: int, n: int) -> Monomial:
    """The monomial of a bitmask, factors in ascending bit order."""
    out = []
    b = 0
    while mask:
        if mask & 1:
            out.append(b + 1 if b < n else FORM_BASE + b - n + 1)
        mask >>= 1
        b += 1
    return tuple(out)


def mono_str(mono: Monomial) -> str:
    return "^".join([f"v{g}" if g < FORM_BASE else f"ow{g - FORM_BASE}"
                     for g in mono]) or "1"


def terms_texts(rows, words: list[str]) -> list[str]:
    """The text of each sparse row {index: coefficient} over a basis whose
    monomials read as words, terms in index order, which must be monomial
    order: "(c) word + ...", or "0" for an empty row.  The "(c) " head is
    written once per distinct coefficient, keyed by its (a, b, d) triple,
    which hashes in C."""
    heads, texts = {}, []
    for r in rows:
        terms = []
        for j, c in sorted(r.items()) if len(r) > 1 else r.items():
            if (h := heads.get(k := (c.a, c.b, c.d))) is None:
                h = heads[k] = f"({gauss_to_string(c)}) "
            terms.append(h + words[j])
        texts.append(" + ".join(terms) or "0")
    return texts


class MixedElement:
    """Sparse element of the mixed exterior algebra; no zero terms stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls) -> "MixedElement":
        return cls()

    @classmethod
    def term(cls, mono: Monomial, coeff: GaussRational) -> "MixedElement":
        if not coeff:
            return cls()
        return cls({mono: coeff})

    @classmethod
    def vector(cls, coords: dict) -> "MixedElement":
        """sum_a coords[a] v_(a+1), from sparse coordinates indexed from 0."""
        return cls({(a + 1,): coords[a] for a in sorted(coords)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, MixedElement) and self.terms == other.terms

    def __add__(self, other: "MixedElement") -> "MixedElement":
        out = dict(self.terms)
        _axpy(out, GR_ONE, other.terms)
        return MixedElement(out)

    def __sub__(self, other: "MixedElement") -> "MixedElement":
        out = dict(self.terms)
        _axpy(out, _MINUS_ONE, other.terms)
        return MixedElement(out)

    def __neg__(self) -> "MixedElement":
        return MixedElement({m: -c for m, c in self.terms.items()})

    def wedge(self, other: "MixedElement") -> "MixedElement":
        out: dict = {}
        for ma, ca in self.terms.items():
            # m -> ma ^ m is one to one where it is not zero
            prod = {}
            for mb, cb in other.terms.items():
                sign, m = wedge_mono(ma, mb)
                if sign:
                    prod[m] = cb if sign > 0 else -cb
            _axpy(out, ca, prod)
        return MixedElement(out)

    def homogeneous_bidegree(self) -> tuple[int, int] | None:
        """The (p, q) of a homogeneous element; None for 0 or mixed."""
        pq = None
        for m in self.terms:
            b = mono_bidegree(m)
            if pq is None:
                pq = b
            elif pq != b:
                return None
        return pq

    def __str__(self) -> str:
        monos = sorted(self.terms)
        return terms_texts([{j: self.terms[m] for j, m in enumerate(monos)}],
                           [mono_str(m) for m in monos])[0]

    __repr__ = __str__


def cell_monomials(n: int, p: int, q: int) -> list[Monomial]:
    """Basis of the (p, q) cell, vec-set lexicographic outer, form-set inner."""
    if p < 0 or q < 0 or p > n or q > n:
        return []
    forms = [tuple(FORM_BASE + j for j in c)
             for c in combinations(range(1, n + 1), q)]
    return [vecs + f for vecs in combinations(range(1, n + 1), p) for f in forms]


@cache
def subset_masks(n: int, k: int) -> tuple[int, ...]:
    """The k-subsets of n bits as masks, in `combinations` order: the vector
    (or, shifted by n, the form) halves of a cell's monomials, in order."""
    return (tuple(sum(1 << i for i in c) for c in combinations(range(n), k))
            if k >= 0 else ())


@cache
def subset_ranks(n: int, k: int) -> dict[int, int]:
    """The position of each k-subset mask in `subset_masks(n, k)`; shared."""
    return {m: r for r, m in enumerate(subset_masks(n, k))}


@cache
def subset_words(n: int, k: int, name: str, end: str = "") -> tuple[str, ...]:
    """The text of each k-subset of `subset_masks(n, k)`, its generators
    written name1, name2, ..., and end after it: the text of a vector or a
    form half."""
    return tuple("^".join(f"{name}{i + 1}" for i in c) + end
                 for c in combinations(range(n), k)) if k >= 0 else ()


class CellBasis(Sequence):
    """The monomials of the cells (p, q), laid end to end, each cell in
    `cell_monomials` order: the basis of one cell, or of a total degree.
    It is the one owner of its layout: `starts` holds the index of each
    cell's first monomial, with the length last, and `locate` finds the
    cell of an index by bisection.  It is sized from the half tables, and it
    decodes a monomial, or writes its text, only when that one is read."""

    __slots__ = ("n", "cells", "starts")

    def __init__(self, n: int, cells: list[tuple[int, int]]):
        self.n, self.cells = n, cells
        self.starts = list(accumulate((len(subset_masks(n, p)) * len(
            subset_masks(n, q)) for p, q in cells), initial=0))

    def __len__(self) -> int:
        return self.starts[-1]

    def locate(self, j: int) -> int:
        """The position in `cells` of the cell that holds index j."""
        if not 0 <= j < self.starts[-1]:
            raise IndexError("cell basis index out of range")
        return bisect_right(self.starts, j) - 1

    def __getitem__(self, j: int) -> Monomial:
        c = self.locate(j)
        (p, q), n = self.cells[c], self.n
        a, b = divmod(j - self.starts[c], len(subset_masks(n, q)))
        return mask_mono(subset_masks(n, p)[a] | subset_masks(n, q)[b] << n, n)

    def words(self, indices) -> dict[int, str]:
        """`mono_str` of the monomial at each index, joined from the cached
        texts of its vector half (with "^" when a form half follows) and its
        form half: the indices sorted once, then each cell's in one pass."""
        idx, out, lo = sorted(indices), {}, 0
        if idx and not (0 <= idx[0] and idx[-1] < self.starts[-1]):
            raise IndexError("cell basis index out of range")
        for (p, q), start, end in zip(self.cells, self.starts, self.starts[1:]):
            vecs = subset_words(self.n, p, "v", "^" if p and q else "")
            forms = subset_words(self.n, q, "ow")
            nf, hi = len(forms), bisect_left(idx, end, lo)
            out.update({j: vecs[(j - start) // nf] + forms[(j - start) % nf]
                        or "1" for j in idx[lo:hi]})
            lo = hi
        return out


def graded_monomials(n: int, k: int) -> list[Monomial]:
    """Basis of total degree k, ordered by p descending then lexicographic."""
    out = []
    for p in range(min(k, n), -1, -1):
        q = k - p
        if q > n:
            continue
        out.extend(cell_monomials(n, p, q))
    return out


def element_entries(e: MixedElement, index: dict[Monomial, int],
                    where: str = "element") -> dict:
    """Sparse coordinates of e in the basis that index numbers."""
    out = {}
    for m, c in e.terms.items():
        pos = index.get(m)
        if pos is None:
            raise InternalInvariantError(f"{where}: monomial {mono_str(m)} outside basis")
        out[pos] = c
    return out


def element_from_coords(coords: dict, basis: list[Monomial]) -> MixedElement:
    """The element with the given sparse coordinates."""
    return MixedElement({basis[j]: c for j, c in coords.items()})


def wedge(a: MixedElement, b: MixedElement) -> MixedElement:
    return a.wedge(b)

