"""Mixed exterior algebra on n vector generators and n conjugate-form generators.

A monomial is a strictly increasing tuple of generator codes: vector v_i
is coded as i, conjugate form (written ow_j in text output) as FORM_BASE + j.
Every generator is odd, and the canonical factor order is vectors before
forms with indices ascending, which the code order realizes directly.
"""
from __future__ import annotations

from itertools import combinations

from .errors import InternalInvariantError
from .scalars import GaussRational

FORM_BASE = 1 << 20

Monomial = tuple  # of ints, strictly increasing


def vec_gen(i: int) -> int:
    return i


def form_gen(j: int) -> int:
    return FORM_BASE + j


def is_vec(code: int) -> bool:
    return code < FORM_BASE


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


def mono_str(mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for g in mono:
        if g < FORM_BASE:
            parts.append(f"v{g}")
        else:
            parts.append(f"ow{g - FORM_BASE}")
    return "^".join(parts)


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

    @classmethod
    def form(cls, coords: dict) -> "MixedElement":
        """sum_a coords[a] ow_(a+1), from sparse coordinates indexed from 0."""
        return cls({(FORM_BASE + a + 1,): coords[a] for a in sorted(coords)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, MixedElement) and self.terms == other.terms

    def __add__(self, other: "MixedElement") -> "MixedElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return MixedElement(out)

    def __sub__(self, other: "MixedElement") -> "MixedElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = -c
            else:
                s = s - c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return MixedElement(out)

    def __neg__(self) -> "MixedElement":
        return MixedElement({m: -c for m, c in self.terms.items()})

    def scale(self, z: GaussRational) -> "MixedElement":
        if not z:
            return MixedElement()
        return MixedElement({m: c * z for m, c in self.terms.items()})

    def wedge(self, other: "MixedElement") -> "MixedElement":
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                sign, m = wedge_mono(ma, mb)
                if sign == 0:
                    continue
                c = ca * cb
                if sign < 0:
                    c = -c
                s = out.get(m)
                if s is None:
                    out[m] = c
                else:
                    s = s + c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return MixedElement(out)

    def bidegree_split(self) -> dict[tuple[int, int], "MixedElement"]:
        cells: dict[tuple[int, int], MixedElement] = {}
        for m, c in self.terms.items():
            pq = mono_bidegree(m)
            cell = cells.get(pq)
            if cell is None:
                cell = MixedElement()
                cells[pq] = cell
            cell.terms[m] = c
        return cells

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
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            parts.append(f"({c!s}) {mono_str(m)}")
        return " + ".join(parts)

    __repr__ = __str__


class Scratch2Form:
    """Transient full 2-form over the (1,0)/(0,1) coframe.

    mixed[(i, j)] is the coefficient of w_i ^ ow_j (w_i the transient (1,0)
    form), antiholo[(i, j)] with i < j the coefficient of ow_i ^ ow_j.  A
    (2,0) block never appears for an integrable structure; the constructor
    refuses one.
    """

    __slots__ = ("mixed", "antiholo")

    def __init__(self, mixed: dict, antiholo: dict, holo: dict | None = None):
        if holo and any(holo.values()):
            raise InternalInvariantError(
                "2-form has a (2,0) block; complex structure is not integrable"
            )
        self.mixed = {k: v for k, v in mixed.items() if v}
        self.antiholo = {k: v for k, v in antiholo.items() if v}

    def is_zero(self) -> bool:
        return not self.mixed and not self.antiholo

    def antiholo_element(self) -> MixedElement:
        terms = {}
        for (i, j), c in self.antiholo.items():
            terms[(FORM_BASE + i, FORM_BASE + j)] = c
        return MixedElement(terms)


def interior(v_index: int, two_form: Scratch2Form) -> MixedElement:
    """Contract v_{v_index} into the first slot of a scratch 2-form.

    Pairings: <v_i, w_j> = delta_ij and <v_i, ow_j> = 0, so only the mixed
    block contributes and the value is a pure (0,1)-form.
    """
    out = MixedElement()
    for (i, j), c in two_form.mixed.items():
        if i == v_index:
            out = out + MixedElement.term((FORM_BASE + j,), c)
    return out


def cell_monomials(n: int, p: int, q: int) -> list[Monomial]:
    """Basis of the (p, q) cell, vec-set lexicographic outer, form-set inner."""
    if p < 0 or q < 0 or p > n or q > n:
        return []
    out = []
    for vecs in combinations(range(1, n + 1), p):
        for forms in combinations(range(1, n + 1), q):
            out.append(vecs + tuple(FORM_BASE + j for j in forms))
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

