"""Exact linear algebra over Q(i): one sparse elimination core.

A vector is a dict {index: GaussRational} that stores only nonzero entries,
and it is the only vector format: every function here takes and returns
such dicts.  `ExactMatrix(cols, nrows)` holds a matrix as sparse columns and
`Subspace` holds its canonical basis as sparse rows.  Row spaces and ranks
come from `eliminate` (forward reduction; `rref` adds `back_substitute`).
Every kernel comes from `reduce_columns`, one reduction of columns the
caller builds that tracks their combinations: it yields the RREF kernel with
no back substitution, and the image as echelon columns, so one reduction of a
differential gives both the cocycles of its source and the boundaries of
its target.  Both reductions are pivot-only: a vector is reduced by
v -= (v[lead] / kept[lead]) * kept and kept as it stands, neither made monic
nor copied when it needed no reduction, so kept vectors may be the caller's
own dicts and nothing here writes an input.  Neither pays for a step that
changes no value: an empty vector never enters the reduction loop, and a
kept vector with one entry reduces v by deleting v[lead].  Only `back_substitute` makes
monic copies, when an RREF is read.  Every linear combination goes through
`_axpy`, here and in the rest of the package (brackets, J, the Jacobi sum,
exterior sums and products, the bivector parser); only the two derivation
loops, `calculus._leibniz` on elements and `calculus.derivation_matrix` on
cells, keep their own accumulate.  Real and non-real input take
the same path: a real GaussRational is an integer pair over a common
denominator, so no entry needs a cheaper field of its own.

Every subspace is stored by its reduced row echelon basis under the ambient
coordinate order, so two equal subspaces always carry identical bases and
representatives picked from them are deterministic.  A subspace spanned by
echelon rows knows its pivots at once and back-substitutes only when its
rows are read.  `Quotient` is the one place that picks representatives, from
pivots alone, and every cohomology space (Dolbeault, Poisson, and each
spectral page cell) is one, its class projection built only when read.
"""
from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

from .scalars import GR_ONE


class LinalgError(ValueError):
    pass


def _axpy(acc: dict, f, vec: dict) -> None:
    """acc += f * vec in place, dropping the entries that cancel.

    f must be nonzero: a product under a key new to acc is stored untested,
    so f = 0 would store zeros.
    """
    for j, x in vec.items():
        y = acc.get(j)
        if y is None:
            acc[j] = f * x
        else:
            y = y + f * x
            if y:
                acc[j] = y
            else:
                del acc[j]


def combine(coeffs: dict, vectors) -> dict:
    """sum_j coeffs[j] * vectors[j], for sparse coeffs (no zero stored)."""
    acc: dict = {}
    for j, f in coeffs.items():
        _axpy(acc, f, vectors[j])
    return acc


def eliminate(rows: list[dict]) -> tuple[dict, list]:
    """Forward elimination of sparse rows, taken in order.

    Each row is reduced at its leading (smallest) index by the rows kept
    before it, v -= (v[lead] / kept[lead]) * kept, until that index is new,
    and then kept as it stands: not made monic, and not copied when it
    needed no reduction, so a kept row may be the caller's own dict.  An
    empty row never enters the loop, and a step by a kept row with one
    entry only deletes v[lead].  No input row is written.  Returns
    ({leading index: kept sparse row}, the leading index of each input row,
    None for a row that reduced to zero).
    """
    kept: dict[int, dict] = {}
    leads: list = []
    for row in rows:
        v = row
        while v and (pivot_row := kept.get(lead := min(v))) is not None:
            if v is row:
                v = dict(row)
            if len(pivot_row) == 1:
                del v[lead]
            else:
                _axpy(v, -v[lead] / pivot_row[lead], pivot_row)
        if v:
            kept[lead] = v
        leads.append(lead if v else None)
    return kept, leads


def back_substitute(kept: dict) -> tuple[list[dict], list]:
    """The reduced rows, and their pivots, of echelon rows keyed by leading
    index: each row is copied monic and cleared at the other pivots, and no
    row of `kept` is written."""
    pivots = sorted(kept)
    red: dict[int, dict] = {}
    # last pivot first: the rows used are already reduced, so they have no
    # entry at any other pivot column
    for c in reversed(pivots):
        row = kept[c]
        f = row[c]
        row = {j: x / f for j, x in row.items()} if f != 1 else dict(row)
        for j in [j for j in row if j in red]:
            _axpy(row, -row[j], red[j])
        red[c] = row
    return [red[c] for c in pivots], pivots


def rref(rows: list[dict]):
    """Reduced row echelon form of the rows.

    Returns (reduced nonzero rows, pivot column list).  Pivots are monic with
    zeros above and below, so the output is the canonical basis of the row
    space.  The reduction reads only the stored entries.
    """
    return back_substitute(eliminate(rows)[0])


def rank(rows: list[dict]) -> int:
    """The number of rows forward elimination keeps."""
    return len(eliminate(rows)[0])


def reduce_columns(cols: list[dict]) -> tuple[list[dict], dict]:
    """The canonical (RREF) kernel basis of the matrix with these columns,
    and {leading row: kept column}, echelon, for `back_substitute` to turn
    into the image's RREF, from one reduction.

    The columns are taken last first, each reduced at its leading row by the
    kept columns after it, v -= (v[lead] / kept[lead]) * kept, while its
    combination of the input columns is tracked.  A column that needs no
    reduction is kept as the caller's own dict, and none is made monic or
    written; a step by a kept column with one entry only deletes v[lead],
    and an empty column never enters the loop.  A column j that vanishes
    leaves a kernel vector that is 1 at j and otherwise nonzero only at kept
    columns, so at no other vanishing column: these vectors, by j ascending,
    are already the RREF basis."""
    kept: dict[int, dict] = {}
    combos: dict[int, dict] = {}
    kernel = []
    for j in range(len(cols) - 1, -1, -1):
        v, combo = cols[j], {j: GR_ONE}
        while v and (row := kept.get(lead := min(v))) is not None:
            if v is cols[j]:
                v = dict(v)
            f = -v[lead] / row[lead]
            if len(row) == 1:
                del v[lead]
            else:
                _axpy(v, f, row)
            _axpy(combo, f, combos[lead])
        if v:
            kept[lead], combos[lead] = v, combo
        else:
            kernel.append(combo)
    kernel.reverse()
    return kernel, kept


_NO_ENTRIES = MappingProxyType({})


def mat_mul(a: "ExactMatrix", b: "ExactMatrix",
            *more: "ExactMatrix") -> "ExactMatrix":
    """a b, plus c d for each further pair c, d of factors.  A column of a
    right factor is read only at the nonzero columns of its left factor, so
    a product column that no such entry reaches is never visited: it is zero
    with no entry to test, and it is `_NO_ENTRIES`, one empty mapping that
    every such column shares and no caller can write."""
    cols = [_NO_ENTRIES] * b.ncols
    for left, right in zip((a, *more[::2]), (b, *more[1::2])):
        lcols = left.cols
        for j, col in enumerate(right.cols):
            acc = cols[j]
            for k, f in col.items():
                if lk := lcols[k]:
                    if acc is _NO_ENTRIES:
                        acc = cols[j] = {}
                    _axpy(acc, f, lk)
    return ExactMatrix(cols, a.nrows)


def invert(rows: list[dict]) -> list[dict]:
    """The rows of the inverse of the square matrix with these rows."""
    n = len(rows)
    red, pivots = rref([{**r, n + i: GR_ONE} for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        raise LinalgError("matrix is singular")
    return [{j - n: x for j, x in r.items() if j >= n} for r in red]


class ExactMatrix:
    """Exact matrix held by sparse columns (acting on column vectors):
    cols[j] maps the row index of each nonzero entry of column j to it."""

    __slots__ = ("cols", "nrows", "ncols")

    def __init__(self, cols: list[dict], nrows: int):
        self.cols = cols
        self.nrows = nrows
        self.ncols = len(cols)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls([{} for _ in range(ncols)], nrows)

    def rank(self) -> int:
        # the rank of the transpose, whose rows are the stored columns
        return rank(self.cols)

    def kernel(self) -> list[dict]:
        return reduce_columns(self.cols)[0]

    def apply(self, vec: dict) -> dict:
        return combine(vec, self.cols)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix) and self.nrows == other.nrows
                and self.cols == other.cols)


class Subspace:
    """Subspace of Q(i)^ambient held by its pivots (leading indices) and its
    canonical RREF basis, as sparse rows, with the row at each pivot.  A
    subspace spanned by echelon rows knows its pivots at once and builds its
    RREF rows when `rows`, `contains` or `==` first reads them."""

    def __init__(self, ambient: int, rows: list[dict],
                 pivots: list[int] | None = None):
        """From rows already in RREF; the pivots default to the leading index
        of each row."""
        self.ambient = ambient
        self.rows = rows
        self.pivots = [min(r) for r in rows] if pivots is None else pivots

    @classmethod
    def from_echelon(cls, ambient: int, kept: dict) -> "Subspace":
        """The span of echelon rows keyed by leading index (`eliminate`,
        `reduce_columns`), back-substituted on first read."""
        sub = cls.__new__(cls)
        sub.ambient, sub.pivots, sub._kept = ambient, sorted(kept), kept
        return sub

    @cached_property
    def rows(self) -> list[dict]:
        return back_substitute(self._kept)[0]

    @cached_property
    def _at(self) -> dict:
        return dict(zip(self.pivots, self.rows))

    @classmethod
    def from_rows(cls, ambient: int, rows: list[dict]) -> "Subspace":
        return cls.from_echelon(ambient, eliminate(rows)[0])

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, [], [])

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, [{i: GR_ONE} for i in range(ambient)],
                   list(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def contains(self, vec: dict) -> bool:
        """Whether vec reduces to zero by this subspace's pivots.  RREF rows
        vanish at each other's pivots, so one pass over vec suffices."""
        v = dict(vec)
        for j, f in vec.items():
            row = self._at.get(j)
            if row is not None:
                _axpy(v, -f, row)
        return not v

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.rows)


class Quotient:
    """total/sub for subspaces sub <= total, in the coordinates of both.

    `reps`, the rows of total's basis at the pivots sub lacks (in pivot
    order), are the canonical coset representatives, and `dim` counts them;
    over a zero sub they are total's own row list, so they are read only.
    Only the pivots are checked: sub's must be pivots of total.  Containment
    itself is the caller's to know or to check (`contains_subspace`)."""

    def __init__(self, sub: Subspace, total: Subspace):
        self.sub = sub
        self.total = total
        if not sub.pivots:
            self.reps = total.rows
        else:
            subp = set(sub.pivots)
            if not subp <= set(total.pivots):
                raise LinalgError("quotient: sub pivots escape total")
            self.reps = [row for row, pc in zip(total.rows, total.pivots)
                         if pc not in subp]
        self.dim = len(self.reps)

    @cached_property
    def proj(self) -> ExactMatrix:
        """dim x ambient: any x in total to the coordinates of its class in
        the reps basis, and sub exactly to zero."""
        # class j is read off at the pivot of reps[j], less what each sub row
        # puts there, which sub's own pivot entry records
        slot = {min(rep): j for j, rep in enumerate(self.reps)}
        cols: dict[int, dict] = {pc: {j: GR_ONE} for pc, j in slot.items()}
        for srow, spc in zip(self.sub.rows, self.sub.pivots):
            for c, e in srow.items():
                j = slot.get(c)
                if j is not None:
                    cols.setdefault(spc, {})[j] = -e
        # the columns off every pivot share one empty dict; proj is read only
        empty: dict = {}
        return ExactMatrix([cols.get(c, empty)
                            for c in range(self.total.ambient)], self.dim)
