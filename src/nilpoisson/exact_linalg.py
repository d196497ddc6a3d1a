"""Exact linear algebra over Q(i): one sparse elimination core.

A vector is a dict {index: GaussRational} that stores only nonzero entries,
and it is the only vector format: every function here takes and returns
such dicts.  `ExactMatrix(cols, nrows)` holds a matrix as sparse columns and
`Subspace` holds its canonical basis as sparse rows.  Every elimination runs
through `eliminate` (forward reduction, wrapped by `rref` into the reduced
row echelon form) and every linear combination through `_axpy`.

Every subspace is stored by its reduced row echelon basis under the ambient
coordinate order, so two equal subspaces always carry identical bases and
representatives picked from them are deterministic.
"""
from __future__ import annotations

from .scalars import GR_ONE, GR_ZERO, GaussRational


class LinalgError(ValueError):
    pass


def _axpy(acc: dict, f: GaussRational, vec: dict) -> None:
    """acc += f * vec in place, dropping the entries that cancel."""
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
    """sum_j coeffs[j] * vectors[j]."""
    acc: dict = {}
    for j, f in coeffs.items():
        _axpy(acc, f, vectors[j])
    return acc


def sum_entries(a: dict, b: dict) -> GaussRational:
    """The bilinear dot product of two vectors."""
    if len(b) < len(a):
        a, b = b, a
    acc = GR_ZERO
    for j, x in a.items():
        y = b.get(j)
        if y:
            acc = acc + x * y
    return acc


def eliminate(rows) -> tuple[dict, list]:
    """Forward elimination of sparse rows, taken in order.

    Each row is reduced at its leading (smallest) index by the rows kept
    before it until that index is new; the row is then made monic and kept.  Returns ({leading index: kept sparse row}, the leading
    index of each input row, None for a row that reduced to zero).
    """
    kept: dict[int, dict] = {}
    leads: list = []
    for row in rows:
        v = dict(row)
        lead = None
        while v:
            lead = min(v)
            pivot_row = kept.get(lead)
            if pivot_row is None:
                break
            _axpy(v, -v[lead], pivot_row)
        if not v:
            leads.append(None)
            continue
        f = v[lead]
        if f != GR_ONE:
            v = {j: x / f for j, x in v.items()}
        kept[lead] = v
        leads.append(lead)
    return kept, leads


def rref(rows: list[dict], ncols: int):
    """Reduced row echelon form of rows of width ncols.

    Returns (reduced nonzero rows, pivot column list).  Pivots are monic with
    zeros above and below, so the output is the canonical basis of the row
    space.  The reduction reads only the stored entries; ncols is the width
    they live in.
    """
    kept, _ = eliminate(rows)
    pivots = sorted(kept)
    # back substitution, last pivot first: the rows used are already reduced,
    # so they have no entry at any other pivot column
    for c in reversed(pivots):
        row = kept[c]
        for j in [j for j in row if j != c and j in kept]:
            _axpy(row, -row[j], kept[j])
    return [kept[c] for c in pivots], pivots


def rank(rows: list[dict], ncols: int) -> int:
    return len(rref(rows, ncols)[0])


def kernel_basis(rows: list[dict], ncols: int) -> list[dict]:
    """Canonical (RREF) basis of {x : M x = 0} for M given by rows, from one
    elimination with the columns taken in reverse order: the kernel vector
    of a free column then has its leading entry there and its others at
    pivot columns only, so the vectors sorted by free column are already the
    reduced row echelon basis."""
    last = ncols - 1
    red, pivots = rref([{last - j: x for j, x in r.items()} for r in rows],
                       ncols)
    pivot_set = set(pivots)
    vecs = {last - c: {last - c: GR_ONE}
            for c in range(ncols) if c not in pivot_set}
    for row, pc in zip(red, pivots):
        for c, x in row.items():
            if c != pc:
                vecs[last - c][last - pc] = -x
    return [vecs[f] for f in sorted(vecs)]


def mat_mul(a: "ExactMatrix", b: "ExactMatrix") -> "ExactMatrix":
    return ExactMatrix([combine(col, a.cols) for col in b.cols], a.nrows)


def invert(rows: list[dict]) -> list[dict]:
    """The rows of the inverse of the square matrix with these rows."""
    n = len(rows)
    red, pivots = rref([{**r, n + i: GR_ONE} for i, r in enumerate(rows)],
                       2 * n)
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
        return rank(self.cols, self.nrows)

    def kernel(self) -> list[dict]:
        rows: dict[int, dict] = {}
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                rows.setdefault(i, {})[j] = x
        return kernel_basis(list(rows.values()), self.ncols)

    def apply(self, vec: dict) -> dict:
        return combine(vec, self.cols)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix) and self.nrows == other.nrows
                and self.cols == other.cols)


class Subspace:
    """Subspace of Q(i)^ambient held by its canonical RREF basis, as sparse
    rows with the pivot (leading index) of each."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, rows: list[dict],
                 pivots: list[int] | None = None):
        """From rows already in RREF; the pivots default to the leading index
        of each row."""
        self.ambient = ambient
        self.rows = rows
        self.pivots = [min(r) for r in rows] if pivots is None else pivots

    @classmethod
    def from_rows(cls, ambient: int, rows: list[dict]) -> "Subspace":
        basis, pivots = rref(rows, ambient)
        return cls(ambient, basis, pivots)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, [], [])

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, [{i: GR_ONE} for i in range(ambient)],
                   list(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after eliminating this subspace's pivots.  RREF
        rows vanish at each other's pivots, so one pass suffices."""
        v = dict(vec)
        at_pivots = [(v[pc], row) for row, pc in zip(self.rows, self.pivots)
                     if pc in v]
        for f, row in at_pivots:
            _axpy(v, -f, row)
        return v

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.rows)


def quotient_map(sub: Subspace, total: Subspace, check: bool = True):
    """Canonical data for total/sub where sub is contained in total.

    Returns (dim, reps, proj) with reps the rows of total's basis whose pivot
    is not a pivot of sub (canonical coset representatives) and proj the
    dim x ambient ExactMatrix sending any x in total to the coordinates of
    its class in the reps basis (and sub exactly to zero).

    check=False skips the full membership verification; callers may do that
    only when containment is already guaranteed (for instance by a verified
    square-zero identity).  The cheap pivot-compatibility test always runs.
    """
    if check and not total.contains_subspace(sub):
        raise LinalgError("quotient_map: sub is not contained in total")
    sub_pivots = set(sub.pivots)
    if not sub_pivots.issubset(set(total.pivots)):
        raise LinalgError("quotient_map: sub pivots escape total")
    # class j is read off at the pivot of reps[j], less what each sub row
    # puts there, which sub's own pivot entry records
    cols: dict[int, dict] = {}
    reps = []
    slot: dict[int, int] = {}
    for row, pc in zip(total.rows, total.pivots):
        if pc not in sub_pivots:
            slot[pc] = len(reps)
            cols[pc] = {len(reps): GR_ONE}
            reps.append(row)
    for srow, spc in zip(sub.rows, sub.pivots):
        for c, e in srow.items():
            j = slot.get(c)
            if j is not None:
                cols.setdefault(spc, {})[j] = -e
    # the columns off every pivot share one empty dict; proj is read only
    empty: dict = {}
    return len(reps), reps, ExactMatrix(
        [cols.get(c, empty) for c in range(total.ambient)], len(reps))
