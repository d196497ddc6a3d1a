"""Exact linear algebra over Q(i): one sparse elimination core.

A vector is a dict {index: GaussRational} that stores only nonzero entries;
`ExactMatrix` holds a matrix as such sparse columns and `Subspace` holds its
canonical basis as such sparse rows.  Every elimination runs through
`eliminate` (forward reduction, wrapped by `rref` into the reduced row
echelon form) and every linear combination through `_axpy`.  The functions
that take rows (`rref`, `rank`, `kernel_basis`, `invert`, `mat_mul`,
`mat_vec`, `sum_entries`) also take dense lists and answer in the format
they were given, for the small callers that keep dense vectors.

Every subspace is stored by its reduced row echelon basis under the ambient
coordinate order, so two equal subspaces always carry identical bases and
representatives picked from them are deterministic.
"""
from __future__ import annotations

from .scalars import GR_ONE, GR_ZERO, GaussRational


class LinalgError(ValueError):
    pass


def zero_row(n: int) -> list[GaussRational]:
    return [GR_ZERO] * n


def identity_rows(n: int) -> list[list[GaussRational]]:
    rows = []
    for i in range(n):
        row = zero_row(n)
        row[i] = GR_ONE
        rows.append(row)
    return rows


def entries(vec):
    """The (index, nonzero entry) pairs of a sparse or dense vector."""
    if isinstance(vec, dict):
        return vec.items()
    return ((j, x) for j, x in enumerate(vec) if x)


def sparse(vec) -> dict:
    return dict(entries(vec))


def dense(vec: dict, n: int) -> list[GaussRational]:
    out = zero_row(n)
    for j, x in vec.items():
        out[j] = x
    return out


def _axpy(acc: dict, f: GaussRational, vec) -> None:
    """acc += f * vec in place, dropping the entries that cancel."""
    for j, x in entries(vec):
        y = acc.get(j)
        if y is None:
            acc[j] = f * x
        else:
            y = y + f * x
            if y:
                acc[j] = y
            else:
                del acc[j]


def combine(coeffs, vectors) -> dict:
    """sum_j coeffs[j] * vectors[j] as a sparse vector."""
    acc: dict = {}
    for j, f in entries(coeffs):
        _axpy(acc, f, vectors[j])
    return acc


def sum_entries(a, b) -> GaussRational:
    """The bilinear dot product of two vectors, each sparse or dense."""
    if not isinstance(a, dict) or (isinstance(b, dict) and len(b) < len(a)):
        a, b = b, a
    lookup = b.get if isinstance(b, dict) else b.__getitem__
    acc = GR_ZERO
    for j, x in entries(a):
        y = lookup(j)
        if y:
            acc = acc + x * y
    return acc


def eliminate(rows) -> tuple[dict, list]:
    """Forward elimination of sparse rows, taken in order.

    Each row (sparse or dense) is reduced at its leading (smallest) index by
    the rows kept before it until that index is new; the row is then made
    monic and kept.  Returns ({leading index: kept sparse row}, the leading
    index of each input row, None for a row that reduced to zero).
    """
    kept: dict[int, dict] = {}
    leads: list = []
    for row in rows:
        v = dict(entries(row))
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


def rref(rows, ncols: int | None = None):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column list).  Pivots are monic with
    zeros above and below, so the output is the canonical basis of the row
    space.  Rows are sparse dicts or dense lists; dense rows come back dense.
    """
    dense_in = bool(rows) and not isinstance(rows[0], dict)
    if dense_in and ncols is None:
        ncols = len(rows[0])
    kept, _ = eliminate(rows)
    pivots = sorted(kept)
    # back substitution, last pivot first: the rows used are already reduced,
    # so they have no entry at any other pivot column
    for c in reversed(pivots):
        row = kept[c]
        for j in [j for j in row if j != c and j in kept]:
            _axpy(row, -row[j], kept[j])
    red = [kept[c] for c in pivots]
    if dense_in:
        red = [dense(r, ncols) for r in red]
    return red, pivots


def rank(rows, ncols: int | None = None) -> int:
    return len(rref(rows, ncols)[0])


def kernel_basis(rows, ncols: int) -> list:
    """Canonical (RREF) basis of {x : M x = 0} for M given by rows; sparse
    rows give sparse vectors, dense or no rows dense ones."""
    out = _kernel(rows, ncols)
    if rows and isinstance(rows[0], dict):
        return out
    return [dense(v, ncols) for v in out]


def _kernel(rows, ncols: int) -> list[dict]:
    """Sparse canonical kernel basis from one elimination with the columns
    taken in reverse order: the kernel vector of a free column then has its
    leading entry there and its others at pivot columns only, so the vectors
    sorted by free column are already the reduced row echelon basis."""
    last = ncols - 1
    red, pivots = rref([{last - j: x for j, x in entries(r)} for r in rows],
                       ncols)
    pivot_set = set(pivots)
    vecs = {last - c: {last - c: GR_ONE}
            for c in range(ncols) if c not in pivot_set}
    for row, pc in zip(red, pivots):
        for c, x in row.items():
            if c != pc:
                vecs[last - c][last - pc] = -x
    return [vecs[f] for f in sorted(vecs)]


def mat_vec(rows, vec) -> list[GaussRational]:
    """The dot product of each row with vec, as a list."""
    return [sum_entries(row, vec) for row in rows]


def mat_mul(a, b):
    """Matrix product: of two ExactMatrix, or of two dense row lists."""
    dense_in = not isinstance(a, ExactMatrix)
    if dense_in:
        if not a:
            return []
        a, b = ExactMatrix(a, len(b)), ExactMatrix(b, len(b[0]) if b else 0)
    prod = ExactMatrix.from_cols([combine(col, a.cols) for col in b.cols],
                                 a.nrows)
    return prod.rows if dense_in else prod


def invert(rows: list[list[GaussRational]]) -> list[list[GaussRational]]:
    n = len(rows)
    aug = [sparse(r) for r in rows]
    for i, r in enumerate(aug):
        r[n + i] = GR_ONE
    red, pivots = rref(aug, 2 * n)
    if pivots != list(range(n)):
        raise LinalgError("matrix is singular")
    return [[r.get(n + j, GR_ZERO) for j in range(n)] for r in red]


class ExactMatrix:
    """Exact matrix held by sparse columns (acting on column vectors):
    cols[j] maps the row index of each nonzero entry of column j to it."""

    __slots__ = ("cols", "nrows", "ncols")

    def __init__(self, rows: list[list[GaussRational]], ncols: int | None = None):
        """From dense rows."""
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        self.nrows = len(rows)
        self.ncols = ncols
        self.cols = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j, x in entries(row):
                self.cols[j][i] = x

    @classmethod
    def from_cols(cls, cols: list[dict], nrows: int) -> "ExactMatrix":
        m = cls.__new__(cls)
        m.cols = cols
        m.nrows = nrows
        m.ncols = len(cols)
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls.from_cols([{} for _ in range(ncols)], nrows)

    @property
    def rows(self) -> list[list[GaussRational]]:
        """A dense copy, row by row; writing to it leaves the matrix as is."""
        out = [zero_row(self.ncols) for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                out[i][j] = x
        return out

    def rank(self) -> int:
        # the rank of the transpose, whose rows are the stored columns
        return rank(self.cols, self.nrows)

    def kernel(self) -> list[dict]:
        rows: dict[int, dict] = {}
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                rows.setdefault(i, {})[j] = x
        return _kernel(list(rows.values()), self.ncols)

    def apply(self, vec):
        """M vec; a dense vec gives a dense result."""
        out = combine(vec, self.cols)
        return out if isinstance(vec, dict) else dense(out, self.nrows)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix) and self.nrows == other.nrows
                and self.cols == other.cols)


class Subspace:
    """Subspace of Q(i)^ambient held by its canonical RREF basis, as sparse
    rows with the pivot (leading index) of each."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, basis: list, pivots: list[int] | None = None):
        """From a basis already in RREF, sparse or dense; the pivots default
        to the leading index of each row."""
        self.ambient = ambient
        self.rows = [r if isinstance(r, dict) else sparse(r) for r in basis]
        self.pivots = [min(r) for r in self.rows] if pivots is None else pivots

    @classmethod
    def from_rows(cls, ambient: int, rows: list) -> "Subspace":
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
    def basis(self) -> list[list[GaussRational]]:
        """The canonical basis as dense rows (a copy)."""
        return [dense(r, self.ambient) for r in self.rows]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def reduce(self, vec) -> dict:
        """Residual of vec after eliminating this subspace's pivots.  RREF
        rows vanish at each other's pivots, so one pass suffices."""
        v = sparse(vec)
        at_pivots = [(v[pc], row) for row, pc in zip(self.rows, self.pivots)
                     if pc in v]
        for f, row in at_pivots:
            _axpy(v, -f, row)
        return v

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise LinalgError("ambient mismatch")
        return Subspace.from_rows(self.ambient, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The common kernel of both annihilators."""
        if self.ambient != other.ambient:
            raise LinalgError("ambient mismatch")
        stacked = (_kernel(self.rows, self.ambient)
                   + _kernel(other.rows, self.ambient))
        return Subspace(self.ambient, _kernel(stacked, self.ambient))


def quotient_map(sub: Subspace, total: Subspace, check: bool = True):
    """Canonical data for total/sub where sub is contained in total.

    Returns (dim, reps, proj) with reps the rows of total's basis whose pivot
    is not a pivot of sub (canonical coset representatives) and proj the
    dim sparse rows of the map sending any x in total to the coordinates of
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
    reps = []
    proj = []
    slot: dict[int, dict] = {}
    for row, pc in zip(total.rows, total.pivots):
        if pc not in sub_pivots:
            reps.append(row)
            proj.append({pc: GR_ONE})
            slot[pc] = proj[-1]
    for srow, spc in zip(sub.rows, sub.pivots):
        for c, e in srow.items():
            prow = slot.get(c)
            if prow is not None:
                prow[spc] = -e
    return len(reps), reps, proj
