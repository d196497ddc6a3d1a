"""Cohomology of the bigraded complex and the filtration spectral sequence.

The double complex A^{p,q} (p vector factors, q form factors) carries the
vertical differential dbar, built and checked column by column in
`_dbar_column`, and, once `poisson.is_holomorphic_poisson` accepts a
bivector lam, the horizontal ad_lam from the table it compiles; a cell
matrix not stored is the zero map.
The pages of the column filtration come from one sparse column reduction of
each total differential D^k (the persistence pairing): a pair joining
filtration degrees p < p' is a nonzero d_{p'-p}, so E_r^{p,q} counts the
unpaired basis elements of (p, q) and the pairs of length at least r with an
end there.  The layout of K^k, its cells (p, k - p) with p descending and
where each starts, is read from its `CellBasis` alone: a pair's cells come
from its two indices, and a cell's unpaired count is its size less its pair
ends.  Canonical representatives and the d_r matrices are built on
request, as quotients of the exact kernels Z_r = F^p intersect D^{-1} F^{p+r}.
The verdict's oracles never read the pairing and build no cohomology cell:
E_1, E_2 = H(H(K, dbar), ad_lam) and the E_infinity totals are counted from
ranks of the cell matrices and of D.  The crosscheck splits dbar on one
column by the center-degree that each image term adds, and returns the one
dimension table that both of its paths give.
"""
from __future__ import annotations

from collections import Counter

from .calculus import (CalculusContext, apply_table, dbar, dbar_cell,
                       dbar_images, derivation_matrix, derivation_table,
                       split_table)
from .errors import (InternalInvariantError, NotAbelianError, UsageError,
                     ValidationError)
from .exact_linalg import (ExactMatrix, Quotient, Subspace, combine,
                           eliminate, mat_mul, reduce_columns)
from .exterior import (CellBasis, MixedElement, element_from_coords, mono_str,
                       terms_texts)
from .lie_structure import AlgebraPresentation, complex_frame
from .poisson import is_holomorphic_poisson

# Largest complex dimension served: the complex has 4^n monomials, 65536 at
# n = 8, and exact elimination beyond that does not finish in useful time.
MAX_N = 8


def _check_size(n: int) -> None:
    if n > MAX_N:
        raise UsageError(
            f"complex dimension n = {n} is above the supported maximum "
            f"{MAX_N}: its bigraded complex would hold 4^{n} = {4 ** n} "
            "monomials")


def _check_zero(identity, where, src_basis, tgt_basis, *factors):
    """Raise unless a2 a1 (+ b2 b1) vanishes, naming its first nonzero entry
    (by target, then source) and the basis monomials at its ends.  A missing
    (None) factor is zero, and so is then each product of the callers' sums."""
    if any(m is None for m in factors):
        return
    prod = mat_mul(*factors)
    if not prod.is_zero():
        i, j = min((i, j) for j, col in enumerate(prod.cols) for i in col)
        raise InternalInvariantError(
            f"{identity} != 0 on {where}: entry {prod.cols[j][i]} from "
            f"{mono_str(src_basis[j])} to {mono_str(tgt_basis[i])}")


class BigradedComplex:
    """Cell bases (each decoded only where read) plus exact dbar and ad_lam
    matrices, identities verified.
    Each column p is `_dbar_column`, which checks dbar^2 = 0 on it.  A
    missing matrix is the zero map: there is none at the edge, and none of
    dbar (on the tori) or of ad_lam (lam central or 0) when it is zero."""

    def __init__(self, ctx: CalculusContext, lam: MixedElement | None = None):
        n = ctx.n
        _check_size(n)
        self.lam = lam if lam is not None else MixedElement()
        self.n = n
        cand = is_holomorphic_poisson(ctx, self.lam)
        # the values in the messages are rebuilt only on the raising path
        if not cand.dbar_closed:
            raise ValidationError("lam is not holomorphic: dbar(lam) = "
                                  f"{dbar(ctx, self.lam)} != 0")
        ad_table = cand.ad_table
        if not cand.schouten_square_zero:
            raise ValidationError("lam is not Poisson: [lam, lam] = "
                                  f"{apply_table(ad_table, n, self.lam)} != 0")

        self.basis: dict[tuple[int, int], CellBasis] = {}
        self.dbar_mat: dict[tuple[int, int], ExactMatrix] = {}
        self.ad_mat: dict[tuple[int, int], ExactMatrix] = {}
        for p in range(n + 1):
            column = _dbar_column(ctx.dbar_table, n, p)
            for q, (basis, mat) in enumerate(column):
                self.basis[(p, q)] = basis
                if mat is not None:
                    self.dbar_mat[(p, q)] = mat
                if ad_table and p < n:
                    self.ad_mat[(p, q)] = derivation_matrix(
                        ad_table, n, (p, q), (p + 1, q), "ad_lam")
        self._check_identities()

    def _check_identities(self):
        """ad_lam^2 and the anticommutator; each column checked dbar^2."""
        dm, am, basis = self.dbar_mat, self.ad_mat, self.basis
        if not am:
            return
        for p in range(self.n + 1):
            for q in range(self.n + 1):
                where, src = f"cell (p,q)={(p, q)}", basis[(p, q)]
                _check_zero("ad_lam^2", where, src, basis.get((p + 2, q)),
                            am.get((p + 1, q)), am.get((p, q)))
                _check_zero("dbar ad_lam + ad_lam dbar", where, src,
                            basis.get((p + 1, q + 1)), dm.get((p + 1, q)),
                            am.get((p, q)), am.get((p, q + 1)), dm.get((p, q)))


class CohomologyCell(Quotient):
    """One cohomology space: the cocycles (`total`) over the boundaries
    (`sub`), in the coordinates of `basis`."""

    def __init__(self, basis: CellBasis, boundaries: Subspace,
                 cocycles: Subspace):
        super().__init__(boundaries, cocycles)
        self.basis = basis

    def representatives(self) -> list[MixedElement]:
        return [element_from_coords(r, self.basis) for r in self.reps]

    def representative_texts(self) -> list[str]:
        """`str` of each representative, written from its coordinates: the
        basis of a cell is in monomial order, so index order is term order.
        Only the monomials the representatives hold are written."""
        return terms_texts(self.reps, self.basis.words(
            {j for r in self.reps for j in r}))

    def class_coords(self, coords: dict) -> dict:
        if not self.total.contains(coords):
            raise InternalInvariantError("vector is not a cocycle")
        return self.proj.apply(coords)


def _cohomology(cells: list[tuple]) -> list[CohomologyCell]:
    """The cohomology of each degree of a cochain complex given as the
    (basis, map out of it, None for zero) of each degree.  One reduction of
    a map gives the cocycles of its source and the boundaries of its
    target."""
    out, image = [], None
    for basis, d in cells:
        boundaries = image if image is not None else Subspace.zero(len(basis))
        if d is None:
            cocycles, image = Subspace.full(len(basis)), None
        else:
            kernel, kept = reduce_columns(d.cols)
            cocycles = Subspace(len(basis), kernel)
            image = Subspace.from_echelon(d.nrows, kept)
        out.append(CohomologyCell(basis, boundaries, cocycles))
    return out


def _cell(basis: CellBasis, d_in: ExactMatrix | None,
          d_out: ExactMatrix | None) -> CohomologyCell:
    """The cohomology of one degree, from the maps into and out of it (None
    for zero): the image of d_in over the kernel of d_out."""
    size = len(basis)
    boundaries = (Subspace.from_rows(size, d_in.cols) if d_in is not None
                  else Subspace.zero(size))
    cocycles = (Subspace(size, d_out.kernel()) if d_out is not None
                else Subspace.full(size))
    return CohomologyCell(basis, boundaries, cocycles)


def dolbeault_cohomology(bc: BigradedComplex, p: int, q: int) -> CohomologyCell:
    """H^q of the column p with canonical representatives."""
    return _cell(bc.basis.get((p, q), CellBasis(bc.n, [])),
                 bc.dbar_mat.get((p, q - 1)), bc.dbar_mat.get((p, q)))


def dolbeault_table(bc: BigradedComplex) -> dict[tuple[int, int], CohomologyCell]:
    """Every cell, column by column, one reduction of each dbar matrix."""
    n, table = bc.n, {}
    for p in range(n + 1):
        column = [(bc.basis[(p, q)], bc.dbar_mat.get((p, q)))
                  for q in range(n + 1)]
        table.update(((p, q), cell)
                     for q, cell in enumerate(_cohomology(column)))
    return table


def _dbar_column(table: list[tuple], n: int, ell: int) -> list[tuple]:
    """Column ell alone, as the (basis, dbar out of it, None for zero) of
    each cell (ell, q), with dbar^2 = 0 checked on it: the one assembly of
    dbar and the one dbar^2 check, whole complex or a single column."""
    column = [dbar_cell(table, n, ell, q) for q in range(n + 1)]
    for q in range(n - 1):
        _check_zero("dbar^2", f"cell (p,q)={(ell, q)}", column[q][0],
                    column[q + 2][0], column[q + 1][1], column[q][1])
    return column


def dolbeault_column(ctx: CalculusContext,
                     ell: int) -> dict[tuple[int, int], CohomologyCell]:
    """The cells (ell, q) of `dolbeault_table`, from column ell alone."""
    _check_size(ctx.n)
    column = _cohomology(_dbar_column(ctx.dbar_table, ctx.n, ell))
    return {(ell, q): cell for q, cell in enumerate(column)}


def _column_dims(bc: BigradedComplex, ranks: dict) -> dict[tuple[int, int], int]:
    """dim H^{p,q} of every column cell, given the rank of each dbar matrix."""
    return {(p, q): len(basis) - ranks.get((p, q), 0) - ranks.get((p, q - 1), 0)
            for (p, q), basis in bc.basis.items()}


class TotalComplex:
    """K^k with the total differential D = dbar + ad_lam, basis ordered by
    vector degree descending so every F^p is a leading coordinate block,
    each monomial decoded only where read.  The layout of K^k (its cells and
    where each starts) is read from its `CellBasis` and kept nowhere else."""

    def __init__(self, bc: BigradedComplex):
        self.bc = bc
        n = bc.n
        self.n = n
        self.nmax = 2 * n
        # the cells (p, k - p) of K^k, p descending: `graded_monomials` order
        self.bases = {k: CellBasis(n, [(p, k - p) for p in
                                       range(min(k, n), max(k - n, 0) - 1, -1)])
                      for k in range(self.nmax + 1)}
        self.dmat = {k: self._build_d(k) for k in range(self.nmax + 1)}

    def _build_d(self, k: int) -> ExactMatrix:
        """D^k from the cell columns of dbar and ad_lam.  The cells of K^k
        are consecutive blocks, and the two maps out of a cell land in
        different cells, so a column of D^k is the union of the two cell
        columns, shifted to their blocks."""
        if k == self.nmax:
            return ExactMatrix.zeros(0, len(self.bases[k]))
        bc, tgt = self.bc, self.bases[k + 1]
        start = {p: row for (p, _), row in zip(tgt.cells, tgt.starts)}
        cols = []
        for p, q in self.bases[k].cells:
            shifted = []
            for mat, p_to in ((bc.dbar_mat.get((p, q)), p),
                              (bc.ad_mat.get((p, q)), p + 1)):
                if mat is not None:
                    shifted.append((mat.cols, start[p_to]))
            for j in range(len(bc.basis[(p, q)])):
                col = {}
                for mcols, off in shifted:
                    for i, c in mcols[j].items():
                        col[off + i] = c
                cols.append(col)
        return ExactMatrix(cols, len(tgt))


def poisson_cohomology(tc: TotalComplex, k: int) -> CohomologyCell:
    """H^k of (K, dbar + ad_lam); zero outside 0..2n."""
    return _cell(tc.bases.get(k, CellBasis(tc.n, [])), tc.dmat.get(k - 1),
                 tc.dmat.get(k))


def poisson_betti(tc: TotalComplex) -> dict[int, int]:
    """dim H^k for every k from two ranks per degree."""
    return _betti(list(zip(tc.bases.values(), tc.dmat.values())))


def _betti(cells: list[tuple]) -> dict[int, int]:
    """dim H^k of a cochain complex given as the (basis, map out of it, None
    for zero) of each degree k, from two ranks per degree."""
    ranks = [d.rank() if d is not None else 0 for _, d in cells]
    return {k: len(basis) - ranks[k] - (ranks[k - 1] if k else 0)
            for k, (basis, _) in enumerate(cells)}


def _pairing(tc: TotalComplex):
    """Persistence pairing of the filtered complex, one reduction per D^k.

    Columns are reduced left to right, each only by earlier columns, so a
    reduced column stays in its filtration step; as K^k is ordered by p
    descending, its pivot (last nonzero row) is where its image leaves the
    filtration.  A column of D^k at a pivot row of D^{k-1} would reduce to
    zero, so it enters as an empty row (clearing, Chen-Kerber 2011).
    Returns the pairs as (length, source cell, target cell), sorted, and the
    number of unpaired basis elements of each cell: its size less its pair
    ends, cells with none left out.
    """
    pairs, lows = [], set()
    for k, src in tc.bases.items():
        tgt = tc.bases.get(k + 1, CellBasis(tc.n, []))
        # number rows from the end, so that the last row leads
        top = len(tgt) - 1
        _, leads = eliminate([{} if j in lows else
                              {top - i: c for i, c in col.items()}
                              for j, col in enumerate(tc.dmat[k].cols)])
        lows = {top - lead for lead in leads if lead is not None}
        for j, lead in enumerate(leads):
            if lead is not None:
                a = src.cells[src.locate(j)]
                b = tgt.cells[tgt.locate(top - lead)]
                pairs.append((b[0] - a[0], a, b))
    ends = Counter(end for _, a, b in pairs for end in (a, b))
    unpaired = {cell: left for basis in tc.bases.values()
                for cell, start, stop in zip(basis.cells, basis.starts,
                                             basis.starts[1:])
                if (left := stop - start - ends[cell])}
    return sorted(pairs), unpaired


def _z_space(tc: TotalComplex, r: int, p: int, k: int) -> Subspace:
    """Z_r^p in K^k: the x in F^p with D x in F^{p+r}, i.e. the kernel of the
    block of D^k from the leading block F^p to the rows of degree below p + r.
    F^p is a leading coordinate block, so that kernel's canonical basis is
    already the canonical basis in K^k."""
    if k < 0 or k > tc.nmax:
        return Subspace.zero(0)
    src, tgt = tc.bases[k], tc.bases.get(k + 1, CellBasis(tc.n, []))
    # F^p is the cells of degree >= p, and the rows of degree below p + r
    # trail those of degree >= p + r: each block's size sums its cells'
    width = src.starts[sum(d >= p for d, _ in src.cells)]
    first = tgt.starts[sum(d >= p + r for d, _ in tgt.cells)]
    block = [{i: c for i, c in col.items() if i >= first}
             for col in tc.dmat[k].cols[:width]]
    return Subspace(len(src), ExactMatrix(block, len(tgt)).kernel())


class SpectralPage:
    """One page: dimensions from the pairing, and canonical representatives,
    class projections and d_r built from Z_r on first access."""

    def __init__(self, r: int, dims: dict, tc: TotalComplex):
        self.r = r
        self.dims = dims
        self.tc = tc
        self._cells: dict = {}

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def cell(self, p: int, q: int) -> Quotient:
        """E_r^{p,q} = Z_r^p / (Z_{r-1}^{p+1} + D Z_{r-1}^{p-r+1})."""
        hit = self._cells.get((p, q))
        if hit is None:
            r, k, tc = self.r, p + q, self.tc
            num = _z_space(tc, r, p, k)
            den = Subspace.from_rows(
                num.ambient, _z_space(tc, r - 1, p + 1, k).rows
                + [tc.dmat[k - 1].apply(b)
                   for b in _z_space(tc, r - 1, p - r + 1, k - 1).rows])
            # containment follows from D F^a <= F^a and D^2 = 0
            hit = Quotient(den, num)
            if hit.dim != self.dim(p, q):
                raise InternalInvariantError(
                    f"E_{r} dim at {(p, q)} is {self.dim(p, q)} from the pairing, "
                    f"{hit.dim} from Z_{r}")
            self._cells[(p, q)] = hit
        return hit

    def differential(self, p: int, q: int) -> ExactMatrix | None:
        """d_r out of (p, q) in the reps bases; None when either end is zero."""
        r = self.r
        tp, tq = p + r, q - r + 1
        dim, tdim = self.dim(p, q), self.dim(tp, tq)
        if not dim or not tdim:
            return None
        target = self.cell(tp, tq)
        cols = []
        for rep in self.cell(p, q).reps:
            y = self.tc.dmat[p + q].apply(rep)
            if not target.total.contains(y):
                raise InternalInvariantError(
                    f"d_{r} image of a class at {(p, q)} leaves Z_{r} at {(tp, tq)}")
            cols.append(target.proj.apply(y))
        return ExactMatrix(cols, tdim)


class PageResult:
    __slots__ = ("pages", "tc", "pairs")

    def __init__(self, pages: list, tc: TotalComplex, pairs: list):
        self.pages = pages
        self.tc = tc
        self.pairs = pairs

    def page(self, r: int) -> SpectralPage:
        return self.pages[r - 1]


def e2_dims_via_induced_map(bc: BigradedComplex,
                            ranks: dict) -> dict[tuple[int, int], int]:
    """Second page dimensions from ad_lam acting on column cohomology, given
    the rank of each dbar matrix.

    The induced map H^{p,q} -> H^{p+1,q} has rank rk M - rk dbar(p,q) -
    rk dbar(p+1,q-1), where M = [[dbar(p,q), 0], [ad_lam(p,q), dbar(p+1,q-1)]]
    is the block of D from K^{p,q} + K^{p+1,q-1} to K^{p,q+1} + K^{p+1,q}, as
    rank [[A, 0], [B, C]] = rank A + rank [B ker A | C]."""
    h = _column_dims(bc, ranks)
    induced: dict[tuple[int, int], int] = {}
    for (p, q), am in bc.ad_mat.items():
        if not h[(p, q)] or not h[(p + 1, q)] or am.is_zero():
            continue
        a = bc.dbar_mat.get((p, q)) or ExactMatrix.zeros(0, am.ncols)
        c = bc.dbar_mat.get((p + 1, q - 1)) or ExactMatrix.zeros(am.nrows, 0)
        # the columns of K^{p,q} (A over B), then those of K^{p+1,q-1} (C)
        cols = [{**top, **{a.nrows + i: x for i, x in low.items()}}
                for top, low in zip(a.cols + [{}] * c.ncols, am.cols + c.cols)]
        induced[(p, q)] = (ExactMatrix(cols, a.nrows + am.nrows).rank()
                           - ranks.get((p, q), 0) - ranks.get((p + 1, q - 1), 0))
    return {(p, q): dim - induced.get((p, q), 0) - induced.get((p - 1, q), 0)
            for (p, q), dim in h.items()}


def spectral_pages(bc: BigradedComplex) -> PageResult:
    """Pages E_1 .. E_{n+1}; every d_r with r > n leaves the p range, so the
    pages stabilize there."""
    n = bc.n
    tc = TotalComplex(bc)
    pairs, unpaired = _pairing(tc)
    pages = []
    for r in range(1, n + 2):
        dims = {(p, q): unpaired.get((p, q), 0)
                for p in range(n + 1) for q in range(n + 1)}
        for length, src, tgt in pairs:
            if length >= r:
                dims[src] += 1
                dims[tgt] += 1
        pages.append(SpectralPage(r, dims, tc))
    ranks = {pq: d.rank() for pq, d in bc.dbar_mat.items()}
    oracles = (("column cohomology", _column_dims(bc, ranks)),
               ("induced-map formula", e2_dims_via_induced_map(bc, ranks)))
    for page, (name, want) in zip(pages, oracles):
        for pq, got in page.dims.items():
            if got != want[pq]:
                raise InternalInvariantError(
                    f"E_{page.r} dim at {pq} is {got}, {name} gives {want[pq]}")
    return PageResult(pages=pages, tc=tc, pairs=pairs)


class DegenerationVerdict:
    __slots__ = ("degenerates", "failure", "witness_source", "witness_image",
                 "pages", "hk_dims", "einf_sums")

    def __init__(self, degenerates: bool, failure: tuple | None,
                 witness_source: MixedElement | None,
                 witness_image: MixedElement | None, pages: PageResult,
                 hk_dims: dict, einf_sums: dict):
        self.degenerates = degenerates
        self.failure = failure
        self.witness_source = witness_source
        self.witness_image = witness_image
        self.pages = pages
        self.hk_dims = hk_dims
        self.einf_sums = einf_sums

    @property
    def verdict(self) -> str:
        if self.degenerates:
            return "degenerates-at-E2"
        r, p, q = self.failure
        return f"fails-at-({r},{p},{q})"


def degeneration_verdict(bc: BigradedComplex) -> DegenerationVerdict:
    n = bc.n
    result = spectral_pages(bc)
    tc = result.tc
    failure = None
    witness_src = witness_img = None
    # the first nonzero d_r with r >= 2 is the shortest such pair
    first = min(((length, src) for length, src, _ in result.pairs if length >= 2),
                default=None)
    if first is not None:
        r, (p, q) = first
        failure = (r, p, q)
        page = result.page(r)
        mat = page.differential(p, q)
        got = mat.rank() if mat is not None else 0
        want = sum(1 for pair in result.pairs if pair[:2] == first)
        if got != want:
            raise InternalInvariantError(
                f"d_{r} at {(p, q)} has rank {got}, but {want} pairs of length "
                f"{r} start there")
        j = next(j for j, col in enumerate(mat.cols) if col)
        witness_src = element_from_coords(page.cell(p, q).reps[j],
                                          tc.bases[p + q])
        witness_img = element_from_coords(
            combine(mat.cols[j], page.cell(p + r, q - r + 1).reps),
            tc.bases[p + q + 1])
    hk = poisson_betti(tc)
    einf = {}
    last = result.pages[-1]
    for k in range(2 * n + 1):
        einf[k] = sum(last.dim(p, k - p) for p in range(0, min(k, n) + 1))
        if hk[k] != einf[k]:
            raise InternalInvariantError(
                f"E_infinity total {einf[k]} differs from H^{k} = {hk[k]}")
    return DegenerationVerdict(
        degenerates=failure is None,
        failure=failure,
        witness_source=witness_src,
        witness_image=witness_img,
        pages=result,
        hk_dims=hk,
        einf_sums=einf,
    )


def _center_split(table: list[tuple], n: int, ell: int,
                  a: int) -> dict[int, tuple]:
    """dbar with this compiled table on column ell, split into its part
    dbar_c raising the center-degree and dbar_t fixing it: {m: (c, t)}.
    The center-degree counts vector factors among the first a generators,
    so each part is the derivation made of the image terms of its shift."""
    parts = split_table(table, (1 << a) - 1)
    if bad := [shift for shift in parts if shift not in (0, 1)]:
        raise InternalInvariantError(
            f"bicomplex differential moves center-degree by {bad[0]}")
    return {m: tuple(derivation_matrix(parts.get(s, []), n, (ell, m),
                                       (ell, m + 1), "dbar") for s in (1, 0))
            for m in range(n)}


def d_bicomplex_crosscheck(ctx: CalculusContext, ell: int) -> dict[int, int]:
    """{m: dim H^m} of the center/complement bicomplex, checked against
    plain column cohomology.

    The bicomplex lives in a frame adapted to the center: generators 1..a span
    c^(1,0) and the rest a chosen complement; dbar splits into a part dbar_c
    raising the center-degree (with the complement-degree dropping) and a
    part dbar_t fixing it, and the total cohomology must reproduce H^m with
    ell vector factors.

    It builds only column ell in each frame, checks dbar^2 = 0 on both (as
    the three split identities and cell by cell) and raises on a mismatch.
    """
    if not ctx.abelian:
        raise NotAbelianError("the bicomplex split needs an abelian structure")
    n = ctx.n
    if not (0 <= ell <= n):
        raise ValidationError(f"coefficient degree must be within 0..{n}")
    _check_size(n)
    c10 = ctx.grading.c10
    a = c10.dim
    frame_rows = [ctx.frame.vector_from_coords(row) for row in
                  c10.rows + Quotient(c10, Subspace.full(n)).reps]
    adapted = AlgebraPresentation(
        ctx.presentation.dim, ctx.presentation.brackets, ctx.presentation.jmat,
        frame_rows=frame_rows, name=ctx.presentation.name + "#center-adapted")
    # validation reads no frame rows, so the original presentation's holds
    images, _ = dbar_images(complex_frame(adapted, ctx.frame.report))
    dsplit = _center_split(derivation_table(images, n), n, ell, a)
    # the two columns share their cell bases
    direct = _dbar_column(ctx.dbar_table, n, ell)
    for m in range(n - 1):
        (c1, t1), (c2, t2) = dsplit[m], dsplit[m + 1]
        where, src, tgt = f"degree m={m}", direct[m][0], direct[m + 2][0]
        _check_zero("dbar_c^2", where, src, tgt, c2, c1)
        _check_zero("dbar_t^2", where, src, tgt, t2, t1)
        _check_zero("dbar_c dbar_t + dbar_t dbar_c", where, src, tgt,
                    c2, t1, t2, c1)
    # the parts land on monomials of different center-degree: disjoint entries
    merged = [ExactMatrix([{**x, **y} for x, y in zip(c.cols, t.cols)], c.nrows)
              for c, t in dsplit.values()]
    dims = _betti([(b, d) for (b, _), d in zip(direct, merged + [None])])
    if dims != _betti(direct):
        raise InternalInvariantError(
            "bicomplex total cohomology disagrees with the direct computation")
    return dims
