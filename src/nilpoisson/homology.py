"""Cohomology of the bigraded complex and the filtration spectral sequence.

The double complex A^{p,q} (p vector factors, q form factors) carries the
vertical differential dbar and, once a holomorphic Poisson bivector lam is
fixed, the horizontal ad_lam.  The pages of the column filtration come from
one sparse column reduction of each total differential D^k (the persistence
pairing): a pair joining filtration degrees p < p' is a nonzero d_{p'-p}, so
E_r^{p,q} counts the unpaired basis elements of (p, q) and the pairs of
length at least r with an end there.  Canonical representatives and the d_r
matrices are built on request, as quotients of the exact kernels
Z_r = F^p intersect D^{-1} F^{p+r}.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .calculus import (CalculusContext, ad_images, dbar, derivation_matrix,
                       schouten)
from .errors import (InternalInvariantError, NotAbelianError, UsageError,
                     ValidationError)
from .exact_linalg import (ExactMatrix, Subspace, combine, eliminate, mat_mul,
                           quotient_map)
from .exterior import (FORM_BASE, MixedElement, cell_monomials,
                       element_from_coords, graded_monomials, mono_bidegree,
                       mono_str)
from .lie_structure import AlgebraPresentation, complex_frame

# Largest complex dimension served: the complex has 4^n monomials, 65536 at
# n = 8, and exact elimination beyond that does not finish in useful time.
MAX_N = 8


def _check_zero(identity, where, src_basis, tgt_basis, *factors):
    """Raise unless a2 a1 (+ b2 b1) vanishes, naming its first nonzero entry
    (by target, then source) and the basis monomials at its ends."""
    if any(m is None for m in factors):
        return
    if len(factors) == 4:
        # a2 a1 + b2 b1 as one product: [a2 b2] times a1 stacked on b1
        a2, a1, b2, b1 = factors
        off = a1.nrows
        left = ExactMatrix(a2.cols + b2.cols, a2.nrows)
        right = ExactMatrix(
            [{**c1, **{i + off: x for i, x in c2.items()}}
             for c1, c2 in zip(a1.cols, b1.cols)], off + b1.nrows)
        prod = mat_mul(left, right)
    else:
        prod = mat_mul(*factors)
    hits = [(i, j) for j, col in enumerate(prod.cols) for i in col]
    if hits:
        i, j = min(hits)
        raise InternalInvariantError(
            f"{identity} != 0 on {where}: entry {prod.cols[j][i]} from "
            f"{mono_str(src_basis[j])} to {mono_str(tgt_basis[i])}")


class BigradedComplex:
    """Cell bases plus exact dbar and ad_lam matrices, identities verified."""

    def __init__(self, ctx: CalculusContext, lam: MixedElement | None = None):
        n = ctx.n
        if n > MAX_N:
            raise UsageError(
                f"complex dimension n = {n} is above the supported maximum "
                f"{MAX_N}: its bigraded complex would hold 4^{n} = {4 ** n} "
                "monomials")
        self.ctx = ctx
        self.lam = lam if lam is not None else MixedElement()
        self.n = n
        if self.lam:
            pq = self.lam.homogeneous_bidegree()
            if pq != (2, 0):
                raise ValidationError("lam must be a homogeneous (2,0) bivector")
            bad = dbar(ctx, self.lam)
            if bad:
                raise ValidationError(
                    f"lam is not holomorphic: dbar(lam) = {bad} != 0")
            sq = schouten(ctx, self.lam, self.lam)
            if sq:
                raise ValidationError(
                    f"lam is not Poisson: [lam, lam] = {sq} != 0")
        ad_imgs = ad_images(ctx, self.lam) if self.lam else {}

        self.basis: dict[tuple[int, int], list] = {}
        self.index: dict[tuple[int, int], dict] = {}
        for p in range(n + 1):
            for q in range(n + 1):
                b = cell_monomials(n, p, q)
                self.basis[(p, q)] = b
                self.index[(p, q)] = {m: i for i, m in enumerate(b)}

        self.dbar_mat: dict[tuple[int, int], ExactMatrix] = {}
        self.ad_mat: dict[tuple[int, int], ExactMatrix] = {}
        for p in range(n + 1):
            for q in range(n + 1):
                src = self.basis[(p, q)]
                if q + 1 <= n:
                    self.dbar_mat[(p, q)] = derivation_matrix(
                        ctx.dbar_images, src, self.index[(p, q + 1)], "dbar")
                if self.lam and p + 1 <= n:
                    self.ad_mat[(p, q)] = derivation_matrix(
                        ad_imgs, src, self.index[(p + 1, q)], "ad_lam")
        self._check_identities()

    def _check_identities(self):
        dm, am, basis = self.dbar_mat, self.ad_mat, self.basis
        for p in range(self.n + 1):
            for q in range(self.n + 1):
                where, src = f"cell (p,q)={(p, q)}", basis[(p, q)]
                _check_zero("dbar^2", where, src, basis.get((p, q + 2)),
                            dm.get((p, q + 1)), dm.get((p, q)))
                if not self.lam:
                    continue
                _check_zero("ad_lam^2", where, src, basis.get((p + 2, q)),
                            am.get((p + 1, q)), am.get((p, q)))
                _check_zero("dbar ad_lam + ad_lam dbar", where, src,
                            basis.get((p + 1, q + 1)), dm.get((p + 1, q)),
                            am.get((p, q)), am.get((p, q + 1)), dm.get((p, q)))


@dataclass
class CohomologyCell:
    """One cohomology space with canonical representatives."""

    label: tuple
    basis: list
    cocycles: Subspace
    boundaries: Subspace
    dim: int
    reps: list
    proj: ExactMatrix  # dim x len(basis): a cocycle to its class coordinates

    def representatives(self) -> list[MixedElement]:
        return [element_from_coords(r, self.basis) for r in self.reps]

    def class_coords(self, coords: dict) -> dict:
        if not self.cocycles.contains(coords):
            raise InternalInvariantError("vector is not a cocycle")
        return self.proj.apply(coords)


def _cohomology(label: tuple, basis: list, d_out: ExactMatrix | None,
                d_in: ExactMatrix | None) -> CohomologyCell:
    """ker d_out / im d_in on the cochains with this basis; a missing map is
    zero."""
    dim_cell = len(basis)
    if d_out is None:
        cocycles = Subspace.full(dim_cell)
    else:
        cocycles = Subspace(dim_cell, d_out.kernel())
    if d_in is None:
        boundaries = Subspace.zero(dim_cell)
    else:
        boundaries = Subspace.from_rows(dim_cell, d_in.cols)
    # containment is the verified square-zero identity
    dim, reps, proj = quotient_map(boundaries, cocycles, check=False)
    return CohomologyCell(label, basis, cocycles, boundaries, dim, reps, proj)


def dolbeault_cohomology(bc: BigradedComplex, p: int, q: int) -> CohomologyCell:
    """H^q of the column p with canonical representatives."""
    return _cohomology((p, q), bc.basis.get((p, q), []), bc.dbar_mat.get((p, q)),
                       bc.dbar_mat.get((p, q - 1)))


def dolbeault_table(bc: BigradedComplex) -> dict[tuple[int, int], CohomologyCell]:
    return {(p, q): dolbeault_cohomology(bc, p, q)
            for p in range(bc.n + 1) for q in range(bc.n + 1)}


class TotalComplex:
    """K^k with the total differential D = dbar + ad_lam, basis ordered by
    vector degree descending so every F^p is a leading coordinate block."""

    def __init__(self, bc: BigradedComplex):
        self.bc = bc
        n = bc.n
        self.n = n
        self.nmax = 2 * n
        self.bases: dict[int, list] = {}
        self.index: dict[int, dict] = {}
        self.pdeg: dict[int, list[int]] = {}
        for k in range(self.nmax + 1):
            b = graded_monomials(n, k)
            self.bases[k] = b
            self.index[k] = {m: i for i, m in enumerate(b)}
            self.pdeg[k] = [mono_bidegree(m)[0] for m in b]
        self.dmat = {k: self._build_d(k) for k in range(self.nmax + 1)}

    def _build_d(self, k: int) -> ExactMatrix:
        """D^k from the cell columns of dbar and ad_lam.  The cells of K^k
        are consecutive blocks in the order of `graded_monomials`, and the two
        maps out of a cell land in different cells, so a column of D^k is the
        union of the two cell columns, shifted to their blocks."""
        if k == self.nmax:
            return ExactMatrix.zeros(0, len(self.bases[k]))
        bc, n = self.bc, self.n
        start = {}
        for p in range(min(k + 1, n), -1, -1):
            if k + 1 - p <= n:
                start[p] = self.index[k + 1][bc.basis[(p, k + 1 - p)][0]]
        cols = []
        for p in range(min(k, n), -1, -1):
            q = k - p
            if q > n:
                continue
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
        return ExactMatrix(cols, len(self.bases[k + 1]))

    def apply_d(self, k: int, coords: dict) -> dict:
        return self.dmat[k].apply(coords)


def poisson_cohomology(tc: TotalComplex, k: int) -> CohomologyCell:
    """H^k of (K, dbar + ad_lam); zero outside 0..2n."""
    return _cohomology((k,), tc.bases.get(k, []), tc.dmat.get(k),
                       tc.dmat.get(k - 1))


def poisson_betti(tc: TotalComplex) -> dict[int, int]:
    """dim H^k for every k from two ranks per degree."""
    ranks = {k: tc.dmat[k].rank() for k in range(tc.nmax + 1)}
    out = {}
    for k in range(tc.nmax + 1):
        out[k] = len(tc.bases[k]) - ranks[k] - (ranks[k - 1] if k else 0)
    return out


def _pairing(tc: TotalComplex):
    """Persistence pairing of the filtered complex, one reduction per D^k.

    Columns are reduced left to right, each only by earlier columns, so a
    reduced column stays in its filtration step; as K^k is ordered by p
    descending, its pivot (last nonzero row) is where its image leaves the
    filtration.  Returns the pairs as (length, source cell, target cell),
    sorted, and the number of unpaired basis elements of each cell.
    """
    pairs = []
    paired: dict[int, set] = {0: set()}
    for k in range(tc.nmax + 1):
        # number rows from the end, so that the last row leads
        top = len(tc.bases.get(k + 1, ())) - 1
        _, leads = eliminate([{top - i: c for i, c in col.items()}
                              for col in tc.dmat[k].cols])
        paired[k + 1] = set()
        for j, lead in enumerate(leads):
            if lead is not None:
                low = top - lead
                pj, pi = tc.pdeg[k][j], tc.pdeg[k + 1][low]
                pairs.append((pi - pj, (pj, k - pj), (pi, k + 1 - pi)))
                paired[k].add(j)
                paired[k + 1].add(low)
    unpaired: dict[tuple[int, int], int] = {}
    for k in range(tc.nmax + 1):
        for j, p in enumerate(tc.pdeg[k]):
            if j not in paired[k]:
                unpaired[(p, k - p)] = unpaired.get((p, k - p), 0) + 1
    return sorted(pairs), unpaired


def _z_space(tc: TotalComplex, r: int, p: int, k: int) -> Subspace:
    """Z_r^p in K^k: the x in F^p with D x in F^{p+r}, i.e. the kernel of the
    block of D^k from the leading block F^p to the rows of degree below p + r.
    F^p is a leading coordinate block, so that kernel's canonical basis is
    already the canonical basis in K^k."""
    if k < 0 or k > tc.nmax:
        return Subspace.zero(0)
    width = sum(1 for d in tc.pdeg[k] if d >= p)
    # the rows of degree below p + r are a trailing block of K^{k+1}
    first = sum(1 for d in tc.pdeg.get(k + 1, ()) if d >= p + r)
    block = [{i: c for i, c in col.items() if i >= first}
             for col in tc.dmat[k].cols[:width]]
    nrows = len(tc.bases.get(k + 1, ()))
    return Subspace(len(tc.bases[k]), ExactMatrix(block, nrows).kernel())


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

    def cell(self, p: int, q: int):
        """(Z_r, reps, proj) of E_r^{p,q} = Z_r^p / (Z_{r-1}^{p+1} + D Z_{r-1}^{p-r+1})."""
        hit = self._cells.get((p, q))
        if hit is None:
            r, k, tc = self.r, p + q, self.tc
            num = _z_space(tc, r, p, k)
            den = Subspace.from_rows(
                num.ambient, _z_space(tc, r - 1, p + 1, k).rows
                + [tc.apply_d(k - 1, b)
                   for b in _z_space(tc, r - 1, p - r + 1, k - 1).rows])
            # containment follows from D F^a <= F^a and D^2 = 0
            dim, reps, proj = quotient_map(den, num, check=False)
            if dim != self.dim(p, q):
                raise InternalInvariantError(
                    f"E_{r} dim at {(p, q)} is {self.dim(p, q)} from the pairing, "
                    f"{dim} from Z_{r}")
            hit = self._cells[(p, q)] = (num, reps, proj)
        return hit

    def differential(self, p: int, q: int) -> ExactMatrix | None:
        """d_r out of (p, q) in the reps bases; None when either end is zero."""
        r = self.r
        tp, tq = p + r, q - r + 1
        dim, tdim = self.dim(p, q), self.dim(tp, tq)
        if not dim or not tdim:
            return None
        tnum, _, tproj = self.cell(tp, tq)
        cols = []
        for rep in self.cell(p, q)[1]:
            y = self.tc.apply_d(p + q, rep)
            if not tnum.contains(y):
                raise InternalInvariantError(
                    f"d_{r} image of a class at {(p, q)} leaves Z_{r} at {(tp, tq)}")
            cols.append(tproj.apply(y))
        return ExactMatrix(cols, tdim)

    @cached_property
    def reps(self) -> dict:
        """Canonical representatives of every cell, as sparse vectors."""
        return {pq: self.cell(*pq)[1] for pq in self.dims}

    @cached_property
    def projs(self) -> dict:
        """The class projection (an ExactMatrix) of every cell."""
        return {pq: self.cell(*pq)[2] for pq in self.dims}

    @cached_property
    def d(self) -> dict:
        return {pq: m for pq in self.dims
                if (m := self.differential(*pq)) is not None}


@dataclass
class PageResult:
    pages: list
    tc: TotalComplex
    pairs: list

    def page(self, r: int) -> SpectralPage:
        return self.pages[r - 1]


def e2_dims_via_induced_map(bc: BigradedComplex,
                            cells: dict | None = None) -> dict[tuple[int, int], int]:
    """Second page dimensions from ad_lam acting on column cohomology."""
    n = bc.n
    if cells is None:
        cells = dolbeault_table(bc)
    induced: dict[tuple[int, int], ExactMatrix] = {}
    for p in range(n + 1):
        for q in range(n + 1):
            src = cells[(p, q)]
            if src.dim == 0 or p + 1 > n:
                continue
            tgt = cells[(p + 1, q)]
            am = bc.ad_mat.get((p, q))
            cols = []
            for rep in src.reps:
                y = am.apply(rep) if am is not None else {}
                if tgt.dim:
                    cols.append(tgt.class_coords(y))
                elif am is not None and not tgt.cocycles.contains(y):
                    raise InternalInvariantError("induced map image not closed")
            if tgt.dim:
                induced[(p, q)] = ExactMatrix(cols, tgt.dim)
    dims = {}
    for p in range(n + 1):
        for q in range(n + 1):
            h = cells[(p, q)].dim
            out = induced.get((p, q))
            rank_out = out.rank() if out is not None else 0
            inc = induced.get((p - 1, q))
            rank_in = inc.rank() if inc is not None else 0
            dims[(p, q)] = h - rank_out - rank_in
    return dims


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
    table = dolbeault_table(bc)
    for (p, q), cell_dims in pages[0].dims.items():
        want = table[(p, q)].dim
        if cell_dims != want:
            raise InternalInvariantError(
                f"E_1 dim at {(p, q)} is {cell_dims}, column cohomology gives {want}")
    if len(pages) >= 2:
        want2 = e2_dims_via_induced_map(bc, table)
        for key, val in pages[1].dims.items():
            if want2.get(key, 0) != val:
                raise InternalInvariantError(
                    f"E_2 dim at {key} is {val}, induced-map formula gives {want2.get(key, 0)}")
    return PageResult(pages=pages, tc=tc, pairs=pairs)


@dataclass
class DegenerationVerdict:
    degenerates: bool
    failure: tuple | None
    witness_source: MixedElement | None
    witness_image: MixedElement | None
    pages: PageResult
    hk_dims: dict
    einf_sums: dict

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
        witness_src = element_from_coords(page.cell(p, q)[1][j], tc.bases[p + q])
        witness_img = element_from_coords(
            combine(mat.cols[j], page.cell(p + r, q - r + 1)[1]),
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


@dataclass
class DBicomplexReport:
    ell: int
    c_dim: int
    total_dims: dict
    direct_dims: dict
    identities_ok: bool

    @property
    def match(self) -> bool:
        return all(self.total_dims[m] == self.direct_dims[m] for m in self.total_dims)


def _center_degree(mono, a: int) -> int:
    """The number of vector factors among the first a generators."""
    return sum(1 for g in mono if g < FORM_BASE and g <= a)


def _center_split(abc: BigradedComplex, ell: int, a: int) -> dict[int, tuple]:
    """dbar on the column ell, degree m -> m + 1, split into its part dbar_c
    raising the center-degree and its part dbar_t fixing it: {m: (c, t)}."""
    split = {}
    for m in range(abc.n):
        src, tgt = abc.basis[(ell, m)], abc.basis[(ell, m + 1)]
        tdeg = [_center_degree(mono, a) for mono in tgt]
        c_cols, t_cols = [], []
        for mono, col in zip(src, abc.dbar_mat[(ell, m)].cols):
            pj = _center_degree(mono, a)
            c_col, t_col = {}, {}
            for i, c in col.items():
                if tdeg[i] == pj + 1:
                    c_col[i] = c
                elif tdeg[i] == pj:
                    t_col[i] = c
                else:
                    raise InternalInvariantError(
                        "bicomplex differential moves center-degree by "
                        f"{tdeg[i] - pj}")
            c_cols.append(c_col)
            t_cols.append(t_col)
        split[m] = (ExactMatrix(c_cols, len(tgt)), ExactMatrix(t_cols, len(tgt)))
    return split


def d_bicomplex_crosscheck(ctx: CalculusContext, ell: int) -> DBicomplexReport:
    """H^m of the center/complement bicomplex against plain column cohomology.

    The bicomplex lives in a frame adapted to the center: generators 1..a span
    c^(1,0) and the rest a chosen complement; dbar splits into a part dbar_c
    raising the center-degree (with the complement-degree dropping) and a
    part dbar_t fixing it, and the total cohomology must reproduce H^m with
    ell vector factors.
    """
    if not ctx.abelian:
        raise NotAbelianError("the bicomplex split needs an abelian structure")
    n = ctx.n
    if not (0 <= ell <= n):
        raise ValidationError(f"coefficient degree must be within 0..{n}")
    c10 = ctx.grading.c10
    a = c10.dim
    _, t_reps, _ = quotient_map(c10, Subspace.full(n))
    frame_rows = [ctx.frame.vector_from_coords(row) for row in c10.rows + t_reps]
    adapted = AlgebraPresentation(
        ctx.presentation.dim, ctx.presentation.brackets, ctx.presentation.jmat,
        frame_rows=frame_rows, name=ctx.presentation.name + "#center-adapted")
    # validation reads no frame rows, so the original presentation's holds
    actx = CalculusContext(adapted, complex_frame(adapted, ctx.frame.report))
    abc = BigradedComplex(actx)

    bases = {m: abc.basis[(ell, m)] for m in range(n + 1)}
    dsplit = _center_split(abc, ell, a)
    for m in range(n - 1):
        c1, t1 = dsplit[m]
        c2, t2 = dsplit[m + 1]
        where, src, tgt = f"degree m={m}", bases[m], bases[m + 2]
        _check_zero("dbar_c^2", where, src, tgt, c2, c1)
        _check_zero("dbar_t^2", where, src, tgt, t2, t1)
        _check_zero("dbar_c dbar_t + dbar_t dbar_c", where, src, tgt,
                    c2, t1, t2, c1)

    total_dims = {}
    for m in range(n + 1):
        dim_cell = len(bases[m])
        out = abc.dbar_mat.get((ell, m))
        null = dim_cell - (out.rank() if out is not None else 0)
        prev = abc.dbar_mat.get((ell, m - 1)) if m >= 1 else None
        rk = prev.rank() if prev is not None else 0
        total_dims[m] = null - rk
    base = BigradedComplex(ctx)
    direct_dims = {m: dolbeault_cohomology(base, ell, m).dim for m in range(n + 1)}
    return DBicomplexReport(ell=ell, c_dim=a, total_dims=total_dims,
                            direct_dims=direct_dims, identities_ok=True)
