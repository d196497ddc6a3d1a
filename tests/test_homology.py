import math
import random

import pytest

from nilpoisson.calculus import CalculusContext, dbar_lambda
from nilpoisson.catalog import catalog_load, kodaira, torus, tower
from nilpoisson.errors import InternalInvariantError, ValidationError
from nilpoisson.exact_linalg import ExactMatrix, kernel_basis, rank
from nilpoisson.exterior import (
    MixedElement,
    element_entries,
    form_gen,
    graded_monomials,
    mono_bidegree,
    mono_str,
    vec_gen,
)
from nilpoisson.homology import (
    BigradedComplex,
    SpectralPage,
    TotalComplex,
    d_bicomplex_crosscheck,
    degeneration_verdict,
    dolbeault_cohomology,
    dolbeault_table,
    e2_dims_via_induced_map,
    poisson_betti,
    poisson_cohomology,
    spectral_pages,
)
from nilpoisson.lambda_parser import parse_lambda
from nilpoisson.scalars import GR_ONE, gauss

TOWER4_E2 = {
    (0, 0): 1, (0, 1): 2, (0, 2): 4, (0, 3): 4, (0, 4): 1,
    (1, 0): 1, (1, 1): 2, (1, 2): 2, (1, 3): 2, (1, 4): 1,
    (2, 0): 2, (2, 1): 6, (2, 2): 8, (2, 3): 6, (2, 4): 2,
    (3, 0): 1, (3, 1): 2, (3, 2): 2, (3, 3): 2, (3, 4): 1,
    (4, 0): 1, (4, 1): 4, (4, 2): 4, (4, 3): 2, (4, 4): 1,
}


def z_dim_brute(ctx, lam, r, p, k):
    """dim of the x in F^p (degree k) with Dx in F^(p+r), from scratch."""
    n = ctx.n
    if k < 0 or k > 2 * n:
        return 0
    basis = graded_monomials(n, k)
    fp = [i for i, m in enumerate(basis) if mono_bidegree(m)[0] >= p]
    if not fp:
        return 0
    tgt_basis = graded_monomials(n, k + 1) if k + 1 <= 2 * n else []
    tindex = {m: i for i, m in enumerate(tgt_basis)}
    low = [i for i, m in enumerate(tgt_basis) if mono_bidegree(m)[0] < p + r]
    if not low:
        return len(fp)
    rows = [{} for _ in low]
    for col, i in enumerate(fp):
        y = dbar_lambda(ctx, lam, MixedElement.term(basis[i], GR_ONE))
        coords = element_entries(y, tindex)
        for rr, c in enumerate(low):
            if c in coords:
                rows[rr][col] = coords[c]
    return len(fp) - rank(rows, len(fp))


def page_dims_brute(ctx, lam, r, p, q):
    k = p + q
    a = z_dim_brute(ctx, lam, r, p, k)
    b = z_dim_brute(ctx, lam, r - 1, p + 1, k)
    c = z_dim_brute(ctx, lam, r - 1, p - r + 1, k - 1)
    d = z_dim_brute(ctx, lam, r, p - r + 1, k - 1)
    return a - b - c + d


def test_torus_dolbeault_dims():
    for n in (1, 2, 3):
        bc = BigradedComplex(CalculusContext(torus(n)))
        table = dolbeault_table(bc)
        for p in range(n + 1):
            for q in range(n + 1):
                assert table[(p, q)].dim == math.comb(n, p) * math.comb(n, q)


def test_tower4_dolbeault_row_zero():
    bc = BigradedComplex(CalculusContext(tower(4)))
    dims = [dolbeault_cohomology(bc, 0, q).dim for q in range(5)]
    assert dims == [1, 4, 6, 4, 1]


def test_dbar_matrix_cell_1_0_pinned():
    # on tower(4) the (1,0)->(1,1) map has rank 3 with kernel spanned by v4
    bc = BigradedComplex(CalculusContext(tower(4)))
    m = bc.dbar_mat[(1, 0)]
    assert m.rank() == 3
    rows = [{j: col[i] for j, col in enumerate(m.cols) if i in col}
            for i in range(m.nrows)]
    ker = kernel_basis(rows, m.ncols)
    assert ker == m.kernel()
    assert len(ker) == 1
    basis = bc.basis[(1, 0)]
    nz = [(basis[i], c) for i, c in sorted(ker[0].items()) if c]
    assert nz == [((vec_gen(4),), GR_ONE)]


def test_cell_cocycle_boundary_structure():
    bc = BigradedComplex(CalculusContext(tower(4)))
    cell = dolbeault_cohomology(bc, 1, 1)
    assert cell.dim == cell.cocycles.dim - cell.boundaries.dim
    for rep in cell.representatives():
        assert not rep.is_zero()


def test_tower4_pi_e2_frozen(tower4_bc):
    result = spectral_pages(tower4_bc)
    e2 = result.page(2)
    assert e2.dims == TOWER4_E2
    nz = sorted(pq for pq, m in e2.d.items() if not m.is_zero())
    assert nz == [(0, 2), (0, 3), (2, 2), (2, 3)]


def test_e2_against_induced_map(tower4_bc):
    dims = e2_dims_via_induced_map(tower4_bc)
    for pq, d in TOWER4_E2.items():
        assert dims.get(pq, 0) == d


def test_page_dims_against_brute_force(tower4_ctx, tower4_pi, tower4_bc):
    # every page r = 1..n+1, so pairs of every filtration length are covered
    result = spectral_pages(tower4_bc)
    for r in range(1, tower4_ctx.n + 2):
        page = result.page(r)
        for p in range(5):
            for q in range(5):
                want = page_dims_brute(tower4_ctx, tower4_pi, r, p, q)
                assert page.dim(p, q) == want, (r, p, q)


def test_page_dims_brute_force_no_lambda():
    ctx = CalculusContext(tower(3))
    lam = MixedElement.zero()
    bc = BigradedComplex(ctx, lam)
    result = spectral_pages(bc)
    for r in (1, 2):
        page = result.page(r)
        for p in range(4):
            for q in range(4):
                assert page.dim(p, q) == page_dims_brute(ctx, lam, r, p, q)


def test_page_dims_weakly_decrease(tower4_bc):
    result = spectral_pages(tower4_bc)
    for r in range(1, len(result.pages)):
        lo = result.pages[r - 1]
        hi = result.pages[r]
        for pq, d in hi.dims.items():
            assert d <= lo.dims.get(pq, 0)


def test_page_dims_drop_by_ranks_of_d(tower4_bc):
    # dim E_{r+1} = dim E_r - rank d_r out of the cell - rank d_r into it,
    # tying the d_r matrices built on request to the dimensions of the pairs
    result = spectral_pages(tower4_bc)
    for page, nxt in zip(result.pages, result.pages[1:]):
        r = page.r

        def rank_d(p, q):
            m = page.d.get((p, q))
            return m.rank() if m is not None else 0

        for (p, q), d in page.dims.items():
            want = d - rank_d(p, q) - rank_d(p - r, q + r - 1)
            assert nxt.dim(p, q) == want, (r, p, q)


def test_frozen_zigzag_witness(tower4_bc, tower4_tc):
    verdict = degeneration_verdict(tower4_bc)
    assert verdict.verdict == "fails-at-(2,0,2)"
    src = verdict.witness_source
    img = verdict.witness_image
    ow = form_gen
    assert src.terms == {
        (vec_gen(3), ow(3)): GR_ONE,
        (ow(2), ow(3)): GR_ONE,
    }
    assert img.terms == {(vec_gen(3), vec_gen(4), ow(2)): gauss(-2)}
    # the witness is a genuine zig-zag: D(source) equals the image on the nose
    k = 2
    coords = element_entries(src, tower4_tc.index[k])
    out = tower4_tc.apply_d(k, coords)
    got = MixedElement.zero()
    for i, c in out.items():
        if c:
            got = got + MixedElement.term(tower4_tc.bases[k + 1][i], c)
    assert got == img


def test_verdict_cross_checks_ranks(tower4_bc, tower4_tc):
    verdict = degeneration_verdict(tower4_bc)
    betti = poisson_betti(tower4_tc)
    assert verdict.hk_dims == betti
    assert [betti[k] for k in range(9)] == [1, 3, 7, 10, 10, 10, 7, 3, 1]
    assert verdict.einf_sums == betti


def test_zero_lambda_degenerates():
    bc = BigradedComplex(CalculusContext(tower(4)))
    verdict = degeneration_verdict(bc)
    assert verdict.degenerates
    assert verdict.verdict == "degenerates-at-E2"
    assert [verdict.hk_dims[k] for k in range(9)] == [1, 5, 12, 19, 22, 19, 12, 5, 1]


def test_central_lambda_all_pages_zero_d():
    # v3^v4 has vanishing ad on tower(4); every d_r with r >= 2 must be zero
    ctx = CalculusContext(tower(4))
    lam = parse_lambda("v3^v4").bind(4)
    bc = BigradedComplex(ctx, lam)
    result = spectral_pages(bc)
    for page in result.pages[1:]:
        for m in page.d.values():
            assert m.is_zero()
    verdict = degeneration_verdict(bc)
    assert verdict.degenerates
    assert [verdict.hk_dims[k] for k in (1, 2, 3)] == [5, 12, 19]


def test_verdict_checks_rank_at_failing_cell(tower4_bc, monkeypatch):
    # a d_r that disagrees with the pairs at the failing cell is an error
    real = SpectralPage.differential

    def zeroed(self, p, q):
        m = real(self, p, q)
        return None if m is None else ExactMatrix.zeros(m.nrows, m.ncols)

    monkeypatch.setattr(SpectralPage, "differential", zeroed)
    with pytest.raises(InternalInvariantError,
                       match=r"d_2 at \(0, 2\) has rank 0, but 1 pairs"):
        degeneration_verdict(tower4_bc)


def test_identity_failure_names_cell_and_entry():
    bc = BigradedComplex(CalculusContext(tower(4)))
    d1 = bc.dbar_mat[(1, 0)]
    # the first nonzero entry by row, then column, through the sparse columns
    i, j = min((i, j) for j, col in enumerate(d1.cols) for i in col)
    d2 = ExactMatrix.zeros(len(bc.basis[(1, 2)]), d1.nrows)
    d2.cols[i][0] = GR_ONE
    bc.dbar_mat[(1, 1)] = d2
    with pytest.raises(InternalInvariantError) as err:
        bc._check_identities()
    src = mono_str(bc.basis[(1, 0)][j])
    tgt = mono_str(bc.basis[(1, 2)][0])
    assert str(err.value) == (f"dbar^2 != 0 on cell (p,q)=(1, 0): entry "
                              f"{d1.cols[j][i]} from {src} to {tgt}")


def test_poisson_cohomology_matches_betti(tower4_tc):
    betti = poisson_betti(tower4_tc)
    for k in range(9):
        cell = poisson_cohomology(tower4_tc, k)
        assert cell.dim == betti[k]


def test_poisson_cohomology_outside_range_is_zero(tower4_tc):
    assert poisson_cohomology(tower4_tc, -1).dim == 0
    assert poisson_cohomology(tower4_tc, 9).dim == 0


def test_torus_with_lambda():
    ctx = CalculusContext(torus(2))
    lam = parse_lambda("v1^v2").bind(2)
    bc = BigradedComplex(ctx, lam)
    verdict = degeneration_verdict(bc)
    assert verdict.degenerates
    assert [verdict.hk_dims[k] for k in range(5)] == [1, 4, 6, 4, 1]


def test_kodaira_with_lambda():
    ctx = CalculusContext(kodaira())
    lam = parse_lambda("v1^v2").bind(2)
    bc = BigradedComplex(ctx, lam)
    verdict = degeneration_verdict(bc)
    assert verdict.degenerates
    assert [verdict.hk_dims[k] for k in range(5)] == [1, 3, 4, 3, 1]


def test_assemble_rejects_non_poisson():
    ctx = CalculusContext(tower(4))
    lam = parse_lambda("v1^v2").bind(4)
    with pytest.raises(ValidationError):
        BigradedComplex(ctx, lam)


def test_assemble_rejects_wrong_bidegree():
    ctx = CalculusContext(tower(4))
    lam = MixedElement.term((vec_gen(1), form_gen(1)), GR_ONE)
    with pytest.raises(ValidationError):
        BigradedComplex(ctx, lam)


def test_conjugated_presentation_same_verdict(tower4_bc):
    # a random rational change of real basis must not move any dimension
    from test_lie_structure import conjugated

    rng = random.Random(230)
    q = conjugated(tower(4), rng)
    ctx = CalculusContext(q)
    bc = BigradedComplex(ctx)
    base = BigradedComplex(CalculusContext(tower(4)))
    t_base = dolbeault_table(base)
    t_conj = dolbeault_table(bc)
    for pq in t_base:
        assert t_base[pq].dim == t_conj[pq].dim
    v_base = degeneration_verdict(base)
    v_conj = degeneration_verdict(bc)
    assert v_base.verdict == v_conj.verdict
    assert v_base.hk_dims == v_conj.hk_dims


def test_crosscheck_torus():
    for n in (2, 3):
        ctx = CalculusContext(torus(n))
        for ell in range(n + 1):
            report = d_bicomplex_crosscheck(ctx, ell)
            assert report.identities_ok
            assert report.total_dims == report.direct_dims
            for m, d in report.total_dims.items():
                assert d == math.comb(n, ell) * math.comb(n, m)


def test_crosscheck_tower4_frozen():
    ctx = CalculusContext(tower(4))
    r0 = d_bicomplex_crosscheck(ctx, 0)
    assert r0.total_dims == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    r1 = d_bicomplex_crosscheck(ctx, 1)
    assert r1.total_dims == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    r2 = d_bicomplex_crosscheck(ctx, 2)
    assert r2.total_dims == {0: 2, 1: 8, 2: 12, 3: 8, 4: 2}
    for r in (r0, r1, r2):
        assert r.identities_ok
        assert r.total_dims == r.direct_dims


def test_crosscheck_identity_failure_names_degree_and_entry(monkeypatch):
    # replace dbar_c out of degree 1 by a single unit entry, so that
    # dbar_c^2 out of degree 0 is the first row of dbar_c at degree 0 that
    # has an entry; the message must name the identity, m and that entry
    import nilpoisson.homology as homology

    real = homology._center_split

    def corrupted(abc, ell, a):
        split = real(abc, ell, a)
        c0 = split[0][0]
        i = min(i for col in c0.cols for i in col)
        c1 = ExactMatrix.zeros(len(abc.basis[(ell, 2)]), c0.nrows)
        c1.cols[i][0] = GR_ONE
        split[1] = (c1, split[1][1])
        return split

    monkeypatch.setattr(homology, "_center_split", corrupted)
    with pytest.raises(InternalInvariantError) as err:
        d_bicomplex_crosscheck(CalculusContext(tower(4)), 2)
    assert str(err.value) == ("dbar_c^2 != 0 on degree m=0: entry -1 from "
                              "v2^v4 to v1^v2^ow1^ow2")


def test_crosscheck_rejects_bad_ell():
    ctx = CalculusContext(tower(4))
    with pytest.raises(ValidationError):
        d_bicomplex_crosscheck(ctx, -1)
    with pytest.raises(ValidationError):
        d_bicomplex_crosscheck(ctx, 5)


def test_total_complex_d_squares_to_zero(tower4_tc):
    rng = random.Random(31)
    for k in range(8):
        dim = len(tower4_tc.bases[k])
        for _ in range(5):
            coords = {i: x for i in range(dim) if (x := gauss(rng.randint(-3, 3)))}
            mid = tower4_tc.apply_d(k, coords)
            out = tower4_tc.apply_d(k + 1, mid)
            assert all(not c for c in out.values())


def test_class_coords_on_every_dolbeault_cell(tower4_bc):
    # rep j has class e_j and every boundary generator class 0, so a
    # transposed or misindexed projection cannot pass
    cells = 0
    for (p, q), cell in dolbeault_table(tower4_bc).items():
        assert (cell.proj.nrows, cell.proj.ncols) == (cell.dim, len(cell.basis))
        for j, rep in enumerate(cell.reps):
            assert cell.class_coords(rep) == {j: GR_ONE}, (p, q, j)
        incoming = tower4_bc.dbar_mat.get((p, q - 1))
        for col in (incoming.cols if incoming is not None else []):
            assert cell.class_coords(col) == {}, (p, q)
        for row in cell.boundaries.rows:
            assert cell.class_coords(row) == {}, (p, q)
        cells += cell.dim > 0
    assert cells == 25
