import contextlib
import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilpoisson.exact_linalg as exact_linalg
import nilpoisson.exterior as exterior
import nilpoisson.homology as homology
from nilpoisson.calculus import CalculusContext, dbar, schouten
from nilpoisson.catalog import catalog_load, kodaira, torus, tower
from nilpoisson.errors import InternalInvariantError, ValidationError
from nilpoisson.exact_linalg import ExactMatrix, combine, rank
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
from nilpoisson.poisson import holomorphic_bivector_space, theorem2_lambda
from nilpoisson.scalars import GR_ONE, Rational, gauss
from test_calculus import iwasawa
from test_exact_linalg import row_kernel
from test_exterior import scaled
from test_lie_structure import conjugated

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
        e = MixedElement.term(basis[i], GR_ONE)
        y = dbar(ctx, e) + schouten(ctx, lam, e)
        coords = element_entries(y, tindex)
        for rr, c in enumerate(low):
            if c in coords:
                rows[rr][col] = coords[c]
    return len(fp) - rank(rows)


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
    ker = m.kernel()
    assert ker == row_kernel(rows, m.ncols)
    assert len(ker) == 1
    basis = bc.basis[(1, 0)]
    nz = [(basis[i], c) for i, c in sorted(ker[0].items()) if c]
    assert nz == [((vec_gen(4),), GR_ONE)]


def test_cell_cocycle_boundary_structure():
    bc = BigradedComplex(CalculusContext(tower(4)))
    cell = dolbeault_cohomology(bc, 1, 1)
    assert cell.dim == cell.total.dim - cell.sub.dim
    for rep in cell.representatives():
        assert not rep.is_zero()


def test_tower4_pi_e2_frozen(tower4_bc):
    result = spectral_pages(tower4_bc)
    e2 = result.page(2)
    assert e2.dims == TOWER4_E2
    nz = sorted(pq for pq in e2.dims
                if (m := e2.differential(*pq)) is not None and not m.is_zero())
    assert nz == [(0, 2), (0, 3), (2, 2), (2, 3)]


def dbar_ranks(bc) -> dict:
    return {pq: d.rank() for pq, d in bc.dbar_mat.items()}


def induced_map_e2_reference(bc) -> dict:
    """E_2 from the Dolbeault cells: ad_lam applied to the representatives
    of each class, projected to the classes of the target cell."""
    table = dolbeault_table(bc)
    ranks = {}
    for (p, q), am in bc.ad_mat.items():
        tgt = table[(p + 1, q)]
        ranks[(p, q)] = ExactMatrix(
            [tgt.class_coords(am.apply(rep)) for rep in table[(p, q)].reps],
            tgt.dim).rank()
    return {(p, q): cell.dim - ranks.get((p, q), 0) - ranks.get((p - 1, q), 0)
            for (p, q), cell in table.items()}


def test_e2_against_induced_map(tower4_bc):
    dims = e2_dims_via_induced_map(tower4_bc, dbar_ranks(tower4_bc))
    for pq, d in TOWER4_E2.items():
        assert dims.get(pq, 0) == d


@pytest.mark.parametrize("algebra, lam", [
    ("kodaira", "v1^v2"),
    ("kodaira", "i v1^v2"),
    ("tower:4", "2 v1^v4 - v2^v3"),
    ("tower:4", "2i v1^v4 - i v2^v3"),
    ("tower:6", "2 v1^v6 - v2^v5 + v3^v4"),
    ("torus:4", None),
])
def test_e2_ranks_match_cell_reference(algebra, lam):
    ctx = CalculusContext(catalog_load(algebra))
    bivector = (theorem2_lambda(ctx).bivector if lam is None
                else parse_lambda(lam).bind(ctx.n))
    bc = BigradedComplex(ctx, bivector)
    assert e2_dims_via_induced_map(bc, dbar_ranks(bc)) == \
        induced_map_e2_reference(bc)


@settings(max_examples=5, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32),
       st.lists(st.builds(gauss, st.integers(-3, 3), st.integers(-3, 3)),
                min_size=2, max_size=2))
def test_e2_ranks_match_cell_reference_in_random_frames(n, seed, coeffs):
    # tower:n in a random rational basis, lam a random Gaussian combination
    # of the Poisson candidates (on tower:4 ad_lam then acts on 12 cells)
    ctx = CalculusContext(conjugated(tower(n), random.Random(seed)))
    lam = MixedElement()
    for cand, c in zip(holomorphic_bivector_space(ctx).candidates, coeffs):
        lam = lam + scaled(cand.bivector, c)
    bc = BigradedComplex(ctx, lam)
    assert e2_dims_via_induced_map(bc, dbar_ranks(bc)) == \
        induced_map_e2_reference(bc)


@pytest.mark.parametrize("name", ["kodaira", "tower:3", "tower:4", "tower:5",
                                  "torus:3"])
def test_representative_texts_match_elements_on_catalog(name):
    _assert_texts_match(BigradedComplex(CalculusContext(catalog_load(name))))


@pytest.mark.parametrize("name, lam", [
    ("kodaira", "v1^v2"), ("tower:4", "2 v1^v4 - v2^v3"), ("tower:3", None),
])
def test_representative_texts_match_elements_with_lambda(name, lam):
    # the Poisson cells' bases span every cell of a total degree
    ctx = CalculusContext(catalog_load(name))
    bivector = (theorem2_lambda(ctx).bivector if lam is None
                else parse_lambda(lam).bind(ctx.n))
    _assert_texts_match(BigradedComplex(ctx, bivector))


@settings(max_examples=4, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32))
def test_representative_texts_match_elements_in_random_frames(n, seed):
    # dense frames give multi-term representatives with non-real coefficients
    ctx = CalculusContext(conjugated(tower(n), random.Random(seed)))
    _assert_texts_match(BigradedComplex(ctx, theorem2_lambda(ctx).bivector))


def _assert_texts_match(bc):
    """Every Dolbeault cell and every Poisson cohomology degree of bc."""
    tc = TotalComplex(bc)
    cells = [*dolbeault_table(bc).values(),
             *(poisson_cohomology(tc, k) for k in range(2 * bc.n + 1))]
    for cell in cells:
        assert cell.representative_texts() == [
            str(e) for e in cell.representatives()]


def test_representative_texts_write_each_coefficient_once(monkeypatch):
    # torus:6: 4,096 one-term representatives over 49 cells, every
    # coefficient 1, so one coefficient text per cell that has a class
    cells = dolbeault_table(BigradedComplex(CalculusContext(torus(6)))).values()
    want = {id(cell): [str(e) for e in cell.representatives()] for cell in cells}
    written = []
    monkeypatch.setattr(exterior, "gauss_to_string",
                        lambda z, _f=exterior.gauss_to_string:
                        written.append(z) or _f(z))
    for cell in cells:
        written.clear()
        assert cell.representative_texts() == want[id(cell)]
        coeffs = {c for rep in cell.reps for c in rep.values()}
        assert sorted(written, key=repr) == sorted(coeffs, key=repr)
    assert sum(cell.dim for cell in cells) == 4096


def test_page_outside_the_pages_raises(kodaira_ctx):
    result = spectral_pages(BigradedComplex(
        kodaira_ctx, parse_lambda("v1^v2").bind(kodaira_ctx.n)))
    last = len(result.pages)
    assert result.page(1) is result.pages[0]
    assert result.page(last) is result.pages[-1]
    for r in (0, -1, -2, last + 1):
        with pytest.raises(IndexError, match=rf"^page {r} outside 1\.\.{last}$"):
            result.page(r)


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
            m = page.differential(p, q)
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
    coords = element_entries(
        src, {m: i for i, m in enumerate(tower4_tc.bases[k])})
    out = tower4_tc.dmat[k].apply(coords)
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
        for pq in page.dims:
            m = page.differential(*pq)
            assert m is None or m.is_zero()
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


def test_identity_failure_names_cell_and_entry(monkeypatch):
    # replace dbar out of cell (1, 1) by a single unit entry at the first
    # row that dbar out of (1, 0) reaches, so that dbar^2 out of (1, 0) has
    # one; the first nonzero entry is by row, then column
    table, real_cell = CalculusContext(tower(4)).dbar_table, homology.dbar_cell
    basis, d1 = real_cell(table, 4, 1, 0)
    i, j = min((i, j) for j, col in enumerate(d1.cols) for i in col)

    def corrupted(table, n, p, q):
        cell, mat = real_cell(table, n, p, q)
        if (p, q) == (1, 1):
            mat = ExactMatrix.zeros(mat.nrows, mat.ncols)
            mat.cols[i][0] = GR_ONE
        return cell, mat

    monkeypatch.setattr(homology, "dbar_cell", corrupted)
    with pytest.raises(InternalInvariantError) as err:
        BigradedComplex(CalculusContext(tower(4)))
    src = mono_str(basis[j])
    tgt = mono_str(real_cell(table, 4, 1, 2)[0][0])
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


@pytest.mark.parametrize("presentation, text", [
    (tower(3), "lam is not holomorphic: dbar(lam) = (1) v1^v3^ow1 != 0"),
    # on the non-abelian Iwasawa structure v1^v2 is dbar-closed, but
    # [v1^v2, v1^v2] = 2 v1^v2^[v1, v2] is not zero
    (iwasawa(), "lam is not Poisson: [lam, lam] = (2) v1^v2^v3 != 0"),
], ids=["not-holomorphic", "not-poisson"])
def test_assemble_rejection_texts(presentation, text):
    ctx = CalculusContext(presentation)
    with pytest.raises(ValidationError) as info:
        BigradedComplex(ctx, parse_lambda("v1^v2").bind(ctx.n))
    assert str(info.value) == text


def test_assemble_rejects_wrong_bidegree():
    ctx = CalculusContext(tower(4))
    lam = MixedElement.term((vec_gen(1), form_gen(1)), GR_ONE)
    with pytest.raises(ValidationError):
        BigradedComplex(ctx, lam)


def test_conjugated_presentation_same_verdict(tower4_bc):
    # a random rational change of real basis must not move any dimension
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
            dims = d_bicomplex_crosscheck(ctx, ell)
            assert dims == {m: math.comb(n, ell) * math.comb(n, m)
                            for m in range(n + 1)}


def test_crosscheck_tower4_frozen():
    ctx = CalculusContext(tower(4))
    assert d_bicomplex_crosscheck(ctx, 0) == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    assert d_bicomplex_crosscheck(ctx, 1) == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    assert d_bicomplex_crosscheck(ctx, 2) == {0: 2, 1: 8, 2: 12, 3: 8, 4: 2}


def test_crosscheck_identity_failure_names_degree_and_entry(monkeypatch):
    # replace dbar_c out of degree 1 by a single unit entry, so that
    # dbar_c^2 out of degree 0 is the first row of dbar_c at degree 0 that
    # has an entry; the message must name the identity, m and that entry
    import nilpoisson.homology as homology

    real = homology._center_split

    def corrupted(table, n, ell, a):
        split = real(table, n, ell, a)
        c0 = split[0][0]
        i = min(i for col in c0.cols for i in col)
        c1 = ExactMatrix.zeros(split[1][0].nrows, c0.nrows)
        c1.cols[i][0] = GR_ONE
        split[1] = (c1, split[1][1])
        return split

    monkeypatch.setattr(homology, "_center_split", corrupted)
    with pytest.raises(InternalInvariantError) as err:
        d_bicomplex_crosscheck(CalculusContext(tower(4)), 2)
    assert str(err.value) == ("dbar_c^2 != 0 on degree m=0: entry -1 from "
                              "v2^v4 to v1^v2^ow1^ow2")


def lower_center_degree(monkeypatch):
    """Add v1 -> v2^ow1 to dbar in the center-adapted frame of tower(4), where
    v1 is the central v4 and v2 is not: the term lowers the center-degree."""
    real = homology.dbar_images

    def injected(fr):
        images, brackets = real(fr)
        term = MixedElement.term((vec_gen(2), form_gen(1)), GR_ONE)
        images[1] = images.get(1, MixedElement()) + term
        return images, brackets

    monkeypatch.setattr(homology, "dbar_images", injected)


def skew_total_cohomology(monkeypatch):
    """Count one more class in degree 0 of the first cohomology the
    crosscheck computes, the total one."""
    real, calls = homology._betti, []

    def skewed(cells):
        dims = real(cells)
        calls.append(cells)
        if len(calls) == 1:
            dims[0] += 1
        return dims

    monkeypatch.setattr(homology, "_betti", skewed)


CROSSCHECK_BREAKS = [
    (lower_center_degree, "bicomplex differential moves center-degree by -1"),
    (skew_total_cohomology,
     "bicomplex total cohomology disagrees with the direct computation"),
]


@pytest.mark.parametrize("corrupt, text", CROSSCHECK_BREAKS,
                         ids=["center-degree", "mismatch"])
def test_crosscheck_raises_its_invariants(monkeypatch, corrupt, text):
    corrupt(monkeypatch)
    with pytest.raises(InternalInvariantError) as err:
        d_bicomplex_crosscheck(CalculusContext(tower(4)), 1)
    assert str(err.value) == text


def test_crosscheck_in_conjugated_frames():
    # in a random basis c10 is no frame vector, so the adapted frame is a
    # true change of basis and not a reordering of the frame
    cases = [(base, seed, range(base.dim // 2 + 1))
             for base in (kodaira(), tower(4)) for seed in (1, 2, 3)]
    cases.append((tower(5), 1, (1, 2)))
    rows = []
    for base, seed, ells in cases:
        ctx = CalculusContext(conjugated(base, random.Random(seed)))
        rows += ctx.grading.c10.rows
        frame = CalculusContext(base)
        for ell in ells:
            want = d_bicomplex_crosscheck(frame, ell)
            assert d_bicomplex_crosscheck(ctx, ell) == want, (
                base.name, seed, ell)
    assert any(len(row) > 1 for row in rows)


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
            mid = tower4_tc.dmat[k].apply(coords)
            out = tower4_tc.dmat[k + 1].apply(mid)
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
        for row in cell.sub.rows:
            assert cell.class_coords(row) == {}, (p, q)
        cells += cell.dim > 0
    assert cells == 25


# -- the oracles' failure paths ---------------------------------------------

def test_e1_oracle_names_cell_where_pairing_disagrees(tower4_bc, monkeypatch):
    # dropping the longest pair lowers E_1 at both of its ends
    real = homology._pairing

    def dropped(tc):
        pairs, unpaired = real(tc)
        return pairs[:-1], unpaired

    monkeypatch.setattr(homology, "_pairing", dropped)
    with pytest.raises(InternalInvariantError) as err:
        spectral_pages(tower4_bc)
    assert str(err.value) == (
        "E_1 dim at (2, 3) is 7, column cohomology gives 8")


def test_e2_oracle_names_cell_where_pairing_disagrees(tower4_ctx, tower4_pi,
                                                      monkeypatch):
    # zero ad_lam out of (0, 2) once D is assembled: the pairing still sees
    # the true D, the induced map sees none out of (0, 2)
    real = homology.TotalComplex

    class Corrupting(real):
        def __init__(self, bc):
            super().__init__(bc)
            m = bc.ad_mat[(0, 2)]
            bc.ad_mat[(0, 2)] = ExactMatrix.zeros(m.nrows, m.ncols)

    monkeypatch.setattr(homology, "TotalComplex", Corrupting)
    with pytest.raises(InternalInvariantError) as err:
        spectral_pages(BigradedComplex(tower4_ctx, tower4_pi))
    assert str(err.value) == (
        "E_2 dim at (0, 2) is 4, induced-map formula gives 6")


def test_identity_check_rejects_ad_image_that_is_not_closed():
    # ad_lam sending 1 to v1, which dbar does not kill, breaks the
    # anticommutation identity, so no E_2 oracle sees such an image
    bc = BigradedComplex(CalculusContext(kodaira()),
                         parse_lambda("v1^v2").bind(2))
    bc.ad_mat[(0, 0)] = ExactMatrix([{0: GR_ONE}], len(bc.basis[(1, 0)]))
    with pytest.raises(InternalInvariantError) as err:
        bc._check_identities()
    assert str(err.value) == (
        "dbar ad_lam + ad_lam dbar != 0 on cell (p,q)=(0, 0): "
        "entry 1/2i from 1 to v2^ow1")


# -- what the verdict builds ------------------------------------------------

def _count_cells(monkeypatch) -> list:
    built = []
    real = homology.CohomologyCell.__init__

    def counted(self, basis, *args):
        built.append(len(basis))
        real(self, basis, *args)

    monkeypatch.setattr(homology.CohomologyCell, "__init__", counted)
    return built


def test_central_lambda_builds_no_ad_matrix_and_no_cell(monkeypatch):
    ctx = CalculusContext(tower(5))
    bc = BigradedComplex(ctx, theorem2_lambda(ctx).bivector)
    assert bc.ad_mat == {}
    assert len(bc.dbar_mat) == 30
    built = _count_cells(monkeypatch)
    verdict = degeneration_verdict(bc)
    assert built == []
    assert verdict.verdict == "degenerates-at-E2"
    assert verdict.pages.page(2).dims == verdict.pages.page(1).dims


def test_torus_stores_no_cell_matrix():
    # dbar and ad_lam vanish on every generator, so D = 0 and every page
    # and H^k is the whole cochain space
    ctx = CalculusContext(torus(4))
    bc = BigradedComplex(ctx, theorem2_lambda(ctx).bivector)
    assert bc.dbar_mat == {} and bc.ad_mat == {}
    verdict = degeneration_verdict(bc)
    full = {(p, q): math.comb(4, p) * math.comb(4, q)
            for p in range(5) for q in range(5)}
    for page in verdict.pages.pages:
        assert page.dims == full
    assert verdict.hk_dims == {k: math.comb(8, k) for k in range(9)}
    assert verdict.verdict == "degenerates-at-E2"


def test_e2_oracle_reads_only_cells_ad_acts_on(monkeypatch):
    # i v1^v2 on kodaira: ad_lam acts out of (0, 1) and (1, 1) only, and
    # the blocks of D there hold i, so the oracle reduces non-real entries;
    # it counts ranks and builds no cohomology cell
    ctx = CalculusContext(kodaira())
    bc = BigradedComplex(ctx, parse_lambda("i v1^v2").bind(2))
    assert [pq for pq, m in bc.ad_mat.items() if not m.is_zero()] == [
        (0, 1), (1, 1)]
    ranks = dbar_ranks(bc)
    built = _count_cells(monkeypatch)
    non_real = []
    real = exact_linalg.eliminate

    def eliminate(rows):
        non_real.append(any(x.im for row in rows for x in row.values()))
        return real(rows)

    monkeypatch.setattr(exact_linalg, "eliminate", eliminate)
    dims = e2_dims_via_induced_map(bc, ranks)
    assert built == []
    assert True in non_real
    assert dims == {(p, q): 2 if q == 1 else 1
                    for p in range(3) for q in range(3)}
    assert dims == degeneration_verdict(bc).pages.page(2).dims


@pytest.mark.parametrize("algebra, lam, verdict", [
    ("kodaira", "i v1^v2", "degenerates-at-E2"),
    ("tower:4", "2 v1^v4 - v2^v3", "fails-at-(2,0,2)"),
    ("tower:6", "2 v1^v6 - v2^v5 + v3^v4", "fails-at-(2,0,2)"),
])
def test_verdict_builds_no_cohomology_cell(monkeypatch, algebra, lam, verdict):
    ctx = CalculusContext(catalog_load(algebra))
    bc = BigradedComplex(ctx, parse_lambda(lam).bind(ctx.n))
    built = _count_cells(monkeypatch)
    assert degeneration_verdict(bc).verdict == verdict
    assert built == []


# -- one reduction per dbar matrix ------------------------------------------

def _assert_table_matches_rank_count(bc):
    # |cell| - rk dbar(p,q) - rk dbar(p,q-1), from ranks alone
    want = homology._column_dims(bc, dbar_ranks(bc))
    table = dolbeault_table(bc)
    assert {pq: cell.dim for pq, cell in table.items()} == want
    for pq, cell in table.items():
        assert cell.dim == cell.total.dim - cell.sub.dim == len(cell.reps)


@pytest.mark.parametrize("name", ["kodaira", "tower:3", "tower:4", "tower:5",
                                  "tower:6", "torus:3", "torus:4", "torus:5"])
def test_dolbeault_table_dims_match_rank_count(name):
    _assert_table_matches_rank_count(
        BigradedComplex(CalculusContext(catalog_load(name))))


@settings(max_examples=4, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32))
def test_dolbeault_table_dims_match_rank_count_in_random_frames(n, seed):
    _assert_table_matches_rank_count(BigradedComplex(
        CalculusContext(conjugated(tower(n), random.Random(seed)))))


def test_dolbeault_table_builds_projections_on_request(tower4_bc):
    table = dolbeault_table(tower4_bc)
    assert not any("proj" in vars(cell) for cell in table.values())
    cell = table[(1, 1)]
    proj = cell.proj
    assert cell.proj is proj
    assert [pq for pq, c in table.items() if "proj" in vars(c)] == [(1, 1)]
    assert (proj.nrows, proj.ncols) == (cell.dim, len(cell.basis))


# -- a single cell is the matching cell of the whole complex ----------------

@contextlib.contextmanager
def _counting_reductions():
    calls = []
    real = exact_linalg.reduce_columns

    def counted(cols):
        calls.append(len(cols))
        return real(cols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_linalg, "reduce_columns", counted)
        mp.setattr(homology, "reduce_columns", counted)
        yield calls


def _assert_single_cells_match_complex(bc):
    """poisson_cohomology and dolbeault_cohomology against `_cohomology` of
    the whole complex: the same dim, reps and proj, from one column
    reduction (of the map out of the cell; none when that map is zero)."""
    tc = TotalComplex(bc)
    whole = homology._cohomology(list(zip(tc.bases.values(), tc.dmat.values())))
    cells = [((k,), poisson_cohomology, tc, tc.dmat.get(k), cell)
             for k, cell in enumerate(whole)]
    cells += [((p, q), dolbeault_cohomology, bc, bc.dbar_mat.get((p, q)), cell)
              for (p, q), cell in dolbeault_table(bc).items()]
    for where, single, cx, d_out, want in cells:
        with _counting_reductions() as calls:
            got = single(cx, *where)
        assert len(calls) == (d_out is not None), where
        assert got.dim == want.dim and got.reps == want.reps, where
        assert got.sub == want.sub and got.total == want.total, where
        assert got.proj == want.proj, where


@pytest.mark.parametrize("name, lam", [
    ("kodaira", "i v1^v2"), ("kodaira", None),
    ("tower:3", ""), ("tower:3", None),
    ("tower:4", "2 v1^v4 - v2^v3"), ("tower:4", None),
    ("tower:5", ""), ("tower:5", None),
])
def test_single_cells_match_whole_complex(name, lam):
    ctx = CalculusContext(catalog_load(name))
    bivector = (theorem2_lambda(ctx).bivector if lam is None
                else parse_lambda(lam).bind(ctx.n) if lam else None)
    _assert_single_cells_match_complex(BigradedComplex(ctx, bivector))


@settings(max_examples=4, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32))
def test_single_cells_match_whole_complex_in_random_frames(n, seed):
    ctx = CalculusContext(conjugated(tower(n), random.Random(seed)))
    _assert_single_cells_match_complex(
        BigradedComplex(ctx, theorem2_lambda(ctx).bivector))


# -- clearing in the pairing, and reductions that leave D as it was ----------

def uncleared_pairing(tc):
    """The pairing as computed before clearing: every column of every D^k
    reduced, rows numbered from the end so that the last row leads.  Also
    returns, by k, the pivot rows of D^(k-1): the columns of D^k to clear.
    The degree of each basis element is read off its monomial."""
    pdeg = {k: [mono_bidegree(m)[0] for m in graded_monomials(tc.n, k)]
            for k in range(tc.nmax + 1)}
    pairs, paired = [], {k: set() for k in range(tc.nmax + 2)}
    lows = {k: set() for k in range(tc.nmax + 2)}
    for k in range(tc.nmax + 1):
        top = len(tc.bases.get(k + 1, ())) - 1
        _, leads = exact_linalg.eliminate(
            [{top - i: c for i, c in col.items()} for col in tc.dmat[k].cols])
        for j, lead in enumerate(leads):
            if lead is not None:
                pj, pi = pdeg[k][j], pdeg[k + 1][top - lead]
                pairs.append((pi - pj, (pj, k - pj), (pi, k + 1 - pi)))
                paired[k].add(j)
                paired[k + 1].add(top - lead)
                lows[k + 1].add(top - lead)
    unpaired = {}
    for k in range(tc.nmax + 1):
        for j, p in enumerate(pdeg[k]):
            if j not in paired[k]:
                unpaired[(p, k - p)] = unpaired.get((p, k - p), 0) + 1
    return (sorted(pairs), unpaired), lows


def _gaussian_poisson_complex(n, seed, coeffs):
    """tower:n in a random rational basis, with lam a Gaussian combination
    of its holomorphic Poisson candidates."""
    ctx = CalculusContext(conjugated(tower(n), random.Random(seed)))
    lam = MixedElement()
    for cand, c in zip(holomorphic_bivector_space(ctx).candidates, coeffs):
        lam = lam + scaled(cand.bivector, c)
    return BigradedComplex(ctx, lam)


def _assert_clearing_keeps_pairs(bc):
    tc = TotalComplex(bc)
    seen = []
    real = homology.eliminate

    def recording(rows):
        seen.append(rows)
        return real(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "eliminate", recording)
        got = homology._pairing(tc)
    want, lows = uncleared_pairing(tc)
    assert got == want
    # and clearing is in effect: every pivot row of D^(k-1) enters the
    # reduction of D^k as an empty row
    assert len(seen) == tc.nmax + 1
    for k, rows in enumerate(seen):
        assert all(rows[j] == {} for j in lows[k]), k


@pytest.mark.parametrize("algebra, lam", [
    ("kodaira", "i v1^v2"),
    ("tower:3", None), ("tower:4", None), ("tower:5", None),
    ("tower:4", "2 v1^v4 - v2^v3"),
    ("tower:6", "2 v1^v6 - v2^v5 + v3^v4"),
    ("torus:4", None),
])
def test_clearing_changes_no_pair(algebra, lam):
    ctx = CalculusContext(catalog_load(algebra))
    bivector = (theorem2_lambda(ctx).bivector if lam is None
                else parse_lambda(lam).bind(ctx.n))
    _assert_clearing_keeps_pairs(BigradedComplex(ctx, bivector))


@settings(max_examples=4, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32),
       st.lists(st.builds(gauss, st.integers(-3, 3), st.integers(-3, 3)),
                min_size=2, max_size=2))
def test_clearing_changes_no_pair_in_random_frames(n, seed, coeffs):
    _assert_clearing_keeps_pairs(_gaussian_poisson_complex(n, seed, coeffs))


# -- the layout of K^k, read from its cell bases -----------------------------

def test_cell_lookup_matches_monomial_bidegree():
    # every K^k at n = 3: the lookup names the cell whose bidegree the
    # monomial decodes to, at both ends of every cell
    tc = TotalComplex(BigradedComplex(CalculusContext(tower(3))))
    for k, basis in tc.bases.items():
        assert [p for p, _ in basis.cells] == sorted(
            {mono_bidegree(m)[0] for m in graded_monomials(3, k)}, reverse=True)
        for start, stop in zip(basis.starts, basis.starts[1:]):
            for j in (start, stop - 1):
                assert basis.cells[basis.locate(j)] == mono_bidegree(basis[j])
        for j in (-1, len(basis)):
            with pytest.raises(IndexError):
                basis.locate(j)
            with pytest.raises(IndexError):
                basis[j]


def test_pairing_of_a_zero_differential_leaves_every_cell_unpaired():
    tc = TotalComplex(BigradedComplex(CalculusContext(torus(4))))
    assert all(d.is_zero() for d in tc.dmat.values())
    pairs, unpaired = homology._pairing(tc)
    assert pairs == []
    assert unpaired == {(p, q): math.comb(4, p) * math.comb(4, q)
                        for p in range(5) for q in range(5)}


# -- duality: the top-degree pairing turns D into its adjoint ---------------

def _complement(n, mono):
    """The index of the complementary monomial in its K^k (`graded_monomials`
    order: the cells of degree above p first, then the ranks of its two
    halves), and the sign of the top monomial in mono ^ complement."""
    rest = ((1 << 2 * n) - 1) ^ exterior.mono_mask(mono, n)
    vec, form = rest & ((1 << n) - 1), rest >> n
    p, q = bin(vec).count("1"), bin(form).count("1")
    j = (sum(math.comb(n, d) * math.comb(n, p + q - d)
             for d in range(p + 1, min(p + q, n) + 1))
         + exterior.subset_ranks(n, p)[vec] * math.comb(n, q)
         + exterior.subset_ranks(n, q)[form])
    return j, exterior.wedge_mono(mono, exterior.mask_mono(rest, n))[0]


def _assert_duality(bc):
    """<D a, b> = -(-1)^k <a, D b> for a in K^k and b in K^{2n-k-1}, where
    <x, y> is the top coefficient of x ^ y, read from the nonzero entries of
    D; and E_r^{p,q} = E_r^{n-p,n-q} on every page, H^k = H^{2n-k}."""
    tc, n = TotalComplex(bc), bc.n
    for k in range(2 * n):
        # <D e_j, f_l> = D^k[i, j] <e_i, f_l>, f_l the complement of e_i
        lhs = {}
        for j, col in enumerate(tc.dmat[k].cols):
            for i, c in col.items():
                l, sign = _complement(n, tc.bases[k + 1][i])
                lhs[(j, l)] = c if sign > 0 else -c
        # <e_j, D f_l> = D^{2n-k-1}[m, l] <e_j, f_m>, e_j the complement of
        # f_m, and <e_j, f_m> = (-1)^(k(2n-k)) <f_m, e_j>
        rhs = {}
        for l, col in enumerate(tc.dmat[2 * n - k - 1].cols):
            for m, c in col.items():
                j, sign = _complement(n, tc.bases[2 * n - k][m])
                rhs[(j, l)] = -c if sign > 0 else c
        assert lhs == rhs, k
    for page in spectral_pages(bc).pages:
        assert all(page.dim(p, q) == page.dim(n - p, n - q)
                   for p in range(n + 1) for q in range(n + 1)), page.r
    betti = poisson_betti(tc)
    assert all(betti[k] == betti[2 * n - k] for k in range(2 * n + 1))


@pytest.mark.parametrize("algebra, lam", [
    ("kodaira", None), ("kodaira", "i v1^v2"),
    ("tower:4", "2 v1^v4 - v2^v3"), ("tower:5", None), ("torus:3", None),
    ("tower:6", "2 v1^v6 - v2^v5 + v3^v4"),
    ("tower:8", "2 v1^v8 - v2^v7 + v3^v6 - v4^v5"),
])
def test_duality_pairs_d_with_its_adjoint(algebra, lam):
    ctx = CalculusContext(catalog_load(algebra))
    bivector = (theorem2_lambda(ctx).bivector if lam is None
                else parse_lambda(lam).bind(ctx.n))
    _assert_duality(BigradedComplex(ctx, bivector))


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.lists(st.builds(gauss, st.integers(-3, 3), st.integers(-3, 3)),
                min_size=2, max_size=2))
def test_duality_pairs_d_with_its_adjoint_in_random_frames(seed, coeffs):
    _assert_duality(_gaussian_poisson_complex(3, seed, coeffs))


def test_betti_ranks_read_every_column(monkeypatch):
    # poisson_betti is the E_infinity oracle of the pairing, so it ranks
    # each whole D^k: no column cleared, and nothing read from _pairing
    tc = TotalComplex(BigradedComplex(CalculusContext(tower(4)),
                                      parse_lambda("2 v1^v4 - v2^v3").bind(4)))
    seen = []
    real = exact_linalg.eliminate

    def recording(rows):
        seen.append(list(rows))
        return real(rows)

    def no_pairing(tc):
        raise AssertionError("poisson_betti read the pairing")

    monkeypatch.setattr(exact_linalg, "eliminate", recording)
    monkeypatch.setattr(homology, "eliminate", recording)
    monkeypatch.setattr(homology, "_pairing", no_pairing)
    betti = poisson_betti(tc)
    assert [betti[k] for k in range(9)] == [1, 3, 7, 10, 10, 10, 7, 3, 1]
    assert seen == [d.cols for d in tc.dmat.values()]


def _snapshot(bc, tc):
    return copy.deepcopy(([m.cols for m in bc.dbar_mat.values()],
                          [m.cols for m in bc.ad_mat.values()],
                          [m.cols for m in tc.dmat.values()]))


@pytest.mark.parametrize("case", ["tower:4 pinned", "conjugated tower:3"])
def test_no_reduction_writes_a_matrix_of_the_complex(case):
    # kept columns alias the columns of dbar, ad_lam and D: reading every
    # class projection, the verdict with its witness, and the Betti ranks
    # must leave each column as it was assembled
    if case == "tower:4 pinned":
        bc = BigradedComplex(CalculusContext(tower(4)),
                             parse_lambda("2 v1^v4 - v2^v3").bind(4))
    else:
        bc = _gaussian_poisson_complex(3, 1, [gauss(1, 2), gauss(-2, 1)])
    verdict = degeneration_verdict(bc)
    tc = verdict.pages.tc
    before = _snapshot(bc, tc)
    assert all(cell.proj.nrows == cell.dim
               for cell in dolbeault_table(bc).values())
    degeneration_verdict(bc)
    poisson_betti(tc)
    for page in verdict.pages.pages:
        for pq in page.dims:
            assert page.cell(*pq).proj.nrows == page.dim(*pq)
    assert _snapshot(bc, tc) == before


# -- the identity checks' product kernel ------------------------------------

_SCALARS = st.builds(
    lambda a, b, d: gauss(Rational(a, d), Rational(b, d)),
    st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3)).filter(bool)


@st.composite
def _sparse_matrix(draw, nrows, ncols):
    """Sparse columns, many of them empty, a few entries each."""
    return ExactMatrix([draw(st.dictionaries(
        st.integers(0, nrows - 1), _SCALARS, max_size=min(3, nrows)))
        if nrows and draw(st.booleans()) else {} for _ in range(ncols)], nrows)


@st.composite
def _identity_factors(draw):
    """(a2, a1) or (a2, a1, b2, b1) with a2 a1 (+ b2 b1) drawn to vanish in
    part: a left column planted as a multiple of another, with right columns
    that cancel on the pair, and a second product -a2 s . a1 / s plus noise."""
    m, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    a2, a1 = draw(_sparse_matrix(m, k)), draw(_sparse_matrix(k, c))
    if k >= 2 and c and draw(st.booleans()):
        k1, k2 = draw(st.permutations(range(k)))[:2]
        s, f = draw(_SCALARS), draw(_SCALARS)
        a2.cols[k2] = {i: s * x for i, x in a2.cols[k1].items()}
        a1.cols[draw(st.integers(0, c - 1))] = {k1: f, k2: -f / s}
    if not draw(st.booleans()):
        return a2, a1
    s = draw(_SCALARS)
    b2 = ExactMatrix([{i: s * x for i, x in col.items()} for col in a2.cols], m)
    b1 = ExactMatrix([{i: -x / s for i, x in col.items()} for col in a1.cols], k)
    noise = draw(_sparse_matrix(k, c))
    for col, extra in zip(b1.cols, noise.cols):
        if draw(st.booleans()):
            col.update(extra)
    return a2, a1, b2, b1


def _reference_product(*factors):
    """The columns of a2 a1 (+ b2 b1), one `combine` per column."""
    cols = [combine(col, factors[0].cols) for col in factors[1].cols]
    if len(factors) == 4:
        cols = [combine({0: GR_ONE, 1: GR_ONE}, [col, combine(other, factors[2].cols)])
                for col, other in zip(cols, factors[3].cols)]
    return cols


@settings(max_examples=300, deadline=None)
@given(_identity_factors())
def test_check_zero_matches_reference_product(factors):
    want = _reference_product(*factors)
    prod = exact_linalg.mat_mul(*factors)
    assert prod.nrows == factors[0].nrows and prod == ExactMatrix(want, prod.nrows)
    src = [(vec_gen(j + 1),) for j in range(factors[1].ncols)]
    tgt = [(form_gen(i + 1),) for i in range(factors[0].nrows)]
    hits = [(i, j) for j, col in enumerate(want) for i in col]
    if not hits:
        homology._check_zero("ident", "here", src, tgt, *factors)
        return
    i, j = min(hits)
    with pytest.raises(InternalInvariantError) as err:
        homology._check_zero("ident", "here", src, tgt, *factors)
    assert str(err.value) == (f"ident != 0 on here: entry {want[j][i]} from "
                              f"v{j + 1} to ow{i + 1}")


def test_product_zero_columns_cannot_be_written():
    # the zero columns of a product share one mapping, which is read-only
    a = ExactMatrix([{0: GR_ONE}, {}], 1)
    b = ExactMatrix([{1: GR_ONE}, {0: GR_ONE}, {}], 2)
    prod = exact_linalg.mat_mul(a, b)
    assert prod == ExactMatrix([{}, {0: GR_ONE}, {}], 1)
    for col in (prod.cols[0], prod.cols[2]):
        with pytest.raises(TypeError):
            col[0] = GR_ONE
    assert prod.cols[1] is not a.cols[0]
