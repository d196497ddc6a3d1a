"""End-to-end acceptance checks.

Every check is exact (zero tolerance) unless it states a float threshold.
Each test is one verdict line under pytest -v; the timed ones assert their
own wall-clock budget so a future regression shows up as a failure here
rather than as a slow suite.
"""

import math
import random
import time

import numpy as np

from nilpoisson.calculus import (
    CalculusContext,
    ad_images,
    apply_table,
    dbar,
    derivation_table,
    schouten,
)
from nilpoisson.catalog import kodaira, torus, tower
from nilpoisson.exact_linalg import combine
from nilpoisson.exterior import (
    MixedElement,
    element_entries,
    element_from_coords,
    form_gen,
    graded_monomials,
    vec_gen,
)
from nilpoisson.homology import (
    BigradedComplex,
    TotalComplex,
    d_bicomplex_crosscheck,
    degeneration_verdict,
    dolbeault_table,
    poisson_betti,
)
from nilpoisson.lambda_parser import parse_lambda
from nilpoisson.poisson import holomorphic_bivector_space, is_holomorphic_poisson, theorem2_lambda
from nilpoisson.scalars import GR_ONE, GaussRational, gauss
from test_exterior import scaled


def element(vs, fs, c=GR_ONE):
    mono = tuple(vec_gen(i) for i in vs) + tuple(form_gen(j) for j in fs)
    return MixedElement.term(mono, c)


def rand_element(rng, n):
    monos = graded_monomials(n, rng.randint(0, 2 * n))
    e = MixedElement.zero()
    for _ in range(rng.randint(1, 3)):
        e = e + MixedElement.term(rng.choice(monos), gauss(rng.randint(-3, 3), rng.randint(-3, 3)))
    return e


CATALOG_ALGEBRAS = [
    torus(1), torus(2), torus(3), torus(4),
    tower(2), tower(3), tower(4), tower(5),
    kodaira(),
]

THEOREM_FAMILY = [torus(2), torus(3), kodaira(), tower(2), tower(3), tower(4), tower(5)]


def test_tower4_counterexample_bivector_is_poisson(tower4_ctx, tower4_pi):
    cand = is_holomorphic_poisson(tower4_ctx, tower4_pi)
    assert cand.dbar_closed
    assert cand.schouten_square_zero
    assert cand.holomorphic_poisson


def test_tower4_counterexample_pinned_image_half(tower4_ctx, tower4_pi, tower4_bc):
    # ad_L(ow2^ow3) = dbar(-v3^ow3) under this package's normalization
    # (v_j = (x_j - i y_j)/2, d alpha(a, b) = -alpha([a, b]),
    # [v, ow_m] = iota_v d ow_m).  The pinned generator values give
    #   ad_L ow2 = v4^ow1,  ad_L ow3 = 2 v4^ow2,  dbar v3 = -v4^ow1,
    # and both operators are odd derivations, so
    #   ad_L(ow2^ow3) = v4^ow1^ow3 - ow2^(2 v4^ow2) = v4^ow1^ow3,
    #   dbar(c v3^ow3) = c dbar(v3)^ow3 = -c v4^ow1^ow3,
    # which forces c = -1.  The earlier expected primitive -1/2 v3^ow3
    # came from a reference convention (a 1/2 in a wedge or contraction
    # convention, or a rescaled L) that PAPER.md, which holds only the
    # abstract, does not let us check.
    src = element([], [2, 3])
    primitive = element([3], [3], -GR_ONE)
    assert schouten(tower4_ctx, tower4_pi, src) == dbar(tower4_ctx, primitive)
    # the same primitive closes the zig-zag that the verdict reports:
    # ow2^ow3 - primitive is the witness whose d_2 image is nonzero
    assert src - primitive == degeneration_verdict(tower4_bc).witness_source


def test_tower4_counterexample_image_is_exact(tower4_ctx, tower4_pi):
    lhs = schouten(tower4_ctx, tower4_pi, element([], [2, 3]))
    assert lhs == element([4], [1, 3])
    # the action lands in the image of dbar, with primitive -v3^ow3
    rhs_full = dbar(tower4_ctx, element([3], [3], -GR_ONE))
    assert lhs == rhs_full
    # and the half-scaled primitive -1/2 v3^ow3 of an unverified reference
    # convention (see the test above) gives exactly half of that
    half = GaussRational(1) / GaussRational(2)
    rhs_half = dbar(tower4_ctx, element([3], [3], -half))
    assert lhs == scaled(rhs_half, gauss(2))
    assert not lhs == rhs_half


def test_tower4_counterexample_second_page_fails():
    t0 = time.perf_counter()
    ctx = CalculusContext(tower(4))
    pi = parse_lambda("2 v1^v4 - v2^v3").bind(4)
    bc = BigradedComplex(ctx, pi)
    verdict = degeneration_verdict(bc)
    elapsed = time.perf_counter() - t0
    assert verdict.verdict == "fails-at-(2,0,2)"

    # drive the second-page differential on the class of ow2^ow3 directly
    page2 = verdict.pages.page(2)
    tc = verdict.pages.tc
    src = verdict.witness_source
    coords = element_entries(src, {m: i for i, m in enumerate(tc.bases[2])})
    cls = page2.cell(0, 2).proj.apply(coords)
    assert any(cls.values())
    out_cls = page2.differential(0, 2).apply(cls)
    assert any(out_cls.values())
    img = MixedElement.zero()
    for j, c in out_cls.items():
        img = img + scaled(
            element_from_coords(page2.cell(2, 1).reps[j], tc.bases[3]), c)
    # a nonzero rational multiple of v3^v4^ow2
    target_mono = (vec_gen(3), vec_gen(4), form_gen(2))
    assert set(img.terms) == {target_mono}
    mult = img.terms[target_mono]
    assert mult and mult.im == 0
    assert img == verdict.witness_image
    assert elapsed < 10.0


def test_tower5_central_bivector_truncates():
    t0 = time.perf_counter()
    ctx = CalculusContext(tower(5))
    lam = parse_lambda("v2^v5 - v3^v4").bind(5)
    assert not ad_images(ctx, lam)  # identically zero on every generator
    bc = BigradedComplex(ctx, lam)
    verdict = degeneration_verdict(bc)
    table = dolbeault_table(bc)
    for k in range(11):
        direct = sum(table[(p, k - p)].dim for p in range(6) if 0 <= k - p <= 5)
        assert verdict.hk_dims[k] == direct
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0


def test_degeneration_for_constructed_bivectors():
    t0 = time.perf_counter()
    for p in THEOREM_FAMILY:
        ctx = CalculusContext(p)
        cand = theorem2_lambda(ctx)
        checked = is_holomorphic_poisson(ctx, cand.bivector)
        assert checked.holomorphic_poisson, p.name
        bc = BigradedComplex(ctx, cand.bivector)
        verdict = degeneration_verdict(bc)
        assert verdict.verdict == "degenerates-at-E2", p.name
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0


def test_differential_identities_catalog():
    rng = random.Random(60450)
    for p in CATALOG_ALGEBRAS:
        ctx = CalculusContext(p)
        n = ctx.n
        gens = [element([i], []) for i in range(1, n + 1)]
        gens += [element([], [j]) for j in range(1, n + 1)]
        for g in gens:
            assert dbar(ctx, dbar(ctx, g)).is_zero(), p.name
        for _ in range(200):
            e = rand_element(rng, n)
            assert dbar(ctx, dbar(ctx, e)).is_zero(), p.name
        space = holomorphic_bivector_space(ctx)
        for cand in space.candidates:
            images = ad_images(ctx, cand.bivector)

            def ad_l(x):
                return apply_table(derivation_table(images, n), n, x)

            for k in range(2 * n + 1):
                for mono in graded_monomials(n, k):
                    x = MixedElement.term(mono, GR_ONE)
                    anti = dbar(ctx, ad_l(x)) + ad_l(dbar(ctx, x))
                    assert anti.is_zero(), (p.name, mono)
                    assert ad_l(ad_l(x)).is_zero(), (p.name, mono)


def test_double_complex_two_path_totals():
    for p in (kodaira(), tower(4)):
        ctx = CalculusContext(p)
        # the library raises unless its two paths agree; both must also
        # give the whole table's column
        table = dolbeault_table(BigradedComplex(ctx))
        for ell in (0, 1, 2):
            want = {m: table[(ell, m)].dim for m in range(ctx.n + 1)}
            assert d_bicomplex_crosscheck(ctx, ell) == want, (p.name, ell)


def test_einfinity_sums_match_total_cohomology():
    pairs = [(tower(4), parse_lambda("2 v1^v4 - v2^v3"))]
    pairs.append((tower(5), parse_lambda("v2^v5 - v3^v4")))
    for p in THEOREM_FAMILY:
        pairs.append((p, None))
    for p, expr in pairs:
        ctx = CalculusContext(p)
        lam = expr.bind(ctx.n) if expr is not None else theorem2_lambda(ctx).bivector
        bc = BigradedComplex(ctx, lam)
        verdict = degeneration_verdict(bc)
        einf = verdict.pages.pages[-1]
        betti = poisson_betti(verdict.pages.tc)
        for k in range(2 * ctx.n + 1):
            total = sum(einf.dim(pp, k - pp) for pp in range(ctx.n + 1))
            assert total == betti.get(k, 0), (p.name, k)


def test_torus_hodge_numbers_closed_form():
    for n in (1, 2, 3, 4):
        bc = BigradedComplex(CalculusContext(torus(n)))
        table = dolbeault_table(bc)
        for p in range(n + 1):
            for q in range(n + 1):
                assert table[(p, q)].dim == math.comb(n, p) * math.comb(n, q)


def test_abelian_row_zero_closed_form():
    for p in CATALOG_ALGEBRAS:
        ctx = CalculusContext(p)
        table = dolbeault_table(BigradedComplex(ctx))
        n = ctx.n
        for q in range(n + 1):
            assert table[(0, q)].dim == math.comb(n, q), (p.name, q)


def dense_array(m):
    """The float array of an ExactMatrix, built from its sparse columns."""
    arr = np.zeros((m.nrows, m.ncols), dtype=complex)
    for j, col in enumerate(m.cols):
        for i, x in col.items():
            arr[i, j] = complex(x)
    return arr


def test_float_rank_agrees_with_exact(tower4_bc, tower4_tc):
    def float_rank(m):
        if m.nrows == 0 or m.ncols == 0:
            return 0
        s = np.linalg.svd(dense_array(m), compute_uv=False)
        return int((s > 1e-8).sum())

    checked = 0
    for mats in (tower4_bc.dbar_mat, tower4_bc.ad_mat):
        for m in mats.values():
            assert m.rank() == float_rank(m)
            checked += 1
    for k, m in tower4_tc.dmat.items():
        assert m.rank() == float_rank(m)
        checked += 1
    assert checked > 40


def test_float_rank_agrees_with_exact_tower5():
    # the independent float oracle at the size the sparse kernel serves:
    # every D^k of tower(5) with the theorem-2 bivector, up to 252 x 210
    ctx = CalculusContext(tower(5))
    tc = TotalComplex(BigradedComplex(ctx, theorem2_lambda(ctx).bivector))
    checked = 0
    for k, m in tc.dmat.items():
        if m.nrows == 0 or m.ncols == 0:
            continue
        s = np.linalg.svd(dense_array(m), compute_uv=False)
        assert m.rank() == int((s > 1e-8).sum()), k
        checked += 1
    assert checked == 10


# The first d_3 on the n = 8 counterexample, pinned from the reduction with
# monic kept rows, eager image RREF and no clearing: its source is (2, 4),
# its target (5, 2), and it is the one length-3 pair there.  Its classes
# come from lazily built projections over non-monic kept columns.
TOWER8_D3_SOURCE = (
    '(1) v1^v3^v7^v8^ow5^ow6', '(3) v1^v4^v6^v8^ow5^ow6',
    '(-2/3) v1^v4^v7^ow1^ow4^ow8', '(4/3) v1^v4^v7^ow1^ow5^ow7',
    '(4/3) v1^v4^v7^ow2^ow3^ow8', '(-4/3) v1^v4^v7^ow2^ow4^ow7',
    '(4/3) v1^v4^v7^ow2^ow5^ow6', '(2/3) v1^v4^ow1^ow2^ow4^ow8',
    '(-1/3) v1^v4^ow1^ow2^ow5^ow7', '(-1) v1^v4^ow1^ow3^ow4^ow7',
    '(1) v1^v4^ow1^ow3^ow5^ow6', '(-7) v1^v5^v6^v7^ow5^ow6',
    '(2/3) v1^v5^v6^ow1^ow4^ow8', '(-4/3) v1^v5^v6^ow1^ow5^ow7',
    '(-4/3) v1^v5^v6^ow2^ow3^ow8', '(4/3) v1^v5^v6^ow2^ow4^ow7',
    '(-4/3) v1^v5^v6^ow2^ow5^ow6', '(-9/2) v2^v3^v6^v8^ow5^ow6',
    '(2/3) v2^v3^v7^ow1^ow4^ow8', '(-4/3) v2^v3^v7^ow1^ow5^ow7',
    '(-4/3) v2^v3^v7^ow2^ow3^ow8', '(4/3) v2^v3^v7^ow2^ow4^ow7',
    '(-4/3) v2^v3^v7^ow2^ow5^ow6', '(-2/3) v2^v3^ow1^ow2^ow4^ow8',
    '(1/3) v2^v3^ow1^ow2^ow5^ow7', '(1) v2^v3^ow1^ow3^ow4^ow7',
    '(-1) v2^v3^ow1^ow3^ow5^ow6', '(3/2) v2^v4^v5^v8^ow5^ow6',
    '(7/2) v2^v4^v6^v7^ow5^ow6', '(-1/3) v2^v4^v6^ow1^ow4^ow8',
    '(2/3) v2^v4^v6^ow1^ow5^ow7', '(2/3) v2^v4^v6^ow2^ow3^ow8',
    '(-2/3) v2^v4^v6^ow2^ow4^ow7', '(2/3) v2^v4^v6^ow2^ow5^ow6',
    '(-7/2) v3^v4^v5^v7^ow5^ow6', '(1/3) v3^v4^v5^ow1^ow4^ow8',
    '(-2/3) v3^v4^v5^ow1^ow5^ow7', '(-2/3) v3^v4^v5^ow2^ow3^ow8',
    '(2/3) v3^v4^v5^ow2^ow4^ow7', '(-2/3) v3^v4^v5^ow2^ow5^ow6',
)
TOWER8_D3_IMAGE = ("(-14) v1^v5^v6^v7^v8^ow4^ow6 + (7) v2^v4^v6^v7^v8^ow4^ow6"
                   " + (-7) v3^v4^v5^v7^v8^ow4^ow6")


def test_tower8_first_d3_pinned():
    ctx = CalculusContext(tower(8))
    lam = parse_lambda("2 v1^v8 - v2^v7 + v3^v6 - v4^v5").bind(8)
    t0 = time.perf_counter()
    verdict = degeneration_verdict(BigradedComplex(ctx, lam))
    assert verdict.verdict == "fails-at-(2,0,2)"
    assert str(verdict.witness_source) == "(1) v7^ow3 + (1) ow2^ow3"
    assert str(verdict.witness_image) == "(-2) v7^v8^ow2"
    result, tc = verdict.pages, verdict.pages.tc
    assert max(length for length, _, _ in result.pairs) == 3
    assert [pair for pair in result.pairs if pair[0] == 3 and pair[1] == (2, 4)] \
        == [(3, (2, 4), (5, 2))]
    page = result.page(3)
    mat = page.differential(2, 4)
    assert (mat.nrows, mat.ncols, mat.rank()) == (30, 51, 1)
    assert mat.cols[0] == {15: gauss(-14)}
    src = element_from_coords(page.cell(2, 4).reps[0], tc.bases[6])
    img = element_from_coords(combine(mat.cols[0], page.cell(5, 2).reps),
                              tc.bases[7])
    assert str(src) == " + ".join(TOWER8_D3_SOURCE)
    assert str(img) == TOWER8_D3_IMAGE
    assert time.perf_counter() - t0 < 60.0
