import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nilpoisson.homology as homology
from nilpoisson.calculus import (
    CalculusContext,
    ad,
    ad_images,
    apply_odd_derivation,
    dbar,
    dbar_lambda,
    derivation_matrix,
    schouten,
)
from nilpoisson.catalog import catalog_load, kodaira, torus, tower
from nilpoisson.errors import InternalInvariantError, NotAbelianError
from nilpoisson.exterior import (MixedElement, element_entries, form_gen,
                                 graded_monomials, vec_gen, wedge)
from nilpoisson.lambda_parser import parse_lambda
from nilpoisson.lie_structure import AlgebraPresentation, validate
from nilpoisson.scalars import GR_ONE, GR_ZERO, GaussRational, Rational, gauss


def vterm(*idx):
    return MixedElement.term(tuple(vec_gen(i) for i in idx), GR_ONE)


def fterm(*idx):
    return MixedElement.term(tuple(form_gen(j) for j in idx), GR_ONE)


def term(vs, fs, c=GR_ONE):
    if not isinstance(c, GaussRational):
        c = gauss(c)
    mono = tuple(vec_gen(i) for i in vs) + tuple(form_gen(j) for j in fs)
    return MixedElement.term(mono, c)


def paired_j_rows(n):
    z, one = Rational(0), Rational(1)
    rows = [[z] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        rows[2 * k][2 * k + 1] = -one
        rows[2 * k + 1][2 * k] = one
    return rows


def paired_frame_rows(n):
    half = GaussRational(Rational(1, 2))
    mihalf = GaussRational(Rational(0), Rational(-1, 2))
    return [{2 * k: half, 2 * k + 1: mihalf} for k in range(n)]


def iwasawa():
    """Step-2 example with integrable non-abelian structure: [v1,v2] = v3."""
    one = Rational(1)
    br = {
        (1, 3): {5: one},
        (1, 4): {6: one},
        (2, 3): {6: one},
        (2, 4): {5: -one},
    }
    return AlgebraPresentation(
        6, br, paired_j_rows(3), frame_rows=paired_frame_rows(3), name="iwasawa"
    )


def rand_homogeneous(rng, n, k):
    from nilpoisson.exterior import graded_monomials

    monos = graded_monomials(n, k)
    e = MixedElement.zero()
    for _ in range(rng.randint(1, 3)):
        c = gauss(rng.randint(-3, 3), rng.randint(-3, 3))
        e = e + MixedElement.term(rng.choice(monos), c)
    return e


def rand_mixed(rng, n):
    return rand_homogeneous(rng, n, rng.randint(0, 2 * n))


ALL_CONTEXTS = None


def contexts():
    global ALL_CONTEXTS
    if ALL_CONTEXTS is None:
        ALL_CONTEXTS = [
            CalculusContext(torus(2)),
            CalculusContext(tower(3)),
            CalculusContext(tower(4)),
            CalculusContext(kodaira()),
            CalculusContext(iwasawa()),
        ]
    return ALL_CONTEXTS


def test_iwasawa_is_integrable_not_abelian():
    rep = validate(iwasawa())
    assert rep.ok
    assert rep.integrable and not rep.abelian
    assert rep.step == 2


def test_dbar_generator_table_tower4():
    ctx = CalculusContext(tower(4))
    half = GaussRational(Rational(1, 2))
    assert dbar(ctx, vterm(1)) == term([2], [1], -half)
    assert dbar(ctx, vterm(2)) == -term([3], [1])
    assert dbar(ctx, vterm(3)) == -term([4], [1])
    assert dbar(ctx, vterm(4)).is_zero()
    for j in range(1, 5):
        assert dbar(ctx, fterm(j)).is_zero()
    # [v_k, ow_m]: v_k contracted into the (1,1) part of d ow_m
    assert ctx.bk_v_form == {(1, 2): term([], [1], -half),
                             (1, 3): -fterm(2), (1, 4): -fterm(3)}


def test_dbar_generator_table_iwasawa():
    ctx = CalculusContext(iwasawa())
    for i in range(1, 4):
        assert dbar(ctx, vterm(i)).is_zero()
    assert dbar(ctx, fterm(1)).is_zero()
    assert dbar(ctx, fterm(2)).is_zero()
    assert dbar(ctx, fterm(3)) == -fterm(1, 2)


def test_dbar_torus_vanishes():
    ctx = CalculusContext(torus(3))
    rng = random.Random(321)
    for _ in range(30):
        assert dbar(ctx, rand_mixed(rng, 3)).is_zero()


def test_dbar_wedge_pinned():
    ctx = CalculusContext(tower(4))
    # Leibniz collapses the half: dbar(v1^v2) = dbar(v1)^v2 - v1^dbar(v2)
    assert dbar(ctx, vterm(1, 2)) == term([1, 3], [1])


def test_dbar_squares_to_zero_random():
    rng = random.Random(140)
    for ctx in contexts():
        for _ in range(40):
            e = rand_mixed(rng, ctx.n)
            assert dbar(ctx, dbar(ctx, e)).is_zero()


def test_dbar_odd_leibniz_random():
    rng = random.Random(6174)
    for ctx in contexts():
        for _ in range(30):
            ka = rng.randint(0, 2 * ctx.n)
            a = rand_homogeneous(rng, ctx.n, ka)
            b = rand_mixed(rng, ctx.n)
            lhs = dbar(ctx, wedge(a, b))
            sign = gauss((-1) ** ka)
            rhs = wedge(dbar(ctx, a), b) + wedge(a, dbar(ctx, b)).scale(sign)
            assert lhs == rhs


def test_schouten_vector_pairs_vanish_abelian():
    rng = random.Random(5)
    for ctx in contexts():
        if not ctx.abelian:
            continue
        for i in range(1, ctx.n + 1):
            for j in range(1, ctx.n + 1):
                assert schouten(ctx, vterm(i), vterm(j)).is_zero()


def test_schouten_iwasawa_vector_pair():
    ctx = CalculusContext(iwasawa())
    assert schouten(ctx, vterm(1), vterm(2)) == vterm(3)
    assert schouten(ctx, vterm(2), vterm(1)) == -vterm(3)


def test_schouten_form_pairs_vanish():
    rng = random.Random(6)
    for ctx in contexts():
        for _ in range(10):
            a = fterm(rng.randint(1, ctx.n))
            b = fterm(rng.randint(1, ctx.n))
            assert schouten(ctx, a, b).is_zero()


def test_schouten_pinned_tower4():
    ctx = CalculusContext(tower(4))
    half = GaussRational(Rational(1, 2))
    assert schouten(ctx, vterm(1, 4), fterm(2)) == term([4], [1], half)
    for v in (1, 2, 3):
        assert schouten(ctx, vterm(1, 4), term([v], [3])) == -term([v, 4], [2])
    assert schouten(ctx, vterm(1, 4), term([4], [3])).is_zero()


def test_schouten_graded_antisymmetry_random():
    rng = random.Random(31415)
    for ctx in contexts():
        for _ in range(25):
            ka = rng.randint(1, 3)
            kb = rng.randint(1, 3)
            a = rand_homogeneous(rng, ctx.n, ka)
            b = rand_homogeneous(rng, ctx.n, kb)
            lhs = schouten(ctx, a, b)
            rhs = schouten(ctx, b, a).scale(gauss(-((-1) ** ((ka - 1) * (kb - 1)))))
            assert lhs == rhs


def test_ad_is_odd_derivation():
    ctx = CalculusContext(tower(4))
    pi = parse_lambda("2 v1^v4 - v2^v3").bind(4)
    rng = random.Random(8)
    for _ in range(25):
        ka = rng.randint(0, 4)
        a = rand_homogeneous(rng, 4, ka)
        b = rand_mixed(rng, 4)
        lhs = ad(ctx, pi, wedge(a, b))
        rhs = wedge(ad(ctx, pi, a), b) + wedge(a, ad(ctx, pi, b)).scale(gauss((-1) ** ka))
        assert lhs == rhs


def test_ad_images_agree_with_schouten():
    ctx = CalculusContext(tower(4))
    pi = parse_lambda("2 v1^v4 - v2^v3").bind(4)
    images = ad_images(ctx, pi)
    rng = random.Random(9)
    for _ in range(20):
        e = rand_mixed(rng, 4)
        assert apply_odd_derivation(images, e) == ad(ctx, pi, e)


def test_ad_pi_pinned_values():
    ctx = CalculusContext(tower(4))
    pi = parse_lambda("2 v1^v4 - v2^v3").bind(4)
    assert ad(ctx, pi, fterm(1)).is_zero()
    assert ad(ctx, pi, fterm(2)) == term([4], [1])
    assert ad(ctx, pi, fterm(3)) == term([4], [2], gauss(2))
    assert ad(ctx, pi, fterm(4)) == term([4], [3], gauss(2))
    assert dbar(ctx, pi).is_zero()
    assert schouten(ctx, pi, pi).is_zero()


def test_ad_pi_on_vector_forms():
    ctx = CalculusContext(tower(4))
    pi = parse_lambda("2 v1^v4 - v2^v3").bind(4)
    # ow1 kills the action; ow2 onward climbs the tower
    for v in range(1, 5):
        assert ad(ctx, pi, term([v], [1])).is_zero()
        assert ad(ctx, pi, term([4], [v])).is_zero()
    assert ad(ctx, pi, term([1], [3])) == term([1, 4], [2], gauss(-2))
    assert ad(ctx, pi, term([3], [2])) == -term([3, 4], [1])


def test_tower5_lambda_is_central():
    ctx = CalculusContext(tower(5))
    lam = parse_lambda("v2^v5 - v3^v4").bind(5)
    assert dbar(ctx, lam).is_zero()
    assert not ad_images(ctx, lam)
    rng = random.Random(10)
    for _ in range(15):
        assert ad(ctx, lam, rand_mixed(rng, 5)).is_zero()


def test_dbar_lambda_is_sum():
    ctx = CalculusContext(tower(4))
    pi = parse_lambda("2 v1^v4 - v2^v3").bind(4)
    rng = random.Random(11)
    for _ in range(20):
        e = rand_mixed(rng, 4)
        assert dbar_lambda(ctx, pi, e) == dbar(ctx, e) + ad(ctx, pi, e)


def leibniz_reference(images, e):
    """The odd Leibniz rule written out with MixedElement wedges."""
    out = MixedElement()
    for mono, coeff in e.terms.items():
        for t, g in enumerate(mono):
            img = images.get(g, MixedElement())
            pre = MixedElement.term(mono[:t], coeff if t % 2 == 0 else -coeff)
            post = MixedElement.term(mono[t + 1:], GR_ONE)
            out = out + pre.wedge(img).wedge(post)
    return out


@st.composite
def _derivation_cases(draw):
    n = draw(st.integers(2, 5))
    codes = [vec_gen(i) for i in range(1, n + 1)]
    codes += [form_gen(j) for j in range(1, n + 1)]
    coeffs = st.builds(gauss, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)

    def elements(max_degree):
        monos = st.sets(st.sampled_from(codes), max_size=max_degree).map(
            lambda s: tuple(sorted(s)))
        return st.dictionaries(monos, coeffs, max_size=4).map(MixedElement)

    # images of any degree, often sharing a factor with the monomial they
    # are merged into, so that repeated factors must cancel
    images = draw(st.dictionaries(st.sampled_from(codes), elements(3),
                                  max_size=2 * n))
    return n, images, draw(elements(2 * n))


@settings(max_examples=150, deadline=None)
@given(_derivation_cases())
# two terms of D(v1^v2) land on v1^v2^ow1 and cancel
@example((2, {vec_gen(1): term([1], [1]), vec_gen(2): -term([2], [1])},
          vterm(1, 2)))
def test_derivation_kernel_matches_odd_leibniz(case):
    n, images, e = case
    assert apply_odd_derivation(images, e) == leibniz_reference(images, e)
    everything = [m for k in range(2 * n + 1) for m in graded_monomials(n, k)]
    index = {m: i for i, m in enumerate(everything)}
    source = sorted(e.terms)
    mat = derivation_matrix(images, source, index, "test")
    assert mat.nrows == len(everything)
    for mono, col in zip(source, mat.cols):
        want = leibniz_reference(images, MixedElement.term(mono, GR_ONE))
        assert col == element_entries(want, index)


def test_derivation_matrix_names_stray_monomial():
    ctx = CalculusContext(tower(4))
    with pytest.raises(InternalInvariantError,
                       match=r"^dbar: monomial v2\^ow1 outside basis$"):
        derivation_matrix(ctx.dbar_images, [(vec_gen(1),)], {}, "dbar")


def test_center_split_tower4(monkeypatch):
    seen = {}

    def spy(abc, ell, a):
        seen.update(abc=abc, a=a)
        return split(abc, ell, a)

    split = homology._center_split
    monkeypatch.setattr(homology, "_center_split", spy)
    homology.d_bicomplex_crosscheck(CalculusContext(tower(4)), 1)
    abc, a = seen["abc"], seen["a"]
    # the adapted frame puts the (1,0) center v4 first: v4, v1, v2, v3 are
    # its generators 1, 2, 3, 4, and the forms follow the same order
    assert a == 1
    c, t = split(abc, 1, a)[0]
    src, tgt = abc.basis[(1, 0)], abc.basis[(1, 1)]

    def col(mat, i):
        return {tgt[r]: x for r, x in mat.cols[src.index((vec_gen(i),))].items()}

    # dbar(v3) = -v4^ow1 is all central
    assert col(c, 4) == {(vec_gen(1), form_gen(2)): -GR_ONE}
    assert not col(t, 4)
    # dbar(v1) = -1/2 v2^ow1 is all complement
    assert not col(c, 2)
    assert col(t, 2) == {(vec_gen(3), form_gen(2)): gauss(Rational(-1, 2))}
    # dbar(v4) = 0
    assert not col(c, 1) and not col(t, 1)
    # the two parts always reassemble dbar, column by column
    for ell in range(5):
        for m, (c, t) in split(abc, ell, a).items():
            for cc, tc, dc in zip(c.cols, t.cols, abc.dbar_mat[(ell, m)].cols):
                assert not cc.keys() & tc.keys()
                assert {**cc, **tc} == dc


def test_crosscheck_rejects_non_abelian():
    with pytest.raises(NotAbelianError):
        homology.d_bicomplex_crosscheck(CalculusContext(iwasawa()), 1)


def test_conjugated_presentation_same_dbar_square():
    # random rational change of real basis keeps every identity exact
    from test_lie_structure import conjugated

    rng = random.Random(13)
    for base in (tower(3), kodaira()):
        q = conjugated(base, rng)
        ctx = CalculusContext(q)
        for _ in range(20):
            e = rand_mixed(rng, ctx.n)
            assert dbar(ctx, dbar(ctx, e)).is_zero()


def test_direct_sum_blocks_do_not_mix():
    # tower(2) + torus(1) glued block-diagonally: dbar of a first-block
    # generator stays inside the first block's generators
    t = tower(2)
    one = Rational(1)
    br = dict(t.brackets)
    jrows = paired_j_rows(3)
    frame = paired_frame_rows(3)
    p = AlgebraPresentation(6, br, jrows, frame_rows=frame, name="sum")
    assert validate(p).ok
    ctx = CalculusContext(p)
    img = dbar(ctx, vterm(1))
    for mono in img.terms:
        assert all(code != vec_gen(3) and code != form_gen(3) for code in mono)
    assert dbar(ctx, vterm(3)).is_zero()
    assert dbar(ctx, fterm(3)).is_zero()
