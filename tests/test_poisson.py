import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpoisson.calculus import CalculusContext, ad_images, dbar, schouten
from nilpoisson.catalog import kodaira, torus, tower
from nilpoisson.errors import NotAbelianError, ValidationError
from nilpoisson.exterior import MixedElement, form_gen, vec_gen
from nilpoisson.homology import BigradedComplex
from nilpoisson.lambda_parser import parse_lambda
from nilpoisson.poisson import (
    holomorphic_bivector_space,
    is_holomorphic_poisson,
    theorem2_lambda,
)
from nilpoisson.scalars import GR_I, GR_ONE, Rational, gauss

from test_calculus import iwasawa
from test_exterior import scaled


def test_pi_flags(tower4_ctx, tower4_pi):
    cand = is_holomorphic_poisson(tower4_ctx, tower4_pi)
    assert cand.dbar_closed
    assert cand.schouten_square_zero
    assert not cand.ad_identically_zero
    assert cand.holomorphic_poisson
    assert cand.bivector == tower4_pi


def test_tower5_central_flags():
    ctx = CalculusContext(tower(5))
    lam = parse_lambda("v2^v5 - v3^v4").bind(5)
    cand = is_holomorphic_poisson(ctx, lam)
    assert cand.dbar_closed
    assert cand.schouten_square_zero
    assert cand.ad_identically_zero
    assert cand.holomorphic_poisson


def test_non_closed_bivector_flags(tower4_ctx):
    cand = is_holomorphic_poisson(tower4_ctx, parse_lambda("v1^v2").bind(4))
    assert not cand.dbar_closed
    assert not cand.holomorphic_poisson


def test_rejects_wrong_bidegree(tower4_ctx):
    # both entry points, with one text
    mixed = MixedElement.term((vec_gen(1), form_gen(2)), GR_ONE)
    inhomogeneous = parse_lambda("v1^v2").bind(4) + MixedElement.term((vec_gen(1),), GR_ONE)
    for check in (is_holomorphic_poisson, BigradedComplex):
        for lam in (mixed, inhomogeneous):
            with pytest.raises(ValidationError) as info:
                check(tower4_ctx, lam)
            assert str(info.value) == "lam must be a homogeneous (2,0) bivector"


def test_closed_non_poisson_flags():
    ctx = CalculusContext(iwasawa())
    cand = is_holomorphic_poisson(ctx, parse_lambda("v1^v2").bind(3))
    assert cand.dbar_closed
    assert not cand.schouten_square_zero
    assert not cand.holomorphic_poisson


def test_bivector_space_torus():
    import math

    for n in (2, 3, 4):
        ctx = CalculusContext(torus(n))
        sp = holomorphic_bivector_space(ctx)
        assert len(sp.basis_monomials) == math.comb(n, 2)
        assert sp.dim == math.comb(n, 2)
        for cand in sp.candidates:
            assert cand.holomorphic_poisson


def test_bivector_space_tower4(tower4_ctx, tower4_pi):
    sp = holomorphic_bivector_space(tower4_ctx)
    assert sp.dim == 2
    assert sp.contains(tower4_pi)
    assert sp.contains(parse_lambda("v3^v4").bind(4))
    assert not sp.contains(parse_lambda("v1^v2").bind(4))
    # scaling and sums stay inside
    assert sp.contains(scaled(tower4_pi, gauss(Rational(3, 7), 1)))


def test_bivector_space_kodaira(kodaira_ctx):
    sp = holomorphic_bivector_space(kodaira_ctx)
    assert sp.dim == 1
    assert sp.contains(parse_lambda("v1^v2").bind(2))


def test_abelian_closed_implies_square_zero():
    # over an abelian structure every closed (2,0) bivector already squares
    # to zero; the space builder relies on it, verify against schouten
    for p in (tower(4), tower(5), torus(3)):
        ctx = CalculusContext(p)
        sp = holomorphic_bivector_space(ctx)
        for cand in sp.candidates:
            assert cand.dbar_closed
            assert cand.schouten_square_zero
            assert schouten(ctx, cand.bivector, cand.bivector).is_zero()


def test_theorem2_catalog_verdicts():
    expected = {
        "torus2": (torus(2), {(vec_gen(1), vec_gen(2)): GR_ONE}),
        "torus3": (torus(3), {(vec_gen(1), vec_gen(2)): GR_ONE}),
        "tower2": (tower(2), {(vec_gen(1), vec_gen(2)): -GR_ONE}),
        "tower3": (tower(3), {(vec_gen(2), vec_gen(3)): -GR_ONE}),
        "tower4": (tower(4), {(vec_gen(3), vec_gen(4)): -GR_ONE}),
        "tower5": (tower(5), {(vec_gen(4), vec_gen(5)): -GR_ONE}),
        "kodaira": (kodaira(), {(vec_gen(1), vec_gen(2)): -GR_ONE}),
    }
    for name, (p, terms) in expected.items():
        ctx = CalculusContext(p)
        cand = theorem2_lambda(ctx)
        assert cand.bivector.terms == terms, name
        assert cand.holomorphic_poisson, name
        assert cand.dbar_closed and cand.schouten_square_zero, name


def test_theorem2_kodaira_exact_real_form(kodaira_ctx):
    # -v1^v2 is (e3 - i e4) ^ (e1 - i e2) / 4 over the real basis
    fr = kodaira_ctx.frame
    mi = -GR_I
    u = {2: GR_ONE, 3: mi}  # e3 - i e4
    w = {0: GR_ONE, 1: mi}  # e1 - i e2
    cu = fr.coords_10(u)
    cw = fr.coords_10(w)
    a = MixedElement.vector(cu)
    b = MixedElement.vector(cw)
    quarter = gauss(Rational(1, 4))
    built = scaled(a.wedge(b), quarter)
    cand = theorem2_lambda(kodaira_ctx)
    assert cand.bivector == built


def test_theorem2_wedge_mechanism():
    # for the one-dimensional deep layers the pick is (top central) ^ (one
    # level up); closure holds because dbar of the upper factor is a
    # multiple of the central one
    for p in (tower(3), tower(4), tower(5), kodaira()):
        ctx = CalculusContext(p)
        n = ctx.n
        c = MixedElement.term((vec_gen(n),), GR_ONE)
        v = MixedElement.term((vec_gen(n - 1),), GR_ONE)
        assert dbar(ctx, c).is_zero()
        assert c.wedge(dbar(ctx, v)).is_zero()
        assert dbar(ctx, c.wedge(v)).is_zero()


def test_theorem2_needs_two_dimensions():
    with pytest.raises(ValidationError):
        theorem2_lambda(CalculusContext(torus(1)))


def test_theorem2_rejects_non_abelian():
    with pytest.raises(NotAbelianError):
        theorem2_lambda(CalculusContext(iwasawa()))


def test_bivector_space_iwasawa_filters_square():
    # non-abelian path must verify square-zero candidate by candidate
    ctx = CalculusContext(iwasawa())
    sp = holomorphic_bivector_space(ctx)
    for cand in sp.candidates:
        assert cand.dbar_closed
        assert cand.schouten_square_zero


# -- the tower family's candidates (ROADMAP item 7) -------------------------

@functools.lru_cache(maxsize=None)
def tower_space(n):
    ctx = CalculusContext(tower(n))
    return ctx, holomorphic_bivector_space(ctx)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_odd_tower_candidates_act_trivially(n):
    # so E_1 = E_infinity for every holomorphic Poisson structure there
    _, sp = tower_space(n)
    assert sp.candidates
    assert all(cand.ad_identically_zero for cand in sp.candidates)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_even_tower_acting_candidate_is_the_alternating_sum(n):
    # half of 2 v1^vn - v2^v(n-1) + v3^v(n-2) - ..., the only candidate
    # with ad != 0
    _, sp = tower_space(n)
    acting = [c.bivector for c in sp.candidates if not c.ad_identically_zero]
    terms = [f"2 v1^v{n}"] + [f"{'+' if k % 2 else '-'} v{k}^v{n + 1 - k}"
                              for k in range(2, n // 2 + 1)]
    alternating = parse_lambda(" ".join(terms)).bind(n)
    assert acting == [scaled(alternating, gauss(Rational(1, 2)))]


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_odd_tower_combinations_act_trivially(n, data):
    ctx, sp = tower_space(n)
    coeffs = data.draw(st.lists(
        st.builds(gauss, st.integers(-3, 3), st.integers(-3, 3)),
        min_size=len(sp.candidates), max_size=len(sp.candidates)))
    lam = MixedElement()
    for z, cand in zip(coeffs, sp.candidates):
        lam = lam + scaled(cand.bivector, z)
    assert ad_images(ctx, lam) == {}
