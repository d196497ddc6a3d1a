import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nilpoisson.homology as homology
from nilpoisson.calculus import (
    CalculusContext,
    _leibniz,
    ad_images,
    apply_table,
    dbar,
    dbar_cell,
    dbar_images,
    derivation_matrix,
    derivation_table,
    schouten,
)
from nilpoisson.catalog import catalog_load, kodaira, torus, tower
from nilpoisson.errors import InternalInvariantError, NotAbelianError
from nilpoisson.exterior import (FORM_BASE, CellBasis, MixedElement,
                                 cell_monomials, element_entries, form_gen,
                                 mask_mono, mono_bidegree, mono_mask,
                                 mono_str, subset_masks, vec_gen, wedge_mono)
from nilpoisson.homology import BigradedComplex
from nilpoisson.lambda_parser import parse_lambda
from nilpoisson.lie_structure import AlgebraPresentation, validate
from nilpoisson.poisson import holomorphic_bivector_space
from nilpoisson.scalars import GR_ONE, GR_ZERO, GaussRational, Rational, gauss
from test_exterior import scaled
from test_lie_structure import conjugated


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
    # [v_k, ow_m]: v_k contracted into the (1,1) part of d ow_m, and
    # [ow_m, v_k] = -[v_k, ow_m]; every other generator bracket is zero
    v1 = vec_gen(1)
    row = {form_gen(2): term([], [1], -half), form_gen(3): -fterm(2),
           form_gen(4): -fterm(3)}
    assert dbar_images(ctx.frame)[1] == {
        v1: row, vec_gen(2): {}, vec_gen(3): {}, vec_gen(4): {},
        form_gen(1): {}, **{g: {v1: -x} for g, x in row.items()}}


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
            lhs = dbar(ctx, a.wedge(b))
            sign = gauss((-1) ** ka)
            rhs = dbar(ctx, a).wedge(b) + scaled(a.wedge(dbar(ctx, b)), sign)
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
            rhs = scaled(schouten(ctx, b, a),
                         gauss(-((-1) ** ((ka - 1) * (kb - 1)))))
            assert lhs == rhs


def test_ad_is_odd_derivation():
    ctx = CalculusContext(tower(4))
    pi = parse_lambda("2 v1^v4 - v2^v3").bind(4)
    rng = random.Random(8)
    for _ in range(25):
        ka = rng.randint(0, 4)
        a = rand_homogeneous(rng, 4, ka)
        b = rand_mixed(rng, 4)
        lhs = schouten(ctx, pi, a.wedge(b))
        rhs = schouten(ctx, pi, a).wedge(b) + scaled(
            a.wedge(schouten(ctx, pi, b)), gauss((-1) ** ka))
        assert lhs == rhs


def generator_bracket(ctx, g, h):
    """[g, h] of two generators, straight from the frame: the Lie bracket of
    two vectors, the Lie derivative
    [v_k, ow_m] = L_(v_k) ow_m = -sum_j ow_m([v_k, vbar_j]) ow_j,
    graded antisymmetry [ow_m, v_k] = -[v_k, ow_m], and [ow, ow] = 0."""
    if g >= FORM_BASE:
        return MixedElement() if h >= FORM_BASE else -generator_bracket(ctx, h, g)
    if h < FORM_BASE:
        if g == h:
            return MixedElement()
        if g > h:
            return -generator_bracket(ctx, h, g)
        return MixedElement.vector(ctx.frame.bracket_vv[(g, h)])
    m = h - FORM_BASE - 1
    vvbar = ctx.frame.bracket_vvbar
    return MixedElement({(form_gen(j),): -vvbar[(g, j)][1][m]
                         for j in range(1, ctx.n + 1) if m in vvbar[(g, j)][1]})


def schouten_reference(ctx, a, b):
    """The textbook bracket of monomials a_1 ... a_k and b_1 ... b_l,
    sum_(i,j) (-1)^(i+j) [a_i, b_j] ^ (a without a_i) ^ (b without b_j),
    extended bilinearly."""
    out = MixedElement()
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            for i, x in enumerate(ma):
                rest_a = MixedElement.term(ma[:i] + ma[i + 1:], GR_ONE)
                for j, y in enumerate(mb):
                    rest_b = MixedElement.term(mb[:j] + mb[j + 1:], GR_ONE)
                    c = ca * cb if (i + j) % 2 == 0 else -(ca * cb)
                    out = out + scaled(generator_bracket(ctx, x, y), c).wedge(
                        rest_a).wedge(rest_b)
    return out


BRACKET_CONTEXTS = None


def bracket_contexts():
    """Every context of `contexts()`, Iwasawa included, and tower:4 in a
    random rational basis."""
    global BRACKET_CONTEXTS
    if BRACKET_CONTEXTS is None:
        BRACKET_CONTEXTS = contexts() + [
            CalculusContext(conjugated(tower(4), random.Random(29)))]
    return BRACKET_CONTEXTS


@st.composite
def _bracket_cases(draw):
    k = draw(st.integers(0, len(bracket_contexts()) - 1))
    n = bracket_contexts()[k].n
    codes = [vec_gen(i) for i in range(1, n + 1)]
    codes += [form_gen(j) for j in range(1, n + 1)]
    coeffs = st.builds(gauss, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)

    def monomials(sizes):
        return sizes.flatmap(lambda d: st.sets(
            st.sampled_from(codes), min_size=d, max_size=d).map(
                lambda s: tuple(sorted(s))))

    degrees = st.integers(0, 2 * n)
    # homogeneous: one degree for every term; mixed: a degree per term
    homogeneous = degrees.flatmap(lambda d: st.dictionaries(
        monomials(st.just(d)), coeffs, max_size=3))
    mixed = st.dictionaries(monomials(degrees), coeffs, max_size=3)
    elements = st.one_of(homogeneous, mixed).map(MixedElement)
    return k, draw(elements), draw(elements)


@settings(max_examples=150, deadline=None)
@given(_bracket_cases())
# [v1, ow2 ^ ow4] on tower:4: the even rule for [v1, .] gives
# -1/2 ow1 ^ ow4 - ow2 ^ ow3, the odd one flips the second term
@example((2, vterm(1), fterm(2, 4)))
def test_schouten_matches_textbook_formula(case):
    k, a, b = case
    ctx = bracket_contexts()[k]
    assert schouten(ctx, a, b) == schouten_reference(ctx, a, b)


def test_ad_pi_pinned_values():
    ctx = CalculusContext(tower(4))
    pi = parse_lambda("2 v1^v4 - v2^v3").bind(4)
    assert schouten(ctx, pi, fterm(1)).is_zero()
    assert schouten(ctx, pi, fterm(2)) == term([4], [1])
    assert schouten(ctx, pi, fterm(3)) == term([4], [2], gauss(2))
    assert schouten(ctx, pi, fterm(4)) == term([4], [3], gauss(2))
    assert dbar(ctx, pi).is_zero()
    assert schouten(ctx, pi, pi).is_zero()


def test_ad_pi_on_vector_forms():
    ctx = CalculusContext(tower(4))
    pi = parse_lambda("2 v1^v4 - v2^v3").bind(4)
    # ow1 kills the action; ow2 onward climbs the tower
    for v in range(1, 5):
        assert schouten(ctx, pi, term([v], [1])).is_zero()
        assert schouten(ctx, pi, term([4], [v])).is_zero()
    assert schouten(ctx, pi, term([1], [3])) == term([1, 4], [2], gauss(-2))
    assert schouten(ctx, pi, term([3], [2])) == -term([3, 4], [1])


def test_tower5_lambda_is_central():
    ctx = CalculusContext(tower(5))
    lam = parse_lambda("v2^v5 - v3^v4").bind(5)
    assert dbar(ctx, lam).is_zero()
    assert not ad_images(ctx, lam)
    rng = random.Random(10)
    for _ in range(15):
        assert schouten(ctx, lam, rand_mixed(rng, 5)).is_zero()


def leibniz_reference(images, e):
    """The graded Leibniz rule written out with MixedElement wedges: an
    image term I of g_t contributes
    (-1)^((|I|-1)(t-1)) g_1 ... g_(t-1) I g_(t+1) ... g_k."""
    out = MixedElement()
    for mono, coeff in e.terms.items():
        for t, g in enumerate(mono):
            post = MixedElement.term(mono[t + 1:], GR_ONE)
            for img, c in images.get(g, MixedElement()).terms.items():
                c = coeff * c if t * (len(img) - 1) % 2 == 0 else -(coeff * c)
                pre = MixedElement.term(mono[:t], c)
                out = out + pre.wedge(MixedElement.term(img, GR_ONE)).wedge(post)
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

    # images of any degree, odd and even, often sharing a factor with the
    # monomial they are merged into, so that repeated factors must cancel
    images = draw(st.dictionaries(st.sampled_from(codes), elements(3),
                                  max_size=2 * n))
    return n, images, draw(elements(2 * n))


def cell_masks(n, p, q):
    """The masks of `cell_monomials(n, p, q)`, built from the half tables:
    vector half outer, form half inner."""
    if p < 0 or q < 0:
        return []
    return [v | f << n for v in subset_masks(n, p) for f in subset_masks(n, q)]


class _CellColumn(dict):
    """A column of the walk: a monomial outside the target cell raises its
    KeyError when it is first met, before anything cancels it."""

    def __init__(self, index):
        super().__init__()
        self.index = index

    def __setitem__(self, mask, c):
        if mask not in self.index:
            raise KeyError(mask)
        super().__setitem__(mask, c)


def walk_matrix(table, n, source, target, where="test"):
    """The cell matrix as the per-source walk built it: `_leibniz` once per
    source mask, each row looked up in the target cell's index, a stray
    monomial named from the index's KeyError."""
    index = {m: i for i, m in enumerate(cell_masks(n, *target))}
    cols = []
    for src in cell_masks(n, *source):
        col = _CellColumn(index)
        try:
            _leibniz(table, src, GR_ONE, col)
        except KeyError as exc:
            raise InternalInvariantError(
                f"{where}: monomial {mono_str(mask_mono(exc.args[0], n))} "
                "outside basis") from None
        cols.append({index[m]: c for m, c in col.items()})
    return cols, len(index)


def _term_shift(g, image):
    """The bidegree shift of a generator image term."""
    p, q = mono_bidegree(image)
    return (p - 1, q) if g < FORM_BASE else (p, q - 1)


@settings(max_examples=150, deadline=None)
@given(_derivation_cases())
# two terms of D(v1^v2) land on v1^v2^ow1 and cancel
@example((2, {vec_gen(1): term([1], [1]), vec_gen(2): -term([2], [1])},
          vterm(1, 2)))
def test_derivation_kernel_matches_graded_leibniz(case):
    n, images, e = case
    assert apply_table(derivation_table(images, n), n, e) \
        == leibniz_reference(images, e)
    # D is linear in its images, and the terms of one bidegree shift map
    # every cell into one cell
    shifts = {}
    for g, img in images.items():
        for mono, c in img.terms.items():
            part = shifts.setdefault(_term_shift(g, mono), {})
            part[g] = part.get(g, MixedElement()) + MixedElement.term(mono, c)
    cells = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    ref = {m: leibniz_reference(images, MixedElement.term(m, GR_ONE))
           for p, q in cells for m in cell_monomials(n, p, q)}
    for (dp, dq), part in shifts.items():
        table = derivation_table(part, n)
        for p, q in cells:
            target = cell_monomials(n, p + dp, q + dq)
            index = {m: i for i, m in enumerate(target)}
            mat = derivation_matrix(table, n, (p, q), (p + dp, q + dq), "test")
            assert mat.nrows == len(target)
            assert mat.ncols == len(cell_monomials(n, p, q))
            for mono, col in zip(cell_monomials(n, p, q), mat.cols):
                one = MixedElement.term(mono, GR_ONE)
                want = MixedElement({m: c for m, c in ref[mono].terms.items()
                                     if m in index})
                assert col == element_entries(want, index)
                assert col == element_entries(apply_table(table, n, one), index)


@settings(max_examples=100, deadline=None)
@given(_derivation_cases())
def test_derivation_matrix_names_the_walks_stray_monomial(case):
    # from any cell into any other, the half assembly meets a stray
    # monomial exactly when the walk does, and names the same one
    n, images, _ = case
    table = derivation_table(images, n)
    cells = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    for source in cells:
        for target in cells:
            try:
                want = walk_matrix(table, n, source, target)
            except InternalInvariantError as exc:
                with pytest.raises(InternalInvariantError) as got:
                    derivation_matrix(table, n, source, target, "test")
                assert str(got.value) == str(exc)
                continue
            mat = derivation_matrix(table, n, source, target, "test")
            assert ([list(c.items()) for c in mat.cols], mat.nrows) == \
                ([list(c.items()) for c in want[0]], want[1])


def test_derivation_matrix_names_stray_monomial():
    ctx = CalculusContext(tower(4))
    with pytest.raises(InternalInvariantError,
                       match=r"^dbar: monomial v2\^ow1 outside basis$"):
        derivation_matrix(ctx.dbar_table, 4, (1, 0), (2, 0), "dbar")


def _assert_cells_match_walk(ctx, lam, bc=None):
    """Every dbar and ad_lam cell matrix, entries in insertion order,
    against the per-source walk; and those of bc, where given, against the
    same (a matrix bc does not store is zero)."""
    n = ctx.n
    tables = [("dbar", ctx.dbar_table, (0, 1), bc and bc.dbar_mat),
              ("ad_lam", derivation_table(ad_images(ctx, lam), n), (1, 0),
               bc and bc.ad_mat)]
    for where, table, (dp, dq), stored in tables:
        for p in range(n + 1):
            for q in range(n + 1):
                target = (p + dp, q + dq)
                cols, nrows = walk_matrix(table, n, (p, q), target, where)
                want = [list(col.items()) for col in cols]
                mat = derivation_matrix(table, n, (p, q), target, where)
                assert mat.nrows == nrows
                assert [list(col.items()) for col in mat.cols] == want
                if stored is None or (p, q) not in stored:
                    assert stored is None or not any(want)
                    continue
                assert stored[(p, q)].nrows == nrows
                assert [list(col.items()) for col in stored[(p, q)].cols] == want


@pytest.mark.parametrize("name, lam", [
    ("kodaira", "i v1^v2"),
    ("tower:4", "2 v1^v4 - v2^v3"),
    ("tower:6", "2 v1^v6 - v2^v5 + v3^v4"),
    ("torus:4", None),
])
def test_half_assembly_matches_walk(name, lam):
    ctx = CalculusContext(catalog_load(name))
    lam = parse_lambda(lam).bind(ctx.n) if lam else MixedElement()
    _assert_cells_match_walk(ctx, lam, BigradedComplex(ctx, lam))


def test_half_assembly_matches_walk_on_iwasawa():
    # dbar has an image on a form generator; v1^v2 is closed but not
    # Poisson, which the walk comparison does not need
    ctx = CalculusContext(iwasawa())
    assert any(g >= FORM_BASE for g in dbar_images(ctx.frame)[0])
    _assert_cells_match_walk(ctx, vterm(1, 2))


@settings(max_examples=4, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32),
       st.lists(st.builds(gauss, st.integers(-3, 3), st.integers(-3, 3)),
                min_size=2, max_size=2))
def test_half_assembly_matches_walk_in_random_frames(n, seed, coeffs):
    # tower:n in a random rational basis, lam a random Gaussian combination
    # of its Poisson candidates
    ctx = CalculusContext(conjugated(tower(n), random.Random(seed)))
    lam = MixedElement()
    for cand, c in zip(holomorphic_bivector_space(ctx).candidates, coeffs):
        lam = lam + scaled(cand.bivector, c)
    _assert_cells_match_walk(ctx, lam, BigradedComplex(ctx, lam))


def _cell_matrix_reference(images, bc, src_cell, tgt_cell):
    """The columns of one cell matrix from `leibniz_reference`, whose signs
    come from `wedge_mono`."""
    index = {m: i for i, m in enumerate(bc.basis[tgt_cell])}
    return [element_entries(leibniz_reference(images, MixedElement.term(m, GR_ONE)),
                            index)
            for m in bc.basis[src_cell]]


@pytest.mark.parametrize("case", ["kodaira", "tower:4", "tower:4 conjugated"])
def test_cell_matrices_match_textbook_leibniz(case):
    if case == "kodaira":
        ctx = CalculusContext(kodaira())
        lam = parse_lambda("v1^v2").bind(2)
    elif case == "tower:4":
        ctx = CalculusContext(tower(4))
        lam = parse_lambda("2 v1^v4 - v2^v3").bind(4)
    else:
        from test_lie_structure import conjugated

        ctx = CalculusContext(conjugated(tower(4), random.Random(7)))
        lam = next(c.bivector for c in holomorphic_bivector_space(ctx).candidates
                   if not c.ad_identically_zero)
    bc = BigradedComplex(ctx, lam)
    ad_imgs = ad_images(ctx, lam)
    assert ad_imgs
    n = ctx.n
    for p in range(n + 1):
        for q in range(n + 1):
            if q < n:
                mat = bc.dbar_mat[(p, q)]
                assert mat.nrows == len(bc.basis[(p, q + 1)])
                assert mat.cols == _cell_matrix_reference(
                    dbar_images(ctx.frame)[0], bc, (p, q), (p, q + 1))
            if p < n:
                mat = bc.ad_mat[(p, q)]
                assert mat.nrows == len(bc.basis[(p + 1, q)])
                assert mat.cols == _cell_matrix_reference(
                    ad_imgs, bc, (p, q), (p + 1, q))


@st.composite
def _disjoint_monomials(draw):
    n = draw(st.integers(1, 6))
    codes = [vec_gen(i) for i in range(1, n + 1)]
    codes += [form_gen(j) for j in range(1, n + 1)]
    g = draw(st.sampled_from(codes))
    rest = draw(st.sets(st.sampled_from(codes)).map(lambda s: s - {g}))
    image = draw(st.sets(st.sampled_from(codes)).map(lambda s: s - rest))
    return n, g, tuple(sorted(image)), tuple(sorted(rest))


@settings(max_examples=300, deadline=None)
@given(_disjoint_monomials())
def test_popcount_sign_matches_wedge_mono(case):
    # D(g) = I with I disjoint from R: D(g ^ R) is one signed monomial, whose
    # sign the kernel takes from popcounts and the reference from wedge_mono;
    # D has degree |I| - 1, so passing pre costs (-1)^(|pre| (|I| + 1))
    n, g, image, rest = case
    pre = tuple(x for x in rest if x < g)
    post = tuple(x for x in rest if x > g)
    s1, m = wedge_mono(pre, image)
    s2, m = wedge_mono(m, post)
    sign = s1 * s2 * (-1) ** (len(pre) * (len(image) + 1))
    images = {g: MixedElement.term(image, GR_ONE)}
    got = apply_table(derivation_table(images, n), n,
                      MixedElement.term(pre + (g,) + post, GR_ONE))
    assert got == MixedElement.term(m, gauss(sign))
    # the same sign in the one-term table's matrix of the cell of g ^ R
    src = pre + (g,) + post
    source, target = mono_bidegree(src), mono_bidegree(m)
    mat = derivation_matrix(derivation_table(images, n), n, source, target,
                            "test")
    assert mat.nrows == len(cell_monomials(n, *target))
    j = cell_monomials(n, *source).index(src)
    assert mat.cols[j] == {cell_monomials(n, *target).index(m): gauss(sign)}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(-1, n + 1), st.integers(-1, n + 1))))
def test_cell_masks_decode_to_cell_monomials(case):
    n, p, q = case
    monos = cell_monomials(n, p, q)
    masks = cell_masks(n, p, q)
    assert [mask_mono(m, n) for m in masks] == monos
    assert [mono_mask(m, n) for m in monos] == masks
    for mask, mono in zip(masks, monos):
        # v_i is bit i-1, ow_j is bit n+j-1
        assert mask.bit_count() == len(mono) == p + q
        assert mask & ((1 << n) - 1) == sum(1 << (g - 1) for g in mono[:p])


def test_center_split_tower4(monkeypatch):
    seen = {}

    def spy(table, n, ell, a):
        seen.update(table=table, a=a)
        return split(table, n, ell, a)

    split = homology._center_split
    monkeypatch.setattr(homology, "_center_split", spy)
    ctx = CalculusContext(tower(4))
    n = ctx.n
    tables = {}
    for ell in range(5):
        homology.d_bicomplex_crosscheck(ctx, ell)
        tables[ell], a = seen["table"], seen["a"]
    # the adapted frame puts the (1,0) center v4 first: v4, v1, v2, v3 are
    # its generators 1, 2, 3, 4, and the forms follow the same order
    assert a == 1
    c, t = split(tables[1], n, 1, a)[0]
    src, tgt = CellBasis(n, [(1, 0)]), CellBasis(n, [(1, 1)])

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
    # the two parts always reassemble dbar of the whole adapted table
    for ell, table in tables.items():
        for m, (c, t) in split(table, n, ell, a).items():
            whole = dbar_cell(table, n, ell, m)[1]
            for cc, tc, dc in zip(c.cols, t.cols, whole.cols, strict=True):
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
