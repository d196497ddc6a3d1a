import math
import random

import pytest

import nilpoisson.exterior as exterior
from nilpoisson.errors import InternalInvariantError
from nilpoisson.exterior import (
    FORM_BASE,
    CellBasis,
    MixedElement,
    cell_monomials,
    element_entries,
    element_from_coords,
    form_gen,
    graded_monomials,
    mono_bidegree,
    mono_str,
    terms_texts,
    vec_gen,
    wedge_mono,
)
from nilpoisson.scalars import GR_ONE, GaussRational, Rational, gauss


def scaled(e: MixedElement, z: GaussRational) -> MixedElement:
    """z * e, with no term stored when z is zero."""
    return MixedElement({m: c * z for m, c in e.terms.items()} if z else {})


def rand_element(rng, n, max_terms=4):
    gens = [vec_gen(i) for i in range(1, n + 1)] + [form_gen(j) for j in range(1, n + 1)]
    e = MixedElement.zero()
    for _ in range(rng.randint(0, max_terms)):
        k = rng.randint(0, 2 * n)
        mono = tuple(sorted(rng.sample(gens, k)))
        c = gauss(rng.randint(-5, 5), rng.randint(-5, 5))
        e = e + MixedElement.term(mono, c)
    return e


def test_generator_codes_disjoint():
    assert vec_gen(3) < FORM_BASE <= form_gen(3)
    assert vec_gen(5) < form_gen(1)
    assert form_gen(2) == FORM_BASE + 2


def test_wedge_mono_signs():
    v1, v2, v3 = vec_gen(1), vec_gen(2), vec_gen(3)
    sign, mono = wedge_mono((v1,), (v2,))
    assert mono == (v1, v2) and sign == 1
    sign, mono = wedge_mono((v2,), (v1,))
    assert mono == (v1, v2) and sign == -1
    # double transposition: moving v1 past two generators is even
    sign, mono = wedge_mono((v2, v3), (v1,))
    assert mono == (v1, v2, v3) and sign == 1
    assert wedge_mono((v1,), (v1,)) == (0, None)


def test_wedge_mono_merge_parity_random():
    rng = random.Random(2718)
    gens = [vec_gen(i) for i in range(1, 5)] + [form_gen(j) for j in range(1, 5)]
    for _ in range(150):
        a = tuple(sorted(rng.sample(gens, rng.randint(0, 4))))
        rest = [g for g in gens if g not in a]
        b = tuple(sorted(rng.sample(rest, rng.randint(0, 3))))
        sign, mono = wedge_mono(a, b)
        assert mono == tuple(sorted(a + b))
        # sign equals parity of inversions between the two blocks
        inversions = sum(1 for x in a for y in b if x > y)
        assert sign == (-1) ** inversions


def test_wedge_graded_commutativity():
    rng = random.Random(1123)
    for _ in range(80):
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        gens = [vec_gen(i) for i in range(1, 4)] + [form_gen(j) for j in range(1, 4)]
        a_m = tuple(sorted(rng.sample(gens, ka)))
        b_m = tuple(sorted(rng.sample(gens, kb)))
        a = MixedElement.term(a_m, gauss(2, 1))
        b = MixedElement.term(b_m, gauss(0, -3))
        lhs = a.wedge(b)
        rhs = scaled(b.wedge(a), gauss((-1) ** (ka * kb)))
        assert lhs == rhs


def test_wedge_associative_and_unital():
    rng = random.Random(665)
    unit = MixedElement.term((), GR_ONE)
    for _ in range(60):
        a = rand_element(rng, 3)
        b = rand_element(rng, 3)
        c = rand_element(rng, 3)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
        assert unit.wedge(a) == a
        assert a.wedge(unit) == a
        # bilinearity
        assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)


def test_vector_and_form_constructors():
    coords = {0: gauss(1), 2: gauss(Rational(-1, 2))}
    v = MixedElement.vector(coords)
    assert v.terms == {(vec_gen(1),): gauss(1), (vec_gen(3),): gauss(Rational(-1, 2))}


def test_mono_bidegree_and_str():
    mono = (vec_gen(1), vec_gen(3), form_gen(2))
    assert mono_bidegree(mono) == (2, 1)
    assert mono_str(mono) == "v1^v3^ow2"
    assert mono_str(()) == "1"


def test_element_str_pinned():
    e = MixedElement.term((vec_gen(2), form_gen(1)), gauss(Rational(1, 4), Rational(1, 2)))
    e = e + MixedElement.term((vec_gen(1), form_gen(3)), gauss(-2))
    assert str(e) == "(-2) v1^ow3 + ((1/4+1/2i)) v2^ow1"
    assert str(MixedElement.zero()) == "0"
    assert terms_texts([{}], []) == ["0"]


def test_terms_texts_write_each_coefficient_once(monkeypatch):
    # equal coefficients share one text; 1 + i and 1 - i share a real part,
    # and 1/2 and 1 a numerator, yet each is written from its own value
    written = []
    monkeypatch.setattr(exterior, "gauss_to_string",
                        lambda z, _f=exterior.gauss_to_string:
                        written.append(z) or _f(z))
    one_i, one_minus_i = gauss(1, 1), gauss(1, -1)
    rows = [{2: one_i, 0: gauss(1)}, {1: one_minus_i}, {}, {0: gauss(1, 1)},
            {1: gauss(Rational(1, 2)), 2: GR_ONE}]
    assert terms_texts(rows, {0: "v1", 1: "v2", 2: "ow1"}) == [
        "(1) v1 + ((1+1i)) ow1", "((1-1i)) v2", "0", "((1+1i)) v1",
        "(1/2) v2 + (1) ow1"]
    assert written == [gauss(1), one_i, one_minus_i, gauss(Rational(1, 2))]


def test_bidegree_split_pinned():
    e = MixedElement.term((vec_gen(1),), GR_ONE) + MixedElement.term(
        (vec_gen(2), form_gen(1)), gauss(3)
    )
    assert {mono_bidegree(m) for m in e.terms} == {(1, 0), (1, 1)}
    assert e.homogeneous_bidegree() is None
    part = MixedElement.term((vec_gen(2), form_gen(1)), gauss(3))
    assert part.homogeneous_bidegree() == (1, 1)
    assert MixedElement.zero().homogeneous_bidegree() is None


def test_cell_monomials_dims():
    for n in range(1, 5):
        total = 0
        for p in range(n + 1):
            for q in range(n + 1):
                cell = cell_monomials(n, p, q)
                assert len(cell) == math.comb(n, p) * math.comb(n, q)
                for mono in cell:
                    assert mono_bidegree(mono) == (p, q)
                total += len(cell)
        assert total == 4**n


def test_graded_monomials_order():
    n = 3
    for k in range(2 * n + 1):
        monos = graded_monomials(n, k)
        assert len(monos) == math.comb(2 * n, k)
        pdegs = [mono_bidegree(m)[0] for m in monos]
        # leading block has the highest vector degree: p weakly decreasing
        assert pdegs == sorted(pdegs, reverse=True)


def test_element_coords_round_trip():
    rng = random.Random(444)
    n = 3
    for k in range(2 * n + 1):
        basis = graded_monomials(n, k)
        index = {m: i for i, m in enumerate(basis)}
        coords = {i: x for i in range(len(basis)) if (x := gauss(rng.randint(-4, 4)))}
        e = element_from_coords(coords, basis)
        assert element_entries(e, index) == coords


def test_element_coords_rejects_foreign_monomial():
    basis = graded_monomials(2, 1)
    index = {m: i for i, m in enumerate(basis)}
    stray = MixedElement.term((vec_gen(1), vec_gen(2)), GR_ONE)
    with pytest.raises(InternalInvariantError):
        element_entries(stray, index)


def test_cell_basis_decodes_cell_monomials():
    # every cell up to n = 8, and the empty ones just outside the range
    for n in range(9):
        for p in range(-1, n + 2):
            for q in range(-1, n + 2):
                want = cell_monomials(n, p, q)
                basis = CellBasis(n, [(p, q)])
                assert len(basis) == len(want), (n, p, q)
                assert list(basis) == want, (n, p, q)
                assert basis.words(range(len(want))) == {
                    j: mono_str(m) for j, m in enumerate(want)}
                with pytest.raises(IndexError):
                    basis[len(want)]
                with pytest.raises(IndexError):
                    basis[-1]
                for bad in ([-1], [len(want)], [-1, len(want), len(want) + 11]):
                    with pytest.raises(IndexError):
                        basis.words(bad)


def test_cell_basis_of_a_degree_is_graded_monomials():
    for n in range(6):
        for k in range(-1, 2 * n + 2):
            cells = [(p, k - p) for p in range(min(k, n), -1, -1) if k - p <= n]
            want = graded_monomials(n, k)
            basis = CellBasis(n, cells)
            assert len(basis) == len(want)
            assert list(basis) == want
            # a sparse set of indices, out of order, across the cells
            picked = list(range(len(want)))[::-3]
            assert basis.words(picked) == {j: mono_str(want[j]) for j in picked}


def test_cell_monomials_sorted():
    # rendering a cell's coordinates in index order relies on this
    for n in range(1, 9):
        for p in range(n + 1):
            for q in range(n + 1):
                cell = cell_monomials(n, p, q)
                assert cell == sorted(cell), (n, p, q)
