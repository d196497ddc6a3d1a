import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpoisson.catalog import catalog_load, kodaira, torus, tower
from nilpoisson.errors import UsageError, ValidationError
from nilpoisson.exact_linalg import ExactMatrix, Subspace, kernel_basis, mat_mul
from nilpoisson.lie_structure import (
    AlgebraPresentation,
    center_subspace,
    central_series,
    complex_frame,
    grading,
    presentation_from_dict,
    presentation_to_dict,
    validate,
)
from nilpoisson.scalars import GR_I, GR_ONE, GR_ZERO, GaussRational, Rational


def conjugated(p, rng, span=2):
    """Same algebra in a random rational basis (for invariance tests)."""
    from nilpoisson.exact_linalg import invert, rank

    d = p.dim
    while True:
        g = [{j: x for j in range(d) if (x := GaussRational(Rational(rng.randint(-span, span))))}
             for _ in range(d)]
        if rank(g, d) == d:
            break
    ginv = invert(g)
    # e'_j = sum_i g[i][j] e_i; structure constants and J transform accordingly
    cols = [{i: g[i][j] for i in range(d) if j in g[i]} for j in range(d)]
    brackets = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            out_vec = p.bracket_vectors(cols[i - 1], cols[j - 1])
            coords = [
                sum((ginv[k].get(m, GR_ZERO) * out_vec.get(m, GR_ZERO) for m in range(d)), GR_ZERO)
                for k in range(d)
            ]
            out = {}
            for k, c in enumerate(coords, start=1):
                if c:
                    assert c.im == 0
                    out[k] = c.re
            if out:
                brackets[(i, j)] = out
    jmat = [{j: GaussRational(e) for j, e in enumerate(row) if e} for row in p.jmat]
    jnew = mat_mul(_matrix(ginv, d), mat_mul(_matrix(jmat, d), _matrix(g, d)))
    jrows = []
    for i in range(d):
        row = [jnew.cols[j].get(i, GR_ZERO) for j in range(d)]
        assert all(e.im == 0 for e in row)
        jrows.append([e.re for e in row])
    return AlgebraPresentation(d, brackets, jrows, name=p.name + "'")


def _matrix(rows, ncols):
    """The ExactMatrix with these sparse rows."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return ExactMatrix(cols, len(rows))


def test_tower4_validates():
    rep = validate(tower(4))
    assert rep.ok
    assert rep.nilpotent and rep.step == 4
    assert rep.integrable and rep.abelian
    assert rep.jacobi_ok and rep.j_square_ok
    assert "valid:               True" in rep.summary()


def test_tower4_bracket_count():
    p = tower(4)
    assert len(p.brackets) == 9
    assert all(i < j for (i, j) in p.brackets)


def test_catalog_all_valid():
    for p in (torus(1), torus(2), torus(3), torus(4), tower(2), tower(3), tower(5), kodaira()):
        rep = validate(p)
        assert rep.ok, p.name
        assert rep.abelian, p.name


def test_torus_is_step_one():
    rep = validate(torus(3))
    assert rep.step == 1
    assert not torus(3).brackets


def test_kodaira_shape():
    p = kodaira()
    rep = validate(p)
    assert p.dim == 4
    assert rep.step == 2
    assert p.brackets == {(1, 2): {3: Rational(1)}}


def test_bracket_basis_antisymmetry():
    p = tower(4)
    for i in range(1, 9):
        for j in range(1, 9):
            fwd = p.bracket_basis(i, j)
            bwd = p.bracket_basis(j, i)
            assert fwd == {k: -c for k, c in bwd.items()}


def test_validate_detects_jacobi_failure():
    # [e1,e2]=e3, [e1,e3]=e1: the jacobiator at (1,2,3) is -e3
    br = {
        (1, 2): {3: Rational(1)},
        (1, 3): {1: Rational(1)},
    }
    p = AlgebraPresentation(4, br, _paired_j_rows(2))
    rep = validate(p)
    assert not rep.jacobi_ok
    assert rep.jacobi_failure == (1, 2, 3)
    assert not rep.ok
    assert rep.errors == [
        "jacobi identity fails on (1,2,3)",
        "descending central series does not reach zero",
        "complex structure is not integrable (Nijenhuis tensor != 0)",
    ]
    # [e2,e3]=e4, [e2,e4]=e2: every triple with 1 holds, (2,3,4) gives -e4
    br = {
        (2, 3): {4: Rational(1)},
        (2, 4): {2: Rational(1)},
    }
    rep = validate(AlgebraPresentation(6, br, _paired_j_rows(3)))
    assert rep.jacobi_failure == (2, 3, 4)
    assert rep.errors[0] == "jacobi identity fails on (2,3,4)"


def test_validate_detects_bad_j_square():
    p = AlgebraPresentation(2, {}, [[Rational(1), Rational(0)], [Rational(0), Rational(1)]])
    rep = validate(p)
    assert not rep.j_square_ok
    assert not rep.ok


def test_validate_detects_non_nilpotent():
    br = {(1, 2): {1: Rational(1)}}
    p = AlgebraPresentation(2, br, _paired_j_rows(1))
    rep = validate(p)
    assert not rep.nilpotent
    assert not rep.ok


def test_validate_detects_odd_dim():
    rep = validate(AlgebraPresentation(3, {}, [[Rational(0)] * 3 for _ in range(3)]))
    assert not rep.dim_even
    assert not rep.ok


def test_frame_diagonalizes_j():
    for p in (torus(2), tower(4), kodaira()):
        fr = complex_frame(p)
        assert fr.n * 2 == p.dim
        for row in fr.v_rows:
            jv = p.j_apply(row)
            assert jv == {k: GR_I * e for k, e in row.items()}
        for row in fr.vbar_rows:
            jv = p.j_apply(row)
            assert jv == {k: (-GR_I) * e for k, e in row.items()}


def test_frame_dual_pairings():
    p = tower(4)
    fr = complex_frame(p)
    n = fr.n
    def pair(w, v):
        return sum((w.get(k, GR_ZERO) * v.get(k, GR_ZERO) for k in range(p.dim)), GR_ZERO)

    for a in range(n):
        for b in range(n):
            want = GR_ONE if a == b else GR_ZERO
            assert pair(fr.omega_rows[a], fr.v_rows[b]) == want
            assert pair(fr.omegabar_rows[a], fr.vbar_rows[b]) == want
            # cross pairings vanish
            assert pair(fr.omega_rows[a], fr.vbar_rows[b]) == GR_ZERO


def test_frame_coords_round_trip():
    p = tower(3)
    fr = complex_frame(p)
    rng = random.Random(12)
    for _ in range(20):
        coords = {a: x for a in range(fr.n)
                  if (x := GaussRational(Rational(rng.randint(-4, 4)), Rational(rng.randint(-4, 4))))}
        vec = fr.vector_from_coords(coords)
        assert fr.coords_10(vec) == coords


def test_frame_preferred_normalization():
    # catalog frames use v_j = (x_j - i y_j)/2
    p = torus(2)
    fr = complex_frame(p)
    half = GaussRational(Rational(1, 2))
    mihalf = GaussRational(0, Rational(-1, 2))
    assert fr.v_rows[0] == {0: half, 1: mihalf}


def test_abelian_frame_brackets_vanish():
    fr = complex_frame(tower(4))
    assert fr.abelian
    for c10 in fr.bracket_vv.values():
        assert c10 == {}


def test_central_series_tower():
    # g2 = span{y2, x3, y3, x4, y4}: x2 is never a bracket output
    p = tower(4)
    series = central_series(p)
    dims = [s.dim for s in series]
    assert dims == [8, 5, 4, 2, 0]
    assert center_subspace(p).dim == 2


def test_central_series_reaches_zero_past_64_steps():
    # each step shrinks the dimension or stops, so no cap is needed
    series = central_series(tower(64))
    assert len(series) == 65
    assert series[-1].dim == 0


def test_central_series_torus_and_kodaira():
    assert [s.dim for s in central_series(torus(3))] == [6, 0]
    assert [s.dim for s in central_series(kodaira())] == [4, 1, 0]


def _dense_jacobi_failure(p):
    e = [p.basis_vector(i) for i in range(1, p.dim + 1)]
    for i, j, k in combinations(range(1, p.dim + 1), 3):
        acc = [GR_ZERO] * p.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            term = p.bracket_vectors(p.bracket_vectors(e[a - 1], e[b - 1]), e[c - 1])
            for m, x in term.items():
                acc[m] = acc[m] + x
        if any(acc):
            return (i, j, k)
    return None


def _dense_central_series(p):
    e = [p.basis_vector(i) for i in range(1, p.dim + 1)]
    series = [Subspace.full(p.dim)]
    while True:
        prev = series[-1]
        rows = [p.bracket_vectors(b, ej) for b in prev.rows for ej in e]
        series.append(Subspace.from_rows(p.dim, [w for w in rows if w]))
        if series[-1].dim in (0, prev.dim):
            return series


def _dense_center(p):
    e = [p.basis_vector(i) for i in range(1, p.dim + 1)]
    # row (j, k): x -> the e_k coordinate of [x, e_j]
    rows = [{i: x for i, ei in enumerate(e)
             if (x := p.bracket_vectors(ei, ej).get(k))}
            for ej in e for k in range(p.dim)]
    return Subspace.from_rows(p.dim, kernel_basis(rows, p.dim))


@st.composite
def _structure_constants(draw):
    d = 2 * draw(st.integers(1, 3))
    # outputs above both inputs keep the algebra nilpotent; Jacobi may fail
    upper = draw(st.booleans())
    pairs = list(combinations(range(1, d + 1), 2))
    brackets = {}
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=5)):
        targets = list(range(j + 1, d + 1) if upper else range(1, d + 1))
        if targets:
            brackets[(i, j)] = draw(st.dictionaries(
                st.sampled_from(targets),
                st.integers(-2, 2).filter(bool).map(Rational),
                min_size=1, max_size=2))
    return AlgebraPresentation(d, brackets, _paired_j_rows(d // 2))


@settings(max_examples=150, deadline=None)
@given(_structure_constants())
def test_sparse_structure_reads_match_dense_oracle(p):
    rep = validate(p)
    assert rep.jacobi_failure == _dense_jacobi_failure(p)
    assert rep.jacobi_ok == (rep.jacobi_failure is None)
    assert rep.series == _dense_central_series(p)
    assert central_series(p) == rep.series
    assert center_subspace(p) == _dense_center(p)


def test_grading_dims_tower4():
    p = tower(4)
    g = grading(p)
    assert g.n == 4 and g.step == 4
    assert g.c10.dim == 1
    assert sorted(g.t10) == [1, 2, 3, 4]
    assert {k: v.dim for k, v in g.t10.items()} == {1: 1, 2: 1, 3: 1, 4: 1}


def test_grading_dims_torus_kodaira():
    g = grading(torus(3))
    assert g.c10.dim == 3 and g.step == 1
    g = grading(kodaira())
    assert g.c10.dim == 1
    assert {k: v.dim for k, v in g.t10.items()} == {1: 1, 2: 1}


def test_dict_round_trip():
    for p in (tower(4), kodaira(), torus(2)):
        d = presentation_to_dict(p)
        q = presentation_from_dict(d, name=p.name)
        assert q.dim == p.dim
        assert q.brackets == p.brackets
        assert q.jmat == p.jmat
        assert validate(q).ok


def test_dict_flips_reversed_brackets():
    d = {
        "dim": 4,
        "brackets": [{"i": 2, "j": 1, "out": {"3": "1"}}],
        "J": _j_strings(2),
    }
    p = presentation_from_dict(d)
    assert p.brackets == {(1, 2): {3: Rational(-1)}}


def test_dict_rejects_duplicates_and_self_bracket():
    base = {"dim": 4, "J": _j_strings(2)}
    with pytest.raises(UsageError):
        presentation_from_dict(
            {**base, "brackets": [
                {"i": 1, "j": 2, "out": {"3": "1"}},
                {"i": 2, "j": 1, "out": {"3": "1"}},
            ]}
        )
    with pytest.raises(UsageError):
        presentation_from_dict({**base, "brackets": [{"i": 1, "j": 1, "out": {"3": "1"}}]})
    with pytest.raises(UsageError):
        presentation_from_dict({**base, "brackets": [], "J": [["0"]]})


def test_conjugated_presentation_still_valid():
    rng = random.Random(715)
    p = tower(3)
    q = conjugated(p, rng)
    rep = validate(q)
    assert rep.ok
    assert rep.step == 3
    assert rep.abelian
    g = grading(q)
    assert g.c10.dim == 1


def _paired_j_rows(n):
    z, one = Rational(0), Rational(1)
    rows = [[z] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        rows[2 * k][2 * k + 1] = -one
        rows[2 * k + 1][2 * k] = one
    return rows


def _j_strings(n):
    return [[str(e) for e in row] for row in _paired_j_rows(n)]
