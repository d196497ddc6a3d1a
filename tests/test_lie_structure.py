import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpoisson.catalog import (catalog_load, kodaira, load_file,
                                presentation_from_dict, presentation_to_dict,
                                save_file, torus, tower)
import nilpoisson.lie_structure as lie_structure
from nilpoisson.errors import InternalInvariantError, UsageError, ValidationError
from nilpoisson.exact_linalg import ExactMatrix, Quotient, Subspace, combine, mat_mul
from nilpoisson.lie_structure import (
    AlgebraPresentation,
    center_subspace,
    central_series,
    complex_frame,
    grading,
    validate,
)
from nilpoisson.scalars import GR_I, GR_ONE, GR_ZERO, GaussRational, Rational
from test_exact_linalg import row_kernel


def conjugated(p, rng, span=2):
    """Same algebra in a random rational basis (for invariance tests)."""
    from nilpoisson.exact_linalg import invert, rank

    d = p.dim
    while True:
        g = [{j: x for j in range(d) if (x := GaussRational(Rational(rng.randint(-span, span))))}
             for _ in range(d)]
        if rank(g) == d:
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
    for a in range(8):
        for b in range(8):
            fwd = p.structure.get((a, b), {})
            bwd = p.structure.get((b, a), {})
            assert fwd == {k: -c for k, c in bwd.items()}
    # the compiled table is the rational input, 0-based, in both orders
    assert len(p.structure) == 2 * len(p.brackets)
    for (i, j), out in p.brackets.items():
        assert p.structure[(i - 1, j - 1)] == {
            k - 1: GaussRational(c) for k, c in out.items()}


def _expected_bracket(p, u, w):
    """[u, w] expanded by hand from the rational brackets: the pair i < j
    contributes (u_i w_j - u_j w_i) [e_i, e_j]."""
    acc = [GR_ZERO] * p.dim
    for (i, j), out in p.brackets.items():
        f = (u.get(i - 1, GR_ZERO) * w.get(j - 1, GR_ZERO)
             - u.get(j - 1, GR_ZERO) * w.get(i - 1, GR_ZERO))
        for k, c in out.items():
            acc[k - 1] = acc[k - 1] + f * GaussRational(c)
    return {k: x for k, x in enumerate(acc) if x}


def _expected_j(p, u):
    """J u expanded by hand from the rational matrix jmat."""
    acc = [GR_ZERO] * p.dim
    for i, row in enumerate(p.jmat):
        for j, c in enumerate(row):
            acc[i] = acc[i] + GaussRational(c) * u.get(j, GR_ZERO)
    return {k: x for k, x in enumerate(acc) if x}


_COMPILED = [tower(4), kodaira(), conjugated(tower(3), random.Random(715))]

_GAUSS = st.builds(lambda a, b, d: GaussRational(Rational(a, d), Rational(b, d)),
                   st.integers(-3, 3), st.integers(-3, 3),
                   st.integers(1, 4)).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compiled_brackets_and_j_match_rational_input(data):
    p = data.draw(st.sampled_from(_COMPILED))
    vec = st.dictionaries(st.integers(0, p.dim - 1), _GAUSS, max_size=4)
    u, w = data.draw(vec), data.draw(vec)
    assert p.bracket_vectors(u, w) == _expected_bracket(p, u, w)
    assert p.j_apply(u) == _expected_j(p, u)


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


def test_validate_gives_each_report_its_own_lists():
    bad = validate(AlgebraPresentation(
        2, {}, [[Rational(1), Rational(0)], [Rational(0), Rational(1)]]))
    assert not bad.j_square_ok and bad.errors
    good = validate(catalog_load("tower:2"))
    assert good.errors == [] and good.ok
    assert good.errors is not bad.errors and good.series is not bad.series


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
    # the coframe omega_1..omega_n, omegabar_1..omegabar_n: the columns of binv
    coframe = [{k: row[a] for k, row in enumerate(fr.binv) if a in row}
               for a in range(2 * n)]
    omega, omegabar = coframe[:n], coframe[n:]

    def pair(w, v):
        return sum((w.get(k, GR_ZERO) * v.get(k, GR_ZERO) for k in range(p.dim)), GR_ZERO)

    for a in range(n):
        for b in range(n):
            want = GR_ONE if a == b else GR_ZERO
            assert pair(omega[a], fr.v_rows[b]) == want
            assert pair(omegabar[a], fr.vbar_rows[b]) == want
            # cross pairings vanish
            assert pair(omega[a], fr.vbar_rows[b]) == GR_ZERO


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
    e = [{i: GR_ONE} for i in range(p.dim)]
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
    e = [{i: GR_ONE} for i in range(p.dim)]
    series = [Subspace.full(p.dim)]
    while True:
        prev = series[-1]
        rows = [p.bracket_vectors(b, ej) for b in prev.rows for ej in e]
        series.append(Subspace.from_rows(p.dim, [w for w in rows if w]))
        if series[-1].dim in (0, prev.dim):
            return series


def _all_pairs_central_series(p):
    """The series with [b, e_j] = combine(b, ad[j]) formed for every basis
    row b and every one of the dim basis vectors e_j, brackets or not."""
    d = p.dim
    ad = [[p.structure.get((i, j), {}) for i in range(d)] for j in range(d)]
    series = [Subspace.full(d)]
    while True:
        prev = series[-1]
        rows = [w for b in prev.rows for col in ad if (w := combine(b, col))]
        series.append(Subspace.from_rows(d, rows))
        if series[-1].dim in (0, prev.dim):
            return series


def _assert_same_series(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.rows == b.rows and a.pivots == b.pivots


@pytest.mark.parametrize("name", ["kodaira"] + [f"tower:{n}" for n in range(2, 9)]
                         + [f"torus:{n}" for n in range(1, 5)] + ["tower:16"])
def test_central_series_matches_all_pairs_on_catalog(name):
    p = catalog_load(name)
    _assert_same_series(central_series(p), _all_pairs_central_series(p))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([kodaira(), tower(3), tower(4), tower(5), torus(2)]),
       st.integers(0, 2 ** 32))
def test_central_series_matches_all_pairs_in_random_frames(p, seed):
    q = conjugated(p, random.Random(seed))
    _assert_same_series(central_series(q), _all_pairs_central_series(q))


def _dense_center(p):
    e = [{i: GR_ONE} for i in range(p.dim)]
    # row (j, k): x -> the e_k coordinate of [x, e_j]
    rows = [{i: x for i, ei in enumerate(e)
             if (x := p.bracket_vectors(ei, ej).get(k))}
            for ej in e for k in range(p.dim)]
    return Subspace.from_rows(p.dim, row_kernel(rows, p.dim))


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
    g = grading(p, complex_frame(p))
    assert g.n == 4 and g.step == 4
    assert g.c10.dim == 1
    assert sorted(g.t10) == [1, 2, 3, 4]
    assert {k: v.dim for k, v in g.t10.items()} == {1: 1, 2: 1, 3: 1, 4: 1}


def _row_center(p):
    """The center as rows {(j, k): {i: x}} of x -> ([x, e_j])_j, one per
    coordinate k of [e_i, e_j], and their kernel."""
    rows: dict = {}
    for i in range(p.dim):
        for j in range(p.dim):
            for k, x in p.structure.get((i, j), {}).items():
                rows.setdefault((j, k), {})[i] = x
    return Subspace(p.dim, row_kernel(list(rows.values()), p.dim))


def _row_frame(p):
    """The +i eigenvectors of J as the kernel of the rows of J - i."""
    shifted = [{j: GaussRational(c) for j, c in enumerate(row) if c}
               for row in p.jmat]
    for k, row in enumerate(shifted):
        row[k] = row.get(k, GR_ZERO) - GR_I
    return row_kernel(shifted, p.dim)


def _assert_center_and_frame_match_rows(p):
    assert center_subspace(p) == _row_center(p)
    # without preferred rows the frame is the kernel of J - i
    bare = AlgebraPresentation(p.dim, p.brackets, p.jmat, name=p.name)
    assert complex_frame(bare).v_rows == _row_frame(p)


@pytest.mark.parametrize("name", ["kodaira"] + [f"tower:{n}" for n in range(2, 7)]
                         + [f"torus:{n}" for n in range(1, 4)])
def test_center_and_frame_match_row_formulation_on_catalog(name):
    _assert_center_and_frame_match_rows(catalog_load(name))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([kodaira(), tower(3), tower(4), tower(5), torus(2)]),
       st.integers(0, 2 ** 32))
def test_center_and_frame_match_row_formulation_in_random_frames(p, seed):
    _assert_center_and_frame_match_rows(conjugated(p, random.Random(seed)))


def test_grading_refuses_a_pair_that_is_not_nested(monkeypatch):
    # (1,0) parts of g_J^1 and g_J^2 replaced by span{e0, e2, e3} and
    # span{e0 + e1, e3}: every pivot of the second is a pivot of the first,
    # so only the containment check can see that e0 + e1 escapes
    one = GR_ONE
    swap = {1: Subspace.from_rows(4, [{0: one}, {2: one}, {3: one}]),
            2: Subspace.from_rows(4, [{0: one, 1: one}, {3: one}])}
    real, calls = lie_structure._level10, []

    def patched(frame, rows, dim):
        calls.append(rows)
        return swap.get(len(calls) - 1) or real(frame, rows, dim)

    p = tower(4)
    frame = complex_frame(p)
    monkeypatch.setattr(lie_structure, "_level10", patched)
    with pytest.raises(InternalInvariantError,
                       match=r"^g_J\^2 is not contained in g_J\^1$"):
        grading(p, frame)


def test_grading_dims_torus_kodaira():
    p = torus(3)
    g = grading(p, complex_frame(p))
    assert g.c10.dim == 3 and g.step == 1
    p = kodaira()
    g = grading(p, complex_frame(p))
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
    g = grading(q, complex_frame(q))
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


# References for the context's own checks: validation decided integrability
# and abelianity over every pair of real basis vectors, and the grading
# closed each level under J and projected it by u -> (u - i J u) / 2.

_NIJENHUIS = "complex structure is not integrable (Nijenhuis tensor != 0)"


def _nijenhuis_reference(p):
    """(integrable, abelian) from N(e_i, e_j) = [Je_i, Je_j] - [e_i, e_j]
    - J([Je_i, e_j] + [e_i, Je_j]) and [Je_i, Je_j] = [e_i, e_j] on every
    pair i < j of real basis vectors."""
    basis = [{i: GR_ONE} for i in range(p.dim)]
    jb = [p.j_apply(b) for b in basis]
    integrable = abelian = True
    for i, j in combinations(range(p.dim), 2):
        lhs = p.bracket_vectors(jb[i], jb[j])
        base = p.bracket_vectors(basis[i], basis[j])
        if lhs != base:
            abelian = False
        mixed = combine({0: GR_ONE, 1: GR_ONE},
                        [p.bracket_vectors(jb[i], basis[j]),
                         p.bracket_vectors(basis[i], jb[j])])
        if combine({0: GR_ONE, 1: -GR_ONE}, [lhs, base]) != p.j_apply(mixed):
            integrable = False
    return integrable, abelian


_HALF_TO_10 = {0: GaussRational(Rational(1, 2)),
               1: GaussRational(Rational(0), Rational(-1, 2))}


def _grading_reference(p, frame):
    """(t10 rows by k, c10 rows) in frame coordinates: the (1,0) part of
    each J-closed level g_J^k = g^k + J g^k, and the (1,0) vectors
    u = sum_a c_a v_a with [u, e_j] = 0 for every basis vector e_j."""
    def part10(sub):
        rows = [frame.coords_10(combine(_HALF_TO_10, [u, p.j_apply(u)]))
                for u in sub.rows]
        out = Subspace.from_rows(frame.n, rows)
        assert 2 * out.dim == sub.dim
        return out

    gj10 = [part10(Subspace.from_rows(p.dim, sub.rows + [p.j_apply(u) for u in sub.rows]))
            for sub in _dense_central_series(p)]
    # row (j, k): c -> the e_k coordinate of [sum_a c_a v_a, e_j]
    rows: dict = {}
    for a, v in enumerate(frame.v_rows):
        for j in range(1, p.dim + 1):
            for k, x in p.bracket_vectors(v, {j - 1: GR_ONE}).items():
                rows.setdefault((j, k), {})[a] = x
    t10 = {k: Quotient(gj10[k], gj10[k - 1]).reps for k in range(1, len(gj10))}
    return t10, row_kernel(list(rows.values()), frame.n)


def _assert_context_matches_references(p):
    rep = validate(p)
    if rep.j_square_ok:
        assert (rep.integrable, rep.abelian) == _nijenhuis_reference(p)
    # every other check appends its error first, and this one at most once
    others = [e for e in rep.errors if e != _NIJENHUIS]
    assert rep.errors == others + ([_NIJENHUIS] if rep.j_square_ok
                                   and not rep.integrable else [])
    series = _dense_central_series(p)
    assert rep.step == (len(series) - 1 if series[-1].dim == 0 else None)
    if not rep.ok:
        return
    frame = complex_frame(p)
    want = _grading_reference(p, frame)
    g = grading(p, frame)
    assert g.step == rep.step
    assert ({k: sub.rows for k, sub in g.t10.items()}, g.c10.rows) == want


@pytest.mark.parametrize("name", ["kodaira"] + [f"tower:{n}" for n in range(2, 9)]
                         + [f"torus:{n}" for n in range(1, 9)])
def test_context_matches_references_on_catalog(name):
    _assert_context_matches_references(catalog_load(name))


def _jacobi_failures_and_non_nilpotent():
    return [AlgebraPresentation(4, {(1, 2): {3: Rational(1)}, (1, 3): {1: Rational(1)}},
                                _paired_j_rows(2)),
            AlgebraPresentation(6, {(2, 3): {4: Rational(1)}, (2, 4): {2: Rational(1)}},
                                _paired_j_rows(3)),
            AlgebraPresentation(2, {(1, 2): {1: Rational(1)}}, _paired_j_rows(1))]


def _tower3_with_moved_j():
    """tower(3)'s brackets with J in another basis: not integrable."""
    return AlgebraPresentation(6, tower(3).brackets,
                               conjugated(tower(3), random.Random(5)).jmat)


def test_context_matches_references_on_fixed_presentations():
    from test_calculus import iwasawa

    p = iwasawa()
    assert _nijenhuis_reference(p) == (True, False)
    # integrable, not abelian, and the center span{e2, e5, e6} is odd:
    # its central (1,0) vectors are those of span{e5, e6}
    odd = AlgebraPresentation(6, {(1, 3): {5: Rational(1)}, (1, 4): {6: Rational(1)}},
                              _paired_j_rows(3))
    assert grading(odd, complex_frame(odd)).c10.dim == 1
    moved = _tower3_with_moved_j()
    assert _nijenhuis_reference(moved) == (False, False)
    # a dense frame: no level's (1,0) span is its own conjugate
    dense = conjugated(tower(4), random.Random(1))
    for q in [p, odd, moved, dense, *_jacobi_failures_and_non_nilpotent()]:
        _assert_context_matches_references(q)


@settings(max_examples=150, deadline=None)
@given(_structure_constants())
def test_integrability_matches_reference_on_drawn_brackets(p):
    _assert_context_matches_references(p)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([tower(3), tower(4), tower(5)]), st.integers(0, 2 ** 32))
def test_context_matches_references_in_random_frames(p, seed):
    _assert_context_matches_references(conjugated(p, random.Random(seed)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([kodaira(), tower(2), tower(3), tower(4)]),
       st.integers(0, 2 ** 32))
def test_context_matches_references_with_only_j_conjugated(p, seed):
    # the brackets stay and J moves to a random basis: mostly not integrable
    q = conjugated(p, random.Random(seed))
    _assert_context_matches_references(
        AlgebraPresentation(p.dim, p.brackets, q.jmat))


# Each invariant check of the context, tripped by a patched helper: the
# library raises the exact message, and the CLI exits 3 with it.

def _assert_context_check_trips(capsys, message, *argv):
    from nilpoisson.calculus import CalculusContext
    from nilpoisson.cli import main

    source, name = argv[1:3]
    with pytest.raises(InternalInvariantError, match=f"^{re.escape(message)}$"):
        CalculusContext(catalog_load(name) if source == "--algebra"
                        else load_file(name)).grading
    assert main(list(argv)) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"internal invariant violated: {message}\n")


def test_grading_odd_splitting_check_trips(capsys, monkeypatch):
    # one more than the rank of g^k + J g^k
    real = lie_structure.rank
    monkeypatch.setattr(lie_structure, "rank", lambda rows: real(rows) + 1)
    _assert_context_check_trips(
        capsys, "J-invariant subspace has odd splitting",
        "info", "--algebra", "tower:3")


def test_grading_odd_splitting_check_trips_on_the_center(capsys, monkeypatch):
    # span{e3} in place of the J-invariant part of kodaira's center
    # span{e3, e4}: not J-invariant
    monkeypatch.setattr(lie_structure, "_j_core", lambda p, sub: [{2: GR_ONE}])
    _assert_context_check_trips(
        capsys, "J-invariant subspace has odd splitting",
        "info", "--algebra", "kodaira")


def test_grading_center_check_trips(capsys, monkeypatch):
    # span{e1, e2} = span{x1, J x1} in place of tower(3)'s center
    # span{x3, y3}, which holds g_J^2
    monkeypatch.setattr(lie_structure, "center_subspace",
                        lambda p: Subspace.from_rows(p.dim, [{0: GR_ONE}, {1: GR_ONE}]))
    _assert_context_check_trips(
        capsys, "g_J^s is not contained in the center",
        "poisson", "--algebra", "tower:3", "--theorem2")


def test_grading_fill_check_trips(capsys, monkeypatch):
    # the zero level g_J^(s+1) read as g_J^s: t_(s+1) = 0, one short of n
    real, levels = lie_structure._level10, []

    def patched(frame, rows, dim):
        levels.append(real(frame, rows, dim) if rows else levels[-1])
        return levels[-1]

    monkeypatch.setattr(lie_structure, "_level10", patched)
    _assert_context_check_trips(
        capsys, "t-splitting does not fill g^(1,0)",
        "crosscheck", "--algebra", "tower:3")


def test_frame_01_part_check_trips(capsys, monkeypatch, tmp_path):
    p = _tower3_with_moved_j()
    assert validate(p).errors == [_NIJENHUIS]
    path = tmp_path / "moved.json"
    save_file(p, str(path))
    real = lie_structure.validate

    def claimed_integrable(p):
        rep = real(p)
        rep.integrable, rep.errors = True, []
        return rep

    monkeypatch.setattr(lie_structure, "validate", claimed_integrable)
    _assert_context_check_trips(
        capsys, "integrable structure produced a (0,1) part in [v_i, v_j]",
        "info", "--file", str(path))


def test_frame_abelian_check_trips(capsys, monkeypatch):
    real = lie_structure.validate

    def flipped(p):
        rep = real(p)
        rep.abelian = not rep.abelian
        return rep

    monkeypatch.setattr(lie_structure, "validate", flipped)
    _assert_context_check_trips(
        capsys, "frame abelian flag disagrees with validation",
        "cohomology", "--algebra", "tower:3")
