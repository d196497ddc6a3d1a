import random

import numpy as np
import pytest

from nilpoisson.exact_linalg import (
    ExactMatrix,
    LinalgError,
    Subspace,
    invert,
    kernel_basis,
    mat_mul,
    quotient_map,
    rank,
    rref,
)
from nilpoisson.scalars import GR_ONE, GR_ZERO, GaussRational, Rational


def rand_rows(rng, nrows, ncols, span=6, density=0.7):
    """Random sparse rows: {column: nonzero entry}."""
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                x = GaussRational(Rational(rng.randint(-span, span)), Rational(rng.randint(-span, span)))
                if x:
                    row[j] = x
        rows.append(row)
    return rows


def add(u, v, f=GR_ONE):
    """u + f v for sparse vectors, with the zeros dropped."""
    out = dict(u)
    for j, x in v.items():
        y = out.get(j, GR_ZERO) + f * x
        if y:
            out[j] = y
        else:
            del out[j]
    return out


def dot(row, vec):
    return sum((row.get(j, GR_ZERO) * x for j, x in vec.items()), GR_ZERO)


def from_rows(rows, ncols):
    """The ExactMatrix with these sparse rows."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return ExactMatrix(cols, len(rows))


def identity(n):
    return ExactMatrix([{j: GR_ONE} for j in range(n)], n)


def to_numpy(rows, ncols):
    arr = np.zeros((len(rows), ncols), dtype=complex)
    for i, row in enumerate(rows):
        for j, x in row.items():
            arr[i, j] = complex(x)
    return arr


def float_rank(rows, ncols):
    if not rows:
        return 0
    s = np.linalg.svd(to_numpy(rows, ncols), compute_uv=False)
    return int((s > 1e-8).sum())


def test_rref_pinned():
    one = GR_ONE
    two = GaussRational(Rational(2))
    rows = [{0: two, 1: two}, {0: one, 1: one}]
    red, piv = rref(rows, 2)
    assert piv == [0]
    assert red == [{0: one, 1: one}]


def test_rref_idempotent_and_canonical():
    rng = random.Random(5150)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = rand_rows(rng, m, n)
        red, piv = rref(rows, n)
        again, piv2 = rref(red, n)
        assert red == again
        assert piv == piv2
        # row space is unchanged by left-multiplying with invertible noise:
        # shuffling plus adding multiples of other rows hits the same canform
        noisy = [dict(r) for r in rows]
        rng.shuffle(noisy)
        if len(noisy) > 1:
            scale = GaussRational(Rational(rng.randint(1, 5)))
            noisy[0] = add(noisy[0], noisy[1], scale)
        red2, piv3 = rref(noisy, n)
        assert red2 == red
        assert piv3 == piv


def test_rank_matches_float_svd():
    rng = random.Random(31337)
    for _ in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = rand_rows(rng, m, n)
        assert rank(rows, n) == float_rank(rows, n)


def test_kernel_basis_is_exact_kernel():
    rng = random.Random(246)
    for _ in range(50):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = rand_rows(rng, m, n)
        ker = kernel_basis(rows, n)
        assert len(ker) == n - rank(rows, n)
        for kv in ker:
            assert all(not dot(row, kv) for row in rows)
        # kernel rows themselves independent
        assert rank(ker, n) == len(ker)


def test_kernel_basis_canonical():
    rng = random.Random(808)
    rows = rand_rows(rng, 3, 5)
    doubled = [{j: e + e for j, e in r.items()} for r in rows]
    assert kernel_basis(rows, 5) == kernel_basis(doubled, 5)


def test_mat_mul_apply_agree():
    rng = random.Random(99)
    a_rows = rand_rows(rng, 4, 3)
    b_rows = rand_rows(rng, 3, 5)
    a, b = from_rows(a_rows, 3), from_rows(b_rows, 5)
    ab = mat_mul(a, b)
    assert (ab.nrows, ab.ncols) == (4, 5)
    for j in range(5):
        assert a.apply(b.cols[j]) == ab.cols[j]
        # and entry by entry against the row-times-column sums
        col = {k: r[j] for k, r in enumerate(b_rows) if j in r}
        want = {i: x for i, r in enumerate(a_rows) if (x := dot(r, col))}
        assert ab.cols[j] == want


def test_invert_round_trip():
    rng = random.Random(1213)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = rand_rows(rng, n, n, density=1.0)
        if rank(rows, n) < n:
            continue
        inv = invert(rows)
        m, minv = from_rows(rows, n), from_rows(inv, n)
        assert mat_mul(m, minv) == identity(n)
        assert mat_mul(minv, m) == identity(n)


def test_invert_singular_raises():
    one = GR_ONE
    with pytest.raises(LinalgError):
        invert([{0: one, 1: one}, {0: one, 1: one}])


def test_subspace_equality_gives_identical_basis():
    rng = random.Random(88)
    for _ in range(30):
        n = rng.randint(2, 6)
        rows = rand_rows(rng, rng.randint(1, 4), n)
        s = Subspace.from_rows(n, rows)
        # generate the same space from scrambled spanning sets
        span = [dict(r) for r in rows] + [add(rows[0], rows[-1])]
        rng.shuffle(span)
        t = Subspace.from_rows(n, span)
        assert s.dim == t.dim
        assert s.rows == t.rows
        assert s.pivots == t.pivots


def test_subspace_contains():
    rng = random.Random(404)
    n = 6
    rows = rand_rows(rng, 3, n)
    s = Subspace.from_rows(n, rows)
    for r in rows:
        assert s.contains(r)
    combo = {}
    for r in s.rows:
        combo = add(combo, r)
    assert s.contains(combo)
    if s.dim < n:
        free = next(c for c in range(n) if c not in s.pivots)
        assert not s.contains({free: GR_ONE})


def test_dimension_formula_sum_intersection():
    rng = random.Random(6022)
    for _ in range(40):
        n = rng.randint(2, 7)
        a = Subspace.from_rows(n, rand_rows(rng, rng.randint(1, n), n))
        b = Subspace.from_rows(n, rand_rows(rng, rng.randint(1, n), n))
        # the intersection is the common kernel of both annihilators
        stacked = kernel_basis(a.rows, n) + kernel_basis(b.rows, n)
        both = Subspace(n, kernel_basis(stacked, n))
        total = Subspace.from_rows(n, a.rows + b.rows)
        assert a.dim + b.dim == total.dim + both.dim
        for r in both.rows:
            assert a.contains(r) and b.contains(r)
        assert total.contains_subspace(a) and total.contains_subspace(b)


def test_quotient_map_round_trip():
    rng = random.Random(515)
    for _ in range(30):
        n = rng.randint(2, 7)
        total = Subspace.from_rows(n, rand_rows(rng, n, n, density=0.8))
        if total.dim < 2:
            continue
        sub = Subspace.from_rows(n, total.rows[: rng.randint(1, total.dim - 1)])
        qdim, reps, proj = quotient_map(sub, total)
        assert qdim == total.dim - sub.dim
        assert len(reps) == qdim
        assert (proj.nrows, proj.ncols) == (qdim, n)
        # proj(reps[j]) is the j-th unit coordinate vector
        for j, rep in enumerate(reps):
            assert proj.apply(rep) == {j: GR_ONE}
        # sub maps exactly to zero
        for r in sub.rows:
            assert proj.apply(r) == {}


def test_quotient_map_rejects_non_subspace():
    n = 3
    total = Subspace.from_rows(n, [{0: GR_ONE}])
    sub = Subspace.from_rows(n, [{1: GR_ONE}])
    with pytest.raises(LinalgError):
        quotient_map(sub, total)
    # the cheap pivot test catches this even with check=False
    with pytest.raises(LinalgError):
        quotient_map(sub, total, check=False)


def test_exact_matrix_wrappers():
    rng = random.Random(3141)
    rows = rand_rows(rng, 4, 5)
    m = from_rows(rows, 5)
    assert m.rank() == rank(rows, 5)
    assert m.nrows == 4 and m.ncols == 5
    v = {0: GR_ONE, 2: GR_ONE, 4: GR_ONE}
    assert m.apply(v) == {i: x for i, r in enumerate(rows) if (x := dot(r, v))}
    z = ExactMatrix.zeros(2, 3)
    assert z.is_zero()
    assert not ExactMatrix([{0: GR_ONE}], 1).is_zero()


def test_zero_dimensional_edges():
    assert rref([], 4) == ([], [])
    assert kernel_basis([], 3) == [{j: GR_ONE} for j in range(3)]
    assert rank([], 5) == 0
    s = Subspace.zero(4)
    assert s.dim == 0
    f = Subspace.full(3)
    assert f.dim == 3
    qdim, reps, proj = quotient_map(s, f)
    assert qdim == 3
