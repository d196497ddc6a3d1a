import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpoisson.exact_linalg import (
    ExactMatrix,
    LinalgError,
    Quotient,
    Subspace,
    _axpy,
    back_substitute,
    eliminate,
    invert,
    mat_mul,
    rank,
    reduce_columns,
    rref,
)
from nilpoisson.scalars import GR_I, GR_ONE, GR_ZERO, GaussRational, Rational


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
    red, piv = rref(rows)
    assert piv == [0]
    assert red == [{0: one, 1: one}]


def test_rref_idempotent_and_canonical():
    rng = random.Random(5150)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = rand_rows(rng, m, n)
        red, piv = rref(rows)
        again, piv2 = rref(red)
        assert red == again
        assert piv == piv2
        # row space is unchanged by left-multiplying with invertible noise:
        # shuffling plus adding multiples of other rows hits the same canform
        noisy = [dict(r) for r in rows]
        rng.shuffle(noisy)
        if len(noisy) > 1:
            scale = GaussRational(Rational(rng.randint(1, 5)))
            noisy[0] = add(noisy[0], noisy[1], scale)
        red2, piv3 = rref(noisy)
        assert red2 == red
        assert piv3 == piv


@st.composite
def _real_rows(draw):
    """(ncols, sparse rows with real GaussRational entries, a row index)."""
    ncols = draw(st.integers(1, 6))
    entry = st.fractions(-4, 4, max_denominator=3).filter(bool)
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols),
        min_size=1, max_size=6))
    k = draw(st.integers(0, len(rows) - 1))
    return ncols, [{j: GaussRational(Rational(x)) for j, x in r.items()}
                   for r in rows], k


@settings(max_examples=200, deadline=None)
@given(_real_rows())
def test_real_and_gaussian_elimination_agree(case):
    # i*M, and M with one row times i, have the same row space and kernel
    # as the real M but non-real entries, so every result must agree
    ncols, rows, k = case
    times_i = [{j: GR_I * x for j, x in r.items()} for r in rows]
    one_row = rows[:k] + [times_i[k]] + rows[k + 1:]

    def results(m):
        return (rref(m), rank(m), from_rows(m, ncols).kernel(),
                Subspace.from_rows(ncols, m))

    want = results(rows)
    for m in (rows, times_i, one_row):
        got = results(m)
        assert got == want
        (red, _), _, ker, sub = got
        for vec in red + ker + sub.rows:
            assert all(type(x) is GaussRational for x in vec.values())


def test_rank_matches_float_svd():
    rng = random.Random(31337)
    for _ in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = rand_rows(rng, m, n)
        assert rank(rows) == float_rank(rows, n)


def test_kernel_is_exact_kernel():
    rng = random.Random(246)
    for _ in range(50):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        # n columns of height m
        cols = rand_rows(rng, n, m)
        ker = ExactMatrix(cols, m).kernel()
        assert len(ker) == n - rank(cols)
        rows = [{j: col[i] for j, col in enumerate(cols) if i in col}
                for i in range(m)]
        for kv in ker:
            assert all(not dot(row, kv) for row in rows)
        # kernel rows themselves independent
        assert rank(ker) == len(ker)


def test_kernel_canonical():
    rng = random.Random(808)
    cols = rand_rows(rng, 5, 3)
    doubled = [{i: e + e for i, e in c.items()} for c in cols]
    assert ExactMatrix(cols, 3).kernel() == ExactMatrix(doubled, 3).kernel()


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
        if rank(rows) < n:
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
        stacked = from_rows(a.rows, n).kernel() + from_rows(b.rows, n).kernel()
        both = Subspace(n, from_rows(stacked, n).kernel())
        total = Subspace.from_rows(n, a.rows + b.rows)
        assert a.dim + b.dim == total.dim + both.dim
        for r in both.rows:
            assert a.contains(r) and b.contains(r)
        assert total.contains_subspace(a) and total.contains_subspace(b)


def test_quotient_round_trip():
    rng = random.Random(515)
    for _ in range(30):
        n = rng.randint(2, 7)
        total = Subspace.from_rows(n, rand_rows(rng, n, n, density=0.8))
        if total.dim < 2:
            continue
        sub = Subspace.from_rows(n, total.rows[: rng.randint(1, total.dim - 1)])
        q = Quotient(sub, total)
        qdim, reps, proj = q.dim, q.reps, q.proj
        assert qdim == total.dim - sub.dim
        assert len(reps) == qdim
        assert (proj.nrows, proj.ncols) == (qdim, n)
        # proj(reps[j]) is the j-th unit coordinate vector
        for j, rep in enumerate(reps):
            assert proj.apply(rep) == {j: GR_ONE}
        # sub maps exactly to zero
        for r in sub.rows:
            assert proj.apply(r) == {}


def test_quotient_rejects_escaping_pivots():
    n = 3
    total = Subspace.from_rows(n, [{0: GR_ONE}])
    sub = Subspace.from_rows(n, [{1: GR_ONE}])
    with pytest.raises(LinalgError):
        Quotient(sub, total)


def test_exact_matrix_wrappers():
    rng = random.Random(3141)
    rows = rand_rows(rng, 4, 5)
    m = from_rows(rows, 5)
    assert m.rank() == rank(rows)
    assert m.nrows == 4 and m.ncols == 5
    v = {0: GR_ONE, 2: GR_ONE, 4: GR_ONE}
    assert m.apply(v) == {i: x for i, r in enumerate(rows) if (x := dot(r, v))}
    z = ExactMatrix.zeros(2, 3)
    assert z.is_zero()
    assert not ExactMatrix([{0: GR_ONE}], 1).is_zero()


def test_zero_dimensional_edges():
    assert rref([]) == ([], [])
    assert ExactMatrix.zeros(0, 3).kernel() == [{j: GR_ONE} for j in range(3)]
    assert rank([]) == 0
    s = Subspace.zero(4)
    assert s.dim == 0
    f = Subspace.full(3)
    assert f.dim == 3
    q = Quotient(s, f)
    assert q.dim == 3 and q.reps == f.rows
    assert q.proj == identity(3)


# -- the column reduction behind every kernel and Dolbeault image -----------

_GAUSS = st.builds(lambda a, b, d: GaussRational(Rational(a, d), Rational(b, d)),
                   st.integers(-3, 3), st.sampled_from([0, 0, 1, -2]),
                   st.integers(1, 3)).filter(bool)


@st.composite
def _sparse_columns(draw):
    """(nrows, sparse Q(i) columns), with zero, repeated and scaled columns."""
    nrows = draw(st.integers(0, 6))
    cols = draw(st.lists(st.dictionaries(st.integers(0, max(nrows - 1, 0)),
                                         _GAUSS, max_size=nrows)
                         if nrows else st.just({}), max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        if cols:
            src = draw(st.sampled_from(cols))
            f = draw(st.sampled_from([GR_ONE, GR_I, -GR_ONE]))
            cols.insert(draw(st.integers(0, len(cols))),
                        {i: f * x for i, x in src.items()})
    if cols and draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), {})
    return nrows, cols


def row_kernel(rows, ncols):
    """The canonical kernel of the matrix with these rows, as the row
    formulation computes it: one vector per free column of the rows' RREF,
    brought to RREF.  It shares no step with the column reduction."""
    red, pivots = rref(rows)
    vecs = []
    for f in range(ncols):
        if f not in pivots:
            vecs.append({f: GR_ONE, **{pc: -row[f] for row, pc in
                                       zip(red, pivots) if f in row}})
    return rref(vecs)[0]


def reversed_rref_kernel(cols):
    """The kernel as computed before the column reduction: the RREF of the
    rows with the column order reversed, whose free columns lead."""
    ncols, last = len(cols), len(cols) - 1
    rows: dict[int, dict] = {}
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows.setdefault(i, {})[last - j] = x
    red, pivots = rref(list(rows.values()))
    vecs = {last - c: {last - c: GR_ONE}
            for c in range(ncols) if c not in set(pivots)}
    for row, pc in zip(red, pivots):
        for c, x in row.items():
            if c != pc:
                vecs[last - c][last - pc] = -x
    return [vecs[f] for f in sorted(vecs)]


@settings(max_examples=300, deadline=None)
@given(_sparse_columns())
def test_reduce_columns_kernel_and_image(case):
    nrows, cols = case
    kernel, kept = reduce_columns(cols)
    m = ExactMatrix(cols, nrows)
    pivots = [min(k) for k in kernel]
    # RREF: pivots ascending, monic, and zero at every other pivot
    assert pivots == sorted(set(pivots))
    for k, pc in zip(kernel, pivots):
        assert k[pc] == GR_ONE
        assert all(o not in k for o in pivots if o != pc)
        assert m.apply(k) == {}
    assert len(kernel) == len(cols) - rank(cols)
    assert back_substitute(kept) == rref(cols)
    rows = [{j: col[i] for j, col in enumerate(cols) if i in col}
            for i in range(nrows)]
    assert len(cols) - len(kernel) == float_rank(rows, len(cols))
    assert kernel == reversed_rref_kernel(cols)
    assert m.kernel() == kernel == row_kernel(rows, len(cols))


@settings(max_examples=300, deadline=None)
@given(_sparse_columns())
def test_no_reduction_writes_its_input(case):
    # kept rows and columns alias the caller's dicts, so each reduction, and
    # the back substitution of what it kept, must leave its input as it was
    nrows, cols = case
    before = copy.deepcopy(cols)
    kept, _ = eliminate(cols)
    kept_before = copy.deepcopy(kept)
    back_substitute(kept)
    assert kept == kept_before
    rref(cols)
    rank(cols)
    _, ckept = reduce_columns(cols)
    ckept_before = copy.deepcopy(ckept)
    back_substitute(ckept)
    assert ckept == ckept_before
    sub = Subspace.from_rows(nrows, cols)
    assert all(sub.contains(col) for col in cols)
    assert cols == before


def test_kept_rows_are_not_monic_and_rows_build_on_read():
    # the second row is reduced by the first with factor -(1/2) / 2 and kept
    # as it stands, 7/4 at its lead; the first row is kept as the input dict
    two, half = GaussRational(Rational(2)), GaussRational(Rational(1, 2))
    rows = [{0: two, 1: GR_ONE}, {0: half, 1: two}]
    kept, leads = eliminate(rows)
    assert leads == [0, 1] and kept[0] is rows[0]
    assert kept[1] == {1: GaussRational(Rational(7, 4))}
    sub = Subspace.from_rows(2, rows)
    assert sub.pivots == [0, 1] and sub.dim == 2 and "rows" not in vars(sub)
    assert Quotient(sub, Subspace.full(2)).dim == 0
    assert "rows" not in vars(sub)
    assert sub.rows == [{0: GR_ONE}, {1: GR_ONE}]


def test_reduce_columns_pinned():
    # columns c0 = e0, c1 = i e0, c2 = 0, c3 = e0 + e1: the kernel is
    # spanned by c0 + i c1 and by c2, and the image is everything
    cols = [{0: GR_ONE}, {0: GR_I}, {}, {0: GR_ONE, 1: GR_ONE}]
    kernel, kept = reduce_columns(cols)
    assert kernel == [{0: GR_ONE, 1: GR_I}, {2: GR_ONE}]
    assert back_substitute(kept) == ([{0: GR_ONE}, {1: GR_ONE}], [0, 1])


def reference_eliminate(rows):
    """`eliminate` as it was before its empty-row and one-entry paths: every
    reduction step through `_axpy`."""
    kept, leads = {}, []
    for row in rows:
        v, lead = row, None
        while v:
            lead = min(v)
            pivot_row = kept.get(lead)
            if pivot_row is None:
                break
            if v is row:
                v = dict(row)
            _axpy(v, -v[lead] / pivot_row[lead], pivot_row)
        if v:
            kept[lead] = v
        leads.append(lead if v else None)
    return kept, leads


def reference_reduce_columns(cols):
    """`reduce_columns` as it was before its empty-column and one-entry
    paths: every reduction step through `_axpy`."""
    kept, combos, kernel = {}, {}, []
    for j in range(len(cols) - 1, -1, -1):
        v, combo = cols[j], {j: GR_ONE}
        while v:
            lead = min(v)
            row = kept.get(lead)
            if row is None:
                break
            if v is cols[j]:
                v = dict(v)
            f = -v[lead] / row[lead]
            _axpy(v, f, row)
            _axpy(combo, f, combos[lead])
        if v:
            kept[lead], combos[lead] = v, combo
        else:
            kernel.append(combo)
    kernel.reverse()
    return kernel, kept


@st.composite
def _reduction_inputs(draw):
    """(ambient, sparse Q(i) vectors) mixing planted one-entry vectors, empty
    ones, sums of earlier ones (which reduce to zero when taken after their
    summands) and general Gaussian ones, each with its keys in drawn order."""
    n = draw(st.integers(1, 7))
    index = st.integers(0, n - 1)
    vecs = []
    for kind in draw(st.lists(st.sampled_from("1e+gg"), max_size=10)):
        if kind == "1":
            vec = {draw(index): draw(_GAUSS)}
        elif kind == "e":
            vec = {}
        elif kind == "+" and vecs:
            vec = add(draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs)),
                      draw(st.sampled_from([GR_ONE, GR_I, -GR_ONE])))
        else:
            vec = draw(st.dictionaries(index, _GAUSS, max_size=n))
        order = draw(st.permutations(list(vec)))
        vecs.append({j: vec[j] for j in order})
    return n, vecs


def _items(vecs):
    return [list(v.items()) for v in vecs]


@settings(max_examples=400, deadline=None)
@given(_reduction_inputs())
def test_reductions_match_the_axpy_reference(case):
    # the empty-vector and one-entry paths change no value and no key order
    _, vecs = case
    kept, leads = eliminate(vecs)
    want_kept, want_leads = reference_eliminate(vecs)
    assert leads == want_leads
    assert list(kept) == list(want_kept)
    assert _items(kept.values()) == _items(want_kept.values())
    kernel, ckept = reduce_columns(vecs)
    want_kernel, want_ckept = reference_reduce_columns(vecs)
    assert _items(kernel) == _items(want_kernel)
    assert list(ckept) == list(want_ckept)
    assert _items(ckept.values()) == _items(want_ckept.values())
    assert back_substitute(kept)[1] == sorted(want_kept)


def test_one_entry_rows_reduce_with_no_arithmetic(monkeypatch):
    # every kept row has one entry, so each step only deletes the lead
    two, half = GaussRational(Rational(2)), GaussRational(Rational(1, 2))
    rows = [{0: two}, {}, {2: GR_I}, {2: half, 0: GR_I, 3: two},
            {0: -GR_ONE, 2: half}, {3: GR_ONE}, {1: two, 0: half}]
    calls = []
    for op in ("__truediv__", "__mul__", "__add__", "__sub__", "__neg__"):
        real = getattr(GaussRational, op)
        monkeypatch.setattr(GaussRational, op, lambda *a, _op=op, _f=real:
                            calls.append(_op) or _f(*a))
    kept, leads = eliminate(rows)
    assert calls == []
    assert leads == [0, None, 2, 3, None, None, 1]
    assert kept == {0: {0: two}, 2: {2: GR_I}, 3: {3: two}, 1: {1: two}}
    assert kept[0] is rows[0] and kept[2] is rows[2]
    assert rows[3] == {2: half, 0: GR_I, 3: two}


# -- the quotient behind every cohomology space ------------------------------

@st.composite
def _nested_pair(draw):
    """(sub, total, the rows that span total) with sub <= total: total
    spanned by sparse Q(i) rows, sub by random combinations of them."""
    n = draw(st.integers(1, 6))
    row = st.dictionaries(st.integers(0, n - 1), _GAUSS, max_size=n)
    spanning = draw(st.lists(row, min_size=1, max_size=5))
    combos = draw(st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2]),
                                    min_size=len(spanning),
                                    max_size=len(spanning)), max_size=4))
    sub_rows = [add_all(spanning, c) for c in combos]
    return (Subspace.from_rows(n, sub_rows), Subspace.from_rows(n, spanning),
            spanning)


def add_all(rows, coeffs):
    """sum_i coeffs[i] * rows[i] with integer coeffs."""
    out = {}
    for c, r in zip(coeffs, rows):
        if c:
            out = add(out, r, GaussRational(Rational(c)))
    return out


@settings(max_examples=200, deadline=None)
@given(_nested_pair(), st.data())
def test_quotient_reps_and_proj(case, data):
    sub, total, spanning = case
    q = Quotient(sub, total)
    assert "proj" not in vars(q)
    # reps: total's own rows, at the pivots of total that sub lacks, in order
    free = [pc for pc in total.pivots if pc not in set(sub.pivots)]
    assert q.reps == [total.rows[total.pivots.index(pc)] for pc in free]
    assert q.dim == len(free) == total.dim - sub.dim
    proj = q.proj
    assert q.proj is proj
    assert (proj.nrows, proj.ncols) == (q.dim, total.ambient)
    for j, rep in enumerate(q.reps):
        assert proj.apply(rep) == {j: GR_ONE}
    for r in sub.rows:
        assert proj.apply(r) == {}
    # linear on total, and x less its class's combination of reps is in sub
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(spanning),
                                max_size=len(spanning)))
    x = add_all(spanning, coeffs)
    assert proj.apply(x) == add_all([proj.apply(r) for r in spanning], coeffs)
    rest = x
    for j, c in proj.apply(x).items():
        rest = add(rest, q.reps[j], -c)
    assert sub.contains(rest)


@settings(max_examples=100, deadline=None)
@given(_nested_pair())
def test_quotient_rejects_every_escaping_pivot(case):
    sub, total, _ = case
    n = total.ambient
    outside = [c for c in range(n) if c not in set(total.pivots)]
    for c in outside:
        escaped = Subspace.from_rows(n, sub.rows + [{c: GR_ONE}])
        with pytest.raises(LinalgError):
            Quotient(escaped, total)
    # every pivot of a sub inside total is a pivot of total
    Quotient(sub, total)
