"""Nilpotent Lie algebras with complex structure: validation, frames, grading.

A presentation is a real 2n-dimensional algebra given by rational structure
constants for basis pairs i < j together with a rational matrix J, J^2 = -1.
The (1,0) frame v_1..v_n diagonalizes J; catalog presets carry a preferred
frame so printed formulas match the usual normalization v_j = (x_j - i y_j)/2.

Vectors are sparse dicts {0-based coordinate: GaussRational}, as everywhere
in the package.  A presentation compiles its rational input once into such
vectors: the columns of J and a table of every nonzero bracket of basis
vectors in both orders.  Brackets, J, the Jacobi check, the central series
and the center all read that table, and every sum goes through
`exact_linalg._axpy`.  Integrability and abelianity are read off the
brackets of the (1,0) eigenvectors of J.  `validate` keeps the central
series on its report and the grading reuses it, so one algebra's series is
computed once; a `CalculusContext` builds the grading only when it is read.
"""
from __future__ import annotations

from itertools import combinations

from .errors import InternalInvariantError, ValidationError
from .exact_linalg import (ExactMatrix, Quotient, Subspace, _axpy, combine,
                           eliminate, invert, rank)
from .scalars import (GR_I, GR_ONE, GR_ZERO, GaussRational,
                      rational_from_string, rational_to_string)

Vector = dict  # {0-based ambient coordinate: nonzero GaussRational}


class AlgebraPresentation:
    """Real nilpotent Lie algebra with complex structure, exact data."""

    __slots__ = ("dim", "brackets", "jmat", "jcols", "structure",
                 "frame_rows", "name")

    def __init__(self, dim, brackets, jmat, frame_rows=None, name="algebra"):
        self.dim = dim
        # the rational input, as `presentation_to_dict` writes it out
        self.brackets = brackets  # {(i, j): {k: Rational}} with i < j, 1-based
        self.jmat = jmat  # rows: (J e_j)_i = jmat[i][j]
        # the same data compiled once into sparse vectors over Q(i), 0-based:
        # jcols[j] = J e_(j+1), and structure[(a, b)] = [e_(a+1), e_(b+1)]
        # in both orders for each nonzero bracket; nothing mutates them
        self.jcols = [{i: GaussRational(c) for i, c in enumerate(col) if c}
                      for col in zip(*jmat)]
        self.structure = {}
        for (i, j), out in brackets.items():
            vec = {k - 1: GaussRational(c) for k, c in out.items() if c}
            if vec:
                self.structure[(i - 1, j - 1)] = vec
                self.structure[(j - 1, i - 1)] = {k: -c for k, c in vec.items()}
        self.frame_rows = frame_rows  # optional preferred (1,0) basis vectors
        self.name = name

    def bracket_vectors(self, u: Vector, w: Vector) -> Vector:
        """Bilinear extension of the structure constants over Q(i), expanded
        over the nonzero coordinates of u and w."""
        acc: Vector = {}
        structure = self.structure
        for a, x in u.items():
            for b, y in w.items():
                vec = structure.get((a, b))
                if vec is not None:
                    _axpy(acc, x * y, vec)
        return acc

    def j_apply(self, u: Vector) -> Vector:
        return combine(u, self.jcols)

    def basis_vector(self, i: int) -> Vector:
        return {i - 1: GR_ONE}


class ValidationReport:
    __slots__ = ("dim_even", "indices_ok", "jacobi_ok", "jacobi_failure",
                 "j_square_ok", "nilpotent", "step", "integrable", "abelian",
                 "errors", "series")

    def __init__(self):
        self.dim_even = True
        self.indices_ok = True
        self.jacobi_ok = True
        self.jacobi_failure: tuple | None = None
        self.j_square_ok = True
        self.nilpotent = True
        self.step: int | None = None
        self.integrable = False
        self.abelian = False
        self.errors: list = []
        self.series: list = []  # central_series(p); empty if indices fail

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        lines = [
            f"dim even:            {self.dim_even}",
            f"bracket indices:     {self.indices_ok}",
            f"jacobi:              {self.jacobi_ok}"
            + (f"  (fails at {self.jacobi_failure})" if self.jacobi_failure else ""),
            f"J^2 = -1:            {self.j_square_ok}",
            f"nilpotent:           {self.nilpotent}"
            + (f"  (step {self.step})" if self.step else ""),
            f"J integrable:        {self.integrable}",
            f"J abelian:           {self.abelian}",
            f"valid:               {self.ok}",
        ]
        if self.errors:
            lines.extend("error: " + e for e in self.errors)
        return "\n".join(lines)


def validate(p: AlgebraPresentation) -> ValidationReport:
    rep = ValidationReport()
    n2 = p.dim
    if n2 % 2 or n2 <= 0:
        rep.dim_even = False
        rep.errors.append(f"dimension {n2} is not a positive even number")
    for (i, j), out in p.brackets.items():
        if not (1 <= i < j <= n2) or any(not (1 <= k <= n2) for k in out):
            rep.indices_ok = False
            rep.errors.append(f"bracket ({i},{j}) has out-of-range indices")
            break
    if not rep.ok:
        return rep

    # every term [[a,b],c] needs [a,b] != 0, so a triple none of whose pairs
    # has a bracket cannot fail; visit the others in lexicographic order
    linked: dict[int, set] = {a: set() for a in range(1, n2 + 1)}
    for i, j in p.brackets:
        linked[i].add(j)
        linked[j].add(i)
    triples = ((i, j, k) for i, j in combinations(range(1, n2 + 1), 2)
               for k in (range(j + 1, n2 + 1) if j in linked[i]
                         else sorted(c for c in linked[i] | linked[j] if c > j)))
    structure = p.structure
    for i, j, k in triples:
        jac: Vector = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in structure.get((a - 1, b - 1), {}).items():
                vec = structure.get((m, c - 1))
                if vec is not None:
                    _axpy(jac, x, vec)
        if jac:
            rep.jacobi_ok = False
            rep.jacobi_failure = (i, j, k)
            rep.errors.append(f"jacobi identity fails on ({i},{j},{k})")
            break

    for j, col in enumerate(p.jcols):
        if p.j_apply(col) != {j: -GR_ONE}:
            rep.j_square_ok = False
            rep.errors.append(f"J^2 != -1 on basis vector {j + 1}")
            break

    rep.series = central_series(p)
    if rep.series[-1].dim != 0:
        rep.nilpotent = False
        rep.errors.append("descending central series does not reach zero")
    else:
        rep.step = len(rep.series) - 1  # series = [g^0, ..., g^{s+1} = 0]

    if rep.j_square_ok:
        # N = 0 iff [g^(1,0), g^(1,0)] lies in g^(1,0), and J is abelian iff
        # g^(1,0) is abelian, so one bracket per pair of (1,0) rows decides both
        rep.integrable = rep.abelian = True
        for v, w in combinations(_eigen_rows(p), 2):
            u = p.bracket_vectors(v, w)
            if u:
                rep.abelian = False
                if p.j_apply(u) != {k: GR_I * c for k, c in u.items()}:
                    rep.integrable = False
                    rep.errors.append("complex structure is not integrable"
                                      " (Nijenhuis tensor != 0)")
                    break
    return rep


def _eigen_rows(p: AlgebraPresentation) -> list[Vector]:
    """The +i eigenvectors of J, as the RREF kernel of J - i."""
    # J is real, so no diagonal entry cancels
    shifted = [{**col, k: col.get(k, GR_ZERO) - GR_I}
               for k, col in enumerate(p.jcols)]
    return ExactMatrix(shifted, p.dim).kernel()


def central_series(p: AlgebraPresentation) -> list[Subspace]:
    """Descending central series g^0 = g, g^{k+1} = [g^k, g], until it
    reaches zero or stalls; each step shrinks the dimension or stops, so
    there are at most dim + 1 entries."""
    n2 = p.dim
    # right[i] lists (j, [e_(i+1), e_(j+1)]) over the nonzero brackets only
    right: dict[int, list] = {}
    for (i, j), vec in p.structure.items():
        right.setdefault(i, []).append((j, vec))
    series = [Subspace.full(n2)]
    # each level is spanned by the rows its elimination keeps, so the next
    # one brackets those and no level back-substitutes
    span = series[0].rows
    while True:
        rows = []
        for b in span:
            # [b, e_(j+1)] = sum_i b_i [e_(i+1), e_(j+1)], for each j in turn
            images: dict[int, dict] = {}
            for i, x in b.items():
                for j, vec in right.get(i, ()):
                    _axpy(images.setdefault(j, {}), x, vec)
            rows.extend(w for _, w in sorted(images.items()) if w)
        kept = eliminate(rows)[0]
        series.append(Subspace.from_echelon(n2, kept))
        if not kept or len(kept) == len(span):
            break
        span = list(kept.values())
    return series


def center_subspace(p: AlgebraPresentation) -> Subspace:
    """The kernel of x -> ([x, e_j])_j, whose column i holds each
    coordinate k of [e_i, e_j] at row j * dim + k."""
    dim = p.dim
    cols: list[dict] = [{} for _ in range(dim)]
    for (i, j), vec in p.structure.items():
        cols[i].update({j * dim + k: x for k, x in vec.items()})
    return Subspace(dim, ExactMatrix(cols, dim * dim).kernel())


class ComplexFrame:
    """Diagonalizing frame for J with exact dual coframe and brackets."""

    __slots__ = (
        "presentation", "n", "v_rows", "vbar_rows", "binv", "bracket_vv",
        "bracket_vvbar", "abelian", "report",
    )

    def __init__(self, presentation, n, v_rows, vbar_rows, binv, bracket_vv,
                 bracket_vvbar, abelian, report):
        self.presentation = presentation
        self.n = n
        self.v_rows = v_rows
        self.vbar_rows = vbar_rows
        # rows of the inverse of the frame v_rows + vbar_rows; column a of
        # it is the dual coframe omega_(a+1), and column n + a is omegabar_(a+1)
        self.binv = binv
        # sparse coefficients, indexed from 0, on the v and on the vbar frame
        # [v_i, v_j] has no vbar part for an integrable structure
        self.bracket_vv = bracket_vv      # {(i,j) i<j: v_coords}
        self.bracket_vvbar = bracket_vvbar  # {(i,j) all: (v_coords, vbar_coords)}
        self.abelian = abelian
        self.report = report  # the ValidationReport the frame was built after

    def coords_10(self, u: Vector) -> dict:
        return _coframe_coords(self.binv, self.n, u)[0]

    def vector_from_coords(self, coords: dict) -> Vector:
        return combine(coords, self.v_rows)


def _coframe_coords(binv: list[Vector], n: int, u: Vector) -> tuple[dict, dict]:
    """The nonzero omega_a(u) and omegabar_a(u), each by a ascending.  The
    coframe rows are the columns of binv, so all 2n pairings are one
    combination of binv's rows, split at n."""
    w = combine(u, binv)
    keys = sorted(w)
    return ({k: w[k] for k in keys if k < n},
            {k - n: w[k] for k in keys if k >= n})


def complex_frame(p: AlgebraPresentation,
                  rep: ValidationReport | None = None) -> ComplexFrame:
    """Build the (1,0) frame; raises ValidationError when J is not integrable.

    rep is the validation of p when the caller already holds it, for
    instance from a presentation that differs from p only in its frame rows.
    """
    if rep is None:
        rep = validate(p)
    if not rep.ok:
        raise ValidationError("; ".join(rep.errors))
    n2 = p.dim
    n = n2 // 2
    if p.frame_rows is not None:
        v_rows = [dict(r) for r in p.frame_rows]
        if len(v_rows) != n:
            raise ValidationError("preferred frame must have dim/2 rows")
        for r in v_rows:
            if p.j_apply(r) != {k: GR_I * c for k, c in r.items()}:
                raise ValidationError("preferred frame row is not a (1,0) vector")
    else:
        v_rows = _eigen_rows(p)
        if len(v_rows) != n:
            raise ValidationError("the +i eigenspace of J has wrong dimension")

    vbar_rows = [{k: c.conjugate() for k, c in r.items()} for r in v_rows]
    try:
        binv = invert(v_rows + vbar_rows)
    except Exception as exc:
        raise ValidationError("frame rows do not span the complexification") from exc

    bracket_vv, bracket_vvbar = {}, {}
    abelian = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j > i:
                u = p.bracket_vectors(v_rows[i - 1], v_rows[j - 1])
                c10, c01 = _coframe_coords(binv, n, u)
                if c01:
                    raise InternalInvariantError(
                        "integrable structure produced a (0,1) part in [v_i, v_j]")
                abelian = abelian and not c10
                bracket_vv[(i, j)] = c10
            if j < i:
                # the brackets are real, so [v_i, vbar_j] = -conj([v_j, vbar_i])
                c10, c01 = bracket_vvbar[(j, i)]
                bracket_vvbar[(i, j)] = ({k: -c.conjugate() for k, c in c01.items()},
                                         {k: -c.conjugate() for k, c in c10.items()})
            else:
                u = p.bracket_vectors(v_rows[i - 1], vbar_rows[j - 1])
                bracket_vvbar[(i, j)] = _coframe_coords(binv, n, u)
    if abelian != rep.abelian:
        raise InternalInvariantError("frame abelian flag disagrees with validation")
    return ComplexFrame(p, n, v_rows, vbar_rows, binv, bracket_vv,
                        bracket_vvbar, abelian, rep)


class Grading:
    """Central-series data refined by J, in frame coordinates."""

    __slots__ = ("n", "step", "t10", "c10")

    def __init__(self, n: int, step: int, t10: dict, c10: Subspace):
        self.n = n
        self.step = step  # s + 1
        self.t10 = t10    # k -> complement Subspace, k = 1..s+1
        self.c10 = c10    # central (1,0) vectors, frame coordinates

    @property
    def s(self) -> int:
        return self.step - 1


def _level10(frame: ComplexFrame, rows: list[Vector], dim: int) -> Subspace:
    """The (1,0) part, in frame coordinates, of the J-invariant real subspace
    of dimension dim that is spanned by rows and J rows.  omega(J u) =
    i omega(u), so the (1,0) coordinates of rows alone span it."""
    out = Subspace.from_rows(frame.n, [frame.coords_10(u) for u in rows])
    if 2 * out.dim != dim:
        raise InternalInvariantError("J-invariant subspace has odd splitting")
    return out


def _j_core(p: AlgebraPresentation, sub: Subspace) -> list[Vector]:
    """Independent rows spanning the intersection of sub and J sub: over the
    rows u_i of sub, sum_i a_i u_i for each kernel vector (a, b) of
    (a, b) -> sum_i a_i u_i - b_i J u_i."""
    m, rows = sub.dim, sub.rows
    cols = rows + [{k: -x for k, x in p.j_apply(u).items()} for u in rows]
    return [combine({i: x for i, x in ab.items() if i < m}, rows)
            for ab in ExactMatrix(cols, p.dim).kernel()]


def grading(p: AlgebraPresentation, frame: ComplexFrame | None = None) -> Grading:
    if frame is None:
        frame = complex_frame(p)
    n = frame.n
    # the frame exists only for a valid report, whose series ends at g^{s+1} = 0
    series = frame.report.series
    step = len(series) - 1
    center = center_subspace(p)

    # the (1,0) part of each g_J^k = g^k + J g^k, checked against its rank
    gj10 = [_level10(frame, sub.rows, rank(sub.rows + [p.j_apply(u) for u in sub.rows]))
            for sub in series]

    t10 = {}
    for k in range(1, step + 1):
        upper, lower = gj10[k - 1], gj10[k]
        if not upper.contains_subspace(lower):
            raise InternalInvariantError(f"g_J^{k} is not contained in g_J^{k - 1}")
        t10[k] = Subspace(n, Quotient(lower, upper).reps)
    # the central (1,0) vectors are the (1,0) part of z and J z's
    # intersection, which is all of z when the structure is abelian
    core = _j_core(p, center)
    c10 = _level10(frame, core, len(core))

    s = step - 1
    # holds for abelian structures; flag loudly if data claims otherwise
    if s >= 1 and frame.report.abelian and not all(
            center.contains(w) for u in series[s].rows for w in (u, p.j_apply(u))):
        raise InternalInvariantError("g_J^s is not contained in the center")
    total = sum(t10[k].dim for k in t10)
    if total != n:
        raise InternalInvariantError("t-splitting does not fill g^(1,0)")
    return Grading(n=n, step=step, t10=t10, c10=c10)


def presentation_to_dict(p: AlgebraPresentation) -> dict:
    brackets = []
    for (i, j) in sorted(p.brackets):
        out = p.brackets[(i, j)]
        brackets.append({
            "i": i,
            "j": j,
            "out": {str(k): rational_to_string(c) for k, c in sorted(out.items())},
        })
    jmat = [[rational_to_string(p.jmat[i][j]) for j in range(p.dim)] for i in range(p.dim)]
    return {"dim": p.dim, "brackets": brackets, "J": jmat}


def _integer(value, key: str) -> int:
    """An integer field of a presentation: a JSON integer or an integer
    string; int() would truncate a float and read a boolean as 0 or 1."""
    if isinstance(value, (bool, float)):
        raise ValueError(f'"{key}" must be an integer, not {value!r}')
    return int(value)


def presentation_from_dict(data: dict, name: str = "file") -> AlgebraPresentation:
    try:
        dim = _integer(data["dim"], "dim")
        brackets = {}
        for ent in data.get("brackets", []):
            i, j = _integer(ent["i"], "i"), _integer(ent["j"], "j")
            if i == j:
                raise ValueError(f"bracket ({i},{i}) of a vector with itself")
            if not isinstance(ent["out"], dict):
                raise ValueError(f'"out" of bracket ({i},{j}) must be a JSON object')
            if i > j:
                i, j = j, i
                out = {int(k): -rational_from_string(v) for k, v in ent["out"].items()}
            else:
                out = {int(k): rational_from_string(v) for k, v in ent["out"].items()}
            key = (i, j)
            if key in brackets:
                raise ValueError(f"bracket ({i},{j}) given twice")
            out = {k: c for k, c in out.items() if c}
            if out:
                brackets[key] = out
        jraw = data["J"]
        if len(jraw) != dim or any(len(r) != dim for r in jraw):
            raise ValueError("J must be a dim x dim matrix")
        jmat = [[rational_from_string(jraw[i][j]) for j in range(dim)] for i in range(dim)]
    except (KeyError, TypeError, ValueError) as exc:
        from .errors import UsageError

        raise UsageError(f"bad algebra data: {exc}") from exc
    return AlgebraPresentation(dim, brackets, jmat, name=name)
