"""Nilpotent Lie algebras with complex structure: validation, frames, grading.

A presentation is a real 2n-dimensional algebra given by rational structure
constants for basis pairs i < j together with a rational matrix J, J^2 = -1.
The (1,0) frame v_1..v_n diagonalizes J; catalog presets carry a preferred
frame so printed formulas match the usual normalization v_j = (x_j - i y_j)/2.

Vectors are sparse dicts {0-based coordinate: GaussRational}, as everywhere
in the package.  The Jacobi check, the central series and the center read
the brackets of basis vectors straight from the sparse structure constants.
`validate` keeps the central series on its report and the grading reuses
it, so one algebra's series is computed once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import InternalInvariantError, ValidationError
from .exact_linalg import (Subspace, combine, invert, kernel_basis,
                           quotient_map, sum_entries)
from .scalars import (GR_I, GR_ONE, GR_ZERO, GaussRational, RAT_ZERO,
                      Rational, rational_from_string, rational_to_string)

Vector = dict  # {0-based ambient coordinate: nonzero GaussRational}


class AlgebraPresentation:
    """Real nilpotent Lie algebra with complex structure, exact data."""

    __slots__ = ("dim", "brackets", "jmat", "frame_rows", "name")

    def __init__(self, dim, brackets, jmat, frame_rows=None, name="algebra"):
        self.dim = dim
        self.brackets = brackets  # {(i, j): {k: Rational}} with i < j, 1-based
        self.jmat = jmat  # rows: (J e_j)_i = jmat[i][j]
        self.frame_rows = frame_rows  # optional preferred (1,0) basis vectors
        self.name = name

    def bracket_basis(self, i: int, j: int) -> dict[int, Rational]:
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        out = self.brackets.get((j, i), {})
        return {k: -c for k, c in out.items()}

    def bracket_vectors(self, u: Vector, w: Vector) -> Vector:
        """Bilinear extension of the structure constants over Q(i)."""
        acc: Vector = {}
        for (i, j), out in self.brackets.items():
            ui, uj = u.get(i - 1), u.get(j - 1)
            wi, wj = w.get(i - 1), w.get(j - 1)
            f = GR_ZERO
            if ui and wj:
                f = ui * wj
            if uj and wi:
                f = f - uj * wi
            if f:
                _add_scaled(acc, f, ((k - 1, c) for k, c in out.items()))
        return acc

    def j_apply(self, u: Vector) -> Vector:
        acc: Vector = {}
        for j, x in u.items():
            _add_scaled(acc, x, ((i, row[j]) for i, row in enumerate(self.jmat)))
        return acc

    def basis_vector(self, i: int) -> Vector:
        return {i - 1: GR_ONE}


def _add_scaled(acc: Vector, f: GaussRational, pairs) -> None:
    """acc[k] += f * c in place for each (k, rational c), dropping the
    entries that cancel."""
    for k, c in pairs:
        if not c:
            continue
        y = acc.get(k, GR_ZERO) + f.scale(c)
        if y:
            acc[k] = y
        else:
            del acc[k]


@dataclass
class ValidationReport:
    dim_even: bool = True
    indices_ok: bool = True
    antisymmetry_ok: bool = True
    jacobi_ok: bool = True
    jacobi_failure: tuple | None = None
    j_square_ok: bool = True
    nilpotent: bool = True
    step: int | None = None
    integrable: bool = False
    abelian: bool = False
    errors: list = field(default_factory=list)
    series: list = field(default_factory=list)  # central_series(p); empty if indices fail

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

    for i, j, k in combinations(range(1, n2 + 1), 3):
        jac: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in p.bracket_basis(a, b).items():
                for t, y in p.bracket_basis(m, c).items():
                    jac[t] = jac.get(t, RAT_ZERO) + x * y
        if any(jac.values()):
            rep.jacobi_ok = False
            rep.jacobi_failure = (i, j, k)
            rep.errors.append(f"jacobi identity fails on ({i},{j},{k})")
            break

    basis = [p.basis_vector(i) for i in range(1, n2 + 1)]
    for j in range(1, n2 + 1):
        if p.j_apply(p.j_apply(basis[j - 1])) != {j - 1: -GR_ONE}:
            rep.j_square_ok = False
            rep.errors.append(f"J^2 != -1 on basis vector {j}")
            break

    rep.series = central_series(p)
    if rep.series[-1].dim != 0:
        rep.nilpotent = False
        rep.errors.append("descending central series does not reach zero")
    else:
        rep.step = len(rep.series) - 1  # series = [g^0, ..., g^{s+1} = 0]

    if rep.j_square_ok:
        jb = [p.j_apply(b) for b in basis]
        integrable = True
        abelian = True
        for i in range(1, n2 + 1):
            for j in range(i + 1, n2 + 1):
                # N(e_i, e_j) = [Je_i, Je_j] - [e_i, e_j]
                #               - J([Je_i, e_j] + [e_i, Je_j])
                lhs = p.bracket_vectors(jb[i - 1], jb[j - 1])
                base = _basis_bracket(p, i, j)
                if lhs != base:
                    abelian = False
                mixed = combine(_PLUS, [p.bracket_vectors(jb[i - 1], basis[j - 1]),
                                        p.bracket_vectors(basis[i - 1], jb[j - 1])])
                if combine(_MINUS, [lhs, base]) != p.j_apply(mixed):
                    integrable = False
        rep.integrable = integrable
        rep.abelian = abelian
        if abelian and not integrable:
            raise InternalInvariantError("abelian complex structure failed integrability")
        if not integrable:
            rep.errors.append("complex structure is not integrable (Nijenhuis tensor != 0)")
    return rep


_PLUS = {0: GR_ONE, 1: GR_ONE}
_MINUS = {0: GR_ONE, 1: -GR_ONE}


def central_series(p: AlgebraPresentation) -> list[Subspace]:
    """Descending central series g^0 = g, g^{k+1} = [g^k, g], until it
    reaches zero or stalls; each step shrinks the dimension or stops, so
    there are at most dim + 1 entries."""
    n2 = p.dim
    # ad[j][i] = [e_{i+1}, e_{j+1}], so [b, e_{j+1}] = combine(b, ad[j])
    ad = [[_basis_bracket(p, i, j) for i in range(1, n2 + 1)]
          for j in range(1, n2 + 1)]
    series = [Subspace.full(n2)]
    while True:
        prev = series[-1]
        rows = [w for b in prev.rows for col in ad if (w := combine(b, col))]
        nxt = Subspace.from_rows(n2, rows)
        series.append(nxt)
        if nxt.dim == 0 or nxt.dim == prev.dim:
            break
    return series


def center_subspace(p: AlgebraPresentation) -> Subspace:
    """The kernel of x -> ([x, e_j])_j, one row per coordinate k of [x, e_j]."""
    rows: dict = {}
    for i in range(1, p.dim + 1):
        for j in range(1, p.dim + 1):
            for k, x in _basis_bracket(p, i, j).items():
                rows.setdefault((j, k), {})[i - 1] = x
    return Subspace(p.dim, kernel_basis(list(rows.values()), p.dim))


def _basis_bracket(p: AlgebraPresentation, i: int, j: int) -> dict:
    """[e_i, e_j] as a sparse vector over Q(i), indexed from 0."""
    return {k - 1: GaussRational(c, RAT_ZERO)
            for k, c in p.bracket_basis(i, j).items() if c}


class ComplexFrame:
    """Diagonalizing frame for J with exact dual coframe and brackets."""

    __slots__ = (
        "presentation", "n", "v_rows", "vbar_rows", "omega_rows",
        "omegabar_rows", "bracket_vv", "bracket_vvbar", "abelian", "report",
    )

    def __init__(self, presentation, n, v_rows, vbar_rows, omega_rows,
                 omegabar_rows, bracket_vv, bracket_vvbar, abelian, report):
        self.presentation = presentation
        self.n = n
        self.v_rows = v_rows
        self.vbar_rows = vbar_rows
        self.omega_rows = omega_rows
        self.omegabar_rows = omegabar_rows
        # sparse coefficients, indexed from 0, on the v and on the vbar frame
        # [v_i, v_j] has no vbar part for an integrable structure
        self.bracket_vv = bracket_vv      # {(i,j) i<j: v_coords}
        self.bracket_vvbar = bracket_vvbar  # {(i,j) all: (v_coords, vbar_coords)}
        self.abelian = abelian
        self.report = report  # the ValidationReport the frame was built after

    def coords_10(self, u: Vector) -> dict:
        return _pair_rows(self.omega_rows, u)

    def vector_from_coords(self, coords: dict) -> Vector:
        return combine(coords, self.v_rows)


def _pair_rows(rows: list[Vector], u: Vector) -> dict:
    """The nonzero pairings of u with each row, by row index."""
    return {a: x for a, w in enumerate(rows) if (x := sum_entries(w, u))}


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
        # the rows of J - i
        shifted = [{j: GaussRational(c, RAT_ZERO) for j, c in enumerate(row) if c}
                   for row in p.jmat]
        for k in range(n2):
            shifted[k][k] = shifted[k].get(k, GR_ZERO) - GR_I
        v_rows = kernel_basis(shifted, n2)
        if len(v_rows) != n:
            raise ValidationError("the +i eigenspace of J has wrong dimension")

    vbar_rows = [{k: c.conjugate() for k, c in r.items()} for r in v_rows]
    try:
        binv = invert(v_rows + vbar_rows)
    except Exception as exc:
        raise ValidationError("frame rows do not span the complexification") from exc
    # dual coframe rows: omega_i(v_j) = delta, omega_i(vbar_j) = 0 and
    # conversely; they are the columns of the inverse
    w_all: list[Vector] = [{} for _ in range(n2)]
    for a, row in enumerate(binv):
        for k, x in row.items():
            w_all[k][a] = x
    omega_rows = w_all[:n]
    omegabar_rows = w_all[n:]

    bracket_vv = {}
    abelian = True
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            u = p.bracket_vectors(v_rows[i - 1], v_rows[j - 1])
            if _pair_rows(omegabar_rows, u):
                raise InternalInvariantError(
                    "integrable structure produced a (0,1) part in [v_i, v_j]"
                )
            c10 = _pair_rows(omega_rows, u)
            if c10:
                abelian = False
            bracket_vv[(i, j)] = c10
    bracket_vvbar = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            u = p.bracket_vectors(v_rows[i - 1], vbar_rows[j - 1])
            bracket_vvbar[(i, j)] = (_pair_rows(omega_rows, u),
                                     _pair_rows(omegabar_rows, u))
    if abelian != rep.abelian:
        raise InternalInvariantError("frame abelian flag disagrees with validation")
    return ComplexFrame(p, n, v_rows, vbar_rows, omega_rows, omegabar_rows,
                        bracket_vv, bracket_vvbar, abelian, rep)


@dataclass
class Grading:
    """Central-series data refined by J, in frame coordinates."""

    n: int
    step: int                      # s + 1
    t10: dict                      # k -> complement Subspace, k = 1..s+1
    c10: "Subspace"                # (1,0) part of the center, frame coordinates

    @property
    def s(self) -> int:
        return self.step - 1


# u -> (u - i J u) / 2, the projection onto the (1,0) part
_HALF_TO_10 = {0: GaussRational(Rational(1, 2), RAT_ZERO),
               1: GaussRational(RAT_ZERO, Rational(-1, 2))}


def _part10(p: AlgebraPresentation, frame: ComplexFrame, sub: Subspace) -> Subspace:
    """(1,0) part of a J-invariant real subspace, in frame coordinates."""
    rows = [frame.coords_10(combine(_HALF_TO_10, [u, p.j_apply(u)]))
            for u in sub.rows]
    out = Subspace.from_rows(frame.n, rows)
    if 2 * out.dim != sub.dim:
        raise InternalInvariantError("J-invariant subspace has odd splitting")
    return out


def grading(p: AlgebraPresentation, frame: ComplexFrame | None = None) -> Grading:
    if frame is None:
        frame = complex_frame(p)
    n2, n = p.dim, frame.n
    # the frame exists only for a valid report, whose series ends at g^{s+1} = 0
    series = frame.report.series
    step = len(series) - 1
    center = center_subspace(p)

    gj = []  # g_J^k = g^k + J g^k, real ambient
    for sub in series:
        jrows = [p.j_apply(u) for u in sub.rows]
        gj.append(Subspace.from_rows(n2, sub.rows + jrows))
    gj10 = [_part10(p, frame, sub) for sub in gj]

    t10 = {}
    for k in range(1, step + 1):
        upper, lower = gj10[k - 1], gj10[k]
        _, reps, _ = quotient_map(lower, upper)
        t10[k] = Subspace(n, reps)
    c10 = _part10(p, frame, center)

    s = step - 1
    # holds for abelian structures; flag loudly if data claims otherwise
    if s >= 1 and frame.report.abelian and not center.contains_subspace(gj[s]):
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
