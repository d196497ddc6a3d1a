"""Detection and construction of invariant holomorphic Poisson bivectors.

A bivector lam in the (2,0) cell is holomorphic Poisson when dbar(lam) = 0
and [lam, lam] = 0; `is_holomorphic_poisson` alone decides it, and the
bigraded complex assembles ad_lam from the table it compiles.  With an
abelian structure the bracket condition is automatic, so the candidates
form the kernel of one exact linear map; the central-wedge constructor
below produces a canonical lam whose spectral sequence degenerates at the
second page.
"""
from __future__ import annotations

from .calculus import (CalculusContext, ad_images, apply_table, dbar,
                       dbar_cell, derivation_table)
from .errors import (InternalInvariantError, NotAbelianError, ValidationError)
from .exact_linalg import Subspace
from .exterior import (CellBasis, MixedElement, element_entries,
                       element_from_coords)


class PoissonCandidate:
    """A (2,0) bivector with its verified flags, and the compiled table of
    ad_lam the flags were read from."""

    __slots__ = ("bivector", "dbar_closed", "schouten_square_zero",
                 "ad_identically_zero", "ad_table")

    def __init__(self, bivector: MixedElement, dbar_closed: bool,
                 schouten_square_zero: bool, ad_identically_zero: bool,
                 ad_table: list):
        self.bivector = bivector
        self.dbar_closed = dbar_closed
        self.schouten_square_zero = schouten_square_zero
        self.ad_identically_zero = ad_identically_zero
        self.ad_table = ad_table

    @property
    def holomorphic_poisson(self) -> bool:
        return self.dbar_closed and self.schouten_square_zero


def is_holomorphic_poisson(ctx: CalculusContext, lam: MixedElement) -> PoissonCandidate:
    """Evaluate the closedness, square-zero, and trivial-action flags
    exactly, [lam, lam] from the one compiled table of ad_lam."""
    if lam and lam.homogeneous_bidegree() != (2, 0):
        raise ValidationError("lam must be a homogeneous (2,0) bivector")
    table = derivation_table(ad_images(ctx, lam), ctx.n)
    return PoissonCandidate(lam, not dbar(ctx, lam),
                            not apply_table(table, ctx.n, lam), not table,
                            table)


class BivectorSpace:
    """dbar-closed (2,0) bivectors plus the verified Poisson candidates."""

    __slots__ = ("basis_monomials", "closed", "candidates")

    def __init__(self, basis_monomials: CellBasis, closed: Subspace,
                 candidates: list):
        self.basis_monomials = basis_monomials
        self.closed = closed
        self.candidates = candidates

    @property
    def dim(self) -> int:
        return self.closed.dim

    def contains(self, lam: MixedElement) -> bool:
        coords = element_entries(
            lam, {m: i for i, m in enumerate(self.basis_monomials)},
            "bivector space")
        return self.closed.contains(coords)


def holomorphic_bivector_space(ctx: CalculusContext) -> BivectorSpace:
    """Solve dbar(lam) = 0 on the (2,0) cell.

    Abelian structure: every solution is Poisson and all echelon basis
    elements come back as candidates.  Otherwise each basis solution is
    tested against [lam, lam] = 0 individually and only the survivors are
    returned; the quadric itself is not parametrized.
    """
    basis, mat = dbar_cell(ctx.dbar_table, ctx.n, 2, 0)
    closed = (Subspace(len(basis), mat.kernel()) if mat is not None
              else Subspace.full(len(basis)))
    candidates = []
    for coords in closed.rows:
        lam = element_from_coords(coords, basis)
        cand = is_holomorphic_poisson(ctx, lam)
        if not cand.dbar_closed:
            raise InternalInvariantError("kernel element is not dbar-closed")
        if ctx.abelian and not cand.schouten_square_zero:
            raise InternalInvariantError(
                "abelian structure produced a non-Poisson closed bivector")
        if cand.schouten_square_zero:
            candidates.append(cand)
    return BivectorSpace(basis, closed, candidates)


def theorem2_lambda(ctx: CalculusContext) -> PoissonCandidate:
    """Canonical central-wedge bivector with a degenerate spectral sequence.

    Two or more central (1,0) directions: wedge the first two echelon
    generators of c^(1,0); the adjoint action is then identically zero.
    Exactly one: wedge the deepest graded complement generator with the
    first generator one level up.
    """
    if not ctx.abelian:
        raise NotAbelianError("the construction needs an abelian structure")
    if ctx.n < 2:
        raise ValidationError(
            "needs at least two complex dimensions to form a bivector")
    g = ctx.grading
    c10 = g.c10
    if c10.dim >= 2:
        a = MixedElement.vector(c10.rows[0])
        b = MixedElement.vector(c10.rows[1])
        lam = a.wedge(b)
    else:
        if c10.dim == 0:
            raise InternalInvariantError(
                "nilpotent algebra with trivial central (1,0) part")
        top = g.t10[g.step]
        below = g.t10.get(g.s)
        if below is None or below.dim == 0:
            raise InternalInvariantError(
                "graded complement below the top level is zero; "
                "the filtration should be strictly decreasing")
        c = MixedElement.vector(top.rows[0])
        v = MixedElement.vector(below.rows[0])
        lam = c.wedge(v)
    cand = is_holomorphic_poisson(ctx, lam)
    if not cand.holomorphic_poisson:
        raise InternalInvariantError(
            "constructed central wedge failed the Poisson checks")
    return cand
