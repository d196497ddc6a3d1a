"""Exact invariant Dolbeault and Poisson cohomology of nilpotent Lie
algebras with complex structure, with the full page-by-page spectral
sequence of the vector-degree filtration."""

from .calculus import (CalculusContext, ad, ad_images, apply_odd_derivation,
                       dbar, dbar_lambda, schouten)
from .catalog import (CATALOG, catalog_load, kodaira, load_file, save_file,
                      torus, tower)
from .errors import (InternalInvariantError, NilpoissonError, NotAbelianError,
                     UsageError, ValidationError)
from .exact_linalg import ExactMatrix, LinalgError, Subspace, quotient_map
from .exterior import MixedElement, cell_monomials, graded_monomials
from .homology import (BigradedComplex, CohomologyCell, DegenerationVerdict,
                       SpectralPage, TotalComplex, d_bicomplex_crosscheck,
                       degeneration_verdict, dolbeault_cohomology,
                       dolbeault_table, e2_dims_via_induced_map,
                       poisson_betti, poisson_cohomology, spectral_pages)
from .lambda_parser import LambdaExpr, LambdaParseError, parse_lambda
from .lie_structure import (AlgebraPresentation, ComplexFrame, Grading,
                            ValidationReport, complex_frame, grading,
                            presentation_from_dict, presentation_to_dict,
                            validate)
from .poisson import (BivectorSpace, PoissonCandidate,
                      holomorphic_bivector_space, is_holomorphic_poisson,
                      theorem2_lambda)
from .scalars import GaussRational, Rational, gauss, gauss_from_string

__version__ = "0.1.0"

__all__ = [
    "AlgebraPresentation", "BigradedComplex", "BivectorSpace", "CATALOG",
    "CalculusContext", "CohomologyCell", "ComplexFrame", "DegenerationVerdict",
    "ExactMatrix", "GaussRational", "Grading", "InternalInvariantError",
    "LambdaExpr", "LambdaParseError", "LinalgError", "MixedElement",
    "NilpoissonError", "NotAbelianError", "PoissonCandidate", "Rational",
    "SpectralPage", "Subspace", "TotalComplex", "UsageError",
    "ValidationError", "ValidationReport", "ad", "ad_images",
    "apply_odd_derivation", "catalog_load", "cell_monomials", "complex_frame",
    "d_bicomplex_crosscheck", "dbar", "dbar_lambda", "degeneration_verdict",
    "dolbeault_cohomology", "dolbeault_table", "e2_dims_via_induced_map",
    "gauss", "gauss_from_string",
    "graded_monomials", "grading", "holomorphic_bivector_space",
    "is_holomorphic_poisson", "kodaira", "load_file", "parse_lambda",
    "poisson_betti", "poisson_cohomology", "presentation_from_dict",
    "presentation_to_dict", "quotient_map", "save_file", "schouten",
    "spectral_pages", "theorem2_lambda", "torus", "tower", "validate",
]
