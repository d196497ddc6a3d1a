"""Exact invariant Dolbeault and Poisson cohomology of nilpotent Lie
algebras with complex structure, with the full page-by-page spectral
sequence of the vector-degree filtration.

The package exports the names its README's Library section uses and the
exception types; every other name is imported from its submodule.
"""

from . import (calculus, catalog, errors, exact_linalg, exterior, homology,
               lambda_parser, lie_structure, poisson, scalars)
from .calculus import CalculusContext
from .catalog import catalog_load
from .errors import (InternalInvariantError, NilpoissonError, NotAbelianError,
                     UsageError, ValidationError)
from .exact_linalg import ExactMatrix, LinalgError
from .homology import (BigradedComplex, TotalComplex, degeneration_verdict,
                       dolbeault_table, poisson_cohomology, spectral_pages)
from .lambda_parser import LambdaParseError, parse_lambda
from .poisson import holomorphic_bivector_space
from .scalars import GaussRational

__version__ = "0.1.0"

__all__ = [
    "BigradedComplex", "CalculusContext", "ExactMatrix", "GaussRational",
    "TotalComplex", "catalog_load", "degeneration_verdict", "dolbeault_table",
    "holomorphic_bivector_space", "parse_lambda", "poisson_cohomology",
    "spectral_pages",
    "InternalInvariantError", "LambdaParseError", "LinalgError",
    "NilpoissonError", "NotAbelianError", "UsageError", "ValidationError",
]
