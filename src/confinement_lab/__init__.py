"""confinement_lab: numerical tools for purely magnetic confinement.

Subpackages cover the pointwise spectral norm of field two-forms, domains
with exact boundary distance, a catalog of magnetic fields, near-boundary
confinement criterion scans, discrete magnetic Schrodinger operators on
lattices, radial endpoint (Weyl) classification, and the exact spectrum of
the spherical charge-monopole Landau problem.
"""

__version__ = "0.1.0"

from .errors import (
    AssemblyError,
    ConfinementError,
    DomainError,
    RangeError,
    SingularityError,
    SolverError,
    ValidationError,
)

__all__ = [
    "__version__",
    "AssemblyError",
    "ConfinementError",
    "DomainError",
    "RangeError",
    "SingularityError",
    "SolverError",
    "ValidationError",
]
