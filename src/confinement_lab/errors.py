"""Exception types shared across the library."""


class ConfinementError(Exception):
    """Base class for all library errors."""


class ValidationError(ConfinementError, ValueError):
    """Bad construction parameters or malformed input data."""


class DomainError(ConfinementError, ValueError):
    """Point outside the domain, or an operation applied to the wrong domain kind."""


class RangeError(ConfinementError, ValueError):
    """Numeric parameter outside its admissible range (depths, truncations, ...)."""


class SingularityError(ConfinementError, ArithmeticError):
    """Field or potential evaluated on its singular locus."""


class AssemblyError(ConfinementError, RuntimeError):
    """Lattice operator assembly failed (e.g. singular potential on a retained edge)."""


class SolverError(ConfinementError, RuntimeError):
    """Eigensolver or ODE integrator failed to meet its contract."""
