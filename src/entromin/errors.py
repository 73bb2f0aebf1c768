"""Exception taxonomy shared across the library.

Every raised condition is a certificate-backed statement, never a guess:
a DivergenceError means divergence was proved, a BudgetError means the
iteration/term budget ran out *without* a certificate either way.
"""

from . import _work

__all__ = [
    "EmpError",
    "DomainError",
    "RangeError",
    "DivergenceError",
    "UncertifiedError",
    "BudgetError",
    "ConfigurationError",
    "UnsupportedFamilyError",
    "InfeasibleError",
    "NumericalFailureError",
]


class EmpError(Exception):
    """Base class for all library errors."""


class DomainError(EmpError):
    """Argument lies outside the mathematical domain of the operation."""


class RangeError(EmpError):
    """Requested target value lies outside the achievable range."""


class DivergenceError(EmpError):
    """The requested series is certified divergent at this point."""


class UncertifiedError(EmpError):
    """Neither convergence nor divergence could be certified here."""


class BudgetError(EmpError):
    """Term or iteration budget exhausted before reaching the tolerance."""

    def __init__(self, *args):
        if _work.on and (work := _work.local.record) is not None:
            work.budget_errors += 1
        super().__init__(*args)


class ConfigurationError(EmpError):
    """Family parameters are invalid or contradict their own metadata."""


class UnsupportedFamilyError(ConfigurationError):
    """The family lacks the structure this operation requires."""


class InfeasibleError(EmpError):
    """The finite problem has no feasible point for the given targets."""


class NumericalFailureError(EmpError):
    """An iterative solve did not converge; no value is claimed."""
