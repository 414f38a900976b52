"""Exception types shared across the package."""


class SparsepError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(SparsepError, ValueError):
    """Inconsistent or invalid problem dimensions (e.g. m < n)."""


class ParameterError(SparsepError, ValueError):
    """Invalid algorithm parameter (negative epsilon, s < 1, ...)."""


class DataError(SparsepError, ValueError):
    """Input data is unusable (non-finite entries, infeasible instance)."""


class BudgetError(SparsepError, RuntimeError):
    """A dense construction or enumeration would exceed its work budget.

    Raised instead of silently downgrading to an approximation; callers
    that want the bigger computation must raise ``SPARSEP_WORK_LIMIT``.
    """


class FormatError(SparsepError, ValueError):
    """A persisted file is malformed or has an unsupported version."""
