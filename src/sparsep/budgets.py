"""Work budgets for dense constructions and exhaustive enumeration.

Dense matrices (``operators.build_dense_*``) and support enumeration are
test/diagnostic tools; the budgets keep them from sneaking O((np)^2) memory
or combinatorial blowups into experiment paths.  The environment variable
``SPARSEP_WORK_LIMIT``, when set to a positive integer, replaces both
budgets at once; it is the only way to change them.  The matrix a small
``MeasurementOperator`` multiplies by is not charged here: the constant
``operators.DENSE_KERNEL_ELEMENTS`` caps it.
"""

import os

from .errors import BudgetError, ParameterError

DENSE_ELEMENT_LIMIT = 2**22
ENUM_OP_LIMIT = 10**8

_ENV_VAR = "SPARSEP_WORK_LIMIT"


def _env_override():
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(f"{_ENV_VAR} must be an integer, got {raw!r}")
    if value <= 0:
        raise ParameterError(f"{_ENV_VAR} must be positive, got {value}")
    return value


def dense_limit():
    """Element-count budget for dense operator matrices."""
    env = _env_override()
    return env if env is not None else DENSE_ELEMENT_LIMIT


def enum_limit():
    """Elementary-operation budget for exhaustive support enumeration."""
    env = _env_override()
    return env if env is not None else ENUM_OP_LIMIT


def check_dense(n_elements, what="dense matrix"):
    limit = dense_limit()
    if n_elements > limit:
        raise BudgetError(
            f"{what} needs {n_elements} elements, over the budget of {limit}; "
            f"set {_ENV_VAR} to raise it"
        )


def check_enum(n_ops, what="support enumeration"):
    limit = enum_limit()
    if n_ops > limit:
        raise BudgetError(
            f"{what} needs ~{n_ops} operations, over the budget of {limit}; "
            f"set {_ENV_VAR} to raise it"
        )
