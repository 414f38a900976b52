import pytest

from sparsep import budgets
from sparsep.errors import BudgetError, ParameterError


def test_defaults():
    assert budgets.dense_limit() == 2**22
    assert budgets.enum_limit() == 10**8


def test_env_var_overrides_both(monkeypatch):
    monkeypatch.setenv("SPARSEP_WORK_LIMIT", "1000")
    assert budgets.dense_limit() == 1000
    assert budgets.enum_limit() == 1000
    with pytest.raises(BudgetError):
        budgets.check_dense(1001)
    budgets.check_enum(999)


def test_env_var_validation(monkeypatch):
    monkeypatch.setenv("SPARSEP_WORK_LIMIT", "zero")
    with pytest.raises(ParameterError):
        budgets.dense_limit()
    monkeypatch.setenv("SPARSEP_WORK_LIMIT", "-5")
    with pytest.raises(ParameterError):
        budgets.enum_limit()
