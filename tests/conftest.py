"""Fixtures shared by the test modules."""
import numpy as np
import pytest

from mepnl import _linalg


@pytest.fixture
def nan_at_second_solve(monkeypatch):
    """Make the second Factorization.solve call return NaN."""
    original = _linalg.Factorization.solve
    calls = []

    def solve(self, b, adjoint=False):
        calls.append(adjoint)
        x = original(self, b, adjoint)
        return np.full_like(x, np.nan) if len(calls) == 2 else x

    monkeypatch.setattr(_linalg.Factorization, "solve", solve)
