"""Fixtures shared by the test modules."""
import numpy as np
import pytest

from mepnl import nep


@pytest.fixture
def nan_at_second_solve(monkeypatch):
    """Make the second solve with a factorization of M(lam) return NaN. Only
    the factorizations NepView.factorization hands out are touched, not the
    small pencil's."""
    original = nep.NepView.factorization
    calls = []

    def factorization(self, sigma):
        fact = original(self, sigma)
        solve = fact.solve

        def nan_on_second(b, adjoint=False):
            calls.append(adjoint)
            x = solve(b, adjoint)
            return np.full_like(x, np.nan) if len(calls) == 2 else x

        fact.solve = nan_on_second
        return fact

    monkeypatch.setattr(nep.NepView, "factorization", factorization)
