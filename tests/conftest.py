"""Fixtures shared by the test modules."""
import numpy as np
import pytest

from mepnl import nep, pencil


@pytest.fixture
def nan_at_second_solve(monkeypatch):
    """Make the second solve with a factorization of M(lam) return NaN. Only
    the factorizations NepView.factorization hands out are touched, not the
    small pencil's."""
    original = nep.NepView.factorization
    calls = []

    def factorization(self):
        fact = original(self)
        solve = fact.solve

        def nan_on_second(b, adjoint=False):
            calls.append(adjoint)
            x = solve(b, adjoint)
            return np.full_like(x, np.nan) if len(calls) == 2 else x

        fact.solve = nan_on_second
        return fact

    monkeypatch.setattr(nep.NepView, "factorization", factorization)


@pytest.fixture
def reference_calls(monkeypatch):
    """Wrap pencil.reference_point: the returned dict counts its calls in
    "calls" and holds "inside" True while one runs, so that a counter can
    tell a reference point's own work from a continuation step's."""
    state = {"calls": 0, "inside": False}
    original = pencil.reference_point

    def wrapped(*args, **kwargs):
        state["calls"] += 1
        state["inside"] = True
        try:
            return original(*args, **kwargs)
        finally:
            state["inside"] = False

    monkeypatch.setattr(pencil, "reference_point", wrapped)
    return state
