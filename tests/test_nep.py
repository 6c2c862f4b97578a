"""Branch-bound nonlinear operator view: branch points and the factorization slot."""
import time

import numpy as np
import pytest

import mepnl
from mepnl import nep, problems
from mepnl.errors import ShiftIsEigenvalue


def qep_view(n=5, seed=0):
    rng = np.random.default_rng(seed)
    A1, A2, A3 = (rng.standard_normal((n, n)) for _ in range(3))
    p = problems.gen_qep(A1, A2, A3)
    view = nep.NepView(p, branch_id=0, reference_lam=0.1)
    return p, view, (A1, A2, A3)


def test_eval_m_matches_quadratic_polynomial():
    p, view, (A1, A2, A3) = qep_view(seed=4)
    for lam in (0.3, -0.7 + 0.2j, 1.1j):
        bp = view.branch_point(lam)
        assert bp.mu == pytest.approx(lam ** 2, abs=1e-12)
        expected = A1 + lam * A2 + lam ** 2 * A3
        np.testing.assert_allclose(p.eval_a(bp.lam, bp.mu), expected, atol=1e-12)


def test_solve_shifted_inverts_operator():
    p, view, _ = qep_view(seed=1)
    rng = np.random.default_rng(10)
    rhs = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
    sigma = 0.4 + 0.1j
    fact, bp = view.factorization(sigma)
    u = fact.solve(rhs)
    np.testing.assert_allclose(p.eval_a(bp.lam, bp.mu) @ u, rhs, atol=1e-10)


def test_cache_counters_and_last_shift_slot():
    p, view, _ = qep_view(seed=2)
    first = view.factorization(0.1)
    assert view.factorization(0.1)[0] is first[0]  # same shift: reused
    assert (view.cache_hits, view.cache_misses) == (1, 1)
    view.factorization(0.2)  # new shift: factorized, replaces the slot
    assert (view.cache_hits, view.cache_misses) == (1, 2)
    again = view.factorization(0.1)  # the old shift was dropped
    assert again[0] is not first[0]
    assert (view.cache_hits, view.cache_misses) == (1, 3)


def test_shift_at_exact_singularity_raises():
    rng = np.random.default_rng(6)
    n, m = 4, 2
    A1 = np.diag([0.0, 1.0, 2.0, 3.0])  # singular on purpose
    Z = np.zeros((n, n))
    p = mepnl.TwoParProblem(A1, Z, Z,
                            np.diag([1.0, 2.0]), np.eye(m), np.eye(m),
                            np.ones(m))
    view = nep.NepView(p, branch_id=0)
    with pytest.raises(ShiftIsEigenvalue):
        view.factorization(0.0)


def test_cached_solve_is_much_faster_sparse():
    cfg = problems.HelmholtzConfig(n=5000, m=10,
                                   kappa_a=lambda x: np.full_like(x, 2.0),
                                   kappa_b=lambda x: np.full_like(x, 2.0))
    disc = problems.gen_helmholtz(cfg)
    rhs = np.ones(disc.problem.n)
    sigma = 0.37

    # a cold solve factorizes; time it on a fresh view each repetition
    cold = []
    for _ in range(5):
        view = nep.NepView(disc.problem, branch_id=0, reference_lam=0.0)
        cold.append(_timed(view, sigma, rhs))
        assert view.cache_misses == 1
    warm = [_timed(view, sigma, rhs) for _ in range(5)]
    assert view.cache_misses == 1 and view.cache_hits == 5
    ratio = min(cold) / min(warm)
    assert ratio >= 10.0, f"speedup only {ratio:.1f}x"


def _timed(view, sigma, rhs):
    t0 = time.perf_counter()
    fact, _ = view.factorization(sigma)
    fact.solve(rhs)
    return time.perf_counter() - t0


def test_unknown_branch_rejected():
    p, _, _ = qep_view(seed=7)
    with pytest.raises(KeyError):
        nep.NepView(p, branch_id=5, reference_lam=0.1)
