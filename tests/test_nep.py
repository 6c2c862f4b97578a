"""Branch-bound nonlinear operator view: branch points, factorizations, and
the reference spectrum its views share."""
import numpy as np
import pytest

import mepnl
from mepnl import _linalg, nep, pencil, problems, solvers
from mepnl.errors import NoFiniteEigenvalue, ShiftIsEigenvalue


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
    fact = view.factorization(sigma)
    bp = view.point
    assert bp.lam == sigma
    u = fact.solve(rhs)
    np.testing.assert_allclose(p.eval_a(bp.lam, bp.mu) @ u, rhs, atol=1e-10)


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


@pytest.mark.parametrize("mat", [
    np.zeros((3, 3)),
    np.array([[1.0, 2.0], [2.0, 4.0]]),  # its LU meets an exactly zero pivot
    np.array([[1.0, 0.0, 3.0], [4.0, 0.0, 6.0], [5.0, 0.0, 2.0]]),
])
def test_dense_factorization_refuses_on_rcond_alone(mat):
    # the LU refuses nothing and floors an exactly zero pivot; zgecon then
    # gives an rcond below RCOND_SINGULAR, for a zero matrix too, so the
    # view's one rcond test refuses M(sigma) = mat
    assert _linalg.Factorization(mat).rcond < _linalg.RCOND_SINGULAR
    p = mepnl.TwoParProblem(mat, 0 * mat, 0 * mat, np.diag([1.0, 2.0]), np.eye(2),
                            np.eye(2), np.ones(2))
    with pytest.raises(ShiftIsEigenvalue, match="rcond"):
        nep.NepView(p).factorization(0.3)


def test_view_continues_from_last_resolved_point():
    # K = B1 + lam*B2 = diag(1 + lam, 2) and B3 = e0 e0^T give mu = -(1 + lam),
    # infinite from lam = 1/TOL_INF on
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), np.diag([1.0, 2.0]),
                            np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.ones(2))
    view = nep.NepView(p)
    resolved = view.branch_point(0.5)
    with pytest.raises(NoFiniteEigenvalue):
        view.branch_point(1.0 / _linalg.TOL_INF)
    assert view.point is resolved
    assert view.branch_point(1.5).mu == -2.5
    # a continued branch: a failed call leaves the next step's start alone
    q = problems.gen_random(6, 5, seed=8)
    view = nep.NepView(q, branch_id=1)
    resolved = view.branch_point(0.1)
    with pytest.raises(ValueError):
        view.branch_point(np.nan)
    assert view.point is resolved
    got, want = view.branch_point(0.3), pencil.continue_branch(q, resolved, 0.3)
    assert got.mu == want.mu and np.array_equal(got.y, want.y)


def test_unknown_branch_rejected():
    p, _, _ = qep_view(seed=7)
    with pytest.raises(KeyError):
        nep.NepView(p, branch_id=5, reference_lam=0.1)


def test_views_and_tabulation_share_one_reference_qz(monkeypatch):
    full_qz, fallbacks = 0, 0
    geig, inverse_iteration = _linalg.geig, pencil._inverse_iteration

    def counted_geig(*args, **kwargs):
        nonlocal full_qz
        full_qz += kwargs.get("vectors") == "both"
        return geig(*args, **kwargs)

    def counted_inverse(*args):
        nonlocal fallbacks
        vectors = inverse_iteration(*args)
        fallbacks += vectors is None
        return vectors

    monkeypatch.setattr(_linalg, "geig", counted_geig)
    monkeypatch.setattr(pencil, "_inverse_iteration", counted_inverse)
    p = problems.gen_random(40, 4, seed=3)
    assert p.b3_rank_one is None  # rank(B3) >= 2: branches are continued
    assert full_qz == 1  # the reference QZ, run to draw c
    views = [nep.NepView(p, branch_id=b) for b in (0, 1)]
    shared = p.reference_points
    assert isinstance(shared, tuple) and len(shared) == p.m
    for view in views:
        assert view.point is shared[view.branch_id]
    for view, lam0 in zip(views, (0.05, -0.05 + 0.02j)):
        _, trace = solvers.augmented_newton(view, lam0, np.ones(p.n),
                                            solvers.SolverConfig(maxit=6))
        assert trace.iterations >= 2
    table = problems.tabulate_branches(p, np.linspace(-0.5, 0.5, 11))
    assert np.all(np.isfinite(table.values))
    # one full QZ at the reference for c, both views and both sweeps; any
    # other full QZ is a counted fallback of a continuation step
    assert full_qz == 1 + fallbacks
    assert p.reference_points is shared
    for point in shared:
        assert not point.y.flags.writeable and not point.w.flags.writeable
    # the shared points are untouched by the solves: a fresh problem's
    # reference spectrum equals them bit for bit
    fresh = pencil.eigenpairs_at(problems.gen_random(40, 4, seed=3), pencil.REFERENCE_LAM)
    assert len(fresh) == len(shared)
    for got, want in zip(shared, fresh):
        assert (got.lam, got.mu, got.branch_id, got.c_degenerate) == \
            (want.lam, want.mu, want.branch_id, want.c_degenerate)
        assert np.array_equal(got.y, want.y) and np.array_equal(got.w, want.w)
