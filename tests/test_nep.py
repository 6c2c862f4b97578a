"""Branch-bound nonlinear operator view: branch points, factorizations, and
the reference spectrum its views share."""
import collections

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
    view.branch_point(sigma)
    fact = view.factorization()
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
    view.branch_point(0.0)
    view.factorization()  # built, floored, not refused
    with pytest.raises(ShiftIsEigenvalue):
        solvers.resinv(view, np.ones(n), solvers.SolverConfig(sigma=0.0))


def test_resinv_refuses_a_singular_shift_only_through_x0():
    # M(0) = diag(0, 9, 19, 29) on the branch mu = -1: resinv's one solve
    # with M(sigma), w = M(sigma)^-H x0, proves it singular only when x0
    # meets its null vector e0; a start without that component runs on with
    # the floored LU and never reaches the eigenvalue at sigma
    B = (np.diag([1.0, 2.0]), np.eye(2), np.eye(2))
    p = mepnl.TwoParProblem(np.diag([1.0, 10.0, 20.0, 30.0]), np.zeros((4, 4)),
                            np.eye(4), *B, np.ones(2))
    assert nep.NepView(p).branch_point(0.0).mu == -1
    cfg = solvers.SolverConfig(sigma=0.0, maxit=20)
    with pytest.raises(ShiftIsEigenvalue):
        solvers.resinv(nep.NepView(p), np.ones(4), cfg)
    quad, trace = solvers.resinv(nep.NepView(p), np.array([0.0, 1.0, 1.0, 1.0]), cfg)
    assert trace.termination == "maxit" and quad.x[0] == 0 and abs(quad.lam) > 1


@pytest.mark.parametrize("mat", [
    np.zeros((3, 3)),
    np.array([[1.0, 2.0], [2.0, 4.0]]),  # its LU meets an exactly zero pivot
    np.array([[1.0, 0.0, 3.0], [4.0, 0.0, 6.0], [5.0, 0.0, 2.0]]),
])
def test_dense_factorization_refuses_through_the_solve_alone(mat):
    # the LU refuses nothing and floors an exactly zero pivot; a solve with
    # it then proves M(sigma) = mat singular, a zero mat by its zero scale,
    # so the view's one test refuses it at resinv's first solve
    b = np.ones(len(mat))
    x = _linalg.Factorization(mat).solve(b)
    assert _linalg.proves_singular(b, x, np.linalg.norm(mat, 1))
    p = mepnl.TwoParProblem(mat, 0 * mat, 0 * mat, np.diag([1.0, 2.0]), np.eye(2),
                            np.eye(2), np.ones(2))
    with pytest.raises(ShiftIsEigenvalue, match="^a solve with M\\(sigma\\) proves it"):
        solvers.resinv(nep.NepView(p), b, solvers.SolverConfig(sigma=0.3))


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


def test_views_and_tabulation_share_one_reference_qz(monkeypatch, reference_calls):
    counts = collections.Counter()

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[key(kwargs, result)] += 1
            return result

        monkeypatch.setattr(owner, name, counted)

    count(_linalg, "geig", lambda kw, _: "geig." + kw.get("vectors", "right"))
    count(_linalg, "certified_dominant",
          lambda kw, found: "refused" if found is None else "certified vectors")
    count(_linalg, "shift_invert_vectors", lambda kw, _: "reference vectors"
          if reference_calls["inside"] else "power-loop vectors")
    count(pencil, "_continue_step", lambda kw, _: "steps")
    count(pencil, "_full_qz_point", lambda kw, _: "step full QZ")
    p = problems.gen_random(40, 4, seed=3)
    assert p.b3_rank_one is None  # rank(B3) >= 2: branches are continued
    # construction runs the one eigenvalues-only QZ, and no vectors
    assert counts == {"geig.none": 1}
    assert p.reference_mus.size == p.m and not p.reference_mus.flags.writeable
    views = [nep.NepView(p, branch_id=b) for b in (0, 1)]
    starts = [view.point for view in views]
    # the problem keeps no point: each view builds its own reference point
    assert counts["reference vectors"] == 2
    for view, lam0 in zip(views, (0.05, -0.05 + 0.02j)):
        _, trace = solvers.augmented_newton(view, lam0, np.ones(p.n),
                                            solvers.SolverConfig(maxit=6))
        assert trace.iterations >= 2
    table = problems.tabulate_branches(p, np.linspace(-0.5, 0.5, 11))
    assert np.all(np.isfinite(table.values))
    # one inverse iteration at the reference per view and per tabulated
    # branch, whose point serves both sweeps, and no full QZ; each step's y
    # and w come from its certificate or, when that refuses, from the power
    # loop at the chosen mu, and no step falls back to the full QZ
    assert counts["reference vectors"] == 2 + p.m
    assert counts["geig.none"] == 1 and counts["geig.both"] == counts["geig.right"] == 0
    assert counts["step full QZ"] == 0
    assert counts["certified vectors"] + counts["power-loop vectors"] + \
        counts["step full QZ"] == counts["steps"] > 0
    # a reference point is a function of the problem: the views' starts, the
    # points built again after the solves and a fresh problem's points are
    # equal bit for bit, and the full QZ has the same mu at each position
    fresh = problems.gen_random(40, 4, seed=3)
    full_qz = pencil.eigenpairs_at(fresh, pencil.REFERENCE_LAM)
    for b in range(p.m):
        got, want = pencil.reference_point(p, b), pencil.reference_point(fresh, b)
        for point in [got] + [start for start in starts if start.branch_id == b]:
            assert (point.lam, point.mu, point.branch_id, point.c_degenerate) == \
                (want.lam, want.mu, want.branch_id, want.c_degenerate)
            assert np.array_equal(point.y, want.y) and np.array_equal(point.w, want.w)
        assert full_qz[b].mu == got.mu
