"""Branches of the small pencil: eigenpairs, derivatives, continuation."""
import dataclasses
import warnings

import numpy as np
import pytest

import mepnl
from mepnl import _linalg, pencil, problems
from mepnl.errors import NoFiniteEigenvalue, SingularJacobian

# closed-form branch values of the square-root problem with coefficients
# (a, b, c, d, e, f) = (3, 2, -1, -2, 2, 1) at lam = 0.3, frozen from an
# exact symbolic computation
SQRT_G = 1.604756517984918843710
SQRT_DERIVS = (
    0.2850686028873479246560,
    0.9116189332364399396448,
    -0.3704094988319620522259,
    -0.9838566823753393862734,
    2.270598204805376581933,
)


def qep_problem(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return mepnl.gen_qep(*(rng.standard_normal((n, n)) for _ in range(3)))


def sqrt_problem(n=4, seed=1):
    rng = np.random.default_rng(seed)
    return mepnl.gen_sqrt_nep(*(rng.standard_normal((n, n)) for _ in range(3)))


def test_eigenpairs_sorted_and_normalized():
    p = mepnl.gen_random(6, 4, seed=2)
    pts = pencil.eigenpairs_at(p, 0.4 + 0.1j)
    mags = [abs(q.mu) for q in pts]
    assert mags == sorted(mags)
    for q in pts:
        assert p.c @ q.y == pytest.approx(1.0)
        assert np.linalg.norm(q.w) == pytest.approx(1.0)
        # both one-sided eigenvector conditions
        B = p.eval_b(q.lam, q.mu)
        assert np.linalg.norm(B @ q.y) <= 1e-10 * p.scale_b(q.lam, q.mu) * np.linalg.norm(q.y)
        assert np.linalg.norm(q.w.conj() @ B) <= 1e-10 * p.scale_b(q.lam, q.mu)


def test_infinite_eigenvalues_counted():
    p = qep_problem()
    pts = pencil.eigenpairs_at(p, 1.3)
    assert len(pts) == 1
    assert p.m - len(pts) == 1  # the infinite eigenvalue is never a branch


def test_qep_branch_is_lambda_squared():
    p = qep_problem()
    rng = np.random.default_rng(3)
    for lam in rng.standard_normal(50) + 1j * rng.standard_normal(50):
        pts = pencil.eigenpairs_at(p, lam)
        assert len(pts) == 1
        assert abs(pts[0].mu - lam**2) <= 1e-12 * max(1.0, abs(lam) ** 2)


def test_qep_derivatives():
    p = qep_problem()
    for lam in (1.7, -0.4 + 0.9j):
        bp = pencil.eigenpairs_at(p, lam)[0]
        g, _ = pencil.derivatives(p, bp, 4)
        assert abs(g[0] - 2 * lam) <= 1e-10 * max(1.0, abs(lam))
        assert abs(g[1] - 2.0) <= 1e-10
        assert abs(g[2]) <= 1e-10
        assert abs(g[3]) <= 1e-10


def test_sqrt_derivatives_match_symbolic():
    p, branch = sqrt_problem()
    pts = pencil.eigenpairs_at(p, 0.3)
    bp = min(pts, key=lambda q: abs(q.mu - SQRT_G))
    assert abs(bp.mu - SQRT_G) <= 1e-12
    g, ys = pencil.derivatives(p, bp, 5)
    for k, want in enumerate(SQRT_DERIVS):
        assert abs(g[k] - want) <= 1e-9 * max(1.0, abs(want)), f"order {k + 1}"
    assert ys.shape == (5, 2)


def test_first_derivative_closed_form():
    p = mepnl.gen_random(5, 4, seed=9)
    for lam in (0.2, 1.1 - 0.7j):
        for bp in pencil.eigenpairs_at(p, lam):
            g, _ = pencil.derivatives(p, bp, 1)
            closed = pencil.g_prime_closed_form(p, bp)
            assert abs(g[0] - closed) <= 1e-10 * max(1.0, abs(closed))


def test_derivative_rhs_consistency():
    """d/dlam of B(lam, g(lam)) y(lam) = 0 checked directly at order 1:
    (B2 + g' B3) y + B y' = 0."""
    p = mepnl.gen_random(6, 3, seed=12)
    bp = pencil.eigenpairs_at(p, 0.8)[1]
    g, ys = pencil.derivatives(p, bp, 1)
    resid = (p.B2 + g[0] * p.B3) @ bp.y + p.eval_b(bp.lam, bp.mu) @ ys[0]
    assert np.linalg.norm(resid) <= 1e-10 * p.scale_b(bp.lam, bp.mu)


def test_jacobian_singular_for_jordan_chain():
    # mu = 0 is a double eigenvalue with a single eigenvector
    B1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2),
                            B1, np.zeros((2, 2)), np.eye(2), [1.0, 1.0])
    bp = pencil.BranchPoint(lam=0.0, mu=0.0, y=np.array([1.0, 0.0]),
                            w=np.array([0.0, 1.0]), branch_id=0)
    J = pencil.jacobian(p, bp)
    assert J.singular
    assert J.sigma_min <= 1e-12 * J.norm
    with pytest.raises(SingularJacobian):
        pencil.derivatives(p, bp, 1)


def test_jacobian_regular_for_simple_branches():
    # balanced B scalings keep the drawn pencils comfortably simple
    for seed in range(20):
        p = mepnl.gen_random(4, 3, seed=500 + seed, betas=(1.0, 1.0, 1.0))
        for bp in pencil.eigenpairs_at(p, 0.0):
            J = pencil.jacobian(p, bp)
            assert J.sigma_min >= 1e-8 * J.norm, f"seed {seed}"


def test_continue_branch_follows_qep():
    p = qep_problem()
    bp = pencil.reference_point(p, 0)
    lam = 0.0
    for step in np.linspace(0.1, 3.0, 30):
        bp = pencil.continue_branch(p, bp, step)
        assert abs(bp.mu - step**2) <= 1e-10 * max(1.0, step**2)
        lam = step
    # stepping back to the same lam is a no-op
    again = pencil.continue_branch(p, bp, lam)
    assert again.mu == bp.mu


def test_continue_branch_is_pure():
    # rank(B3) >= 2 takes continuation steps, the rank-one qep one LU
    for p in (mepnl.gen_random(6, 5, seed=8), qep_problem()):
        start = pencil.continue_branch(p, pencil.reference_point(p, 0), 0.1)
        before = dataclasses.replace(start, y=start.y.copy(), w=start.w.copy())
        first = pencil.continue_branch(p, start, 0.3 + 0.05j)
        second = pencil.continue_branch(p, start, 0.3 + 0.05j)
        for got, want in ((start, before), (second, first)):
            assert (got.lam, got.mu, got.branch_id, got.c_degenerate) == \
                (want.lam, want.mu, want.branch_id, want.c_degenerate)
            assert np.array_equal(got.y, want.y) and np.array_equal(got.w, want.w)
        assert first.lam == 0.3 + 0.05j and first is not start


def test_continue_branch_unknown_id():
    p = qep_problem()
    with pytest.raises(KeyError):
        pencil.continue_branch(p, pencil.reference_point(p, 3), 0.5)


def test_no_finite_eigenvalue_raised():
    # B3 = 0 makes every eigenvalue infinite
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2),
                            np.eye(2), np.eye(2), np.zeros((2, 2)), [1.0, 0.0])
    with pytest.raises(NoFiniteEigenvalue):
        pencil.reference_point(p, 0)


def test_default_c_not_orthogonal():
    rng = np.random.default_rng(5)
    B1, B2 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    B3 = rng.standard_normal((4, 4))
    c = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), B1, B2, B3, None).c
    assert np.linalg.norm(c) == pytest.approx(1.0)
    mus, ys, _ = pencil._raw_eigenpairs(
        B1.astype(complex), B2.astype(complex), B3.astype(complex), 0.0)
    for i in range(ys.shape[1]):
        y = ys[:, i]
        assert abs(c @ y) > 1e-10 * np.linalg.norm(y)


def test_geig_modes_give_bit_equal_eigenvalues():
    pencils = []
    for seed in range(4):
        p = mepnl.gen_random(3, 12, seed=40 + seed)
        pencils.append((-(p.B1 + (0.3 - 0.1j) * p.B2), p.B3))
        pencils.append((-(p.B1 + 0.7 * p.B2), p.B3))
    q = qep_problem()  # B3 is singular: one infinite eigenvalue
    pencils.append((-(q.B1 + 1.3 * q.B2), q.B3))
    for P, Q in pencils:
        z, _ = _linalg.geig(P, Q)
        z_both, _, _ = _linalg.geig(P, Q, vectors="both")
        assert np.array_equal(z, z_both)
    assert z.size == 1


def assert_mu_within_ulps(p, bp, ref_mu):
    """A stepped mu comes from the shift-invert spectrum, not from QZ, so it
    agrees with QZ's mu to a few ulps of scale_b, in the backward sense: to
    4 eps * scale_b times the condition ||w|| ||y|| / |w^H B3 y| of mu."""
    cond = np.linalg.norm(bp.w) * np.linalg.norm(bp.y) / abs(bp.w.conj() @ p.B3 @ bp.y)
    tol = 4 * np.finfo(float).eps * p.scale_b(bp.lam, ref_mu) * cond
    assert abs(bp.mu - ref_mu) <= tol, (bp.lam, bp.mu, ref_mu)


def test_stepped_point_matches_full_qz(monkeypatch):
    p = mepnl.gen_random(6, 8, seed=4)
    assert p.b3_rank_one is None  # a full-rank B3 takes QZ continuation steps
    last = list(p.reference_points)

    def full_qz(*args):
        raise AssertionError("a step fell back to the full QZ")

    monkeypatch.setattr(pencil, "eigenpairs_at", full_qz)
    stepped = []
    for lam in (0.05, 0.1 + 0.05j, 0.2):
        for b, point in enumerate(last):
            last[b] = pencil.continue_branch(p, point, lam)
            stepped.append(last[b])
    monkeypatch.undo()
    for bp in stepped:
        ref = min(pencil.eigenpairs_at(p, bp.lam), key=lambda q: abs(q.mu - bp.mu))
        assert_mu_within_ulps(p, bp, ref.mu)
        assert bp.c_degenerate == ref.c_degenerate
        np.testing.assert_allclose(bp.y, ref.y, rtol=0,
                                   atol=1e-10 * np.linalg.norm(ref.y))
        phase = ref.w.conj() @ bp.w
        assert abs(abs(phase) - 1.0) <= 1e-10
        np.testing.assert_allclose(bp.w, phase * ref.w, rtol=0, atol=1e-10)
        B = p.eval_b(bp.lam, bp.mu)
        norm_b = np.linalg.norm(B, 1)
        assert np.linalg.norm(B @ bp.y) <= 1e-12 * norm_b * np.linalg.norm(bp.y)
        assert np.linalg.norm(bp.w.conj() @ B) <= 1e-12 * norm_b


def test_failed_residual_test_falls_back_to_full_qz(monkeypatch):
    p = mepnl.gen_random(6, 5, seed=8)
    assert p.b3_rank_one is None
    fast = slow = pencil.reference_point(p, 1)
    lams = np.linspace(0.0, 0.5, 11)[1:]
    stepped = []
    for lam in lams:
        fast = pencil.continue_branch(p, fast, lam)
        stepped.append(fast)
    monkeypatch.setattr(pencil, "TOL_INVERSE_RESIDUAL", -1.0)  # always fails
    for lam, bp in zip(lams, stepped):
        got = slow = pencil.continue_branch(p, slow, lam)
        ref = min(pencil.eigenpairs_at(p, lam), key=lambda q: abs(q.mu - got.mu))
        assert_mu_within_ulps(p, got, bp.mu)
        np.testing.assert_array_equal(got.y, ref.y)
        np.testing.assert_array_equal(got.w, ref.w)


def test_exact_zero_pivot_keeps_inverse_iteration(monkeypatch):
    # B(lam, mu) = diag(mu, 1 + mu, 2 + mu) is exactly singular at the
    # eigenvalue mu = -1, so its LU meets an exactly zero pivot
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), np.diag([0.0, 1.0, 2.0]),
                            np.zeros((3, 3)), np.eye(3), np.ones(3))
    assert p.b3_rank_one is None
    start = pencil.reference_point(p, 1)
    prev = dataclasses.replace(start, y=np.ones(3), w=np.ones(3))
    y, w = pencil._inverse_iteration(p, prev, 0.5, -1.0)
    np.testing.assert_allclose(np.abs(y), [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(np.abs(w), [0.0, 1.0, 0.0], atol=1e-15)

    def full_qz(*args):
        raise AssertionError("a step fell back to the full QZ")

    monkeypatch.setattr(pencil, "eigenpairs_at", full_qz)
    assert_mu_within_ulps(p, pencil.continue_branch(p, start, 0.5), -1.0)


def count_geig(monkeypatch):
    """Count _linalg.geig calls by their mode: shift-invert, or the vectors
    computed."""
    counts = {"shift": 0, "right": 0, "both": 0}
    original = _linalg.geig

    def counted(*args, **kwargs):
        shift = kwargs.get("shift") is not None
        counts["shift" if shift else kwargs.get("vectors", "right")] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(_linalg, "geig", counted)
    return counts


def test_rank_one_detection_of_floating_point_outer_product():
    eps = np.finfo(float).eps
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        scale_u, scale_v = 10.0 ** rng.uniform(-6, 6, 2)
        u = scale_u * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        v = scale_v * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        B3 = np.outer(u, v.conj())
        p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), rng.standard_normal((m, m)),
                                np.eye(m), B3, np.ones(m))
        assert p.b3_rank_one is not None, f"seed {seed}"
        fu, fv = p.b3_rank_one
        err = np.max(np.abs(np.outer(fu, fv.conj()) - B3))
        assert err <= 4 * eps * np.max(np.abs(B3)), f"seed {seed}"
    # the generators with a single coupling entry, and a full-rank B3
    assert qep_problem().b3_rank_one is not None
    assert sqrt_problem()[0].b3_rank_one is None
    assert mepnl.gen_random(3, 6, seed=1).b3_rank_one is None


def test_zero_and_nearly_rank_one_b3_stay_on_qz_path(monkeypatch):
    zero = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2),
                               np.eye(2), np.eye(2), np.zeros((2, 2)), [1.0, 0.0])
    assert zero.b3_rank_one is None
    rng = np.random.default_rng(7)
    m = 6
    u, v = rng.standard_normal(m), rng.standard_normal(m)
    B3 = np.outer(u, v) + 1e-8 * rng.standard_normal((m, m))
    B1, B2 = rng.standard_normal((m, m)), rng.standard_normal((m, m))
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), B1, B2, B3, None)
    assert p.b3_rank_one is None
    start = pencil.reference_point(p, 0)
    counts = count_geig(monkeypatch)
    bp = pencil.continue_branch(p, start, 0.01)
    assert counts["shift"] >= 1
    monkeypatch.undo()
    assert_mu_within_ulps(p, bp, pencil.eigenpairs_at(p, 0.01)[0].mu)


def test_rank_one_qep_branch_is_lambda_squared(monkeypatch):
    p = qep_problem()
    bp = pencil.reference_point(p, 0, 1.0)
    counts = count_geig(monkeypatch)
    rng = np.random.default_rng(3)
    lams = list(rng.standard_normal(50) + 1j * rng.standard_normal(50)) + [0.0]
    eps = np.finfo(float).eps
    for lam in lams:
        bp = pencil.continue_branch(p, bp, lam)
        scale = max(1.0, abs(lam) ** 2)
        assert abs(bp.mu - lam**2) <= 4 * eps * scale, f"lam {lam}"
        # y = (1, lam) under c = (1, 0); w is the unit left null vector
        np.testing.assert_allclose(bp.y, [1.0, lam], rtol=0, atol=4 * eps * scale)
        B = p.eval_b(lam, bp.mu)
        assert np.linalg.norm(bp.w.conj() @ B) <= 4 * eps * np.linalg.norm(B, 1)
        assert np.linalg.norm(bp.w) == pytest.approx(1.0)
    # no eigensolve at all: the one finite eigenvalue comes from two
    # triangular solves per point with the Schur form of (B1, B2)
    assert counts == {"shift": 0, "right": 0, "both": 0}


def test_rank_one_infinite_mu_raises():
    # K = B1 + lam*B2 = diag(1 + lam, 2) and B3 = e0 e0^T give mu = -(1 + lam)
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), np.diag([1.0, 2.0]),
                            np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.ones(2))
    assert p.b3_rank_one is not None
    point = pencil.reference_point(p, 0)
    assert point.mu == -1.0
    big = 1.0 / _linalg.TOL_INF
    point = pencil.continue_branch(p, point, 0.5 * big)
    assert point.mu == -(1.0 + 0.5 * big)
    # |mu| >= 1/TOL_INF is infinite, as geig's test calls it on QZ's pairs
    for lam in (big, 2.0 * big):
        with pytest.raises(NoFiniteEigenvalue):
            pencil.continue_branch(p, point, lam)
        assert pencil.eigenpairs_at(p, lam) == []


def test_generalized_schur_solves_match_dense():
    rng = np.random.default_rng(11)
    m = 6
    P, Q = rng.standard_normal((2, m, m)) + 1j * rng.standard_normal((2, m, m))
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    schur = _linalg.GeneralizedSchur(P, Q)
    # at most m lams take one LAPACK solve each, more the row-by-row loop
    few = np.concatenate((rng.standard_normal(3) + 1j * rng.standard_normal(3), [0.0, 2.5]))
    many = np.concatenate((few, rng.standard_normal(20)))
    for lams in (few, many):
        for adjoint in (False, True):
            got = schur.solve(lams, b, adjoint=adjoint)
            assert got.shape == (lams.size, m)
            for lam, x in zip(lams, got):
                K = P + lam * Q
                want = np.linalg.solve(K.conj().T if adjoint else K, b)
                np.testing.assert_allclose(x, want, rtol=1e-10, atol=0)


def test_rank_one_singular_k_gives_lambda_squared(monkeypatch):
    # K(0) = B1 of the QEP is exactly singular, so S + 0*T has exactly zero
    # diagonal entries, which are floored as a zero pivot is
    p = qep_problem()
    assert np.any(np.diagonal(p.schur_k.S) == 0)
    monkeypatch.setattr(pencil, "_full_qz_point", fail_full_qz)
    eps = np.finfo(float).eps
    # one lam takes the LAPACK solves, 41 the row-by-row loop
    for grid in (np.zeros(1), np.linspace(-1.0, 1.0, 41)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mus, ys, _, _, failed = pencil._rank_one_points(p, grid)
        assert not failed
        for lam, mu, y in zip(grid, mus, ys):
            assert abs(mu - lam**2) <= 4 * eps * max(1.0, lam**2), lam
            np.testing.assert_allclose(y, [1.0, lam], rtol=0, atol=4 * eps)


def fail_full_qz(*args):
    raise AssertionError("a rank-one point fell back to the full QZ")


def test_random_rank_one_pencils_certified_without_full_qz(monkeypatch):
    monkeypatch.setattr(pencil, "_full_qz_point", fail_full_qz)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 13))

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        B3 = np.outer(cplx(m), cplx(m).conj())
        p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), cplx(m, m), cplx(m, m),
                                B3, None)
        assert p.b3_rank_one is not None
        lams = cplx(50)
        mus, _, _, _, failed = pencil._rank_one_points(p, lams)
        assert not failed and np.all(np.isfinite(mus)), f"seed {seed}"
        # the point agrees with the full QZ's one finite eigenvalue
        for k in (0, 49):
            ref = pencil.eigenpairs_at(p, lams[k])[0].mu
            assert abs(mus[k] - ref) <= 1e-8 * max(1.0, abs(ref)), f"seed {seed}"


def formed_b_residuals(p, lams, mus, y, w):
    """max(||B y||, ||w^H B||) of unit y and w on each formed B(lam, mu), over
    the threshold TOL_INVERSE_RESIDUAL * scale_b(lam, mu) of the residual
    test: the test passes where this is at most 1."""
    out = []
    for lam, mu, yk, wk in zip(lams, mus, y, w):
        B = p.eval_b(lam, mu)
        residual = max(np.linalg.norm(B @ yk), np.linalg.norm(wk.conj() @ B))
        out.append(residual / (pencil.TOL_INVERSE_RESIDUAL * p.scale_b(lam, mu)))
    return np.array(out)


def rank_one_vectors(p, lams):
    """(lams, mu, unit y, w) of _rank_one_points at its finite entries."""
    mus, y, w, _, failed = pencil._rank_one_points(p, lams)
    keep = np.setdiff1d(np.arange(np.size(lams)), list(failed))
    y = y[keep] / np.linalg.norm(y[keep], axis=1)[:, None]
    return np.asarray(lams)[keep], mus[keep], y, w[keep]


def spoiled(rng, v, scale):
    """Unit rows of v moved by scale in a random unit direction."""
    e = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
    e /= np.linalg.norm(e, axis=1)[:, None]
    v = v + scale * e
    return v / np.linalg.norm(v, axis=1)[:, None]


def test_residual_test_decides_as_formed_b():
    rng = np.random.default_rng(7)
    counts = {"decisions": 0, "near": 0}

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def check(p, lams, mus, y, w):
        # the three products round apart from the formed B by up to about
        # 1e-3 of a residual at the threshold, so a formed residual within
        # 1/64 of it may be decided either way
        got = pencil._null_vectors_pass(p, lams, mus, y, w)
        ratio = formed_b_residuals(p, lams, mus, y, w)
        clear = np.abs(np.log(ratio)) > np.log1p(1.0 / 64.0)
        np.testing.assert_array_equal(got[clear], ratio[clear] <= 1.0)
        counts["decisions"] += got.size
        counts["near"] += (~clear).sum()
        return got

    # the benchmark's Helmholtz grid at m = 30
    helmholtz = problems.gen_helmholtz(problems.HelmholtzConfig(
        x1=3.7, x2=5.0, n=3, m=30, kappa_a=2.0, kappa_b=2.0)).problem
    grid = np.arange(-10.0, 100.0 + 1e-9, 0.125)
    args = rank_one_vectors(helmholtz, grid)
    assert check(helmholtz, *args).all()
    # random rank-one pencils at random lam and within 1e-7 of their poles,
    # with their own vectors and with vectors spoiled by 1e-12 to 1e-8
    decided = {"pass": 0, "fail": 0}
    for _ in range(60):
        m = int(rng.integers(2, 40))
        p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), cplx(m, m), cplx(m, m),
                                np.outer(cplx(m), cplx(m).conj()), None)
        poles = pencil.branch_poles(p)[:5]
        lams = np.concatenate([cplx(10), poles + 1e-7 * cplx(poles.size)])
        lams, mus, y, w = rank_one_vectors(p, lams)
        for amp in (0.0, 1e-12, 1e-10):
            got = check(p, lams, mus, spoiled(rng, y, amp), spoiled(rng, w, amp))
            decided["pass"] += got.sum()
            decided["fail"] += (~got).sum()
        assert not check(p, lams, mus, spoiled(rng, y, 1e-8), w).any()
    assert min(decided.values()) > 100, decided
    # residuals placed at 0.3 to 3 times the threshold, on a pencil whose
    # ||B1|| + |lam| ||B2|| is far above ||B1 + lam*B2||: K = B1 + lam*B2 is
    # S at lam = 1 while B1 and B2 are about 10 C
    m = 8
    C, S = cplx(m, m), cplx(m, m)
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), 10.0 * C, S - 10.0 * C,
                            np.outer(cplx(m), cplx(m).conj()), None)
    lams, mus, y, w = rank_one_vectors(p, 1.0 + 1e-3 * cplx(200))
    B = np.array([p.eval_b(lam, mu) for lam, mu in zip(lams, mus)])
    target = (pencil.TOL_INVERSE_RESIDUAL * p.scale_b(lams, mus)
              * np.exp(rng.uniform(np.log(0.3), np.log(3.0), lams.size)))
    # a step of size t along a unit e moves B y by about t ||B e||
    e = cplx(*y.shape)
    e /= np.linalg.norm(e, axis=1)[:, None]
    t = target / np.linalg.norm(np.einsum("kij,kj->ki", B, e), axis=1)
    y = y + t[:, None] * e
    got = check(p, lams, mus, y / np.linalg.norm(y, axis=1)[:, None], w)
    assert 0 < got.sum() < lams.size, got.sum()
    # only about one decision in 400 is that close to the threshold
    assert counts["near"] <= counts["decisions"] // 100, counts


def test_continue_branch_rejects_nonfinite_lam():
    for p in (qep_problem(), sqrt_problem()[0]):
        start = pencil.reference_point(p, 0)
        for lam in (np.nan, complex(0.0, np.inf)):
            with pytest.raises(ValueError):
                pencil.continue_branch(p, start, lam)


def test_geig_standard_problem_modes_give_bit_equal_eigenvalues():
    rng = np.random.default_rng(7)
    for n in (3, 12, 40):
        P = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        z, vr = _linalg.geig(P, None)
        z_both, _, _ = _linalg.geig(P, None, vectors="both")
        assert np.array_equal(z, z_both)
        assert z.size == n
        np.testing.assert_allclose(P @ vr, vr * z, atol=1e-12 * np.linalg.norm(P))


# Acceptance criterion 02's seed 53: two real eigenvalues of the small pencil
# meet at lam = 0.32431 and leave it as a conjugate pair
SEED53_LAM = 0.3240014623998726


def test_conjugate_tie_continues_from_above_whatever_the_steps():
    p = problems.gen_random(10, 2, seed=53, alphas=(1.0, 1.0, 1.0),
                            betas=(1.0, 1.0, 1.0))
    assert p.b3_rank_one is None
    end = {}
    for b in (0, 1):
        # the same branch over a path through the upper half plane
        point = pencil.reference_point(p, b, SEED53_LAM)
        point = pencil.continue_branch(p, point, SEED53_LAM + 5e-4 + 1e-4j)
        end[b] = pencil.continue_branch(p, point, SEED53_LAM + 1e-3).mu
    assert abs(end[0] - end[1].conjugate()) <= 1e-9 and end[0].imag > 0.5
    for imag in (0.0, 3e-17, -3e-17, 7.5e-17):
        lam0 = complex(SEED53_LAM, imag)
        for b in (0, 1):
            for steps in (1, 2, 7, 50, 400):
                point = pencil.reference_point(p, b, lam0)
                for lam in np.linspace(lam0, lam0 + 1e-3, steps + 1)[1:]:
                    point = pencil.continue_branch(p, point, lam)
                assert abs(point.mu - end[b]) <= 1e-9, (imag, b, steps)


def shift_invert_battery():
    """(P, Q) pencils for the step's spectrum: random, Q of every rank below
    m, Q = I as in gen_sqrt_nep, and ||Q|| far above ||P||."""
    for seed in range(60):
        rng = np.random.default_rng(500 + seed)
        m = int(rng.integers(2, 12))

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        P = cplx(m, m)
        rank = int(rng.integers(1, m))
        yield P, cplx(m, m)
        yield P, cplx(m, rank) @ cplx(rank, m)
        yield P, np.eye(m)
        yield P, 1e6 * cplx(m, m)
        yield 1e-3 * P, cplx(m, rank) @ cplx(rank, m)


def test_shift_invert_spectrum_matches_qz(monkeypatch):
    lus = []
    factorization = _linalg.Factorization.__init__

    def counted_lu(self, *args, **kwargs):
        lus.append(1)
        factorization(self, *args, **kwargs)

    monkeypatch.setattr(_linalg.Factorization, "__init__", counted_lu)
    moved = 0
    for P, Q in shift_invert_battery():
        z_qz, _ = _linalg.geig(P, Q)
        z0 = z_qz[len(z_qz) // 2]
        near = z0 + 1e-9 * (1.0 + abs(z0)) * np.exp(0.7j)
        rng = np.random.default_rng(len(z_qz))
        # a generic shift within the spectrum's own scale, as a prediction is
        generic = z0 + (rng.standard_normal() + 1j * rng.standard_normal()) * abs(z_qz).max()
        for shift in (generic, z0, near):
            lus.clear()
            z = _linalg.shift_invert_eigvals(P, Q, shift)
            moved += shift == z0 and len(lus) > 1
            assert z.size == z_qz.size, (shift, z, z_qz)
            i, j = (np.argmin(np.abs(v - shift)) for v in (z, z_qz))
            assert abs(z[i] - z_qz[j]) <= 1e-12 * abs(z_qz[j]), (z[i], z_qz[j])
    assert moved > 0  # a shift on an eigenvalue moved off it


def test_continuation_step_runs_no_pencil_qz(monkeypatch):
    p = mepnl.gen_random(6, 8, seed=4)
    assert p.b3_rank_one is None
    geig, eigenpairs_at = _linalg.geig, pencil.eigenpairs_at
    calls = {"pencil QZ": 0, "shift-invert": 0, "fallback": 0}
    in_fallback = [False]

    def counted_geig(P, Q, *args, **kwargs):
        if Q is not None and not in_fallback[0]:
            calls["pencil QZ"] += 1
        calls["shift-invert"] += kwargs.get("shift") is not None
        return geig(P, Q, *args, **kwargs)

    def counted_eigenpairs_at(*args, **kwargs):
        calls["fallback"] += 1
        in_fallback[0] = True
        try:
            return eigenpairs_at(*args, **kwargs)
        finally:
            in_fallback[0] = False

    for tol in (pencil.TOL_INVERSE_RESIDUAL, -1.0):  # -1: every step falls back
        last = list(p.reference_points)
        monkeypatch.setattr(_linalg, "geig", counted_geig)
        monkeypatch.setattr(pencil, "eigenpairs_at", counted_eigenpairs_at)
        monkeypatch.setattr(pencil, "TOL_INVERSE_RESIDUAL", tol)
        steps = 0
        for lam in (0.05, 0.1 + 0.05j, 0.2):
            for b, point in enumerate(last):
                last[b] = pencil.continue_branch(p, point, lam)
                steps += 1
        monkeypatch.undo()
        assert calls["pencil QZ"] == 0
        assert calls["shift-invert"] >= steps
        assert calls["fallback"] == (0 if tol >= 0 else steps)
        calls.update({"shift-invert": 0, "fallback": 0})


def test_branch_poles_of_constant_kappa_helmholtz():
    # criterion 10's problem: the interface ratio omega*tan(omega*(x2 - x1))
    # of the spectral subdomain has its poles where the cosine vanishes
    kappa0, x1, x2 = 2.0, 3.7, 5.0
    cfg = problems.HelmholtzConfig(x1=x1, x2=x2, n=800, m=20,
                                   kappa_a=kappa0, kappa_b=kappa0)
    poles = pencil.branch_poles(problems.gen_helmholtz(cfg).problem)
    for j in (1, 2, 3):
        exact = kappa0 ** 2 - ((2 * j - 1) * np.pi / (2 * (x2 - x1))) ** 2
        assert np.min(np.abs(poles - exact)) <= 1e-9, f"j = {j}"


def test_branch_poles_of_rank_two_b3():
    # B3 = Q diag(1, 1, 0) Z with B1 and B2 under the same Q and Z: the
    # bordered determinant is B1[2, 2] + lam*B2[2, 2] up to a constant
    rng = np.random.default_rng(0)
    B1, B2 = rng.standard_normal((2, 3, 3))
    Q, Z = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), Q @ B1 @ Z, Q @ B2 @ Z,
                            Q @ np.diag([1.0, 1.0, 0.0]) @ Z, None)
    exact = -B1[2, 2] / B2[2, 2]
    poles = pencil.branch_poles(p)
    assert poles.shape == (1,)
    assert abs(poles[0] - exact) <= 1e-12
    near = pencil.eigenpairs_at(p, exact + 1e-6)
    assert max(abs(q.mu) for q in near) > 1e5


@pytest.mark.parametrize("seed", range(5))
def test_branch_poles_of_noisy_rank_one_b3(seed):
    # B3 = e0 e0^T plus noise of 6 eps passes the rank-one test, so the
    # followed branch is the rank-one one, and its poles are where
    # K[1:, 1:] = B1[1:, 1:] + lam*B2[1:, 1:] is singular: all m - 1 of them
    m = 30
    rng = np.random.default_rng(seed)
    B3 = 6 * np.finfo(float).eps * rng.uniform(-1.0, 1.0, (m, m))
    B3[0, 0] += 1.0
    B1, B2 = rng.standard_normal((2, m, m))
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), B1, B2, B3, None)
    assert p.b3_rank_one is not None
    exact = _linalg.geig(B1[1:, 1:], -B2[1:, 1:])[0]
    poles = pencil.branch_poles(p)
    assert poles.size == m - 1
    for q in poles:
        assert np.min(np.abs(exact - q)) <= 1e-9 * max(1.0, abs(q))
    # every flagged interval brackets one of those poles, and each pole next
    # to the real axis of the window is flagged
    step = 0.01
    grid = np.linspace(-3.0, 3.0, 601)
    found = problems.flag_singularities(p, problems.tabulate_branches(p, grid))[0]
    assert found
    for iv in found:
        assert any(iv.contains(e) and abs(e.imag) <= step for e in exact), iv
    for e in exact[(np.abs(exact.real) <= 3.0) & (np.abs(exact.imag) <= step / 2)]:
        assert any(iv.contains(e) for iv in found), e


def test_generators_without_poles(monkeypatch):
    # a nonsingular B3 has no finite pole, and no QZ runs to say so; the
    # quadratic generator's bordered determinant is the constant -1
    no_pole = [sqrt_problem()[0], mepnl.gen_random(4, 3, seed=0)]
    counts = count_geig(monkeypatch)
    for p in no_pole:
        assert pencil.branch_poles(p).size == 0
    assert counts == {"shift": 0, "right": 0, "both": 0}
    assert pencil.branch_poles(qep_problem()).size == 0
