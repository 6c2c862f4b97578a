"""Branches of the small pencil: eigenpairs, derivatives, continuation."""
import collections
import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

import mepnl
from mepnl import _linalg, pencil, problems
from mepnl.errors import AmbiguousBranch, NoFiniteEigenvalue, NonSimpleMu, SingularJacobian

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


def reference_points(p):
    """Every branch's point at REFERENCE_LAM."""
    return [pencil.reference_point(p, b) for b in range(p.reference_mus.size)]


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
    s = np.linalg.svd(pencil.jacobian(p, bp), compute_uv=False)
    assert s[-1] <= 1e-12 * s[0]
    with pytest.raises(SingularJacobian):
        pencil.derivatives(p, bp, 1)


def test_step_from_a_jordan_point_predicts_mu_prev():
    # B2 = I moves the double eigenvalue of the Jordan block to mu = -lam;
    # g' has no closed form there (w^H B3 y = 0), so the step predicts
    # mu_prev itself and finds the copies of mu = -0.1 at lam = 0.1
    B1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2),
                            B1, np.eye(2), np.eye(2), [1.0, 1.0])
    bp = pencil.BranchPoint(lam=0.0, mu=0.0, y=np.array([1.0, 0.0]),
                            w=np.array([0.0, 1.0]), branch_id=0)
    with pytest.raises(NonSimpleMu):
        pencil.g_prime_closed_form(p, bp)
    got = pencil.continue_branch(p, bp, 0.1)
    assert got.mu == -0.1 and got.branch_id == 0
    np.testing.assert_allclose(np.abs(got.y), [1.0, 0.0], atol=1e-15)


def test_derivatives_refuse_order_zero():
    p = mepnl.gen_random(6, 4, seed=2)
    with pytest.raises(ValueError, match="order"):
        pencil.derivatives(p, pencil.reference_point(p, 0), 0)


def test_jacobian_regular_for_simple_branches():
    # balanced B scalings keep the drawn pencils comfortably simple
    for seed in range(20):
        p = mepnl.gen_random(4, 3, seed=500 + seed, betas=(1.0, 1.0, 1.0))
        for bp in pencil.eigenpairs_at(p, 0.0):
            s = np.linalg.svd(pencil.jacobian(p, bp), compute_uv=False)
            assert s[-1] >= 1e-8 * s[0], f"seed {seed}"
            pencil.derivatives(p, bp, 1)  # refuses no simple point


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


def test_reference_point_falls_back_to_one_full_qz(monkeypatch):
    # a reference point takes mu from the eigenvalues-only QZ and y and w
    # from inverse iteration; when those fail their residual test, or mu is
    # a double eigenvalue, the point is the full QZ's nearest mu, which has
    # the same mu at the same position: one full QZ per such point, as a
    # continuation step falls back
    p = mepnl.gen_random(6, 5, seed=8)
    counts = count_geig(monkeypatch)
    monkeypatch.setattr(pencil, "TOL_INVERSE_RESIDUAL", -1.0)  # always fails
    points = reference_points(p)
    assert p.reference_mus.size == 5
    assert counts == {"zgeev": 0, "none": 0, "right": 0, "both": 5}
    # the problem keeps no point: asking again runs the 5 full QZs again,
    # and gives equal points
    again = reference_points(p)
    assert counts["both"] == 10
    full_qz = pencil.eigenpairs_at(p, pencil.REFERENCE_LAM)
    for got, repeat, want in zip(points, again, full_qz):
        assert got.mu == repeat.mu == want.mu and got.branch_id == want.branch_id
        assert np.array_equal(got.y, want.y) and np.array_equal(got.w, want.w)
        assert np.array_equal(repeat.y, want.y) and np.array_equal(repeat.w, want.w)
    # away from REFERENCE_LAM too: one full QZ per point
    for b in (0, 1):
        pencil.reference_point(p, b, 0.3)
    # the 10 points, the check's own full QZ above, and these 2 points
    assert counts == {"zgeev": 0, "none": 2, "right": 0, "both": 13}
    monkeypatch.undo()
    # mu = 1 twice: no inverse iteration, which cannot settle there, and one
    # full QZ per branch, whose point at the branch's own position keeps the
    # two copies' eigenvectors apart; mu = 4 once: inverse iteration, and no
    # full QZ
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), np.diag([-1.0, -1.0, -4.0]),
                            np.zeros((3, 3)), np.eye(3), np.ones(3))
    counts = count_geig(monkeypatch)
    single = pencil.reference_point(p, 2)
    assert single.mu == 4.0 and counts["both"] == 0
    double = [pencil.reference_point(p, b) for b in (0, 1)]
    for b, point in enumerate(double):
        assert point.mu == 1.0 and point.branch_id == b
        assert np.linalg.norm(p.eval_b(0.0, 1.0) @ point.y) == 0.0
    assert counts["both"] == 2
    assert np.vdot(double[0].y, double[1].y) == 0.0
    # so the two branches that meet there are followed apart: mu = 1 +- lam
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), np.diag([-1.0, -1.0, -4.0]),
                            np.diag([1.0, -1.0, 0.0]), np.eye(3), np.ones(3))
    grid = np.linspace(-0.2, 0.2, 5)
    table = problems.tabulate_branches(p, grid, branch_ids=[0, 1])
    np.testing.assert_allclose(np.sort(table.values.real, axis=1),
                               np.column_stack((1 - np.abs(grid), 1 + np.abs(grid))),
                               rtol=0, atol=1e-14)


def test_default_c_not_orthogonal():
    rng = np.random.default_rng(5)
    B1, B2 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    B3 = rng.standard_normal((4, 4))
    c = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), B1, B2, B3, None).c
    assert np.linalg.norm(c) == pytest.approx(1.0)
    _, ys = _linalg.geig(-B1.astype(complex), B3.astype(complex))
    for i in range(ys.shape[1]):
        y = ys[:, i]
        assert abs(c @ y) > 1e-10 * np.linalg.norm(y)


def test_geig_modes_give_bit_equal_eigenvalues():
    # branch ids are positions among the eigenvalues-only QZ's z, and a
    # fallback point takes its y and w from the QZ with both vector sets at
    # the same position: the three modes must give z bit for bit, for the
    # real driver (dggev) and the complex one (zggev) alike, with and
    # without infinite eigenvalues
    pencils = []
    for seed in range(4):
        p = mepnl.gen_random(3, 12, seed=40 + seed)
        pencils.append((-(p.B1 + (0.3 - 0.1j) * p.B2), p.B3))
        pencils.append((-(p.B1 + 0.7 * p.B2), p.B3))
    for seed in range(12):
        rng = np.random.default_rng(900 + seed)
        m = int(rng.integers(4, 101))
        P, Q = rng.standard_normal((2, m, m))
        Pc = P + 1j * rng.standard_normal((m, m))
        rank = int(rng.integers(1, m + 1))
        low_rank = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, m))
        pencils += [(P, Q), (Pc, Q), (P, low_rank), (Pc, low_rank)]
    q = qep_problem()  # B3 is singular: one infinite eigenvalue
    pencils.append((-(q.B1 + 1.3 * q.B2), q.B3))
    for P, Q in pencils:
        z = _linalg.geig(P, Q, vectors="none")
        z_right, _ = _linalg.geig(P, Q)
        z_both, _, _ = _linalg.geig(P, Q, vectors="both")
        assert z.dtype == np.complex128 and z.size <= len(P)
        assert np.array_equal(z, z_right) and np.array_equal(z, z_both)
    assert z.size == 1
    # the problems' own reference eigenvalues: the bench's m = 100, and the
    # rank-one B3 of the Helmholtz generator
    for p in (mepnl.gen_random(3, 100, seed=1),
              problems.gen_helmholtz(problems.HelmholtzConfig(n=50, m=30)).problem):
        points = pencil.eigenpairs_at(p, pencil.REFERENCE_LAM)
        assert np.array_equal(p.reference_mus, [q.mu for q in points])


def test_geig_standard_real_problem_gives_exact_conjugate_pairs():
    # the real standard driver (dgeev), unlike the real QZ (dggev), returns
    # each non-real pair as exact conjugates with conjugate vectors
    pairs = 0
    for seed in range(200):
        P = np.random.default_rng(seed).standard_normal((10, 10))
        z, vr = _linalg.geig(P, None)
        lower = np.flatnonzero(z.imag < 0)
        assert np.count_nonzero(z.imag > 0) == lower.size
        for i in lower:
            assert z[i + 1] == z[i].conjugate()
            assert np.array_equal(vr[:, i + 1], vr[:, i].conj())
        pairs += lower.size
    assert pairs == 709


def assert_mu_within_ulps(p, bp, ref_mu):
    """A stepped mu comes from the shift-invert operator, by power iteration
    or zgeev, not from QZ, so it agrees with QZ's mu to a few ulps of scale_b, in the backward sense: to
    4 eps * scale_b times the condition ||w|| ||y|| / |w^H B3 y| of mu."""
    cond = np.linalg.norm(bp.w) * np.linalg.norm(bp.y) / abs(bp.w.conj() @ p.B3 @ bp.y)
    tol = 4 * np.finfo(float).eps * p.scale_b(bp.lam, ref_mu) * cond
    assert abs(bp.mu - ref_mu) <= tol, (bp.lam, bp.mu, ref_mu)


def test_stepped_point_matches_full_qz(monkeypatch):
    p = mepnl.gen_random(6, 8, seed=4)
    assert p.b3_rank_one is None  # a full-rank B3 takes QZ continuation steps
    last = reference_points(p)

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


def ambiguous_beyond(monkeypatch, h):
    """Make pencil._continue_step raise AmbiguousBranch on every step longer
    than h; returns the list of lams that steps were tried to."""
    tried = []
    step = pencil._continue_step

    def tie(problem, prev, lam_new):
        tried.append(lam_new)
        if abs(lam_new - prev.lam) > h:
            raise AmbiguousBranch(lam_new, (prev.mu, prev.mu))
        return step(problem, prev, lam_new)

    monkeypatch.setattr(pencil, "_continue_step", tie)
    return tried


def test_ambiguous_step_raises_after_one_try(monkeypatch):
    p = mepnl.gen_random(6, 5, seed=8)
    start = pencil.reference_point(p, 1)
    tried = ambiguous_beyond(monkeypatch, 0.0)  # every step is a tie
    lam = 0.2 + 0.1j
    with pytest.raises(AmbiguousBranch) as exc:
        pencil.continue_branch(p, start, lam)
    # one step, to the lam asked for: no step is split and retried
    assert tried == [lam] and exc.value.lam == lam


def test_tabulation_takes_one_step_per_cell(monkeypatch):
    # the square-root branches +-sqrt((2 + 2 lam)(lam - 1)) meet at lam = +-1;
    # past lam = 1 two real branches leave that point equally near a step's
    # prediction, so those cells are gaps, each after the one step that
    # found the tie
    rng = np.random.default_rng(0)
    p, _ = mepnl.gen_sqrt_nep(*(rng.standard_normal((4, 4)) for _ in range(3)),
                              a=0, b=2, c=-1, d=0, e=2, f=1)
    grid = np.arange(-3.0, 3.005, 0.01)
    cells = collections.Counter()
    step = pencil._continue_step

    def counted(problem, prev, lam_new):
        cells[lam_new, prev.branch_id] += 1
        return step(problem, prev, lam_new)

    monkeypatch.setattr(pencil, "_continue_step", counted)
    table = problems.tabulate_branches(p, grid)
    assert table.values.shape == (grid.size, 2) and table.gaps
    assert sum(cells.values()) == len(cells) <= table.values.size


def test_exact_zero_pivot_keeps_inverse_iteration(monkeypatch):
    # B(lam, mu) = diag(mu, 1 + mu, 2 + mu) and g' = 0, so a step from
    # mu = -1 predicts exactly that eigenvalue, where B is exactly singular:
    # the step's one LU floors the zero pivot, and the certificate's power
    # iterates, inverse iteration in effect, are the step's y and w
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), np.diag([0.0, 1.0, 2.0]),
                            np.zeros((3, 3)), np.eye(3), np.ones(3))
    assert p.b3_rank_one is None
    start = pencil.reference_point(p, 1)
    prev = dataclasses.replace(start, y=np.ones(3), w=np.ones(3))

    def full_qz(*args):
        raise AssertionError("a step fell back to the full QZ")

    monkeypatch.setattr(pencil, "eigenpairs_at", full_qz)
    counts, lus = count_geig(monkeypatch), count_lus(monkeypatch)
    point = pencil._continue_step(p, prev, 0.5)
    assert counts["zgeev"] == 0 and len(lus) == 1
    np.testing.assert_allclose(np.abs(point.y), [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(np.abs(point.w), [0.0, 1.0, 0.0], atol=1e-15)
    assert_mu_within_ulps(p, point, -1.0)


def count_geig(monkeypatch):
    """Count _linalg.geig calls by the vectors computed, and the zgeev calls
    of continuation steps (_linalg.shift_invert_eigvals)."""
    counts = {"zgeev": 0, "none": 0, "right": 0, "both": 0}
    geig = _linalg.geig

    def counted(*args, **kwargs):
        counts[kwargs.get("vectors", "right")] += 1
        return geig(*args, **kwargs)

    monkeypatch.setattr(_linalg, "geig", counted)
    count_zgeev(monkeypatch, counts, "zgeev")
    return counts


def count_zgeev(monkeypatch, counts, key):
    """Add one to counts[key] with each zgeev call of _linalg."""
    zgeev = _linalg.lapack.zgeev

    def counted(*args, **kwargs):
        counts[key] += 1
        return zgeev(*args, **kwargs)

    monkeypatch.setattr(_linalg.lapack, "zgeev", counted)


def count_lus(monkeypatch):
    """A list that grows by one with each Factorization built."""
    lus = []
    factorization = _linalg.Factorization.__init__

    def counted_lu(self, *args, **kwargs):
        lus.append(1)
        factorization(self, *args, **kwargs)

    monkeypatch.setattr(_linalg.Factorization, "__init__", counted_lu)
    return lus


def count_certificate(monkeypatch):
    """Count the certificate's decisions: "certified" when it chose a step's
    candidate with no zgeev, "refused" when it left the choice to zgeev."""
    counts = {"certified": 0, "refused": 0}
    original = _linalg.certified_dominant

    def counted(*args, **kwargs):
        found = original(*args, **kwargs)
        counts["refused" if found is None else "certified"] += 1
        return found

    monkeypatch.setattr(_linalg, "certified_dominant", counted)
    return counts


def count_steps(monkeypatch):
    """Count pencil._continue_step calls in a dict's "steps"."""
    counts = {"steps": 0}
    original = pencil._continue_step

    def counted(*args, **kwargs):
        counts["steps"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(pencil, "_continue_step", counted)
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
    certificate = count_certificate(monkeypatch)
    steps = count_steps(monkeypatch)
    bp = pencil.continue_branch(p, start, 0.01)
    # continuation steps, not the rank-one evaluation: each step's candidate
    # comes from the shift-invert operator, by its certificate or by zgeev,
    # and no pencil QZ runs
    assert steps["steps"] >= 1
    assert certificate["certified"] + counts["zgeev"] == steps["steps"]
    assert certificate["certified"] + certificate["refused"] == steps["steps"]
    assert counts["right"] == counts["both"] == 0
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
    assert counts == {"zgeev": 0, "none": 0, "right": 0, "both": 0}


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
    complex_pencil = rng.standard_normal((2, m, m)) + 1j * rng.standard_normal((2, m, m))
    # a real pencil gets the real form, whose S has a 2x2 diagonal block for
    # each complex conjugate pair of eigenvalues
    real_pencil = rng.standard_normal((2, m, m))
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    # one substitution serves any number of lams: fewer than m, as a Newton
    # iterate asks, and more, as a tabulation's grid does
    few = np.concatenate((rng.standard_normal(3) + 1j * rng.standard_normal(3), [0.0, 2.5]))
    many = np.concatenate((few, rng.standard_normal(20)))
    for (P, Q), real in ((complex_pencil, False), (real_pencil, True)):
        schur = _linalg.GeneralizedSchur(P, Q)
        assert schur.S.dtype == (np.float64 if real else np.complex128)
        assert np.any(np.diagonal(schur.S, -1) != 0) == real
        for lams in (few, many, many.real):
            for rhs in (b, b.real):
                for adjoint in (False, True):
                    got = schur.solve(lams, rhs, adjoint=adjoint)
                    assert got.shape == (lams.size, m)
                    # the real form keeps a real lam and a real b real
                    real_solve = real and np.isrealobj(lams) and np.isrealobj(rhs)
                    assert got.dtype == (np.float64 if real_solve else np.complex128)
                    for lam, x in zip(lams, got):
                        K = P + lam * Q
                        want = np.linalg.solve(K.conj().T if adjoint else K, rhs)
                        np.testing.assert_allclose(x, want, rtol=1e-10, atol=0)


def test_generalized_schur_floors_an_exactly_singular_2x2_block():
    # the real form of (P, I) is (P, I) itself, one 2x2 block, and
    # P + lam*I is exactly singular at lam = +-2i; the second pivot of its
    # elimination is then exactly zero, and is floored as a zero pivot is
    P = np.array([[0.0, 2.0], [-2.0, 0.0]])
    schur = _linalg.GeneralizedSchur(P, np.eye(2))
    assert np.array_equal(schur.S, P) and np.array_equal(schur.T, np.eye(2))
    eps = np.finfo(float).eps
    b = np.array([1.0, 0.0])
    for adjoint in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = schur.solve([2j, -2j], b, adjoint=adjoint)
        for lam, x in zip((2j, -2j), got):
            K = P + lam * np.eye(2)
            K = K.conj().T if adjoint else K
            scale = np.linalg.norm(K, 1)
            # the solve of a matrix within eps*||K||_1 of K: x is about a
            # null vector of K, of norm about 1/(eps*||K||_1)
            assert np.all(np.isfinite(x)) and np.linalg.norm(x) >= 0.1 / (eps * scale)
            assert np.linalg.norm(K @ x - b) <= 4 * eps * scale * np.linalg.norm(x)


def test_rank_one_singular_k_gives_lambda_squared(monkeypatch):
    # K(0) = B1 of the QEP is exactly singular, so S + 0*T has exactly zero
    # diagonal entries, which are floored as a zero pivot is
    p = qep_problem()
    assert np.any(np.diagonal(p.schur_k.S) == 0)
    monkeypatch.setattr(pencil, "_full_qz_point", fail_full_qz)
    eps = np.finfo(float).eps
    # the floor holds for one lam, as a Newton iterate asks, and for a
    # grid of 41, as a tabulation asks
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


def test_random_real_rank_one_pencils_certified_without_full_qz(monkeypatch):
    monkeypatch.setattr(pencil, "_full_qz_point", fail_full_qz)
    batch = pencil._rank_one_batch
    dtypes = []

    def recorded(problem, lams, *args):
        out = batch(problem, lams, *args)
        dtypes.append((lams.dtype, *(a.dtype for a in out[:4])))
        return out

    monkeypatch.setattr(pencil, "_rank_one_batch", recorded)
    seeds_with_pairs = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 13))
        B3 = np.outer(rng.standard_normal(m), rng.standard_normal(m))
        # a real c, so that c^T y = 1 keeps a real y real
        p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), rng.standard_normal((m, m)),
                                rng.standard_normal((m, m)), B3, rng.standard_normal(m))
        assert p.is_real and p.b3_rank_one is not None
        assert p.schur_k.S.dtype == np.float64
        seeds_with_pairs += np.any(np.diagonal(p.schur_k.S, -1) != 0)
        lams = np.concatenate((rng.standard_normal(25),
                               rng.standard_normal(25) + 1j * rng.standard_normal(25)))
        rng.shuffle(lams)
        real = lams.imag == 0
        dtypes.clear()
        mus, ys, ws, degen, failed = pencil._rank_one_points(p, lams)
        assert not failed and np.all(np.isfinite(mus)), f"seed {seed}"
        # a real lam's point is computed in float64, mu, tau, y and w alike,
        # so it is exactly real; the complex lams make a second batch
        assert dtypes == [(np.float64,) * 5, (np.complex128,) * 5], f"seed {seed}"
        for got in (mus, ys, ws):
            assert np.all(got[real].imag == 0), f"seed {seed}"
        # a complex lam's point agrees with the full QZ's one finite eigenvalue
        for k in np.flatnonzero(~real)[[0, -1]]:
            ref = pencil.eigenpairs_at(p, lams[k])[0].mu
            assert abs(mus[k] - ref) <= 1e-8 * max(1.0, abs(ref)), f"seed {seed}"
        # the real and the complex lams are two batches, each as if alone
        for part in (real, ~real):
            alone = pencil._rank_one_points(p, lams[part])
            for mixed, separate in zip((mus, ys, ws, degen), alone[:4]):
                assert np.array_equal(mixed[part], separate), f"seed {seed}"
    # most real pencils have a complex conjugate pair, so a 2x2 block
    assert seeds_with_pairs >= 150, seeds_with_pairs


def test_schur_form_dtype_follows_the_problem():
    # the real Helmholtz problem's form is real; a complex rank-one
    # problem's is complex
    helmholtz = problems.gen_helmholtz(problems.HelmholtzConfig(n=50)).problem
    rng = np.random.default_rng(2)
    m = 4

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    complex_problem = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), cplx(m, m),
                                          cplx(m, m), np.outer(cplx(m), cplx(m).conj()), None)
    for p, dtype in ((helmholtz, np.float64), (complex_problem, np.complex128)):
        assert p.b3_rank_one is not None
        schur = p.schur_k
        assert {a.dtype for a in (schur.S, schur.T, schur._x, schur._y)} == {np.dtype(dtype)}
    # the complex form is triangular: its substitution meets no 2x2 block
    assert not np.any(np.tril(complex_problem.schur_k.S, -1))


def test_rank_one_singular_2x2_block_gives_mu_zero(monkeypatch):
    # K(lam) = B1 + lam*I holds the block [[lam, 2], [-2, lam]], exactly
    # singular at lam = +-2i, so the pencil's one finite eigenvalue is
    # mu = 0 there; the real form keeps the block as it is
    B1 = np.array([[0.0, 2.0, 1.0], [-2.0, 0.0, 0.5], [0.0, 0.0, 1.0]])
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), B1, np.eye(3),
                            np.outer([1.0, 0.5, 0.25], [1.0, 2.0, 0.0]), [1.0, 0.0, 0.0])
    assert p.is_real and p.b3_rank_one is not None
    assert np.array_equal(p.schur_k.S, B1) and np.array_equal(p.schur_k.T, np.eye(3))
    monkeypatch.setattr(pencil, "_full_qz_point", fail_full_qz)
    eps = np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mus, ys, _, _, failed = pencil._rank_one_points(p, [2j, -2j])
    assert not failed
    for lam, mu, y in zip((2j, -2j), mus, ys):
        assert abs(mu) <= 4 * eps * p.scale_b(lam, 0.0), lam
        np.testing.assert_allclose(y, [1.0, -lam / 2, 0.0], rtol=0, atol=4 * eps)


def test_rank_one_point_at_huge_lam_has_a_certified_unit_w(monkeypatch):
    # at |lam| near 1e308 the entries of K^-H v reach 1e290, whose squares
    # overflow: w is normalized by its scaled norm, and the residual test
    # takes scaled norms too
    monkeypatch.setattr(pencil, "_full_qz_point", fail_full_qz)
    p = problems.gen_helmholtz(problems.HelmholtzConfig(n=20, m=4)).problem
    for lam in (1e200, 1e308, -1e308, 1e308 + 1e307j):
        bp = pencil.reference_point(p, 0, lam)
        assert abs(np.linalg.norm(bp.w) - 1.0) <= 1e-15, lam
    # solves whose norms lie past the float range give NaN rows, not the
    # zero rows that would pass the residual test trivially
    monkeypatch.setattr(p.schur_k, "solve",
                        lambda lams, b, adjoint=False: np.full((len(lams), p.m), 1.5e308))
    *_, y, w, certified = pencil._rank_one_batch(p, np.array([1.0]))
    assert np.isnan(y).all() and np.isnan(w).all() and not certified[0]


def test_rank_one_entry_failing_its_residual_test_takes_full_qz(monkeypatch):
    rng = np.random.default_rng(21)
    m = 5

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), cplx(m, m), cplx(m, m),
                            np.outer(cplx(m), cplx(m).conj()), None)
    assert p.b3_rank_one is not None
    grid = np.linspace(-1.0, 1.0, 21)
    k = 13
    mus, ys, ws, degen, failed = pencil._rank_one_points(p, grid)
    assert not failed
    passes = pencil._null_vectors_pass
    w_tested = []  # whether each test is given w: a table's tests y alone

    def fail_entry_k(problem, lams, *args):
        w_tested.append(args[2] is not None)
        certified = passes(problem, lams, *args)
        if certified.size == grid.size:
            certified[k] = False
        return certified

    monkeypatch.setattr(pencil, "_null_vectors_pass", fail_entry_k)
    got = pencil._rank_one_points(p, grid)
    assert not got[4]
    others = np.arange(grid.size) != k
    for forced, batch in zip(got[:4], (mus, ys, ws, degen)):
        assert np.array_equal(forced[others], batch[others])
    ref = min(pencil.eigenpairs_at(p, grid[k]), key=lambda q: abs(q.mu - mus[k]))
    assert got[0][k] == ref.mu and got[3][k] == ref.c_degenerate
    np.testing.assert_array_equal(got[1][k], ref.y)
    np.testing.assert_array_equal(got[2][k], ref.w)
    # a table's test is y's alone, and its failing entry k takes the same mu
    w_tested.clear()
    table = problems.tabulate_branches(p, grid)
    assert w_tested == [False] and not table.gaps
    np.testing.assert_array_equal(table.column(0), got[0])

    # and when the full QZ finds no finite eigenvalue there, the entry is a gap
    def no_finite(problem, lam, mu, branch_id=None):
        raise NoFiniteEigenvalue(f"no finite eigenvalue at lam={lam}")

    monkeypatch.setattr(pencil, "_full_qz_point", no_finite)
    got = pencil._rank_one_points(p, grid)
    assert list(got[4]) == [k] and isinstance(got[4][k], NoFiniteEigenvalue)
    assert np.isnan(got[0][k]) and np.all(np.isnan(got[1][k])) and np.all(np.isnan(got[2][k]))
    for forced, batch in zip(got[:4], (mus, ys, ws, degen)):
        assert np.array_equal(forced[others], batch[others])
    table = problems.tabulate_branches(p, grid)
    assert np.isnan(table.values[k, 0])
    assert np.array_equal(table.values[others, 0], mus[others])
    assert [gap[:2] for gap in table.gaps] == [(k, 0)]
    assert table.gaps[0][2].startswith("NoFiniteEigenvalue")


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
    lus = count_lus(monkeypatch)
    for P, Q in shift_invert_battery():
        z_qz, _ = _linalg.geig(P, Q)
        z0 = z_qz[len(z_qz) // 2]
        near = z0 + 1e-9 * (1.0 + abs(z0)) * np.exp(0.7j)
        rng = np.random.default_rng(len(z_qz))
        # a generic shift within the spectrum's own scale, as a prediction is
        generic = z0 + (rng.standard_normal() + 1j * rng.standard_normal()) * abs(z_qz).max()
        start = (np.ones(len(P)), np.ones(len(P)))
        for shift in (generic, z0, near):
            lus.clear()
            # an infinite gap: the certificate never decides, and zgeev of
            # the one LU's T gives every candidate
            z, vectors = _linalg.shift_invert_eigvals(P, Q, shift, start, np.inf)
            assert vectors is None and len(lus) == 1
            i, j = (np.argmin(np.abs(v - shift)) for v in (z, z_qz))
            assert abs(z[i] - z_qz[j]) <= 1e-12 * abs(z_qz[j]), (z[i], z_qz[j])
            # no finite eigenvalue within 1/TOL_INF times the nearest one's
            # distance from the shift is taken for infinite, even at a shift
            # on an eigenvalue, and no infinite one for finite
            d = np.abs(z_qz - shift)
            within = np.count_nonzero(d <= d.min() / _linalg.TOL_INF)
            assert within <= z.size <= z_qz.size, (shift, z, z_qz)


def test_continuation_step_runs_no_pencil_qz(monkeypatch):
    p = mepnl.gen_random(6, 8, seed=4)
    assert p.b3_rank_one is None
    geig, eigenpairs_at = _linalg.geig, pencil.eigenpairs_at
    calls = {"pencil QZ": 0, "zgeev": 0, "fallback": 0}
    in_fallback = [False]

    def counted_geig(P, Q, *args, **kwargs):
        if Q is not None and not in_fallback[0]:
            calls["pencil QZ"] += 1
        return geig(P, Q, *args, **kwargs)

    def counted_eigenpairs_at(*args, **kwargs):
        calls["fallback"] += 1
        in_fallback[0] = True
        try:
            return eigenpairs_at(*args, **kwargs)
        finally:
            in_fallback[0] = False

    for tol in (pencil.TOL_INVERSE_RESIDUAL, -1.0):  # -1: every step falls back
        last = reference_points(p)
        monkeypatch.setattr(_linalg, "geig", counted_geig)
        count_zgeev(monkeypatch, calls, "zgeev")
        monkeypatch.setattr(pencil, "eigenpairs_at", counted_eigenpairs_at)
        monkeypatch.setattr(pencil, "TOL_INVERSE_RESIDUAL", tol)
        certificate = count_certificate(monkeypatch)
        steps = count_steps(monkeypatch)
        for lam in (0.05, 0.1 + 0.05j, 0.2):
            for b, point in enumerate(last):
                last[b] = pencil.continue_branch(p, point, lam)
        monkeypatch.undo()
        # each step's candidate comes from its certificate or, when that
        # refuses, from one zgeev of the shift-invert operator
        assert calls["pencil QZ"] == 0
        assert steps["steps"] >= 3 * len(last)
        assert certificate["certified"] + calls["zgeev"] == steps["steps"]
        assert certificate["certified"] + certificate["refused"] == steps["steps"]
        assert calls["fallback"] == (0 if tol >= 0 else steps["steps"])
        calls.update({"zgeev": 0, "fallback": 0})


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


def rank_two_b3_problem():
    """(problem, its one pole): B3 = Q diag(1, 1, 0) Z with B1 and B2 under
    the same Q and Z, so the bordered determinant is B1[2, 2] + lam*B2[2, 2]
    up to a constant."""
    rng = np.random.default_rng(0)
    B1, B2 = rng.standard_normal((2, 3, 3))
    Q, Z = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), Q @ B1 @ Z, Q @ B2 @ Z,
                            Q @ np.diag([1.0, 1.0, 0.0]) @ Z, None)
    return p, -B1[2, 2] / B2[2, 2]


def noisy_rank_one_b3_problem(seed, m=30):
    """(problem, its m - 1 poles): B3 = e0 e0^T plus noise of 6 eps, which
    passes the rank-one test, so the poles are where K[1:, 1:] =
    B1[1:, 1:] + lam*B2[1:, 1:] is singular."""
    rng = np.random.default_rng(seed)
    B3 = 6 * np.finfo(float).eps * rng.uniform(-1.0, 1.0, (m, m))
    B3[0, 0] += 1.0
    B1, B2 = rng.standard_normal((2, m, m))
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), B1, B2, B3, None)
    return p, _linalg.geig(B1[1:, 1:], -B2[1:, 1:])[0]


def test_branch_poles_of_rank_two_b3():
    p, exact = rank_two_b3_problem()
    poles = pencil.branch_poles(p)
    assert poles.shape == (1,)
    assert abs(poles[0] - exact) <= 1e-12
    near = pencil.eigenpairs_at(p, exact + 1e-6)
    assert max(abs(q.mu) for q in near) > 1e5


@pytest.mark.parametrize("seed", range(5))
def test_branch_poles_of_noisy_rank_one_b3(seed):
    # the followed branch is the rank-one one, and its poles are all m - 1
    # of noisy_rank_one_b3_problem's
    p, exact = noisy_rank_one_b3_problem(seed)
    assert p.b3_rank_one is not None
    poles = pencil.branch_poles(p)
    assert poles.size == p.m - 1
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


def test_branch_poles_take_an_eigenvalues_only_qz(monkeypatch):
    # the poles are the bordered pencil's eigenvalues alone, and the mode
    # that computes no eigenvector gives them bit for bit as the one that
    # computes the right eigenvectors
    calls = []
    original = _linalg.geig

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(_linalg, "geig", recorded)
    with_poles = [rank_two_b3_problem()[0]] + [noisy_rank_one_b3_problem(s)[0] for s in (0, 1)]
    for p in with_poles:
        calls.clear()
        poles = pencil.branch_poles(p)
        assert len(calls) == 1 and calls[0][1] == {"vectors": "none"}
        (P, Q), _ = calls[0]
        assert poles.size and np.array_equal(poles, original(P, Q)[0])


def test_generators_without_poles(monkeypatch):
    # a nonsingular B3 has no finite pole, and no QZ runs to say so; the
    # quadratic generator's bordered determinant is the constant -1
    no_pole = [sqrt_problem()[0], mepnl.gen_random(4, 3, seed=0)]
    counts = count_geig(monkeypatch)
    for p in no_pole:
        assert pencil.branch_poles(p).size == 0
    assert counts == {"zgeev": 0, "none": 0, "right": 0, "both": 0}
    assert pencil.branch_poles(qep_problem()).size == 0


def shift_invert_operator(P, Q, s):
    """T = (P - s*Q)^-1 Q as shift_invert_eigvals forms it."""
    return _linalg.Factorization(P - s * Q).solve(Q)


def shift_invert_spectrum(P, Q, s):
    """The finite eigenvalues z = s + 1/theta of P v = z Q v in canonical
    order, theta the eigenvalues of T = shift_invert_operator(P, Q, s) by
    zgeev, as shift_invert_eigvals takes them when its certificate refuses."""
    theta, _, _, info = lapack.zgeev(shift_invert_operator(P, Q, s), compute_vl=0,
                                     compute_vr=0)
    assert info == 0
    z = s + 1.0 / theta[_linalg.finite_shift_invert(theta)]
    return z[_linalg._canonical_order(z)]


def assert_same_direction(got, want, tol):
    """got and want, unit got, are parallel up to phase to within tol."""
    want = want / np.linalg.norm(want)
    inner = np.vdot(want, got)
    assert np.linalg.norm(got - want * inner / abs(inner)) <= tol


@pytest.mark.parametrize("m", (5, 20, 100))
def test_certificate_is_sound(m):
    # predictions from next to an eigenvalue z0 to past the midpoint of z0
    # and its nearest neighbour, with start vectors those of z0 plus noise,
    # as a step's prev.y and prev.w are
    decided = refused = 0
    eye = np.eye(2)
    for seed in range(12 if m < 100 else 3):
        rng = np.random.default_rng([m, seed])

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        P, Q = cplx(m, m), cplx(m, m)
        # the pencil P v = z Q v is the small pencil at lam = 0 of this one
        p = mepnl.TwoParProblem(eye, eye, eye, -P, np.zeros((m, m)), Q, None)
        z, vr, vl = _linalg.geig(P, Q, vectors="both")
        k = int(rng.integers(z.size))
        neighbour = np.min(np.abs(np.delete(z, k) - z[k]))
        for frac in (1e-12, 1e-6, 1e-2, 0.2, 0.45, 0.7):
            s = z[k] + frac * neighbour * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            y, w = vr[:, k] + 1e-4 * cplx(m), vl[:, k] + 1e-4 * cplx(m)
            mus, _ = _linalg.shift_invert_eigvals(P, Q, s, (y, w), np.inf)
            d = np.sort(np.abs(z - s))
            gap = pencil.TOL_AMBIGUOUS * max(1.0, abs(s))
            got, vectors = _linalg.shift_invert_eigvals(P, Q, s, (y, w), gap)
            if got.size == 1:
                decided += 1
                nearest = mus[np.argmin(np.abs(mus - s))]
                assert abs(got[0] - nearest) <= 1e-10 * abs(nearest), (seed, frac)
                # its y and w are the pencil's, as QZ gives them
                assert pencil._null_vectors_pass(p, 0.0, got[0], *vectors)[0]
                j = np.argmin(np.abs(z - got[0]))
                assert_same_direction(vectors[0], vr[:, j], 1e-10)
                assert_same_direction(vectors[1], vl[:, j], 1e-10)
            else:
                refused += 1
                assert vectors is None and np.array_equal(got, mus)
            # the bound L never exceeds the runner-up's distance d[1]: given
            # the true margin d[1] - d[0] (plus rounding) as the gap, the
            # certificate never decides
            T = shift_invert_operator(P, Q, s)
            margin = d[1] - d[0] + 1e-9 * d[1]
            assert _linalg.certified_dominant(T, y, Q.conj().T @ w, margin) is None
    assert decided > 0 and refused > 0


def test_certificate_refuses_another_eigenvalues_vectors():
    # a step from prev.y and prev.w of a farther eigenvalue: power iteration
    # settles on that one, and the deflated operator keeps the nearest, so
    # the certificate refuses and zgeev chooses; or the iteration moves on
    # to the nearest, which the certificate may then take. Never the other.
    p = mepnl.gen_random(6, 8, seed=4)
    points = reference_points(p)
    for b, point in enumerate(points):
        for other in points:
            if other is point:
                continue
            for lam in (1e-9, 0.02, 0.05 + 0.02j):
                prev = dataclasses.replace(point, y=other.y, w=other.w)
                mu, _ = pencil._nearest_candidate(p, prev, lam)
                pred = prev.mu + pencil.g_prime_closed_form(p, prev) * lam
                every, _ = _linalg.shift_invert_eigvals(-(p.B1 + lam * p.B2), p.B3, pred,
                                                        (prev.y, prev.w), np.inf)
                nearest = every[np.argmin(np.abs(every - pred))]
                assert abs(mu - nearest) <= 1e-10 * abs(nearest), (b, lam)
    # the exact eigenvectors of each other eigenvalue of random pencils, at a
    # shift a tenth of the way from z0 to its nearest neighbour
    refused = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        P, Q = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
        z, vr, vl = _linalg.geig(P, Q, vectors="both")
        for k0 in range(z.size):
            s = z[k0] + 0.1 * np.sort(np.abs(z - z[k0]))[1]
            T = shift_invert_operator(P, Q, s)
            for k in np.flatnonzero(np.arange(z.size) != k0):
                found = _linalg.certified_dominant(T, vr[:, k], Q.conj().T @ vl[:, k], 1e-12)
                refused += found is None
                if found is not None:
                    assert abs(s + 1.0 / found[0] - z[k0]) <= 1e-10 * abs(z[k0])
    assert refused >= 200
    # no certificate from a start in T's null space, as an infinite
    # eigenvalue's vector is, from a left start orthogonal to the right one,
    # or from a zero T
    T, e = np.diag([0.0, 1.0, 2.0]), np.eye(3)
    assert _linalg.certified_dominant(T, e[0], np.ones(3), 0.0) is None
    assert _linalg.certified_dominant(T, e[2], e[1], 0.0) is None
    assert _linalg.certified_dominant(0 * T, np.ones(3), np.ones(3), 0.0) is None


def test_equally_near_candidates_go_through_zgeev(monkeypatch):
    # mu = -diag(B1) and g' = 0, so pred = prev.mu; start vectors e0
    def problem(diag):
        return mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), np.diag(diag),
                                   np.zeros((3, 3)), np.eye(3), np.ones(3))

    e0 = np.array([1.0, 0.0, 0.0])
    counts = count_geig(monkeypatch)
    certificate = count_certificate(monkeypatch)
    # mu = 1 and -1 are equally near pred = 0: the bound cannot decide, and
    # zgeev's candidates make the tie
    p = problem([-1.0, 1.0, -4.0])
    prev = pencil.BranchPoint(lam=0.0, mu=0.0, y=e0, w=e0, branch_id=0)
    with pytest.raises(AmbiguousBranch):
        pencil._nearest_candidate(p, prev, 0.1)
    assert certificate == {"certified": 0, "refused": 1} and counts["zgeev"] == 1
    # a double eigenvalue mu = 1 nearest pred = 0.3: the deflated operator
    # keeps the second copy, so zgeev runs and the first copy is taken
    p = problem([-1.0, -1.0, -4.0])
    prev = dataclasses.replace(prev, mu=0.3)
    mu, vectors = pencil._nearest_candidate(p, prev, 0.1)
    assert vectors is None and mu == pytest.approx(1.0, abs=1e-14)
    assert certificate == {"certified": 0, "refused": 2} and counts["zgeev"] == 2
    # acceptance criterion 02's conjugate tie: a one-step continuation
    # through the branch point takes zgeev and the tie rule at lam + i*h
    p = problems.gen_random(10, 2, seed=53, alphas=(1.0, 1.0, 1.0),
                            betas=(1.0, 1.0, 1.0))
    nearest = pencil._nearest_candidate
    tie_rule = []

    def spy(problem, prev, lam_new, break_conjugate_tie=True):
        tie_rule.append(not break_conjugate_tie)
        return nearest(problem, prev, lam_new, break_conjugate_tie)

    monkeypatch.setattr(pencil, "_nearest_candidate", spy)
    for b in (0, 1):
        tie_rule.clear()
        counts["zgeev"] = 0
        point = pencil.reference_point(p, b, SEED53_LAM)
        end = pencil.continue_branch(p, point, SEED53_LAM + 1e-3)
        assert any(tie_rule) and counts["zgeev"] >= 1, b
        assert (end.mu.imag > 0.5) == (b == 0)


def test_refused_certificate_gives_todays_step(monkeypatch):
    # with the certificate refusing, a step reuses its LU and T for zgeev:
    # the candidates are bit-equal to zgeev of T formed anew, from one LU
    # and one solve, at a shift on an eigenvalue too
    p = mepnl.gen_random(6, 8, seed=4)
    lus, solves = [], []
    solve = _linalg.Factorization.solve

    def counted_solve(self, *args, **kwargs):
        solves.append(1)
        return solve(self, *args, **kwargs)

    for b, point in enumerate(reference_points(p)):
        for lam in (0.03, 0.05 + 0.02j):
            pred = point.mu + pencil.g_prime_closed_form(p, point) * lam
            P = -(p.B1 + lam * p.B2)
            # a generic prediction, and one on the eigenvalue
            on_mu = pencil.continue_branch(p, point, lam).mu
            for s in (pred, on_mu):
                monkeypatch.setattr(_linalg, "certified_dominant", lambda *args: None)
                lus = count_lus(monkeypatch)
                monkeypatch.setattr(_linalg.Factorization, "solve", counted_solve)
                solves.clear()
                mus, vectors = _linalg.shift_invert_eigvals(P, p.B3, s, (point.y, point.w),
                                                            1e-12)
                monkeypatch.undo()
                assert vectors is None and (len(lus), len(solves)) == (1, 1)
                assert np.array_equal(mus, shift_invert_spectrum(P, p.B3, s))
