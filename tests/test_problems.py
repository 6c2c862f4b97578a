"""Generators: random, quadratic, square-root, Helmholtz; tabulation; flags."""
import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import mepnl
from mepnl import _linalg, core, delta, nep, pencil, problems, solvers


def test_gen_random_reproducible_and_scaled():
    p1 = problems.gen_random(5, 3, seed=42)
    p2 = problems.gen_random(5, 3, seed=42)
    for name in ("A1", "A2", "A3", "B1", "B2", "B3", "c"):
        np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))
    assert p1.label == "random(n=5,m=3,seed=42)"
    # alphas scale the corresponding matrix linearly, nothing else moves
    p3 = problems.gen_random(5, 3, seed=42, alphas=(1.0, 10.0 / 500.0, 1.0 / 50.0))
    np.testing.assert_allclose(p3.A2, 10.0 * np.asarray(p1.A2), rtol=1e-13)
    np.testing.assert_array_equal(p3.A1, p1.A1)
    np.testing.assert_array_equal(p3.B3, p1.B3)


def test_gen_random_rejects_empty():
    with pytest.raises(ValueError):
        problems.gen_random(0, 3, seed=1)


def test_gen_qep_has_one_finite_branch():
    rng = np.random.default_rng(0)
    p = problems.gen_qep(*(rng.standard_normal((3, 3)) for _ in range(3)))
    pts = pencil.eigenpairs_at(p, 0.8)
    assert len(pts) == 1
    assert p.m - len(pts) == 1  # one infinite eigenvalue
    assert pts[0].mu == pytest.approx(0.64, abs=1e-12)
    np.testing.assert_allclose(pts[0].y, [1.0, 0.8], atol=1e-12)


def test_sqrt_branches_match_closed_form():
    rng = np.random.default_rng(1)
    p, bf = problems.gen_sqrt_nep(*(rng.standard_normal((3, 3)) for _ in range(3)))
    grid = np.linspace(-0.9, 0.9, 20)
    table = problems.tabulate_branches(p, grid)
    assert table.gaps == []
    # at the reference the +root has the smaller magnitude, so branch 0
    got0, got1 = table.column(0), table.column(1)
    want0 = np.array([bf(l, +1) for l in grid])
    want1 = np.array([bf(l, -1) for l in grid])
    np.testing.assert_allclose(got0, want0, atol=1e-10)
    np.testing.assert_allclose(got1, want1, atol=1e-10)


def test_pure_sqrt_eigenvector_closed_form():
    # with a = d = 0 the branches are mu = +-sqrt((b+lam*e)(c+lam*f)) and
    # y = (sqrt(b+lam*e), -sqrt(c+lam*f)) is an exact null vector at
    # mu = sqrt(b+lam*e)*sqrt(c+lam*f)
    rng = np.random.default_rng(2)
    b, c, e, f = 2.0, -1.0, 2.0, 1.0
    p, bf = problems.gen_sqrt_nep(
        *(rng.standard_normal((3, 3)) for _ in range(3)),
        a=0.0, b=b, c=c, d=0.0, e=e, f=f)
    for lam in np.linspace(-0.8, 0.8, 10):
        u, v = b + lam * e, c + lam * f
        su, sv = np.emath.sqrt(u), np.emath.sqrt(v)
        mu = su * sv
        y = np.array([su, -sv])
        B = p.eval_b(lam, mu)
        assert np.linalg.norm(B @ y) <= 1e-12 * np.linalg.norm(y)
        assert min(abs(mu - bf(lam, +1)), abs(mu - bf(lam, -1))) <= 1e-12


def test_helmholtz_config_validation():
    with pytest.raises(ValueError):
        problems.HelmholtzConfig(x1=0.0).validate()
    with pytest.raises(ValueError):
        problems.HelmholtzConfig(x1=6.0).validate()
    with pytest.raises(ValueError):
        problems.HelmholtzConfig(n=2).validate()
    with pytest.raises(ValueError):
        problems.HelmholtzConfig(m=2).validate()
    cfg = problems.HelmholtzConfig(kappa_a=2.0)
    cfg.validate()
    np.testing.assert_array_equal(cfg.kappa_a_values([0.0, 1.0]), [2.0, 2.0])
    assert np.all(np.isfinite(cfg.kappa_b_values(np.linspace(4, 5, 50))))


def test_helmholtz_refuses_a_non_finite_wavenumber():
    # a profile, given as a constant or as a function, that is not finite
    # somewhere on its subdomain is refused before any matrix is built
    for config in (dict(kappa_a=np.inf),
                   dict(kappa_b=lambda x: np.where(x > 4.5, np.nan, 1.0))):
        with pytest.raises(ValueError, match="^wavenumber profile produced non-finite"):
            problems.gen_helmholtz(problems.HelmholtzConfig(n=40, m=4, **config))


def test_helmholtz_default_profiles():
    x = np.linspace(0.0, 4.0, 101)
    ka = problems.default_kappa_a(x)
    assert set(np.round(np.unique(ka), 10)) == {1.2, 2.8}
    kb = problems.default_kappa_b(np.linspace(4.0, 5.0, 101))
    assert np.all(np.isfinite(kb))
    assert kb[0] == pytest.approx(1.0)


def test_helmholtz_assembly_structure():
    cfg = problems.HelmholtzConfig(x1=1.0, x2=1.5, n=41, m=8,
                                   kappa_a=2.0, kappa_b=2.0)
    disc = problems.gen_helmholtz(cfg)
    p = disc.problem
    A1, A2, A3 = (M.toarray() for M in (p.A1, p.A2, p.A3))
    n = cfg.n
    h = cfg.x1 / (n - 1)
    # boundary closure row: plain Dirichlet identity, no lam or mu coupling
    assert A1[0, 0] == 1.0 and np.count_nonzero(A1[0]) == 1
    assert np.count_nonzero(A2[0]) == 0 and np.count_nonzero(A3[0]) == 0
    # the lam term acts on interior samples only, where the row scaling
    # keeps the stencil's ratio -1 : 1/h^2 of the lam and neighbour terms
    diag2 = np.diag(A2)
    assert diag2[0] == 0 and diag2[-1] == 0
    np.testing.assert_allclose(diag2[1:-1] / np.diag(A1, 1)[1:], -h**2, rtol=1e-12)
    # the mu coupling lives in the last row alone
    nz = np.nonzero(A3)
    assert nz[0].tolist() == [n - 1] and nz[1].tolist() == [n - 1]
    # against the interface stencil's first entry 1/(2h)
    np.testing.assert_allclose(A3[n - 1, n - 1] / A1[n - 1, n - 3], -2.0 * h, rtol=1e-12)
    # small side: mu enters through the corner entry, lam on the interior
    B2, B3 = p.B2, p.B3
    assert np.count_nonzero(B3) == 1
    # row 0 is the interface condition u'(x1) - mu u(x1) = 0
    np.testing.assert_allclose(B3[0, 0] / p.B1[0, 1:], -1.0 / disc.deriv_row_b[1:],
                               rtol=1e-12)
    assert np.count_nonzero(np.diag(B2)[[0, -1]]) == 0
    assert np.all(np.diag(B2)[1:-1] != 0)
    # both operators have unit diagonal at (lam, mu) = (1, 1)
    np.testing.assert_allclose(np.diag(A1 + A2 + A3), 1.0, rtol=1e-12)
    np.testing.assert_allclose(np.diag(p.B1 + B2 + B3), 1.0, rtol=1e-12)
    np.testing.assert_array_equal(p.c, np.eye(cfg.m)[0])


def test_small_helmholtz_keeps_its_diagonals_and_a_tridiagonal_m():
    # no order densifies the A side: a small problem keeps A1-A3 by their
    # diagonals, its M(lam) is a dia_array of diagonals -2..1, and the
    # problem's own LU of it is the tridiagonal one, as a large one's is:
    # M(lam) is tridiagonal but for the interface row's entry two left of
    # the diagonal
    p = problems.gen_helmholtz(problems.HelmholtzConfig(n=41, m=6)).problem
    assert all(M.format == "dia" for M in (p.A1, p.A2, p.A3))
    M = p.eval_a(1.0 + 1.0j, 0.5)
    assert M.format == "dia"
    assert p.factorize_a(1.0 + 1.0j, 0.5).storage == "tridiagonal"
    lower = M.diagonal(-2)
    assert np.flatnonzero(lower).tolist() == [p.n - 3]


def lil_reference(cfg):
    """The A side by a LIL recipe, as CSR matrices: the oracle for
    byte-identical assembly."""
    n = cfg.n
    h = cfg.x1 / (n - 1)
    ka = cfg.kappa_a_values(np.linspace(0.0, cfg.x1, n))
    main = np.zeros(n, dtype=np.complex128)
    main[1:-1] = -2.0 / h**2 + ka[1:-1] ** 2
    lower = np.full(n - 1, 1.0 / h**2, dtype=np.complex128)
    upper = lower.copy()
    lower[-1] = 0.0
    upper[0] = 0.0
    A1 = sp.diags([lower, main, upper], [-1, 0, 1], format="lil",
                  dtype=np.complex128)
    A1[0, 0] = 1.0
    A1[n - 1, n - 3] = 1.0 / (2.0 * h)
    A1[n - 1, n - 2] = -2.0 / h
    A1[n - 1, n - 1] = 3.0 / (2.0 * h)
    a2 = np.full(n, -1.0, dtype=np.complex128)
    a2[0] = a2[-1] = 0.0
    A2 = sp.diags([a2], [0], format="lil", dtype=np.complex128)
    A3 = sp.lil_matrix((n, n), dtype=np.complex128)
    A3[n - 1, n - 1] = -1.0
    sa = sp.diags([1.0 / (A1 + A2 + A3).diagonal()], [0])
    A1, A2, A3 = sa @ A1, sa @ A2, sa @ A3
    return [M.tocsr() for M in (A1, A2, A3)]


def assert_same_bytes(got, want):
    assert sp.issparse(got) and sp.issparse(want)
    assert got.format == want.format == "dia"
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.offsets, want.offsets)
    assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()


# the ids' "True" names the row scaling, which the assembly always applies;
# kappa 2.0 is the benchmark's constant profile, and at n = 3..5 the
# interface row's corner shares its columns with the Dirichlet row's
@pytest.mark.parametrize("n, kappa_a", [
    pytest.param(201, None, id="201-True-None"),
    pytest.param(600, None, id="600-True-None"),
    pytest.param(5000, lambda x: 1.5 + np.sin(3.0 * x) ** 2, id="5000-True-<lambda>"),
    pytest.param(2000, 2.0, id="2000-True-2.0"),
    pytest.param(3, 2.0, id="3-True-2.0"),
    pytest.param(4, None, id="4-True-None"),
    pytest.param(5, 2.0, id="5-True-2.0"),
])
def test_helmholtz_csr_assembly_matches_lil_recipe(n, kappa_a):
    cfg = problems.HelmholtzConfig(n=n, m=10, kappa_a=kappa_a, kappa_b=kappa_a)
    p = problems.gen_helmholtz(cfg).problem
    # the direct build of the diagonals and a problem made from the recipe's
    # complex CSR store the same float64 diagonals, byte for byte, and have
    # the same norm bounds, which are those of the CSR matrices themselves
    csr = lil_reference(cfg)
    ref = mepnl.TwoParProblem(*csr, p.B1, p.B2, p.B3, p.c)
    for name in ("A1", "A2", "A3"):
        assert_same_bytes(getattr(p, name), getattr(ref, name))
    assert p.norms_a == ref.norms_a == tuple(map(_linalg.norm2_bound, csr))


def test_helmholtz_set_up_peaks_within_two_n_vectors_of_its_arrays():
    # the benchmark's set-up writes each stored diagonal once: beyond the
    # arrays it returns, its traced peak holds the row scales and less than
    # one more n-vector
    n = 200_000
    cfg = problems.HelmholtzConfig(x1=3.7, x2=5.0, n=n, m=30, kappa_a=2.0, kappa_b=2.0)
    gc.collect()
    tracemalloc.start()
    try:
        disc = problems.gen_helmholtz(cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert disc.problem.n == n
    assert peak - kept <= 2 * 8 * n, (peak - kept) / (8 * n)


def test_helmholtz_assembly_builds_no_lil(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gen_helmholtz built a LIL matrix")

    monkeypatch.setattr(sp.lil_matrix, "__init__", refuse)
    for n in (41, 600):
        problems.gen_helmholtz(problems.HelmholtzConfig(n=n, m=6))


def test_helmholtz_stores_its_diagonals_and_no_csr():
    # A1-A3 are read-only float64 dia_arrays of their own diagonals, 6n
    # entries in all; a problem made from their CSR forms stores the same
    # diagonals, byte for byte, so either input meets one storage decision
    n = 2000
    p = problems.gen_helmholtz(problems.HelmholtzConfig(n=n)).problem
    mats = (p.A1, p.A2, p.A3)
    for M in mats:
        assert isinstance(M, sp.dia_array) and M.dtype == np.float64
        assert np.all(np.diff(M.offsets) > 0)
        assert not (M.data.flags.writeable or M.offsets.flags.writeable)
    assert sum(M.data.size for M in mats) == 6 * n
    assert not [name for name, value in vars(p).items()
                if sp.issparse(value) and value.format != "dia"]
    q = mepnl.TwoParProblem(*(M.tocsr() for M in mats), p.B1, p.B2, p.B3, p.c)
    for got, want in zip((q.A1, q.A2, q.A3), mats):
        assert_same_bytes(got, want)


def test_helmholtz_large_assembly_structure():
    n = 200_000
    p = problems.gen_helmholtz(problems.HelmholtzConfig(n=n, m=6)).problem
    for M, offsets, nnz in ((p.A1, [-2, -1, 0, 1], 3 * n - 2), (p.A2, [0], n - 2),
                            (p.A3, [0], 1)):
        assert M.format == "dia" and list(M.offsets) == offsets
        assert M.dtype == np.float64 and M.data.shape == (len(offsets), n)
        assert np.count_nonzero(M.data) == nnz
        for arr in (M.data, M.offsets):
            assert not arr.flags.writeable


def helmholtz_eigen(cfg, lam0):
    disc = problems.gen_helmholtz(cfg)
    view = nep.NepView(disc.problem, branch_id=0, reference_lam=lam0)
    quad, trace = solvers.augmented_newton(view, lam0, np.ones(cfg.n))
    assert trace.converged
    return disc, quad


def test_helmholtz_matches_separated_solution():
    kappa0 = 2.0
    cfg = problems.HelmholtzConfig(x1=1.0, x2=1.5, n=201, m=12,
                                   kappa_a=kappa0, kappa_b=kappa0)
    lam1 = problems.helmholtz_analytic_eigenvalues(kappa0, 1.5, 1)[0]
    disc, quad = helmholtz_eigen(cfg, lam1 + 0.01)
    assert abs(quad.lam - lam1) <= 1e-3
    mu1 = problems.helmholtz_analytic_mu(kappa0, quad.lam, 1.0)
    assert abs(quad.mu - mu1) / abs(mu1) <= 1e-3
    assert disc.interface_mismatch(quad) <= 1e-4


def bench_helmholtz_small_side(n=3):
    """The small equation of the benchmark's Helmholtz problem (kappa = 2 on
    [3.7, 5], m = 30); its B3 has the single interface entry."""
    cfg = problems.HelmholtzConfig(x1=3.7, x2=5.0, n=n, m=30,
                                   kappa_a=2.0, kappa_b=2.0)
    return problems.gen_helmholtz(cfg).problem


def count_calls(monkeypatch, targets):
    """{key: calls} of each (owner, name, key) of targets from now on."""
    counts = dict.fromkeys((key for _, _, key in targets), 0)
    for owner, name, key in targets:
        original = getattr(owner, name)

        def counted(*args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_rank_one_helmholtz_branch_matches_closed_form():
    p = bench_helmholtz_small_side()
    assert p.b3_rank_one is not None
    grid = np.arange(-10.0, 100.0 + 1e-9, 0.125)
    # the interface ratio of cos(omega (x2 - x)) at x1
    omega = np.sqrt(4.0 - grid.astype(complex))
    closed = omega * np.tan(omega * 1.3)
    scale = np.maximum(1.0, np.abs(closed))
    table = problems.tabulate_branches(p, grid, branch_ids=[0])
    assert table.gaps == []
    full_qz = np.array([pencil.eigenpairs_at(p, lam)[0].mu for lam in grid])
    err_rank_one = np.max(np.abs(table.column(0) - closed) / scale)
    err_full_qz = np.max(np.abs(full_qz - closed) / scale)
    assert err_rank_one <= err_full_qz <= 1e-10


def test_rank_one_point_does_not_depend_on_the_reference():
    # one builder makes every point of a rank-one problem, so a view whose
    # reference is lam0 has, at lam0, the point continued there from the
    # default reference, bit for bit
    rng = np.random.default_rng(5)
    qep = problems.gen_qep(*(rng.standard_normal((4, 4)) for _ in range(3)))
    helmholtz = bench_helmholtz_small_side()
    modes = problems.helmholtz_analytic_eigenvalues(2.0, 3.7, 4)
    for p, lams in ((helmholtz, [*(modes + 3e-3), 1.5 + 0.25j]),
                    (qep, [0.1, -0.7, 1.3, 0.4 - 0.2j])):
        assert p.b3_rank_one is not None
        for lam0 in lams:
            got = nep.NepView(p, 0, reference_lam=lam0).branch_point(lam0)
            want = pencil.continue_branch(p, pencil.reference_point(p, 0), lam0)
            assert (got.lam, got.mu, got.branch_id, got.c_degenerate) == \
                (want.lam, want.mu, want.branch_id, want.c_degenerate)
            assert np.array_equal(got.y, want.y) and np.array_equal(got.w, want.w)


def test_rank_one_points_of_a_real_problem_are_real_at_real_lam():
    # the default kappa profiles give complex Schur factors of the real
    # (B1, B2); K(lam)^-1 u is real at a real lam all the same, and so is
    # every point the Schur form gives there, batch or single
    p = problems.gen_helmholtz(problems.HelmholtzConfig(n=50)).problem
    assert p.is_real and p.b3_rank_one is not None
    grid = np.arange(-5.0, 5.0 + 1e-9, 0.1)
    mu, y, w, _, failed = pencil._rank_one_points(p, grid)
    assert not failed
    single = [pencil.continue_branch(p, pencil.reference_point(p, 0), lam) for lam in grid]
    for got in (mu, y, w, [bp.mu for bp in single], [bp.y for bp in single],
                [bp.w for bp in single]):
        assert np.all(np.imag(got) == 0)
    assert pencil.reference_point(p, 0).mu.imag == 0


def test_rank_one_problems_run_qz_only_at_references(monkeypatch):
    kappa0 = 2.0
    cfg = problems.HelmholtzConfig(x1=1.0, x2=1.5, n=201, m=12,
                                   kappa_a=kappa0, kappa_b=kappa0)
    p = problems.gen_helmholtz(cfg).problem
    assert p.b3_rank_one is not None
    counts = count_calls(monkeypatch, ((_linalg, "geig", "geig"),
                                       (pencil, "reference_point", "reference_point"),
                                       (pencil, "_continue_step", "step"),
                                       (_linalg, "certified_dominant", "certificate"),
                                       (_linalg, "shift_invert_vectors", "power loop"),
                                       (pencil, "_full_qz_point", "full QZ"),
                                       (_linalg.Factorization, "__init__", "lu")))
    no_step = {"step": 0, "certificate": 0, "full QZ": 0, "power loop": 0}
    problems.tabulate_branches(p, np.linspace(-2.0, 3.0, 51), branch_ids=[0])
    # the grid is evaluated at once; the branch's id is checked against the
    # reference eigenvalues of the problem's construction, and no QZ runs
    assert counts == {"geig": 0, "reference_point": 0, "lu": 0, **no_step}
    lam1 = problems.helmholtz_analytic_eigenvalues(kappa0, 1.5, 1)[0]
    view = nep.NepView(p, branch_id=0, reference_lam=lam1 + 0.01)
    # Newton's view adds one reference point, the Schur form's point of the
    # one branch 0: no QZ, no LU, no inverse iteration and no step
    assert counts == {"geig": 0, "reference_point": 1, "lu": 0, **no_step}
    _, trace = solvers.augmented_newton(view, lam1 + 0.01, np.ones(cfg.n))
    assert trace.converged and trace.iterations >= 3
    # and no QZ per iterate either; the LUs are Newton's, of M(lam)
    lus = counts.pop("lu")
    assert counts == {"geig": 0, "reference_point": 1, **no_step} and lus > 0


def test_rank_one_tabulation_runs_one_schur_reduction(monkeypatch):
    rng = np.random.default_rng(5)
    qep = problems.gen_qep(*(rng.standard_normal((3, 3)) for _ in range(3)))
    helmholtz = bench_helmholtz_small_side()
    counts = count_calls(monkeypatch, (
        (_linalg.GeneralizedSchur, "__init__", "schur"),
        (_linalg.Factorization, "__init__", "lu"),
        (pencil, "continue_branch", "continue"),
        (pencil, "_continue_step", "step"),
        (_linalg, "certified_dominant", "certificate"),
        (_linalg, "shift_invert_vectors", "power loop"),
        (pencil, "_full_qz_point", "full QZ")))
    for p in (qep, helmholtz):
        for grid in (np.linspace(-2.0, 3.0, 51), np.arange(-10.0, 100.0 + 1e-9, 0.125)):
            table = problems.tabulate_branches(p, grid, branch_ids=[0])
            assert np.isfinite(table.column(0)).all()
    # one reduction per problem, shared by both tabulations of it
    assert counts == {"schur": 2, "lu": 0, "continue": 0, "step": 0, "certificate": 0,
                      "power loop": 0, "full QZ": 0}


def test_rank_one_tabulation_certifies_without_formed_b(monkeypatch):
    # the products with B1, B2 and B3 certify every point of the benchmark's
    # grid, so no point falls back to the full QZ
    p = bench_helmholtz_small_side()
    counts = count_calls(monkeypatch, ((pencil, "_full_qz_point", "full QZ"),
                                       (_linalg, "geig", "geig")))
    table = problems.tabulate_branches(p, np.arange(-10.0, 100.0 + 1e-9, 0.125),
                                       branch_ids=[0])
    assert np.isfinite(table.column(0)).all()
    assert counts == {"full QZ": 0, "geig": 0}


def test_rank_one_reference_point_runs_no_qz(monkeypatch):
    # a rank-one problem has the one branch 0 at every lam: its reference
    # point is the Schur form's, and any other id is refused, with no QZ
    p = bench_helmholtz_small_side()
    counts = count_calls(monkeypatch, ((_linalg, "geig", "geig"),))
    for lam0 in (pencil.REFERENCE_LAM, 2.5, 30.0 + 1.0j):
        with pytest.raises(KeyError):
            pencil.reference_point(p, 1, lam0)
        point = pencil.reference_point(p, 0, lam0)
        want = pencil._rank_one_point(p, lam0, 0)
        assert point.mu == want.mu and np.array_equal(point.y, want.y)
    assert counts == {"geig": 0}


def test_rank_one_tabulation_peaks_below_one_stack_of_b():
    # the benchmark's tabulation at n = 2000 peaks below one N x m x m
    # complex stack of B(lam, mu) (12.7 MB for its 881 lams at m = 30)
    p = bench_helmholtz_small_side(n=2000)
    grid = np.arange(-10.0, 100.0 + 1e-9, 0.125)
    stack_bytes = grid.size * p.m * p.m * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        problems.tabulate_branches(p, grid, branch_ids=[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes, (peak, stack_bytes)


def test_rank_one_tabulation_matches_walk():
    # a rank-one point does not depend on the one before it, so evaluating
    # the grid at once gives the values of the walk by continue_branch
    p = bench_helmholtz_small_side()
    grid = np.arange(-10.0, 100.0 + 1e-9, 0.125)
    table = problems.tabulate_branches(p, grid, branch_ids=[0])
    start = int(np.argmin(np.abs(grid - pencil.REFERENCE_LAM)))
    walked = np.empty(grid.size, dtype=complex)
    for indices in (range(start, grid.size), range(start - 1, -1, -1)):
        point = pencil.reference_point(p, 0)
        for i in indices:
            point = pencil.continue_branch(p, point, grid[i])
            walked[i] = point.mu
    np.testing.assert_allclose(table.column(0), walked, rtol=1e-12, atol=0)


def test_rank_one_tabulation_solves_for_y_alone(monkeypatch):
    # a table reads mu alone: one substitution per batch, for y, and no
    # c-normalization; a point still solves for y and w and scales y
    solve = _linalg.GeneralizedSchur.solve
    adjoints = []

    def recorded(self, lams, b, adjoint=False):
        adjoints.append(adjoint)
        return solve(self, lams, b, adjoint)

    monkeypatch.setattr(_linalg.GeneralizedSchur, "solve", recorded)
    counts = count_calls(monkeypatch, ((pencil, "_normalize_y", "normalize"),))
    p = bench_helmholtz_small_side()
    problems.tabulate_branches(p, np.arange(-10.0, 100.0 + 1e-9, 0.125), branch_ids=[0])
    assert adjoints == [False] and counts == {"normalize": 0}
    # real and complex lams of a real problem make two batches
    adjoints.clear()
    problems.tabulate_branches(p, [-1.0, 0.5 + 1.0j, 2.0])
    assert adjoints == [False, False] and counts == {"normalize": 0}
    adjoints.clear()
    pencil._rank_one_point(p, 2.0, 0)
    assert adjoints == [False, True] and counts == {"normalize": 1}


def random_rank_one_problem(seed, m=12):
    """A seeded random problem with rank-one B3 = u v^H: real for an even
    seed, complex for an odd one."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        if seed % 2 == 0:
            return rng.standard_normal(shape)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), draw(m, m), draw(m, m),
                               np.outer(draw(m), draw(m).conj()), draw(m))


def test_rank_one_table_holds_the_points_mu_and_failures():
    # a table certifies mu by y's residual alone, a point by y's and w's;
    # the two agree while no finite cell passes the one and fails the other,
    # which none of these does, on grids on and off the real axis and 1e-10
    # from every pole, where some cells are gaps
    line = np.linspace(-3.0, 3.0, 161)
    samples = [(bench_helmholtz_small_side(), np.arange(-10.0, 100.0 + 1e-9, 0.125))]
    for seed in range(40):
        p = random_rank_one_problem(seed)
        samples.append((p, np.concatenate((line, line + 0.25j,
                                           pencil.branch_poles(p) + 1e-10))))
    finite = y_alone = gaps = 0
    for p, grid in samples:
        assert p.b3_rank_one is not None
        table = problems.tabulate_branches(p, grid, branch_ids=[0])
        mu, _, _, _, failed = pencil._rank_one_points(p, grid)
        assert np.array_equal(table.column(0), mu, equal_nan=True)
        assert sorted(table.gaps) == sorted(
            (i, 0, f"{type(exc).__name__}: {exc}") for i, exc in failed.items())
        gaps += len(failed)
        real = p.is_real & (grid.imag == 0)
        for part, at in ((real, grid.real), (~real, grid)):
            mu, _, y, w, _ = pencil._rank_one_batch(p, at[part])
            bound = pencil.TOL_INVERSE_RESIDUAL * p.scale_b(at[part], mu)
            both = core._small_residual(p, at[part], mu, y, w) <= bound
            finite += np.isfinite(mu).sum()
            y_alone += ((core._small_residual(p, at[part], mu, y) <= bound) & ~both).sum()
    assert (finite, gaps, y_alone) == (881 + 13_257, 63, 0)


def test_rank_one_tabulation_records_infinite_mu_as_gap():
    # K = B1 + lam*B2 = diag(1 + lam, 2) and B3 = e0 e0^T give mu = -(1 + lam),
    # infinite by geig's test from |mu| >= 1/TOL_INF on
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), np.diag([1.0, 2.0]),
                            np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.ones(2))
    big = 1.0 / _linalg.TOL_INF
    grid = np.array([-3.0 * big, -3.0, 0.0, 0.5 * big, big, 2.0 * big])
    table = problems.tabulate_branches(p, grid)
    np.testing.assert_array_equal(table.column(0)[1:4], [2.0, -1.0, -(1.0 + 0.5 * big)])
    assert np.isnan(table.column(0)[[0, 4, 5]]).all()
    prefix = "NoFiniteEigenvalue: the rank-one pencil has no finite eigenvalue at "
    # in the walk's order: outward from the reference, up the grid first
    assert table.gaps == [
        (4, 0, prefix + "lam=(10000000000+0j) (v^H K^-1 u = 1.000e-10+0.000e+00j)"),
        (5, 0, prefix + "lam=(20000000000+0j) (v^H K^-1 u = 5.000e-11+0.000e+00j)"),
        (0, 0, prefix + "lam=(-30000000000+0j) (v^H K^-1 u = -3.333e-11+0.000e+00j)"),
    ]


@pytest.mark.parametrize("lam", [-1e160, -1e200, 1e300, -1e300j])
def test_rank_one_tabulation_records_underflowed_solve_as_gap(lam):
    # at such |lam| the norm of K^-1 u underflows to 0 (not yet at 1e160),
    # tau is 0 or subnormal and mu infinite: a gap like any other, with no
    # RuntimeWarning (an error here)
    rng = np.random.default_rng(0)
    p = problems.gen_qep(*(rng.standard_normal((4, 4)) for _ in range(3)))
    table = problems.tabulate_branches(p, [lam, 0.0])
    assert np.isnan(table.column(0)[0]) and np.isfinite(table.column(0)[1])
    assert [gap[:2] for gap in table.gaps] == [(0, 0)]
    assert table.gaps[0][2].startswith(
        "NoFiniteEigenvalue: the rank-one pencil has no finite eigenvalue at ")


def test_tabulate_rejects_nonfinite_grid():
    rng = np.random.default_rng(4)
    qep = problems.gen_qep(*(rng.standard_normal((3, 3)) for _ in range(3)))
    sqrt = problems.gen_sqrt_nep(*(rng.standard_normal((3, 3)) for _ in range(3)))[0]
    assert qep.b3_rank_one is not None and sqrt.b3_rank_one is None
    for p in (qep, sqrt):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            for i in (0, 3, 8):
                grid = np.linspace(-1.0, 1.0, 9).astype(complex)
                grid[i] = bad
                with pytest.raises(ValueError):
                    problems.tabulate_branches(p, grid)
        with pytest.raises(ValueError, match="^lambda grid is empty$"):
            problems.tabulate_branches(p, [])


def test_tabulate_qep_square_branch():
    rng = np.random.default_rng(3)
    p = problems.gen_qep(*(rng.standard_normal((3, 3)) for _ in range(3)))
    grid = np.linspace(-1.0, 1.0, 21)
    table = problems.tabulate_branches(p, grid)
    assert table.branch_ids == (0,)
    assert table.gaps == []
    np.testing.assert_allclose(table.column(0), grid.astype(complex) ** 2,
                               atol=1e-10)
    assert table.values.shape == (21, 1) and table.grid[0] == -1.0


def test_tabulate_unknown_branch():
    rng = np.random.default_rng(4)
    p = problems.gen_qep(*(rng.standard_normal((3, 3)) for _ in range(3)))
    with pytest.raises(KeyError):
        problems.tabulate_branches(p, np.linspace(-1, 1, 5), branch_ids=(3,))


def synthetic_table(values, gaps=()):
    values = np.asarray(values, dtype=np.complex128)
    values = values.reshape(values.shape[0], -1)
    grid = np.linspace(0.0, values.shape[0] - 1.0, values.shape[0]).astype(complex)
    return problems.BranchTable(grid, tuple(range(values.shape[1])), values, list(gaps))


def pole_at_one_problem():
    """m = 2 with B3 = e0 e0^T: det(B1 + lam*I + mu*B3) = (lam - 1)(lam - 1 +
    mu) - 1, so the one branch mu = 1/(lam - 1) - (lam - 1) has its pole at
    lam = 1, where the rank-one pencil has no finite eigenvalue."""
    B1 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    return mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), B1, np.eye(2),
                               np.diag([1.0, 0.0]), np.array([0.0, 1.0]))


def test_flags_gaps_but_no_spikes():
    # a problem without poles: the NaN sample is a gap, and a large finite
    # value is no singularity
    p = mepnl.gen_random(3, 2, seed=0)
    assert pencil.branch_poles(p).size == 0
    vals = np.ones(11)
    vals[3] = np.nan
    vals[7] = 50.0
    table = synthetic_table(vals, gaps=[(3, 0, "NoFiniteEigenvalue: test")])
    assert problems.flag_singularities(p, table) == {
        0: [problems.SingularInterval(2.5, 3.5, "gap")]}


def test_flags_adjacent_marks_merge_with_priority():
    # at lam = 1 the tabulation records a gap, next to the samples that
    # bracket the computed pole: one interval, reported as a pole
    p = pole_at_one_problem()
    grid = np.linspace(0.0, 2.0, 21)
    table = problems.tabulate_branches(p, grid)
    assert [(i, b) for i, b, _ in table.gaps] == [(10, 0)]
    found = problems.flag_singularities(p, table)[0]
    assert len(found) == 1
    assert found[0].kind == "pole"
    assert found[0].contains(1.0)
    assert found[0].hi - found[0].lo == pytest.approx(0.2)  # three samples


def test_flags_quiet_on_smooth_data():
    # the pole at lam = 1 lies outside this window
    p = pole_at_one_problem()
    grid = np.linspace(2.0, 4.0, 21)
    table = problems.tabulate_branches(p, grid)
    np.testing.assert_allclose(table.column(0), 1.0 / (grid - 1.0) - (grid - 1.0),
                               atol=1e-12)
    assert problems.flag_singularities(p, table) == {0: []}


def test_flags_computed_pole_on_every_branch():
    # with rank(B3) = 2 the pole belongs to the problem, not to one branch
    rng = np.random.default_rng(0)
    B1, B2 = rng.standard_normal((2, 3, 3)).astype(complex)
    B3 = np.diag([1.0, 1.0, 0.0])
    B1[2, 2], B2[2, 2] = -5.3, 1.0  # the pole is lam = 5.3
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), B1, B2, B3, None)
    found = problems.flag_singularities(p, synthetic_table(np.ones((11, 2))))
    assert found == {b: [problems.SingularInterval(4.5, 6.5, "pole")] for b in (0, 1)}
    # a pole farther off the real axis than the grid step is not flagged
    B1[2, 2] = -5.3 + 1.5j
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), B1, B2, B3, None)
    assert problems.flag_singularities(p, synthetic_table(np.ones((11, 2)))) == {0: [], 1: []}
