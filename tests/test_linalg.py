"""The one LU type, _linalg.Factorization, on its three storage paths
(dense, tridiagonal, SuperLU): the real path of a real M(lam) that is
tridiagonal but for one corner, and the SuperLU path of every other sparse
M(lam), narrow or wide."""
import collections
import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

import mepnl
from mepnl import _linalg, nep, problems, solvers
from mepnl.errors import MepnlError, ShiftIsEigenvalue


def helmholtz(n, **config):
    return problems.gen_helmholtz(problems.HelmholtzConfig(n=n, m=30, **config)).problem


def helmholtz_m(n, lam=1.0 + 1.0j, mu=0.5):
    """The split Helmholtz M(lam) = A1 + lam*A2 + mu*A3, a dia_array as
    eval_a builds it, at a complex lam away from the real spectrum."""
    return helmholtz(n).eval_a(lam, mu)


def complex_csr_sum(p, lam, mu):
    """A1 + lam*A2 + mu*A3 of p summed as complex CSR matrices."""
    A1, A2, A3 = (M.tocsr().astype(np.complex128) for M in (p.A1, p.A2, p.A3))
    return A1 + lam * A2 + mu * A3


def backward_error(M, x, b):
    return np.linalg.norm(M @ x - b) / (spla.norm(M, 1) * np.linalg.norm(x) + np.linalg.norm(b))


def assert_lu_agrees_with_superlu(M, fact):
    """fact, a Factorization of M in M's dtype, against SuperLU's LU of M
    made complex: 1-D and 2-D complex solves, with M and with M^H, within
    1e-9 of SuperLU's, at most twice its backward error, and neither
    proving M singular; real solves of a real M stay real."""
    n = M.shape[0]
    assert fact._lu[0].dtype == M.dtype
    ref = spla.splu(M.astype(np.complex128, copy=False).tocsc())
    norm = spla.norm(M, 1)
    rng = np.random.default_rng(0)
    for shape in ((n,), (n, 3)):
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for adjoint, op in ((False, M), (True, M.conj().T.tocsr())):
            x = fact.solve(b, adjoint=adjoint)
            x_ref = ref.solve(b, trans="H" if adjoint else "N")
            assert x.shape == b.shape
            assert x.dtype == np.complex128
            assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
            assert backward_error(op, x, b) <= 2 * backward_error(op, x_ref, b)
            for sol in (x, x_ref):
                assert not _linalg.proves_singular(b, sol, norm)
            if M.dtype == np.float64:
                assert fact.solve(b.real, adjoint=adjoint).dtype == np.float64


def test_real_tridiagonal_m_is_built_and_factorized_in_float64():
    # all six Helmholtz matrices are real, so at a real (lam, mu) M(lam) is
    # summed in float64, entry for entry the real part of the complex sum,
    # and its tridiagonal LU is dgttrf's; complex solves still agree with
    # SuperLU
    p = helmholtz(20000)
    lam, mu = 1.5 + 0j, 0.5
    assert p.is_real
    M = p.eval_a(lam, mu)
    assert M.format == "dia" and M.dtype == np.float64
    ref = complex_csr_sum(p, lam, mu)
    assert ref.dtype == np.complex128 and not np.any(ref.data.imag)
    for k in M.offsets:
        np.testing.assert_array_equal(M.diagonal(k), ref.diagonal(k).real)
    fact = p.factorize_a(lam, mu)
    assert fact.storage == "tridiagonal"
    assert_lu_agrees_with_superlu(M, fact)


@pytest.mark.parametrize("lam, mu, imaginary_a", [
    (1.5 + 1e-3j, 0.5, 0.0),
    (1.5, 0.5 + 1e-3j, 0.0),
    (1.5, 0.5, 1e-3),
])
def test_complex_lam_mu_or_matrices_keep_m_complex(lam, mu, imaginary_a):
    # a nonzero imaginary part of lam, of mu or of a matrix keeps M(lam) and
    # its tridiagonal LU complex128, summed as before
    p = helmholtz(20000)
    if imaginary_a:
        p = mepnl.TwoParProblem(p.A1 * (1 + imaginary_a * 1j), p.A2, p.A3,
                                p.B1, p.B2, p.B3, p.c)
        assert not p.is_real
    M = p.eval_a(lam, mu)
    assert M.format == "dia" and M.dtype == np.complex128
    assert (M != complex_csr_sum(p, lam, mu)).nnz == 0
    fact = p.factorize_a(lam, mu)
    assert fact.storage == "tridiagonal" and fact._lu[0].dtype == np.complex128


def corner_problem(n, corner, imaginary=0.0):
    """A problem whose M(lam) = A1 + lam*A2 + mu*A3 is tridiagonal but for
    the entry corner of A1 at (n - 1, n - 3), whose partner in that column,
    at (n - 2, n - 3), is 1: random diagonals -1..1 of A1, A2 the identity
    and A3 one entry at (n - 1, n - 1), as the split Helmholtz patterns
    are; imaginary turns A1 complex."""
    rng = np.random.default_rng(5)
    data = rng.standard_normal((4, n)) * (1.0 + imaginary * 1j)
    data[0] = 0.0
    data[0, n - 3] = corner
    data[1, n - 3] = 1.0
    data[2] += 4.0
    A1 = sp.dia_array((data, np.arange(-2, 2)), shape=(n, n))
    A3 = sp.dia_array((np.eye(1, n, n - 1), [0]), shape=(n, n))
    p = mepnl.TwoParProblem(A1, sp.eye_array(n, format="dia"), A3, np.diag([1.0, 2.0]),
                            np.eye(2), np.eye(2), np.ones(2))
    assert p.A1.format == "dia" and p.is_real == (imaginary == 0)
    return p


@pytest.mark.parametrize("lam", [1.5, 1.5 + 1.0j])
@pytest.mark.parametrize("problem, swap", [
    (lambda: corner_problem(500, 0.25), False),
    (lambda: corner_problem(500, 3.0), True),
    (lambda: corner_problem(500, 3.0, imaginary=1e-3), True),
    (lambda: helmholtz(20000), False),
])
def test_tridiagonal_lu_agrees_with_superlu(problem, swap, lam):
    # an M(lam) that is tridiagonal but for its corner is summed into the
    # tridiagonal LU, whose Gauss transform exchanges rows n - 2 and n - 1
    # when the corner is the larger entry of its column: real (dgttrf) at a
    # real lam and mu of a real problem, complex (zgttrf) otherwise, and in
    # both directions as accurate as SuperLU's LU of the matrix eval_a forms
    p = problem()
    fact = p.factorize_a(lam, 0.5)
    M = p.eval_a(lam, 0.5)
    assert fact.storage == "tridiagonal" and fact._corner[0] == swap
    assert (fact._lu[0].dtype == np.float64) == (p.is_real and np.imag(lam) == 0)
    assert_lu_agrees_with_superlu(M, fact)


def arrow(n):
    """2 on the diagonal and ones in the first row and column: kl = ku = n - 1."""
    M = sp.lil_matrix((n, n))
    M.setdiag(2.0)
    M[0, :] = 1.0
    M[:, 0] = 1.0
    M[0, 0] = n
    return M.tocsr()


def test_wide_sparse_matrix_goes_through_superlu():
    n = 40
    M = arrow(n)
    fact = _linalg.Factorization(M)
    assert fact.storage == "sparse"
    dense = M.toarray()
    rng = np.random.default_rng(1)
    b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    np.testing.assert_allclose(fact.solve(b), np.linalg.solve(dense, b), rtol=1e-12)
    np.testing.assert_allclose(fact.solve(b[:, 0], adjoint=True),
                               np.linalg.solve(dense.conj().T, b[:, 0]), rtol=1e-12)


def zero_column(M, j):
    M = M.tolil()
    M[:, j] = 0.0
    return M.tocsr()


def singular_band(kl=1):
    """A matrix of half-bandwidths (kl, 1), entries 1, 4, 1 on diagonals
    -1..1 and 0.5 on diagonal -2 when kl = 2, with an exactly zero column
    11."""
    diagonals = [0.5, 1.0, 4.0, 1.0][2 - kl:]
    return zero_column(sp.diags(diagonals, range(-kl, 2), shape=(30, 30)), 11)


def singular_pentadiagonal():
    """singular_band(kl=2) with 0.5 on diagonal 2 as well, as CSR."""
    return zero_column(sp.diags([0.5, 1.0, 4.0, 1.0, 0.5], range(-2, 3), shape=(30, 30)), 11)


def singular_corner():
    """singular_band with the entry 2 at (29, 27), which outweighs its
    partner 1 at (28, 27), as a dia_array of diagonals -2..1."""
    M = singular_band().tolil()
    M[29, 27] = 2.0
    return sp.dia_array(M.tocsr())


@pytest.mark.parametrize("A1", [singular_band(kl=2), singular_pentadiagonal(),
                                sp.csr_array([[2.0, 1.0], [1.0, 3.0]])])
def test_narrow_m_not_tridiagonal_but_for_a_corner_goes_to_superlu(A1):
    # an M(lam) of half-bandwidths (2, 1) with nonzeros on diagonal -2 away
    # from the corner, a pentadiagonal one, or a 2 x 2 one, which has no
    # corner (n - 1, n - 3): the problem stores its real A side as float64
    # CSR and factorizes M(lam) by SuperLU, and Newton from a fixed start
    # reaches the lam of the same problem stored dense
    n = A1.shape[0]
    assert not _linalg.tridiagonal_but_corner([A1])
    A = (A1, -sp.eye_array(n, format="csr"),
         sp.csr_array(([0.5], ([n - 1], [n - 1])), shape=(n, n)))
    B = (np.diag([1.0, 2.0]), np.eye(2), np.eye(2))
    sparse, dense = (mepnl.TwoParProblem(*mats, *B, np.ones(2))
                     for mats in (A, [M.toarray() for M in A]))
    for M in (sparse.A1, sparse.A2, sparse.A3):
        assert M.format == "csr" and M.dtype == np.float64
    assert sparse.factorize_a(6.5, -7.5).storage == "sparse"
    assert dense.factorize_a(6.5, -7.5).storage == "dense"
    lams = []
    for p in (sparse, dense):
        view = nep.NepView(p, reference_lam=6.5)
        quad, trace = solvers.augmented_newton(view, 6.5, np.ones(n),
                                               solvers.SolverConfig(tol=1e-13))
        assert trace.converged
        lams.append(quad.lam)
    assert abs(lams[0] - lams[1]) <= 1e-10 * abs(lams[1])


@pytest.mark.parametrize("M, storage", [
    (singular_band(kl=2).todia(), "sparse"),
    (zero_column(arrow(30), 11), "sparse"),
])
def test_exactly_singular_sparse_matrix(M, storage):
    # an exactly zero column, of a narrow dia_array or of a wide CSR matrix
    # handed to Factorization: SuperLU refuses to factorize and is handed
    # M + eps*||M||_1 I; it does not raise, and one solve gives the null
    # vector e11, as the first step of inverse iteration should, and so
    # proves M singular, on which a NepView refuses it (see the test of
    # NepView.refuse_singular below)
    fact = _linalg.Factorization(M)
    assert fact.storage == storage
    b = np.ones(M.shape[0])
    x = fact.solve(b)
    assert np.all(np.isfinite(x))
    assert _linalg.proves_singular(b, x, spla.norm(M, 1))
    assert np.linalg.norm(M @ x) <= 1e-10 * spla.norm(M, 1) * np.linalg.norm(x)
    np.testing.assert_allclose(np.abs(x) / np.linalg.norm(x), np.eye(M.shape[0])[11],
                               atol=1e-12)


def test_exactly_singular_tridiagonal_m_is_floored():
    # a problem's M(lam), tridiagonal but for a corner that takes the row
    # exchange, with an exactly zero column: dgttrf meets an exactly zero
    # pivot, which is floored in place at _pivot_floor(||M||_1), and one
    # solve each way gives a null vector, e11 for M, proving M singular
    M = singular_corner()
    p = mepnl.TwoParProblem(M, 0 * M, 0 * M, np.diag([1.0, 2.0]), np.eye(2), np.eye(2),
                            np.ones(2))
    fact = p.factorize_a(0.3, 0.0)
    assert fact.storage == "tridiagonal" and fact._corner[0]
    norm = spla.norm(M, 1)
    udiag = fact._lu[1]
    assert udiag.dtype == np.float64
    assert np.abs(udiag).min() == np.finfo(float).eps * norm
    b = np.ones(30)
    for adjoint, op in ((False, M), (True, M.T)):
        x = fact.solve(b, adjoint=adjoint)
        assert x.dtype == np.float64 and np.all(np.isfinite(x))
        assert _linalg.proves_singular(b, x, norm)
        assert np.linalg.norm(op @ x) <= 1e-10 * norm * np.linalg.norm(x)
    x = fact.solve(b)
    np.testing.assert_allclose(np.abs(x) / np.linalg.norm(x), np.eye(30)[11], atol=1e-12)


@pytest.mark.parametrize("M, storage", [
    (np.zeros((3, 3)), "dense"),
    (np.zeros((3, 3), dtype=np.complex128), "dense"),
    (0 * singular_band(kl=2), "sparse"),
    (sp.csr_array((3, 3)), "sparse"),
    (0 * singular_pentadiagonal(), "sparse"),
])
def test_zero_matrix_is_floored_at_the_smallest_normal_float(M, storage):
    # eps*||M||_1 is 0 for a zero M: each path floors it at the smallest
    # normal float instead, so a solve stays finite and inverse iteration
    # can go on; the narrow CSR matrices keep their pattern of zeros
    fact = _linalg.Factorization(M)
    assert fact.storage == storage
    b = np.ones(M.shape[0])
    assert np.array_equal(fact.solve(b), b / np.finfo(float).tiny)


def test_exactly_singular_real_dense_matrix_is_floored_by_dgetrf(monkeypatch):
    # a float64 dense matrix keeps to real arithmetic: its exactly zero
    # pivot is floored on the dgetrf path as on zgetrf's, and a real solve
    # gives the null vector e11 and proves it singular; so is the same M
    # as a real dense problem's M(lam), summed into the LU's own storage,
    # whose floor reads the norm of a fresh sum
    M = zero_column(arrow(30), 11).toarray()
    p = mepnl.TwoParProblem(M, 0 * M, 0 * M, np.diag([1.0, 2.0]), np.eye(2), np.eye(2),
                            np.ones(2))
    calls = []
    for name in ("dgetrf", "zgetrf"):
        def counted(a, *args, _routine=getattr(lapack, name), _name=name, **kwargs):
            calls.append(_name)
            return _routine(a, *args, **kwargs)
        monkeypatch.setattr(lapack, name, counted)
    for make in (lambda: _linalg.Factorization(M), lambda: p.factorize_a(0.3, 0.0)):
        calls.clear()
        fact = make()
        assert fact.storage == "dense" and calls == ["dgetrf"]
        lu = fact._lu[0]
        assert lu.dtype == np.float64
        assert np.abs(lu.diagonal()).min() == np.finfo(float).eps * np.linalg.norm(M, 1)
        b = np.ones(30)
        for adjoint, op in ((False, M), (True, M.T)):
            x = fact.solve(b, adjoint=adjoint)
            assert x.dtype == np.float64 and np.all(np.isfinite(x))
            assert _linalg.proves_singular(b, x, np.linalg.norm(M, 1))
            assert np.linalg.norm(op @ x) <= 1e-10 * np.linalg.norm(M, 1) * np.linalg.norm(x)
        np.testing.assert_allclose(np.abs(fact.solve(b)) / np.linalg.norm(fact.solve(b)),
                                   np.eye(30)[11], atol=1e-12)


def test_real_dense_lu_solves_a_complex_b_by_its_parts(monkeypatch):
    # a complex b on a real dense LU goes to two dgetrs calls, of its real
    # and of its imaginary part, each bit-equal to that float64 b's own solve
    rng = np.random.default_rng(3)
    M = rng.standard_normal((20, 20))
    fact = _linalg.Factorization(M)
    assert fact._lu[0].dtype == np.float64
    columns = []
    dgetrs = lapack.dgetrs

    def counted(lu, piv, b, *args, **kwargs):
        columns.append(b.shape[1] if b.ndim == 2 else 1)
        return dgetrs(lu, piv, b, *args, **kwargs)

    monkeypatch.setattr(lapack, "dgetrs", counted)
    for shape in ((20,), (20, 3)):
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        k = b.size // 20
        for adjoint, op in ((False, M), (True, M.T)):
            columns.clear()
            x = fact.solve(b, adjoint=adjoint)
            assert columns == [k, k] and x.dtype == np.complex128 and x.shape == b.shape
            for part, got in ((b.real, x.real), (b.imag, x.imag)):
                want = fact.solve(part, adjoint=adjoint)
                assert want.dtype == np.float64
                assert np.array_equal(got, want)
            np.testing.assert_allclose(x, np.linalg.solve(op, b), rtol=1e-10)
            # an exactly zero imaginary part is left out of the solve
            columns.clear()
            x = fact.solve(b.real.astype(np.complex128), adjoint=adjoint)
            assert columns == [k] and x.dtype == np.complex128 and not x.imag.any()
    # the two parts are one call of solve: a wrapper on the instance, as
    # tests/conftest.py's nan_at_second_solve puts there, sees one
    calls = []
    solve = fact.solve

    def wrapped(b, adjoint=False):
        calls.append(adjoint)
        return solve(b, adjoint)

    fact.solve = wrapped
    fact.solve(rng.standard_normal(20) + 1j * rng.standard_normal(20))
    assert calls == [False]


@pytest.mark.parametrize("M, storage", [
    (singular_band().toarray(), "dense"),
    (singular_band(kl=2), "sparse"),
    (zero_column(arrow(30), 11), "sparse"),
    (singular_band().todia(), "tridiagonal"),
    (singular_corner(), "tridiagonal"),
    (singular_pentadiagonal(), "sparse"),
])
def test_view_refuses_exactly_singular_m_on_every_path(M, storage):
    # NepView.refuse_singular is the one refusal of M(sigma): on each
    # storage path the floored factorization of M(sigma) = M is built, and
    # resinv's first solve with it proves M singular, by the same test. A
    # sparse matrix handed to Factorization itself, a dia_array too, takes
    # SuperLU; only a problem decides that its M(sigma) is tridiagonal but
    # for a corner, and a narrow one that is not goes to SuperLU as well
    direct = "sparse" if storage == "tridiagonal" else storage
    assert _linalg.Factorization(M).storage == direct
    p = mepnl.TwoParProblem(M, 0 * M, 0 * M, np.diag([1.0, 2.0]), np.eye(2),
                            np.eye(2), np.ones(2))
    view = nep.NepView(p)
    view.branch_point(0.3)
    assert view.factorization().storage == storage
    with pytest.raises(ShiftIsEigenvalue, match="^a solve with M\\(sigma\\) proves it"):
        solvers.resinv(view, np.ones(M.shape[0]), solvers.SolverConfig(sigma=0.3))


def test_view_factorization_builds_tridiagonal_m_from_diagonals(monkeypatch):
    # M(sigma) is summed from the problem's stored diagonals straight into
    # the LU's storage, the tridiagonal LU's for the split Helmholtz
    # problem: the one storage predicate runs once per problem, on its
    # three matrices, and no M, CSR sum or int64 pattern array is alive
    # beside the factors. A wide M(sigma) goes to SuperLU with no further
    # scan, and so does a tridiagonal CSR matrix handed to Factorization
    # directly: only a problem decides its storage
    decisions = []
    tridiagonal_but_corner = _linalg.tridiagonal_but_corner

    def counted(mats):
        decisions.append(tridiagonal_but_corner(mats))
        return decisions[-1]

    monkeypatch.setattr(_linalg, "tridiagonal_but_corner", counted)
    wide = mepnl.TwoParProblem(arrow(40), sp.eye(40, format="csr"), 0.5 * sp.eye(40),
                               np.diag([1.0, 2.0]), np.eye(2), np.eye(2), np.ones(2))
    view = nep.NepView(wide)
    for sigma in (0.3, 0.4):
        view.branch_point(sigma)
        assert view.factorization().storage == "sparse"
    tridiagonal = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(30, 30), format="csr")
    assert _linalg.Factorization(tridiagonal).storage == "sparse"
    assert decisions == [False]
    decisions.clear()
    n = 100_000
    p = problems.gen_helmholtz(problems.HelmholtzConfig(n=n, m=30)).problem
    view = nep.NepView(p)
    view.branch_point(1.0 + 1.0j)
    view.factorization()
    lu_bytes = (1 + 1 + 1 + 1) * n * 16
    gc.collect()
    tracemalloc.start()
    try:
        view.branch_point(1.5 + 1.0j)
        fact = view.factorization()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fact.storage == "tridiagonal" and fact._lu[0].dtype == np.complex128
    # the three diagonals, factorized in place, the fill du2 and the pivot
    # indices; anything else is smaller than one array of length n
    assert peak < lu_bytes + 4 * n + n
    view.branch_point(2.0 + 1.0j)
    view.factorization()
    assert decisions == [True]


def test_view_factorization_builds_real_tridiagonal_m_in_float64():
    # the real-sigma twin of the test above: the bench's Helmholtz problem,
    # whose branch keeps mu exactly real at a real sigma, gives a float64
    # tridiagonal LU, 8 bytes an entry. With one solve the peak is about
    # 5.5 float64 n-vectors
    n = 100_000
    p = helmholtz(n, x1=3.7, x2=5.0, kappa_a=2.0, kappa_b=2.0)
    view = nep.NepView(p, reference_lam=1.5)
    view.branch_point(1.5)
    view.factorization()
    b = np.random.default_rng(0).standard_normal(n)
    vector = n * 8
    gc.collect()
    tracemalloc.start()
    try:
        view.branch_point(1.6)
        fact = view.factorization()
        x = fact.solve(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert view.point.mu.imag == 0
    assert fact.storage == "tridiagonal" and fact._lu[0].dtype == np.float64
    assert x.dtype == np.float64
    # the three diagonals, factorized in place, the fill du2, the pivot
    # indices and x; anything else is smaller than one array of length n
    assert peak < 5 * vector + 4 * n + n


def test_newton_from_real_start_factorizes_in_real_arithmetic(monkeypatch):
    # Newton on the bench's Helmholtz problem from a real start near mode 1:
    # every iterate stays real, so each factorized M(lam) goes to dgttrf
    # and none to zgttrf, and the solve still lands on the analytic value
    n = 20000
    kappa, x2 = 2.0, 5.0
    disc = problems.gen_helmholtz(problems.HelmholtzConfig(
        x1=3.7, x2=x2, n=n, m=30, kappa_a=kappa, kappa_b=kappa))
    calls = {"dgttrf": 0, "zgttrf": 0, "factorization": 0}
    for name in ("dgttrf", "zgttrf"):
        def counted(*args, _routine=getattr(lapack, name), _name=name, **kwargs):
            calls[_name] += 1
            return _routine(*args, **kwargs)
        monkeypatch.setattr(lapack, name, counted)
    factorization = nep.NepView.factorization

    def counted_view(self):
        calls["factorization"] += 1
        return factorization(self)

    monkeypatch.setattr(nep.NepView, "factorization", counted_view)
    lam_k = problems.helmholtz_analytic_eigenvalues(kappa, x2, 1)[0]
    lam0 = lam_k + 4e-3
    x0 = np.sin(0.5 * np.pi / x2 * disc.grid_a)
    view = nep.NepView(disc.problem, reference_lam=lam0)
    quad, info = solvers.augmented_newton(view, lam0, x0, solvers.SolverConfig(tol=1e-13))
    assert info.converged and abs(quad.lam - lam_k) <= 1e-4
    assert calls["factorization"] >= 2
    assert calls["dgttrf"] == calls["factorization"]
    assert calls["zgttrf"] == 0


@pytest.mark.parametrize("imag, routine", [(0.0, "dgttrf"), (1e-3, "zgttrf")])
def test_helmholtz_newton_takes_one_tridiagonal_lu_per_iterate(monkeypatch, imag, routine):
    # from a real start every iterate is real, from a complex lam0 none is:
    # Newton takes one tridiagonal LU, real or complex, per iterate that it
    # factorizes, and attach_left_vectors one more, with no M(lam) formed,
    # neither by eval_a nor as any dia_array, and both solves land on mode 1
    n = 20000
    kappa, x2 = 2.0, 5.0
    disc = problems.gen_helmholtz(problems.HelmholtzConfig(
        x1=3.7, x2=x2, n=n, m=30, kappa_a=kappa, kappa_b=kappa))
    p = disc.problem
    lam_k = problems.helmholtz_analytic_eigenvalues(kappa, x2, 1)[0]
    lam0 = lam_k + 4e-3 + imag * 1j
    x0 = np.sin(0.5 * np.pi / x2 * disc.grid_a)
    view = nep.NepView(p, reference_lam=lam0)
    calls = collections.Counter()
    for name in ("dgttrf", "zgttrf"):
        def counted(*args, _routine=getattr(lapack, name), _name=name, **kwargs):
            calls[_name] += 1
            return _routine(*args, **kwargs)
        monkeypatch.setattr(lapack, name, counted)
    dia_init = sp.dia_array.__init__

    def counted_dia(self, *args, **kwargs):
        calls["dia_array"] += 1
        dia_init(self, *args, **kwargs)

    def refused(*args):
        raise AssertionError("M(lam) formed by eval_a")

    monkeypatch.setattr(sp.dia_array, "__init__", counted_dia)
    monkeypatch.setattr(mepnl.TwoParProblem, "eval_a", refused)
    quad, trace = solvers.augmented_newton(view, lam0, x0, solvers.SolverConfig(tol=1e-13))
    assert trace.converged and abs(quad.lam - lam_k) <= 1e-4
    assert calls == {routine: trace.iterations - 1}
    mepnl.attach_left_vectors(p, quad)
    assert calls == {routine: trace.iterations}


@pytest.mark.parametrize("imag, first", [(0.0, "dgetrf"), (1e-3, "zgetrf")])
def test_dense_newton_takes_one_in_place_lu_per_iterate(monkeypatch, imag, first):
    # a real dense problem, from a real start near a real eigenvalue and
    # from a complex one: Newton takes one dense LU of order n per iterate
    # that it factorizes, and attach_left_vectors one more, each on the
    # column-major sum made for it and factorized in place, with no M(lam)
    # formed by eval_a; the real start's first LU is real
    p = problems.gen_random(40, 3, seed=1)
    quad = min((q for q in mepnl.delta.solve(p) if q.lam.imag == 0), key=lambda q: abs(q.lam))
    points = mepnl.pencil.eigenpairs_at(p, quad.lam)
    branch = min(range(len(points)), key=lambda i: abs(points[i].mu - quad.mu))
    lam0 = quad.lam.real + 1e-3 + imag * 1j
    x0 = (quad.x / quad.x[np.argmax(np.abs(quad.x))]).real + 1e-3
    view = nep.NepView(p, branch_id=branch, reference_lam=lam0)
    lus = []
    for name in ("dgetrf", "zgetrf"):
        def counted(a, _routine=getattr(lapack, name), _name=name, **kwargs):
            out = _routine(a, **kwargs)
            if a.shape[0] == p.n:
                lus.append((_name, np.shares_memory(out[0], a)))
            return out
        monkeypatch.setattr(lapack, name, counted)

    def refused(*args):
        raise AssertionError("M(lam) formed by eval_a")

    monkeypatch.setattr(mepnl.TwoParProblem, "eval_a", refused)
    found, trace = solvers.augmented_newton(view, lam0, x0, solvers.SolverConfig(tol=1e-13))
    assert trace.converged and abs(found.lam - quad.lam) <= 1e-10 * abs(quad.lam)
    assert len(lus) == trace.iterations - 1 and lus[0][0] == first
    mepnl.attach_left_vectors(p, found)
    assert len(lus) == trace.iterations and all(in_place for _, in_place in lus)


def test_dense_factorization_holds_one_n_by_n_array():
    # the dense LU of M(lam) at n = 700 is its own storage: the sum goes
    # into one column-major array, which zgetrf factorizes in place, so the
    # traced peak stays below 1.2 complex n x n matrices, where a formed M
    # beside the LU's copy of it would make two
    p = problems.gen_random(700, 3, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        fact = p.factorize_a(0.5 + 0.25j, 0.1 - 0.2j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fact.storage == "dense" and fact._lu[0].dtype == np.complex128
    assert peak < 1.2 * p.n * p.n * 16


def test_real_tridiagonal_solve_of_a_real_b_takes_one_column(monkeypatch):
    # a real b on the real tridiagonal LU of a Helmholtz M(lam) goes to
    # dgttrs as its real part alone, one column, not two; dgttrs solves each
    # column on its own, so x equals the real part of the two-column solve
    # bit for bit, in both directions
    rng = np.random.default_rng(2)
    fact = helmholtz(5000).factorize_a(1.5, 0.5)
    assert fact.storage == "tridiagonal" and fact._lu[0].dtype == np.float64
    columns = []
    dgttrs = lapack.dgttrs

    def counted(*args, **kwargs):
        columns.append(args[5].shape[1])
        return dgttrs(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgttrs", counted)
    b = rng.standard_normal(5000)
    for adjoint in (False, True):
        columns.clear()
        x = fact.solve(b.astype(np.complex128), adjoint=adjoint)
        assert columns == [1] and x.dtype == np.complex128
        assert np.array_equal(x.imag, np.zeros_like(b))
        both = np.zeros((b.size, 2))
        both[:, 0] = b
        want, _ = _linalg._tridiagonal_solve(fact._lu, fact._corner, both, adjoint)
        assert np.array_equal(x.real, want[:, 0])
        # a b with any nonzero imaginary part takes a second solve, of that part
        columns.clear()
        fact.solve(b + 1j * rng.standard_normal(b.size), adjoint=adjoint)
        assert columns == [1, 1]


@pytest.mark.parametrize("routine", ["dgetrs", "zgetrs", "dgttrs", "zgttrs"])
def test_triangular_solve_argument_error_is_no_refusal(monkeypatch, routine):
    # ?getrs and ?gttrs return a nonzero info only for an illegal argument,
    # a programming error that the CLI must not report as a singular shift
    lam = 1.5 if routine.startswith("d") else 1.0 + 1.0j
    fact = {"getrs": lambda: _linalg.Factorization(helmholtz_m(50, lam=lam).toarray()),
            "gttrs": lambda: helmholtz(50).factorize_a(lam, 0.5)}[routine[1:]]()
    solve = getattr(lapack, routine)
    monkeypatch.setattr(lapack, routine, lambda *a, **k: (solve(*a, **k)[0], -3))
    with pytest.raises(RuntimeError, match="argument 3") as info:
        fact.solve(np.ones(50))
    assert not isinstance(info.value, MepnlError)


def test_vector_norms_whole_array_is_numpys_norm_until_it_overflows():
    # axis None is one norm of the whole array: numpy's own wherever that is
    # in range, and the norm of the array divided by its largest modulus p,
    # times p, with no RuntimeWarning, where numpy's squares overflow or
    # underflow (numpy's norm is then 0.0 at 1e-200)
    rng = np.random.default_rng(11)
    for shape in ((7,), (3, 5)):
        for scale in (1.0, 1e-200, 1e150):
            a = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            if scale == 1e-200:
                assert np.linalg.norm(a) == 0.0
                peak = np.abs(a).max()
                assert _linalg.vector_norms(a, None) == peak * np.linalg.norm(a / peak)
                peaks = np.abs(a).max(axis=-1, keepdims=True)
                want = (peaks[..., 0] * np.linalg.norm(a / peaks, axis=-1)).tolist()
            else:
                assert _linalg.vector_norms(a, None) == np.linalg.norm(a)
                want = np.linalg.norm(a, axis=-1).tolist()
            assert _linalg.vector_norms(a, -1).tolist() == want
    a = np.array([3e300, 4e300j, 0.0])
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(a))
    assert _linalg.vector_norms(a, None) == pytest.approx(5e300, rel=1e-15)
    assert np.isinf(_linalg.vector_norms(np.array([np.inf, 1.0]), None))
