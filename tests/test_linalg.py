"""The one LU type, _linalg.Factorization, on its band and SuperLU paths,
and the real band path of a real narrow-band M(lam)."""
import gc
import tracemalloc
import weakref

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


def assert_band_lu_agrees_with_superlu(M):
    """The band Factorization of M against SuperLU's LU of M made complex:
    1-D and 2-D complex solves, with M and with M^H, within 1e-9 of
    SuperLU's, at most twice its backward error, and neither proving M
    singular."""
    n = M.shape[0]
    fact = _linalg.Factorization(M)
    assert fact.storage == "band" and fact.bandwidths == (2, 1)
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


def test_band_lu_agrees_with_superlu():
    M = helmholtz_m(20000)
    assert M.dtype == np.complex128
    assert_band_lu_agrees_with_superlu(M)


def test_real_band_m_is_built_and_factorized_in_float64():
    # all six Helmholtz matrices are real, so at a real (lam, mu) M(lam) is
    # summed in float64, entry for entry the real part of the complex sum,
    # and its band LU is dgbtrf's; complex solves still agree with SuperLU
    p = helmholtz(20000)
    lam, mu = 1.5 + 0j, 0.5
    assert p.is_real
    M = p.eval_a(lam, mu)
    assert M.format == "dia" and M.dtype == np.float64
    ref = complex_csr_sum(p, lam, mu)
    assert ref.dtype == np.complex128 and not np.any(ref.data.imag)
    for k in M.offsets:
        np.testing.assert_array_equal(M.diagonal(k), ref.diagonal(k).real)
    assert_band_lu_agrees_with_superlu(M)


@pytest.mark.parametrize("lam, mu, imaginary_a", [
    (1.5 + 1e-3j, 0.5, 0.0),
    (1.5, 0.5 + 1e-3j, 0.0),
    (1.5, 0.5, 1e-3),
])
def test_complex_lam_mu_or_matrices_keep_m_complex(lam, mu, imaginary_a):
    # a nonzero imaginary part of lam, of mu or of a matrix keeps M(lam) and
    # its band LU complex128, summed as before
    p = helmholtz(20000)
    if imaginary_a:
        p = mepnl.TwoParProblem(p.A1 * (1 + imaginary_a * 1j), p.A2, p.A3,
                                p.B1, p.B2, p.B3, p.c)
        assert not p.is_real
    M = p.eval_a(lam, mu)
    assert M.format == "dia" and M.dtype == np.complex128
    assert (M != complex_csr_sum(p, lam, mu)).nnz == 0
    fact = _linalg.Factorization(M)
    assert fact.storage == "band" and fact._lu[0].dtype == np.complex128


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
    assert _linalg.BAND_MAX < 2 * (n - 1)
    assert fact.storage == "sparse" and fact.bandwidths is None
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


def singular_band():
    """A tridiagonal matrix with an exactly zero column 11."""
    return zero_column(sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(30, 30)), 11)


def test_band_lu_reads_only_the_stored_columns_of_a_dia_array():
    # todia stores no column past the last nonzero one, so its rows of
    # data can be shorter than n: the band LU is that of the zero-padded rows
    M = zero_column(sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(30, 30)), 29).todia()
    assert M.data.shape[1] < 30
    padded = sp.dia_array((np.pad(M.data, ((0, 0), (0, 30 - M.data.shape[1]))), M.offsets),
                          shape=M.shape)
    got, want = _linalg.Factorization(M), _linalg.Factorization(padded)
    assert got.storage == want.storage == "band"
    for g, w in zip(got._lu, want._lu):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("M, storage", [
    (singular_band().todia(), "band"),
    (zero_column(arrow(30), 11), "sparse"),
])
def test_exactly_singular_sparse_matrix(M, storage):
    # an exactly zero column: the band LU meets an exactly zero pivot and
    # floors it, SuperLU refuses to factorize and is handed M + eps*||M||_1 I;
    # neither raises, and one solve gives the null vector e11, as the first
    # step of inverse iteration should, and so proves M singular, on which
    # a NepView refuses it (next test)
    fact = _linalg.Factorization(M)
    assert fact.storage == storage
    if storage == "band":
        # the zero pivot is floored in place, as the dense LU floors it
        # M is float64, and so is its band LU
        assert fact._lu[0].dtype == np.float64
        kl, ku = fact.bandwidths
        floor = np.finfo(float).eps * spla.norm(M, 1)
        assert np.abs(fact._lu[0][kl + ku]).min() == floor
    b = np.ones(M.shape[0])
    x = fact.solve(b)
    assert np.all(np.isfinite(x))
    assert _linalg.proves_singular(b, x, spla.norm(M, 1))
    assert np.linalg.norm(M @ x) <= 1e-10 * spla.norm(M, 1) * np.linalg.norm(x)
    np.testing.assert_allclose(np.abs(x) / np.linalg.norm(x), np.eye(M.shape[0])[11],
                               atol=1e-12)


def test_exactly_singular_real_dense_matrix_is_floored_by_dgetrf(monkeypatch):
    # a float64 dense matrix keeps to real arithmetic: its exactly zero
    # pivot is floored on the dgetrf path as on zgetrf's, and a real solve
    # gives the null vector e11 and proves it singular
    M = zero_column(arrow(30), 11).toarray()
    calls = []
    for name in ("dgetrf", "zgetrf"):
        def counted(a, *args, _routine=getattr(lapack, name), _name=name, **kwargs):
            calls.append(_name)
            return _routine(a, *args, **kwargs)
        monkeypatch.setattr(lapack, name, counted)
    fact = _linalg.Factorization(M)
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


@pytest.mark.parametrize("M, storage", [
    (singular_band().toarray(), "dense"),
    (singular_band().todia(), "band"),
    (zero_column(arrow(30), 11), "sparse"),
])
def test_view_refuses_exactly_singular_m_on_every_path(M, storage):
    # NepView.refuse_singular is the one refusal of M(sigma): on each
    # storage path the floored factorization of M(sigma) = M is built, and
    # resinv's first solve with it proves M singular, by the same test
    assert _linalg.Factorization(M).storage == storage
    p = mepnl.TwoParProblem(M, 0 * M, 0 * M, np.diag([1.0, 2.0]), np.eye(2),
                            np.eye(2), np.ones(2))
    view = nep.NepView(p)
    view.branch_point(0.3)
    assert view.factorization().storage == storage
    with pytest.raises(ShiftIsEigenvalue, match="^a solve with M\\(sigma\\) proves it"):
        solvers.resinv(view, np.ones(M.shape[0]), solvers.SolverConfig(sigma=0.3))


def test_band_factorization_keeps_only_its_band():
    # SuperLU's own allocations are invisible to tracemalloc, hence the path;
    # M comes as eval_a builds it, a dia_array
    n = 100_000
    band_bytes = (2 * 2 + 1 + 1) * n * 16
    M = helmholtz_m(n)
    gc.collect()
    tracemalloc.start()
    try:
        fact = _linalg.Factorization(M)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fact.storage == "band" and fact.bandwidths == (2, 1)
    assert peak < 2 * band_bytes
    # the band array and the pivot indices, nothing of the size of a copy of M
    assert kept < band_bytes + 4 * n + 4096
    ref = weakref.ref(M)
    del M
    gc.collect()
    assert ref() is None


def test_view_factorization_builds_band_m_from_diagonals(monkeypatch):
    # M(sigma) arrives as its four diagonals, and the band is read from
    # their offsets: the pattern scan runs once per matrix of the problem,
    # and no CSR sum or int64 pattern array is alive beside the factors.
    # A wide M(sigma) goes to SuperLU unscanned, and so does a narrow CSR
    # matrix handed to Factorization directly: only a dia_array is banded
    scans = []
    half_bandwidths = _linalg.half_bandwidths

    def counted(mat):
        scans.append(mat.nnz)
        return half_bandwidths(mat)

    monkeypatch.setattr(_linalg, "half_bandwidths", counted)
    wide = mepnl.TwoParProblem(arrow(40), sp.eye(40, format="csr"), 0.5 * sp.eye(40),
                               np.diag([1.0, 2.0]), np.eye(2), np.eye(2), np.ones(2))
    view = nep.NepView(wide)
    for sigma in (0.3, 0.4):
        view.branch_point(sigma)
        assert view.factorization().storage == "sparse"
    tridiagonal = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(30, 30), format="csr")
    assert _linalg.Factorization(tridiagonal).storage == "sparse"
    assert scans == [wide.A1.nnz, wide.A2.nnz, wide.A3.nnz]
    scans.clear()
    n = 100_000
    p = problems.gen_helmholtz(problems.HelmholtzConfig(n=n, m=30)).problem
    view = nep.NepView(p)
    view.branch_point(1.0 + 1.0j)
    view.factorization()
    m_bytes = (2 + 1 + 1) * n * 16
    band_bytes = (2 * 2 + 1 + 1) * n * 16
    gc.collect()
    tracemalloc.start()
    try:
        view.branch_point(1.5 + 1.0j)
        fact = view.factorization()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fact.storage == "band" and fact.bandwidths == (2, 1)
    # M's diagonals, the band array and the pivot indices; anything else
    # is smaller than one array of length n
    assert peak < m_bytes + band_bytes + 4 * n + n
    view.branch_point(2.0 + 1.0j)
    view.factorization()
    assert scans == [p.A1.nnz, p.A2.nnz, p.A3.nnz]


def test_view_factorization_builds_real_band_m_in_float64():
    # the real-sigma twin of the test above: the bench's Helmholtz problem,
    # whose branch keeps mu exactly real at a real sigma, gives a float64
    # M(sigma) and a float64 band LU, so each holds 8 bytes an entry
    n = 100_000
    p = helmholtz(n, x1=3.7, x2=5.0, kappa_a=2.0, kappa_b=2.0)
    view = nep.NepView(p, reference_lam=1.5)
    view.branch_point(1.5)
    view.factorization()
    m_bytes = (2 + 1 + 1) * n * 8
    band_bytes = (2 * 2 + 1 + 1) * n * 8
    gc.collect()
    tracemalloc.start()
    try:
        view.branch_point(1.6)
        fact = view.factorization()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert view.point.mu.imag == 0
    assert fact.storage == "band" and fact.bandwidths == (2, 1)
    assert fact._lu[0].dtype == np.float64
    # M's diagonals, the band array and the pivot indices; anything else
    # is smaller than one array of length n
    assert peak < m_bytes + band_bytes + 4 * n + n


def test_newton_from_real_start_factorizes_in_real_arithmetic(monkeypatch):
    # Newton on the bench's Helmholtz problem from a real start near mode 1:
    # every iterate stays real, so each factorized M(lam) goes to dgbtrf
    # and none to zgbtrf, and the solve still lands on the analytic value
    n = 20000
    kappa, x2 = 2.0, 5.0
    disc = problems.gen_helmholtz(problems.HelmholtzConfig(
        x1=3.7, x2=x2, n=n, m=30, kappa_a=kappa, kappa_b=kappa))
    calls = {"dgbtrf": 0, "zgbtrf": 0, "factorization": 0}
    for name in ("dgbtrf", "zgbtrf"):
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
    assert calls["dgbtrf"] == calls["factorization"] and calls["zgbtrf"] == 0


def test_real_band_solve_of_a_real_b_takes_one_column(monkeypatch):
    # a real b on a real band LU goes to dgbtrs as its real part alone, one
    # column, not two; dgbtrs solves each column on its own, so x equals
    # the real part of the two-column solve bit for bit, in both directions
    rng = np.random.default_rng(2)
    fact = _linalg.Factorization(helmholtz(5000).eval_a(1.5, 0.5))
    lu, piv = fact._lu
    assert fact.storage == "band" and lu.dtype == np.float64
    kl, ku = fact.bandwidths
    columns = []
    dgbtrs = lapack.dgbtrs

    def counted(lu, kl, ku, b, *args, **kwargs):
        columns.append(b.shape[1])
        return dgbtrs(lu, kl, ku, b, *args, **kwargs)

    monkeypatch.setattr(lapack, "dgbtrs", counted)
    b = rng.standard_normal(lu.shape[1])
    for adjoint in (False, True):
        columns.clear()
        x = fact.solve(b.astype(np.complex128), adjoint=adjoint)
        assert columns == [1] and x.dtype == np.complex128
        assert np.array_equal(x.imag, np.zeros_like(b))
        both = np.zeros((b.size, 2), order="F")
        both[:, 0] = b
        want, _ = dgbtrs(lu, kl, ku, both, piv, trans=2 if adjoint else 0)
        assert np.array_equal(x.real, want[:, 0])
        # a b with any nonzero imaginary part takes a second solve, of that part
        columns.clear()
        fact.solve(b + 1j * rng.standard_normal(b.size), adjoint=adjoint)
        assert columns == [1, 1]


@pytest.mark.parametrize("routine", ["dgetrs", "zgetrs", "dgbtrs", "zgbtrs"])
def test_triangular_solve_argument_error_is_no_refusal(monkeypatch, routine):
    # ?getrs and ?gbtrs return a nonzero info only for an illegal argument,
    # a programming error that the CLI must not report as a singular shift
    real = routine.startswith("d")
    mat = helmholtz_m(50, lam=1.5 if real else 1.0 + 1.0j, mu=0.5)
    fact = _linalg.Factorization(mat if routine.endswith("gbtrs") else mat.toarray())
    solve = getattr(lapack, routine)
    monkeypatch.setattr(lapack, routine, lambda *a, **k: (solve(*a, **k)[0], -3))
    with pytest.raises(RuntimeError, match="argument 3") as info:
        fact.solve(np.ones(50))
    assert not isinstance(info.value, MepnlError)


def test_vector_norms_whole_array_is_numpys_norm_until_it_overflows():
    # axis None is one norm of the whole array: numpy's own wherever that is
    # finite, and the scaled norm, with no RuntimeWarning, past the float range
    rng = np.random.default_rng(11)
    for shape in ((7,), (3, 5)):
        for scale in (1.0, 1e-200, 1e150):
            a = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            assert _linalg.vector_norms(a, None) == np.linalg.norm(a)
            assert _linalg.vector_norms(a, -1).tolist() == np.linalg.norm(a, axis=-1).tolist()
    a = np.array([3e300, 4e300j, 0.0])
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(a))
    assert _linalg.vector_norms(a, None) == pytest.approx(5e300, rel=1e-15)
    assert np.isinf(_linalg.vector_norms(np.array([np.inf, 1.0]), None))
