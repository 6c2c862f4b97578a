"""The one LU type, _linalg.Factorization, on its band and SuperLU paths."""
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mepnl import _linalg, problems
from mepnl.errors import ShiftIsEigenvalue


def helmholtz_m(n, lam=1.0 + 1.0j, mu=0.5):
    """The split Helmholtz M(lam) = A1 + lam*A2 + mu*A3, CSR, at a complex lam
    away from the real spectrum."""
    p = problems.gen_helmholtz(problems.HelmholtzConfig(n=n, m=30)).problem
    return p.eval_a(lam, mu)


def backward_error(M, x, b):
    return np.linalg.norm(M @ x - b) / (spla.norm(M, 1) * np.linalg.norm(x) + np.linalg.norm(b))


def test_band_lu_agrees_with_superlu():
    n = 20000
    M = helmholtz_m(n)
    fact = _linalg.Factorization(M)
    assert fact.storage == "band" and fact.bandwidths == (2, 1)
    ref = spla.splu(M.tocsc())
    udiag = np.abs(ref.U.diagonal())
    ref_rcond = udiag.min() / udiag.max()
    assert ref_rcond / 10 <= fact.rcond <= 10 * ref_rcond
    rng = np.random.default_rng(0)
    for shape in ((n,), (n, 3)):
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for adjoint, op in ((False, M), (True, M.conj().T.tocsr())):
            x = fact.solve(b, adjoint=adjoint)
            x_ref = ref.solve(b, trans="H" if adjoint else "N")
            assert x.shape == b.shape
            assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
            assert backward_error(op, x, b) <= 2 * backward_error(op, x_ref, b)


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


@pytest.mark.parametrize("M, storage, refusal", [
    (zero_column(sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(30, 30)), 11), "band", "rcond"),
    (zero_column(arrow(30), 11), "sparse", "singular sparse factorization"),
])
def test_exactly_singular_sparse_matrix(M, storage, refusal):
    # an exactly zero column: the band LU meets an exactly zero pivot, which
    # the one rcond test refuses, and SuperLU refuses to factorize; with
    # allow_singular one solve gives the null vector e11, as the first step
    # of inverse iteration should
    with pytest.raises(ShiftIsEigenvalue, match=refusal):
        _linalg.Factorization(M)
    fact = _linalg.Factorization(M, allow_singular=True)
    assert fact.storage == storage
    assert fact.rcond < _linalg.RCOND_SINGULAR
    if storage == "band":
        # the zero pivot is floored in place, as the dense LU floors it
        kl, ku = fact.bandwidths
        floor = np.finfo(float).eps * spla.norm(M, 1)
        assert np.abs(fact._lu[0][kl + ku]).min() == floor
    x = fact.solve(np.ones(M.shape[0]))
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(M @ x) <= 1e-10 * spla.norm(M, 1) * np.linalg.norm(x)
    np.testing.assert_allclose(np.abs(x) / np.linalg.norm(x), np.eye(M.shape[0])[11],
                               atol=1e-12)


def test_band_factorization_keeps_only_its_band():
    # SuperLU's own allocations are invisible to tracemalloc, hence the path
    n = 100_000
    M = helmholtz_m(n)
    band_bytes = (2 * 2 + 1 + 1) * n * 16
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
