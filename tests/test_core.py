"""Problem container, residuals, and conditioning."""
import dataclasses
import gc
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import mepnl
from mepnl import _linalg, core, pencil, problems
from mepnl.core import (Quadruplet, Weights, attach_left_vectors, c0_matrix,
                        condition_numbers, residuals, worst_case_perturbation)
from mepnl.errors import ConvergenceFailure, DimensionMismatch, NonSimpleLambda, NonSimpleMu


def small_problem(seed=1, n=8, m=3):
    return mepnl.gen_random(n, m, seed=seed)


def solved_quad(problem, index=0, with_left=True):
    quads = mepnl.delta.solve(problem)
    q = quads[index]
    if with_left:
        q = attach_left_vectors(problem, q)
    return q


def test_dimension_validation():
    eye = np.eye(3)
    with pytest.raises(DimensionMismatch):
        mepnl.TwoParProblem(eye, np.eye(4), eye, np.eye(2), np.eye(2), np.eye(2),
                            [1, 0])
    with pytest.raises(DimensionMismatch):
        mepnl.TwoParProblem(eye, eye, eye, np.eye(2), np.eye(3), np.eye(2), [1, 0])
    with pytest.raises(DimensionMismatch):
        mepnl.TwoParProblem(eye, eye, eye, np.eye(2), np.eye(2), np.eye(2),
                            [1, 0, 0])
    with pytest.raises(ValueError):
        mepnl.TwoParProblem(eye, eye, eye, np.eye(2), np.eye(2), np.eye(2), [0, 0])
    with pytest.raises(DimensionMismatch):
        mepnl.TwoParProblem(np.ones((2, 3)), eye, eye, np.eye(2), np.eye(2),
                            np.eye(2), [1, 0])


def test_matrices_read_only_and_complex():
    # a dense A side with any nonzero imaginary part is stored complex128,
    # all three matrices, the real ones too; a complex128 input is kept,
    # frozen, and the others are copied once
    rng = np.random.default_rng(4)
    real = [rng.standard_normal((6, 6)) for _ in range(3)]
    complex_a3 = real[2] + 1e-3j * rng.standard_normal((6, 6))
    p = mepnl.TwoParProblem(real[0], real[1], complex_a3, np.eye(2), np.eye(2), np.eye(2),
                            [1, 0])
    assert not p.is_real
    assert [M.dtype for M in (p.A1, p.A2, p.A3)] == [np.dtype(np.complex128)] * 3
    assert p.A3 is complex_a3 and not complex_a3.flags.writeable
    assert real[0].flags.writeable and not np.shares_memory(p.A1, real[0])
    np.testing.assert_array_equal(p.A1, real[0])
    for mat in (p.A1, p.A2, p.A3, p.B1, p.c):
        with pytest.raises(ValueError):
            mat[0] = 5.0


def test_real_dense_a_side_is_kept_float64_read_only():
    # all three with exactly zero imaginary parts: float64, row-major, a
    # float64 row-major input kept without a copy and frozen; a complex
    # input with zero imaginary part, an integer one and a column-major
    # one are each copied once into that form
    rng = np.random.default_rng(5)
    a1 = rng.standard_normal((6, 6))
    inputs = [a1, np.asfortranarray(rng.standard_normal((6, 6))),
              rng.standard_normal((6, 6)) + 0j]
    p = mepnl.TwoParProblem(*inputs, np.eye(2), np.eye(2), np.eye(2), [1, 0])
    assert p.is_real and p.A1 is a1 and not a1.flags.writeable
    for M, given in zip((p.A1, p.A2, p.A3), inputs):
        assert M.dtype == np.float64 and M.flags.c_contiguous and not M.flags.writeable
        np.testing.assert_array_equal(M, given.real)
    q = mepnl.TwoParProblem(np.eye(6, dtype=int), *inputs[1:], np.eye(2), np.eye(2),
                            np.eye(2), [1, 0])
    assert q.A1.dtype == np.float64 and q.A2 is not inputs[1]
    r = problems.gen_random(20, 3, seed=2)
    assert r.A1.dtype == np.float64
    assert r.factorize_a(0.5, 0.1)._lu[0].dtype == np.float64
    assert r.factorize_a(0.5 + 0.1j, 0.1)._lu[0].dtype == np.complex128


def test_sparse_matrices_read_only():
    # a narrow A side is kept as its diagonals, a wide one as CSR; each
    # array of either form is frozen
    p = mepnl.gen_helmholtz(mepnl.HelmholtzConfig(n=600, m=10)).problem
    assert sp.issparse(p.A1)
    with pytest.raises(ValueError):
        p.A1.data[0] = 5.0
    for mat in (p.A1, p.A2, p.A3):
        assert mat.format == "dia"
        for arr in (mat.data, mat.offsets):
            assert not arr.flags.writeable
    full = sp.csr_matrix(np.ones((12, 12)))
    q = mepnl.TwoParProblem(full, full, full, np.eye(2), np.eye(2), np.eye(2), [1, 0])
    for mat in (q.A1, q.A2, q.A3):
        assert mat.format == "csr"
        for arr in (mat.data, mat.indices, mat.indptr):
            assert not arr.flags.writeable


def test_sparse_duplicates_summed_before_freezing():
    # a complex CSR matrix holding entry (0, 0) twice and unsorted column
    # indices: narrow, it is stored by its diagonals, which sum the
    # duplicates; wide (an entry in the far corner), it is kept without a
    # copy and made canonical before it is frozen
    n = 12
    for corner in ([], [6.0]):
        dup = sp.csr_matrix((np.array([1.0, 2.0, 3.0, 4.0, 5.0j] + corner),
                             np.array([0, 0, 1, 2, 1] + [0] * len(corner)),
                             np.array([0, 2, 3] + [5] * (n - 3) + [5 + len(corner)])),
                            shape=(n, n))
        dense = dup.toarray()
        eye = sp.identity(n, format="csr")
        p = mepnl.TwoParProblem(dup, eye, eye, np.eye(2), np.eye(2), np.eye(2), [1, 0])
        if corner:
            assert p.A1 is dup and p.A1.has_canonical_format and p.A1.nnz == 5
        else:
            assert p.A1.format == "dia"
        np.testing.assert_array_equal(p.A1.toarray(), dense)
        x = np.arange(1.0, n + 1.0)
        lam, mu = 0.5, -0.25j
        want = (dense + lam * np.eye(n) + mu * np.eye(n)) @ x
        np.testing.assert_allclose(p.apply_a(lam, mu, x), want, rtol=1e-15)
        np.testing.assert_allclose(p.eval_a(lam, mu) @ x, want, rtol=1e-15)
        fact = mepnl._linalg.Factorization(p.eval_a(lam, mu))
        np.testing.assert_allclose(fact.solve(want), x, rtol=1e-12)


def test_sparse_a_side_and_sparse_b_densified():
    rng = np.random.default_rng(0)
    A = [sp.random(10, 10, density=0.3, random_state=i, format="coo")
         for i in range(3)]
    B = [sp.csr_matrix(rng.standard_normal((2, 2))) for _ in range(3)]
    p = mepnl.TwoParProblem(A[0], A[1], A[2], B[0], B[1], B[2], [1, 1])
    assert p.is_sparse
    assert sp.issparse(p.A1) and p.A1.format == "csr"
    assert isinstance(p.B1, np.ndarray)


def test_eval_and_scale():
    p = small_problem()
    lam, mu = 0.7 - 0.2j, 1.1 + 0.3j
    direct = p.A1 + lam * p.A2 + mu * p.A3
    assert np.allclose(p.eval_a(lam, mu), direct)
    expected = (p.norms_a[0] + abs(lam) * p.norms_a[1] + abs(mu) * p.norms_a[2])
    assert p.scale_a(lam, mu) == pytest.approx(expected)


def helmholtz_like_a(n, rng, far=False):
    """A1 tridiagonal plus one entry two below the diagonal (or, with far,
    one in the corner), A2 diagonal and A3 a single entry, as the patterns
    of the split Helmholtz problem differ."""
    def cplx(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    A1 = sp.diags([cplx(n - 1), cplx(n), cplx(n - 1)], [-1, 0, 1], format="lil")
    A1[n - 1 if far else n // 2, 0 if far else n // 2 - 2] = cplx(1)[0]
    A2 = sp.diags(cplx(n))
    A3 = sp.csr_array(([cplx(1)[0]], ([n // 2], [n // 2])), shape=(n, n))
    return A1.tocsr(), A2, A3


@pytest.mark.parametrize("kind, storage, bandwidths", [
    ("band", "sparse", (2, 1)),
    ("wide", "sparse", None),
    ("dense", "dense", None),
    ("tridiagonal", "tridiagonal", None),
])
def test_eval_a_is_the_sum_bit_for_bit(kind, storage, bandwidths):
    # bandwidths are the half-bandwidths of a narrow M(lam) whose stored
    # offsets lie within -2..1 but whose diagonal -2 is not zero away from
    # the corner: the one storage predicate refuses it, so its problem
    # keeps CSR. The tridiagonal kind is a real split Helmholtz A side,
    # stored by its float64 diagonals: at a complex lam, where
    # p.A1 + lam*p.A2 raises UFuncTypeError inside scipy, eval_a gives a
    # complex dia_array with the bits of the complex CSR sum
    rng = np.random.default_rng(11)
    n = 50  # more rows than one block of the dense sum
    A = helmholtz_like_a(n, rng, far=kind == "wide")
    if kind == "dense":
        A = [M.toarray() for M in A]
    if kind == "tridiagonal":
        h = problems.gen_helmholtz(problems.HelmholtzConfig(n=n, m=3)).problem
        A = [h.A1, h.A2, h.A3]
    B = np.eye(2)
    p = mepnl.TwoParProblem(*A, B, B, B, [1, 0])
    lam, mu = 0.7 - 0.2j, 1.1 + 0.3j
    M = p.eval_a(lam, mu)
    if kind == "tridiagonal":
        assert p.is_real and M.format == "dia" and M.dtype == np.complex128
        with pytest.raises(TypeError):  # numpy's UFuncTypeError
            p.A1 + lam * p.A2
        want = sum(scale * mat.tocsr().astype(np.complex128)
                   for scale, mat in zip((1, lam, mu), (p.A1, p.A2, p.A3)))
    else:
        want = p.A1 + lam * p.A2 + mu * p.A3
        assert type(M) is type(want)
    assert sp.issparse(M) == (kind != "dense")
    if bandwidths:
        offsets = M.indices - np.repeat(np.arange(n), np.diff(M.indptr))
        assert M.format == "csr" and (-offsets.min(), offsets.max()) == bandwidths
        assert not _linalg.tridiagonal_but_corner([M])
        assert not _linalg.tridiagonal_but_corner([p.A1, p.A2, p.A3])
        # the same pattern with the entry two below the diagonal moved to
        # the corner (n - 1, n - 3) passes it
        moved = M.tolil()
        moved[n - 1, n - 3], moved[n // 2, n // 2 - 2] = moved[n // 2, n // 2 - 2], 0
        assert _linalg.tridiagonal_but_corner([moved.tocsr()])
    # the dense M is the LU's column-major storage: compare in one layout
    got, want = (np.ascontiguousarray(_linalg.to_dense(A)) for A in (M, want))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the problem's own LU is that of M, on the same storage path, and its
    # solves are bit-equal; a dia_array M takes SuperLU, the problem's own
    # M the tridiagonal LU, and their solves agree to rounding
    fact, own = _linalg.Factorization(M), p.factorize_a(lam, mu)
    assert own.storage == storage
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for adjoint in (False, True):
        if kind == "tridiagonal":
            np.testing.assert_allclose(own.solve(b, adjoint), fact.solve(b, adjoint),
                                       rtol=1e-10)
        else:
            assert fact.storage == storage
            assert np.array_equal(own.solve(b, adjoint), fact.solve(b, adjoint))


def norm_bound_matrices(n=60):
    """Dense and sparse matrices of orders 1 to n for norm2_bound: complex
    dense ones, a stencil (the fourth), a full rank-one CSR matrix, a
    sparse one with an empty row and column, and a zero one."""
    rng = np.random.default_rng(3)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    stencil = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n))
    holed = sp.random(n, n, density=0.1, random_state=4, format="lil")
    holed[5, :] = 0.0
    holed[:, 7] = 0.0
    return [cplx(k, k) for k in (1, 3, 20)] + [
        stencil, sp.csr_matrix(np.outer(cplx(n), cplx(n))), holed, np.zeros((n, n))]


def test_norm2_bound_lies_between_2_norm_and_frobenius():
    n = 60
    mats = norm_bound_matrices(n)
    stencil = mats[3]
    for mat in mats:
        dense = _linalg.to_dense(mat)
        bound = _linalg.norm2_bound(dense)
        assert np.linalg.norm(dense, 2) <= bound * (1.0 + 1e-12)
        assert bound <= np.linalg.norm(dense, "fro") * (1.0 + 1e-12)
        assert _linalg.norm2_bound(sp.csr_matrix(dense)) == pytest.approx(bound, rel=1e-14)
    # sqrt(||M||_1 ||M||_inf) of a stencil stays at 4 whatever its order
    assert _linalg.norm2_bound(stencil) == 4.0
    assert _linalg.norm2_bound(np.zeros((n, n))) == 0.0


def test_norm2_bound_of_diagonals_is_the_csr_value_bit_for_bit():
    # each matrix of the set as a dia_array: its bound equals that of its
    # CSR form to the last bit, whatever the padding outside the matrix holds
    for mat in norm_bound_matrices():
        csr = sp.csr_array(_linalg.to_dense(mat))
        with warnings.catch_warnings():  # the full matrices have 2n - 1 diagonals
            warnings.simplefilter("ignore", sp.SparseEfficiencyWarning)
            dia = sp.dia_array(csr)
        want = _linalg.norm2_bound(csr)
        assert _linalg.norm2_bound(dia) == want
        n, width = dia.shape[0], dia.data.shape[1]
        cols = np.arange(width)
        inside = (cols >= np.maximum(dia.offsets, 0)[:, None]) & (
            cols < np.minimum(n + dia.offsets, n)[:, None])
        padded = sp.dia_array((np.where(inside, dia.data, np.nan), dia.offsets),
                              shape=dia.shape)
        assert _linalg.norm2_bound(padded) == want


def test_norm2_bound_of_one_diagonal_is_the_csr_value_bit_for_bit():
    # diagonal dia_arrays take their bound from one pass over |d|: the split
    # Helmholtz A2's shape (zero at both ends) and A3's (a single entry), a
    # complex one, an all-zero one, and one whose largest square underflows,
    # where the one pass's sqrt(fl(p*p)) is not p = max|d| and the bound is
    # taken again from the matrix divided by p: p itself, on the dia, CSR
    # and dense paths alike
    n = 40
    rng = np.random.default_rng(8)
    a2 = -rng.uniform(0.5, 1.0, n)
    a2[[0, -1]] = 0.0
    a3 = np.zeros(n)
    a3[-1] = -0.3
    tiny = rng.uniform(0.1, 1.0, n) * 1e-161
    tiny[n // 2] = 1e-160
    for d in (a2, a3, a2 * (1.0 - 2.0j), np.zeros(n), tiny):
        dia = sp.dia_array((d[None], [0]), shape=(n, n))
        want = _linalg.norm2_bound(sp.csr_array(dia))
        assert _linalg.norm2_bound(dia) == want == _linalg.norm2_bound(dia.toarray())
    assert _linalg.norm2_bound(sp.dia_array((tiny[None], [0]), shape=(n, n))) == 1e-160


def test_norm2_bound_of_short_diagonal_rows_is_the_csr_value():
    # scipy stores the diagonals of a matrix whose last columns hold nothing
    # in rows shorter than n, and a caller may list the offsets in any
    # order: norm2_bound reads such a dia_array as its to_diagonals layout
    rng = np.random.default_rng(6)
    for n, empty in ((3, 1), (9, 4)):
        dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dense[:, n - empty:] = 0.0
        dense[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1] = 0.0
        csr = sp.csr_array(dense)
        dia = sp.dia_array(csr)
        assert dia.data.shape[1] < n
        shuffled = sp.dia_array((dia.data[::-1], dia.offsets[::-1]), shape=(n, n))
        for mat in (dia, shuffled):
            assert _linalg.norm2_bound(mat) == _linalg.norm2_bound(csr)


def test_stored_diagonals_multiply_as_complex_csr_bit_for_bit():
    # a real Helmholtz A side, stored by its float64 diagonals, and a real
    # general sparse one, stored as float64 CSR at half the data bytes of
    # complex CSR: A_i @ x, apply_a and eval_a give the bits of the complex
    # CSR products and sum, since a dia_array adds its diagonals in the
    # CSR's column order
    helmholtz = problems.gen_helmholtz(problems.HelmholtzConfig(n=2000)).problem
    general = mepnl.TwoParProblem(
        *(sp.random(300, 300, density=0.05, random_state=k, format="coo") for k in range(3)),
        np.eye(2), np.eye(2), np.eye(2), [1, 0])
    assert [(M.format, M.dtype) for M in (general.A1, general.A2, general.A3)] == [
        ("csr", np.float64)] * 3
    rng = np.random.default_rng(7)

    def same(got, want):
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()

    for p in (helmholtz, general):
        csr = [M.tocsr().astype(np.complex128) for M in (p.A1, p.A2, p.A3)]
        x = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
        for M, ref in zip((p.A1, p.A2, p.A3), csr):
            assert same(M @ x, ref @ x)
            # the float64 product of a complex x's parts, or of the real
            # part alone when the imaginary part is exactly zero, gives the
            # complex product's bits, for one vector and for the columns of
            # a matrix
            for z in (x, x.real + 0j, np.stack((x, 2 * x), axis=1), np.stack((x, 2 * x)).T):
                assert same(_linalg.split_product(M, z), ref @ z)
            assert same(_linalg.split_product(M, x.real), M @ x.real)
        for lam, mu in ((1.5, 0.5), (1.5 + 0j, -0.25 + 0j), (0.7 - 0.2j, 1.1 + 0.3j)):
            want = csr[0] @ x + lam * (csr[1] @ x) + mu * (csr[2] @ x)
            assert same(p.apply_a(lam, mu, x), want)
            M = _linalg.to_dense(p.eval_a(lam, mu))
            total = _linalg.to_dense(csr[0] + lam * csr[1] + mu * csr[2])
            assert same(M.astype(np.complex128), total)


def test_residuals_of_a_complex_x_make_no_complex_copy_of_a1():
    # core.residuals of a real Helmholtz quadruplet with a complex128 x
    # takes float64 products (apply_a, _linalg.split_product), so it
    # allocates less than A1's diagonals cast to complex, which scipy's
    # complex product with the float64 A1 would make
    n = 100_000
    disc = problems.gen_helmholtz(problems.HelmholtzConfig(
        n=n, m=30, x1=3.7, x2=5.0, kappa_a=2.0, kappa_b=2.0))
    p = disc.problem
    x = np.sin(0.3 * disc.grid_a) * (1 + 1e-3j)
    quad = Quadruplet(1.5, 0.5, x, np.ones(p.m))
    gc.collect()
    tracemalloc.start()
    try:
        rec = core.residuals(p, quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.A1.dtype == np.float64
    assert peak < p.A1.data.size * 16
    want = core.residuals(mepnl.TwoParProblem(*(M.astype(np.complex128) for M in (
        p.A1, p.A2, p.A3)), p.B1, p.B2, p.B3, p.c), quad)
    assert rec.res_a == want.res_a


def test_helmholtz_scale_does_not_grow_with_n():
    # the Frobenius norm of the stencil A1 grows by sqrt(10) from n = 2000 to
    # 20000; its 2-norm, and so the residual scale, barely moves
    scales = [problems.gen_helmholtz(problems.HelmholtzConfig(n=n)).problem
              .scale_a(1.0, 1.0) for n in (2000, 20000)]
    assert abs(scales[1] / scales[0] - 1.0) < 0.1, scales


def test_residuals_at_oracle_solution():
    p = small_problem()
    q = solved_quad(p, with_left=False)
    rec = residuals(p, q)
    assert rec.res_a <= 1e-10
    assert rec.res_b <= 1e-10


def test_weights_modes():
    p = small_problem()
    w = Weights((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    assert w.alphas == (1.0, 1.0, 1.0) and w.gamma == 1.0
    wr = Weights.relative(p, lam=2.0 + 0j)
    assert wr.alphas == p.norms_a
    assert wr.betas == p.norms_b
    assert wr.gamma == 2.0


def test_condition_numbers_attaches_missing_left_vectors():
    p = small_problem()
    q = solved_quad(p, with_left=False)
    assert q.v is None and q.w is None
    assert condition_numbers(p, q) == condition_numbers(p, attach_left_vectors(p, q))


def test_perturbation_and_c0_attach_missing_left_vectors():
    p = small_problem(seed=3, n=6, m=3)
    q = solved_quad(p, index=8, with_left=False)
    attached = attach_left_vectors(p, q)
    np.testing.assert_array_equal(c0_matrix(p, q), c0_matrix(p, attached))
    for weights in (None, Weights((0.0, 0.0, 0.0), (1.0, 0.0, 1.0))):
        # the prediction is condition_numbers' kappa_total, bit for bit
        _, predicted = worst_case_perturbation(p, q, weights, 1e-7)
        assert predicted == 1e-7 * condition_numbers(p, attached, weights).kappa_total


def test_attach_left_vectors_quality():
    p = small_problem(seed=4)
    q = solved_quad(p, index=2)
    # v is a unit left null vector of the evaluated large operator
    res_v = np.linalg.norm(q.v.conj() @ p.eval_a(q.lam, q.mu))
    assert np.linalg.norm(q.v) == pytest.approx(1.0)
    assert res_v <= 1e-7 * p.scale_a(q.lam, q.mu)
    res_w = np.linalg.norm(q.w.conj() @ p.eval_b(q.lam, q.mu))
    assert res_w <= 1e-7 * p.scale_b(q.lam, q.mu)


def test_attach_left_vectors_far_from_spectrum_fails(monkeypatch):
    # far from every eigenvalue M(lam) has no near-null left vector, so the
    # adjoint inverse iteration must give up instead of returning noise
    monkeypatch.setattr(mepnl._linalg, "NULL_VECTOR_TOL", 1e-10)
    p = small_problem(seed=4)
    q = dataclasses.replace(solved_quad(p, with_left=False), lam=1e4)
    with pytest.raises(ConvergenceFailure):
        attach_left_vectors(p, q)


def test_attach_left_vectors_at_exactly_singular_m():
    # M(lam, mu) = A1 = diag(0, 1, 2) is exactly singular and A2 = 0, so no
    # move of lam could make it factorizable; the LU that inverse iteration
    # takes is never refused, dense or sparse, and v is e0. B(0.5, 0) =
    # diag(-0.5, 1) + 0.5*I is exactly singular too, and w is e0
    A1, A2, A3 = np.diag([0.0, 1.0, 2.0]), np.zeros((3, 3)), np.eye(3)
    B1 = np.diag([-0.5, 1.0])
    for mats in ((A1, A2, A3), tuple(sp.csr_matrix(M) for M in (A1, A2, A3))):
        p = mepnl.TwoParProblem(*mats, B1, np.eye(2), np.eye(2), np.ones(2))
        q = Quadruplet(lam=0.5, mu=0.0, x=np.array([1.0, 0, 0]), y=np.array([1.0, 0]))
        q = attach_left_vectors(p, q)
        np.testing.assert_allclose(np.abs(q.v), [1.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(q.w), [1.0, 0.0], atol=1e-14)


def test_attach_left_vectors_refuses_mu_off_the_small_spectrum():
    # M(lam, mu) = diag(0, 1 + mu, 2 + mu) is singular at every mu, so v
    # exists; B(0.5, 0.3) = diag(0.3, 1.8) is not, and a w of another
    # eigenvalue must not be returned in its place
    A1, A2, A3 = np.diag([0.0, 1.0, 2.0]), np.zeros((3, 3)), np.diag([0.0, 1.0, 1.0])
    p = mepnl.TwoParProblem(A1, A2, A3, np.diag([-0.5, 1.0]), np.eye(2), np.eye(2),
                            np.ones(2))
    q = Quadruplet(lam=0.5, mu=0.3, x=np.array([1.0, 0, 0]), y=np.array([1.0, 0]))
    with pytest.raises(ConvergenceFailure):
        attach_left_vectors(p, q)
    # and on a random problem, with mu moved off its eigenvalue at lam while
    # v stays a left null vector of the unchanged M(lam, mu)
    p = small_problem(seed=4)
    q = solved_quad(p, index=2, with_left=False)
    moved = mepnl.TwoParProblem(p.A1 + q.mu * p.A3, p.A2, np.zeros_like(p.A3),
                                p.B1, p.B2, p.B3, p.c)
    attach_left_vectors(moved, q)  # mu on the small spectrum: both vectors found
    with pytest.raises(ConvergenceFailure):
        attach_left_vectors(moved, dataclasses.replace(q, mu=q.mu + 0.5))


def test_attach_left_vectors_runs_no_eigensolver(monkeypatch):
    p = small_problem(seed=4)
    quads = mepnl.delta.solve(p)

    def no_geig(*args, **kwargs):
        raise AssertionError("attach_left_vectors ran an eigensolver")

    monkeypatch.setattr(_linalg, "geig", no_geig)
    for q in quads:
        w = attach_left_vectors(p, q).w
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert np.linalg.norm(p.eval_b(q.lam, q.mu).conj().T @ w) <= 1e-8 * p.scale_b(q.lam, q.mu)


def test_rank_one_split_of_a_stack():
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    rank_two = np.outer(u, v) + np.outer(v, u)
    nan = np.outer(u, v)
    nan[1, 2] = np.nan
    Z = np.stack([np.outer(u, v), rank_two, np.zeros((4, 4)), nan, np.full((4, 4), np.inf)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the test
        fu, fvh, miss = core._rank_one_factors(Z)
    assert miss[0] <= core.TOL_RANK_ONE and miss[1] > 0.01
    assert np.isnan(miss[2:]).all()
    err = np.abs(np.outer(fu[0], fvh[0]) - Z[0]).max()
    assert err <= 4 * np.finfo(float).eps * np.abs(Z[0]).max()


def _scalar_rank_one_test(B3):
    """The rank-one test of one B3 with the pivot written out and the misfit
    compared unscaled, max|B3 - u vh| <= TOL_RANK_ONE |pivot|: (u, v) or
    None."""
    i, j = np.unravel_index(np.argmax(np.abs(B3)), B3.shape)
    pivot = B3[i, j]
    if pivot == 0:
        return None
    u, vh = B3[:, j].copy(), B3[i, :] / pivot
    if not np.max(np.abs(B3 - np.outer(u, vh))) <= core.TOL_RANK_ONE * abs(pivot):
        return None
    return u, vh.conj()


def test_b3_rank_one_matches_the_scalar_pivot_test():
    rng = np.random.default_rng(11)
    mats = [problems.gen_random(4, m, seed=s).B3 for m in (1, 2, 5) for s in range(3)]
    A = rng.standard_normal((3, 6, 6))
    mats += [problems.gen_qep(*A).B3, problems.gen_sqrt_nep(*A)[0].B3,
             problems.gen_helmholtz(problems.HelmholtzConfig(n=20, m=8)).problem.B3]
    eps = np.finfo(float).eps
    for k in range(120):
        m = int(rng.integers(2, 12))
        u, v = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
        outer = np.outer(u, v.conj())
        # noise of 6e-16 and 1e-13, and levels around TOL_RANK_ONE itself
        level = (6e-16, 1e-13, 2 * eps * 10 ** rng.uniform(0, 1))[k % 3]
        mats.append(outer + level * np.abs(outer).max() * rng.uniform(-1, 1, (m, m)))
    decisions = set()
    for B3 in mats:
        B3 = np.asarray(B3, dtype=np.complex128)
        p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2), np.eye(B3.shape[0]),
                                np.eye(B3.shape[0]), B3, np.ones(B3.shape[0]))
        want = _scalar_rank_one_test(B3)
        decisions.add(want is None)
        if want is None:
            assert p.b3_rank_one is None
        else:
            assert all(np.array_equal(got, ref) for got, ref in zip(p.b3_rank_one, want))
    assert decisions == {True, False}


def cli_problem(gen, n, m, seed):
    """The problem that mepnl's --gen option builds."""
    if gen == "qep":
        rng = np.random.default_rng(seed)
        return mepnl.gen_qep(*(rng.standard_normal((n, n)) for _ in range(3)))
    return mepnl.gen_random(n, m, seed=seed)


@pytest.mark.parametrize("gen, n, m, seed", [("qep", 10, 2, 3), ("random", 12, 5, 9)])
def test_attach_left_vectors_where_m_stays_singular_off_lam(gen, n, m, seed):
    # at some oracle quadruplets of these problems M(lam + d, mu) was still
    # singular (reciprocal condition about 2e-15) after lam moved by d = 1e-10 of the scale
    p = cli_problem(gen, n, m, seed)
    ps = mepnl.TwoParProblem(*(sp.csr_matrix(M) for M in (p.A1, p.A2, p.A3)),
                             p.B1, p.B2, p.B3, p.c)
    quads = mepnl.delta.solve(p)
    assert len(quads) == n * m
    for q in quads:
        # M(lam, mu) is as singular as the quadruplet's own residual allows,
        # and v is a left null vector to that accuracy
        bound = 16 * max(q.residuals.res_a, np.finfo(float).eps)
        for prob in (p, ps):
            v = attach_left_vectors(prob, q).v
            res_v = np.linalg.norm(v.conj() @ prob.eval_a(q.lam, q.mu))
            assert res_v <= bound * prob.scale_a(q.lam, q.mu)


def test_det_c0_identity():
    """det C0 = (w^H B3 y)(v^H M'(lam) x), checked against a direct 2x2 det."""
    for seed in (2, 5, 9):
        p = small_problem(seed=seed, n=6, m=3)
        q = solved_quad(p, index=4)
        rep = condition_numbers(p, q)
        det_direct = np.linalg.det(c0_matrix(p, q))
        assert abs(det_direct - rep.det_c0) <= 1e-10 * abs(det_direct)


def test_theta2_factors():
    p = small_problem()
    q = solved_quad(p)
    rep = condition_numbers(p, q)
    assert rep.theta2_absolute == pytest.approx(1 + abs(q.lam) + abs(q.mu))
    nb = p.norms_b
    assert rep.theta2_relative == pytest.approx(
        nb[0] + abs(q.lam) * nb[1] + abs(q.mu) * nb[2])


def test_non_simple_mu_guard():
    # B3 orthogonal to the w/y pairing: B2 = 0, B3 nilpotent gives w^H B3 y = 0
    A = np.eye(2)
    B1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = mepnl.TwoParProblem(A, A, A, B1, np.zeros((2, 2)), np.eye(2), [1.0, 0.0])
    y = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])  # left null vector of -B1 for mu = 0
    q = Quadruplet(lam=0.0, mu=0.0, x=np.ones(2), y=y, v=np.ones(2), w=w)
    with pytest.raises(NonSimpleMu):
        condition_numbers(p, q)
    # c0_matrix tests no simplicity: it gives this critical point's C0, whose
    # row [w^H B2 y, w^H B3 y] is zero
    np.testing.assert_array_equal(c0_matrix(p, q), [[2.0, 2.0], [0.0, 0.0]])


def test_condition_numbers_refuse_a_double_lambda():
    # a 1x1 large equation m(lam) = a1 + lam*a2 + g(lam) on a square-root
    # branch g, with a2 = -g'(lam*) and a1 = -(lam*a2 + g(lam*)): m and m'
    # both vanish at lam*, a double eigenvalue, while mu = g(lam*) stays
    # simple; v^H M'(lam) x = 0 there, so conditioning refuses it
    lam, zero = 0.3, np.zeros((1, 1))
    probe, _ = problems.gen_sqrt_nep(zero, zero, np.ones((1, 1)))
    bp = pencil.reference_point(probe, 0, lam)
    a2 = -pencil.g_prime_closed_form(probe, bp)
    p, _ = problems.gen_sqrt_nep(np.full((1, 1), -(lam * a2 + bp.mu)), np.full((1, 1), a2),
                                 np.ones((1, 1)))
    one = np.ones(1, dtype=np.complex128)
    q = Quadruplet(lam=lam, mu=bp.mu, x=one, y=bp.y, v=one, w=bp.w)
    assert core.residuals(p, q).res_a <= 1e-15
    with pytest.raises(NonSimpleLambda, match="lam is \\(numerically\\) not simple"):
        condition_numbers(p, q)
    # M(lam, mu) is the 1x1 zero matrix here: without v and w, adjoint
    # inverse iteration on its floored LU finds v = 1 and reaches the same
    # refusal, with no RuntimeWarning (an error in this suite)
    assert np.array_equal(p.eval_a(lam, bp.mu), np.zeros((1, 1)))
    with pytest.raises(NonSimpleLambda, match="lam is \\(numerically\\) not simple"):
        condition_numbers(p, dataclasses.replace(q, v=None, w=None))


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_worst_case_perturbation_attains_bound(seed):
    p = small_problem(seed=seed, n=6, m=3)
    q = solved_quad(p, index=8)
    rep = condition_numbers(p, q)
    eps = 1e-7
    pert, predicted = worst_case_perturbation(p, q, None, eps)
    assert predicted == pytest.approx(eps * rep.kappa_total, rel=1e-12)
    observed = min(abs(q2.lam - q.lam) for q2 in mepnl.delta.solve(pert))
    assert observed >= predicted / 2
    assert observed <= predicted * 2


def test_perturbation_sizes_match_weights():
    p = small_problem(seed=6, n=5, m=3)
    q = solved_quad(p)
    w = Weights.relative(p, q.lam)
    eps = 1e-6
    pert, _ = worst_case_perturbation(p, q, w, eps)
    for name, scale in zip(("A1", "A2", "A3"), w.alphas):
        d = np.asarray(getattr(pert, name) - getattr(p, name))
        assert np.linalg.norm(d, 2) == pytest.approx(eps * scale, rel=1e-8)
    for name, scale in zip(("B1", "B2", "B3"), w.betas):
        d = getattr(pert, name) - getattr(p, name)
        assert np.linalg.norm(d, 2) == pytest.approx(eps * scale, rel=1e-8)


def test_backward_perturbation_touches_only_b1_b3():
    p = small_problem(seed=8, n=5, m=3)
    q = solved_quad(p)
    rel = Weights.relative(p, q.lam)
    b1, _, b3 = rel.betas
    # a backward-stable small solve: beta2 = 0 and the A side untouched
    backward = Weights((0.0, 0.0, 0.0), (b1, 0.0, b3))
    pert, bound = worst_case_perturbation(p, q, backward, 1e-7)
    assert bound == pytest.approx(
        1e-7 * condition_numbers(p, q, rel).backward_lambda_bound, rel=1e-12)
    assert np.allclose(np.asarray(pert.A1.todense() if sp.issparse(pert.A1)
                                  else pert.A1), np.asarray(p.A1))
    assert np.array_equal(pert.B2, p.B2)
    assert not np.array_equal(pert.B1, p.B1)
    assert not np.array_equal(pert.B3, p.B3)
    observed = min(abs(q2.lam - q.lam) for q2 in mepnl.delta.solve(pert))
    # first-order bound; allow slack for the quadratic remainder
    assert observed <= bound * 1.5 + 1e-14


def test_backward_perturbation_keeps_sparse_a_side():
    # zero A weights must leave the sparse A matrices as they are: densifying
    # them would make the backward case impossible at production sizes
    disc = mepnl.gen_helmholtz(mepnl.HelmholtzConfig(
        x1=3.7, x2=5.0, n=600, m=10, kappa_a=2.0, kappa_b=2.0))
    p = disc.problem
    lam0 = mepnl.problems.helmholtz_analytic_eigenvalues(2.0, 5.0, 1)[0] + 1e-3
    view = mepnl.NepView(p, branch_id=0, reference_lam=lam0)
    quad, trace = mepnl.augmented_newton(
        view, lam0, np.sin(np.pi / 10.0 * disc.grid_a), mepnl.SolverConfig(tol=1e-12))
    assert trace.converged
    q = attach_left_vectors(p, quad)
    rel = Weights.relative(p, q.lam)
    b1, _, b3 = rel.betas
    backward = Weights((0.0, 0.0, 0.0), (b1, 0.0, b3))
    pert, bound = worst_case_perturbation(p, q, backward, 1e-7)
    assert bound == pytest.approx(
        1e-7 * condition_numbers(p, q, rel).backward_lambda_bound, rel=1e-12)
    for got, orig in zip((pert.A1, pert.A2, pert.A3), (p.A1, p.A2, p.A3)):
        assert sp.issparse(got)
        assert (got != orig).nnz == 0
