"""Problem container, residuals, and conditioning."""
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import mepnl
from mepnl.core import (Quadruplet, Weights, attach_left_vectors, c0_matrix,
                        condition_numbers, residuals, worst_case_perturbation)
from mepnl.errors import (ConvergenceFailure, DimensionMismatch,
                          MissingLeftVectors, NonSimpleMu)


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
    p = small_problem()
    assert p.A1.dtype == np.complex128
    with pytest.raises(ValueError):
        p.B1[0, 0] = 5.0
    with pytest.raises(ValueError):
        p.c[0] = 1.0


def test_sparse_matrices_read_only():
    p = mepnl.gen_helmholtz(mepnl.HelmholtzConfig(n=600, m=10)).problem
    assert sp.issparse(p.A1)
    with pytest.raises(ValueError):
        p.A1.data[0] = 5.0
    for mat in (p.A1, p.A2, p.A3):
        for arr in (mat.data, mat.indices, mat.indptr):
            assert not arr.flags.writeable


def test_sparse_duplicates_summed_before_freezing():
    # a complex CSR matrix, which the container keeps without a copy,
    # holding entry (0, 0) twice and unsorted column indices
    dup = sp.csr_matrix((np.array([1.0, 2.0, 3.0, 4.0, 5.0j]),
                         np.array([0, 0, 1, 2, 1]), np.array([0, 2, 3, 5])),
                        shape=(3, 3))
    dense = dup.toarray()
    eye = sp.identity(3, format="csr")
    p = mepnl.TwoParProblem(dup, eye, eye, np.eye(2), np.eye(2), np.eye(2), [1, 0])
    assert p.A1.has_canonical_format and p.A1.nnz == 4
    np.testing.assert_array_equal(p.A1.toarray(), dense)
    x = np.arange(1.0, 4.0)
    lam, mu = 0.5, -0.25j
    want = (dense + lam * np.eye(3) + mu * np.eye(3)) @ x
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


def test_residuals_at_oracle_solution():
    p = small_problem()
    q = solved_quad(p, with_left=False)
    rec = residuals(p, q)
    assert rec.res_a <= 1e-10
    assert rec.res_b <= 1e-10


def test_weights_modes():
    p = small_problem()
    w = Weights.absolute()
    assert w.alphas == (1.0, 1.0, 1.0) and w.gamma == 1.0
    wr = Weights.relative(p, lam=2.0 + 0j)
    assert wr.alphas == p.norms_a
    assert wr.betas == p.norms_b
    assert wr.gamma == 2.0


def test_condition_numbers_requires_left_vectors():
    p = small_problem()
    q = solved_quad(p, with_left=False)
    with pytest.raises(MissingLeftVectors):
        condition_numbers(p, q)


def test_attach_left_vectors_quality():
    p = small_problem(seed=4)
    q = solved_quad(p, index=2)
    # v is a unit left null vector of the evaluated large operator
    res_v = np.linalg.norm(q.v.conj() @ p.eval_a(q.lam, q.mu))
    assert np.linalg.norm(q.v) == pytest.approx(1.0)
    assert res_v <= 1e-7 * p.scale_a(q.lam, q.mu)
    res_w = np.linalg.norm(q.w.conj() @ p.eval_b(q.lam, q.mu))
    assert res_w <= 1e-7 * p.scale_b(q.lam, q.mu)


def test_attach_left_vectors_far_from_spectrum_fails():
    # far from every eigenvalue M(lam) has no near-null left vector, so the
    # adjoint inverse iteration must give up instead of returning noise
    p = small_problem(seed=4)
    q = dataclasses.replace(solved_quad(p, with_left=False), lam=1e4)
    with pytest.raises(ConvergenceFailure):
        attach_left_vectors(p, q, tol=1e-10)


def test_attach_left_vectors_at_exactly_singular_m():
    # M(lam, mu) = A1 = diag(0, 1, 2) is exactly singular and A2 = 0, so no
    # move of lam could make it factorizable; the LU that inverse iteration
    # takes is never refused, dense or sparse, and v is e0
    A1, A2, A3 = np.diag([0.0, 1.0, 2.0]), np.zeros((3, 3)), np.eye(3)
    for mats in ((A1, A2, A3), tuple(sp.csr_matrix(M) for M in (A1, A2, A3))):
        p = mepnl.TwoParProblem(*mats, np.eye(2), np.eye(2), np.eye(2), np.ones(2))
        q = Quadruplet(lam=0.5, mu=0.0, x=np.array([1.0, 0, 0]), y=np.array([1.0, 0]))
        v = attach_left_vectors(p, q).v
        np.testing.assert_allclose(np.abs(v), [1.0, 0.0, 0.0], atol=1e-14)


def cli_problem(gen, n, m, seed):
    """The problem that mepnl's --gen option builds."""
    if gen == "qep":
        rng = np.random.default_rng(seed)
        return mepnl.gen_qep(*(rng.standard_normal((n, n)) for _ in range(3)))
    return mepnl.gen_random(n, m, seed=seed)


@pytest.mark.parametrize("gen, n, m, seed", [("qep", 10, 2, 3), ("random", 12, 5, 9)])
def test_attach_left_vectors_where_m_stays_singular_off_lam(gen, n, m, seed):
    # at some oracle quadruplets of these problems M(lam + d, mu) was still
    # singular (rcond about 2e-15) after lam moved by d = 1e-10 of the scale
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
            v = attach_left_vectors(prob, q, seed=seed).v
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
