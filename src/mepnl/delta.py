"""Operator-determinant linearization: the dense cross-checking oracle.

The coupled problem is equivalent (for nonsingular delta0) to the pair of
ordinary generalized eigenvalue problems

    delta1 z = lam * delta0 z,    delta2 z = mu * delta0 z,

on the Kronecker product space, with decomposable eigenvectors z = y (x) x:

    delta0 = B2 (x) A3 - B3 (x) A2
    delta1 = B3 (x) A1 - B1 (x) A3
    delta2 = B1 (x) A2 - B2 (x) A1

The oracle forms delta0 and delta1 only. It solves the first problem as the
standard eigenvalue problem of Gamma1 = delta0^-1 delta1 (Atkinson,
Multiparameter Eigenvalue Problems, 1972), recovers mu from the large
equation, so delta2 is never needed, and refines each quadruplet not yet at
working accuracy by one Newton step on the two-parameter system itself.
For a problem whose six matrices are real, Gamma1 is real and its
eigenvalues come from LAPACK's real driver. The candidates are refined by
array operations over chunks, each chunk's stack of bordered Jacobians
holding no more entries than Gamma1. Everything here is dense of order
n*m, so it is capped and meant for verification at desk scale, not
production solves.
"""
from __future__ import annotations

import dataclasses
import os
import warnings

import numpy as np
import scipy.sparse as sp

from . import _linalg, pencil
from .core import Quadruplet, ResidualRecord, TwoParProblem, _residual_norms
from .core import residuals  # unused here; benchmarks/tracing.py wraps delta.residuals
from .errors import SingularProblem, TooLarge

CAP_DEFAULT = 4000
CAP_ENV = "MEPNL_CAP"
# second singular value above this fraction of the first fails the
# rank-one test for an eigenvector of the linearization
RANK_ONE_TOL = 0.01
# both relative residuals must beat this for a quadruplet to be kept
ORACLE_TOL = 1e-8
# a candidate whose relative residuals are both at most this, a few hundred
# eps, is at working accuracy already and takes no Newton step
STEP_SKIP_TOL = 1e-13
# reciprocal condition of delta0 below this means the oracle cannot solve the problem
RCOND_SINGULAR_PROBLEM = 1e-12


class RankOneExtractionWarning(UserWarning):
    """An eigenvector of the linearization was not numerically decomposable."""


def size_cap() -> int:
    """The current n*m cap: MEPNL_CAP from the environment, else 4000."""
    raw = os.environ.get(CAP_ENV)
    if raw is None:
        return CAP_DEFAULT
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAP_ENV} must be an integer, got {raw!r}") from exc


@dataclasses.dataclass
class DeltaPencil:
    """The dense operator determinants delta0 and delta1 of a problem."""

    delta0: np.ndarray
    delta1: np.ndarray
    n: int
    m: int


def assemble(problem: TwoParProblem) -> DeltaPencil:
    """Assemble delta0 and delta1, enforcing the size cap of size_cap()."""
    cap = size_cap()
    n, m = problem.n, problem.m
    if n * m > cap:
        raise TooLarge(
            f"operator determinants have order n*m = {n * m} > cap {cap}; "
            f"raise {CAP_ENV} to override"
        )
    A1, A2, A3 = (_linalg.to_dense(M) for M in (problem.A1, problem.A2, problem.A3))
    B1, B2, B3 = problem.B1, problem.B2, problem.B3
    # in place, so that no more than three order-n*m matrices are alive
    d0 = np.kron(B2, A3)
    d0 -= np.kron(B3, A2)
    d1 = np.kron(B3, A1)
    d1 -= np.kron(B1, A3)
    return DeltaPencil(d0, d1, n, m)


def _newton_step(problem: TwoParProblem, A, lam, mu, x, y, a2x, a3x, ax):
    """One Newton step on the full two-parameter system from each candidate
    (lam[i], mu[i], x[i], y[i]) of a stack, with unit rows x[i] and y[i];
    the rows ax[i], a2x[i] and a3x[i] are A(lam[i], mu[i])x[i], A2x[i] and
    A3x[i]. The bordered Jacobian of order n+m+2,

        [[A(lam, mu), 0,          A2x, A3x],
         [0,          B(lam, mu), B2y, B3y],
         [x^H,        0,          0,   0  ],
         [0,          y^H,        0,   0  ]],

    fixes the scale of x and y by its last two rows. Returns the refined
    (lam, mu, x, y) and a mask of the candidates that took their step; a
    candidate whose Jacobian is singular or whose update is not finite
    keeps its values. The stack is solved at once; when that solve raises
    LinAlgError, each candidate is solved alone, so that only the singular
    ones keep their values. A holds the dense A1, A2, A3.
    """
    n, m = problem.n, problem.m
    k = lam.size
    lam3, mu3 = lam[:, None, None], mu[:, None, None]
    B = problem.eval_b(lam3, mu3)
    J = np.zeros((k, n + m + 2, n + m + 2), dtype=np.complex128)
    # A(lam, mu) by in-place sums, one k x n x n temporary at a time
    J[:, :n, :n] = A[0]
    J[:, :n, :n] += lam3 * A[1]
    J[:, :n, :n] += mu3 * A[2]
    J[:, n:n + m, n:n + m] = B
    J[:, :n, n + m], J[:, :n, n + m + 1] = a2x, a3x
    J[:, n:n + m, n + m] = y @ problem.B2.T
    J[:, n:n + m, n + m + 1] = y @ problem.B3.T
    J[:, n + m, :n] = x.conj()
    J[:, n + m + 1, n:n + m] = y.conj()
    rhs = np.zeros((k, n + m + 2, 1), dtype=np.complex128)
    rhs[:, :n, 0] = -ax
    rhs[:, n:n + m] = -(B @ y[:, :, None])
    try:
        d = np.linalg.solve(J, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        d = np.full((k, n + m + 2), np.nan, dtype=np.complex128)
        for i in range(k):
            try:
                d[i] = np.linalg.solve(J[i], rhs[i])[:, 0]
            except np.linalg.LinAlgError:
                continue
    stepped = np.all(np.isfinite(d), axis=1)
    d[~stepped] = 0.0
    return (lam + d[:, n + m], mu + d[:, n + m + 1], x + d[:, :n], y + d[:, n:n + m],
            stepped)


def _is_real(problem: TwoParProblem) -> bool:
    """Whether the imaginary parts of the six coefficient matrices are zero."""
    mats = (problem.A1, problem.A2, problem.A3, problem.B1, problem.B2, problem.B3)
    return not any(np.any((M.data if sp.issparse(M) else M).imag) for M in mats)


def _refine(problem: TwoParProblem, A, lams, vr) -> list:
    """The kept quadruplets of the candidates lams[i], with eigenvectors
    vr[:, i] of Gamma1, in their order: solve's rank-one split, mu fit,
    residuals, step screen and Newton step, each one array operation over
    the candidates. A stepped candidate's row is overwritten and re-scored
    by one row-wise _residual_norms over the stepped rows; a Quadruplet is
    built only for a kept candidate. A holds the dense A1, A2, A3."""
    n, m = problem.n, problem.m
    u, s, vh = np.linalg.svd(vr.T.reshape(-1, m, n), full_matrices=False)
    s2 = s[:, 1] if s.shape[1] > 1 else np.zeros(lams.size)
    flat = s2 > RANK_ONE_TOL * s[:, 0]
    for lam, r in zip(lams[flat].tolist(), s2[flat] / s[flat, 0]):
        warnings.warn(
            f"eigenvector at lam={lam:.6g} is not rank-one "
            f"(s2/s1 = {r:.2e}); dropped",
            RankOneExtractionWarning,
            stacklevel=3,
        )
    # Z = outer(y, x) = s[0] * outer(u[:,0], vh[0]): the vh row already
    # carries the unconjugated second factor
    y, x = u[:, :, 0], vh[:, 0]
    a2x, a3x = x @ A[1].T, x @ A[2].T
    denom = np.einsum("ij,ij->i", a3x.conj(), a3x).real
    keep = ~flat & (denom != 0.0)
    lams, x, y, a2x, a3x, denom = (v[keep] for v in (lams, x, y, a2x, a3x, denom))
    a12x = x @ A[0].T + lams[:, None] * a2x
    mus = -np.einsum("ij,ij->i", a3x.conj(), a12x) / denom
    ax = a12x + mus[:, None] * a3x
    y_c, c_degenerate = pencil._normalize_y(y, problem.c)
    res_a, res_b = _residual_norms(problem, lams, mus, x, y_c, ax)
    step = np.flatnonzero(~((res_a <= STEP_SKIP_TOL) & (res_b <= STEP_SKIP_TOL)))
    if step.size:
        # the step takes the unit y; a candidate that does not take it keeps
        # its unrefined row
        *moved, stepped = _newton_step(
            problem, A, *(v[step] for v in (lams, mus, x, y, a2x, a3x, ax)))
        rows = step[stepped]
        lams[rows], mus[rows], x[rows], y1 = (v[stepped] for v in moved)
        x[rows] /= np.linalg.norm(x[rows], axis=1)[:, None]
        y_c[rows], c_degenerate[rows] = pencil._normalize_y(y1, problem.c)
        res_a[rows], res_b[rows] = _residual_norms(
            problem, lams[rows], mus[rows], x[rows], y_c[rows])
    return [Quadruplet(lam=lams[i].item(), mu=mus[i].item(), x=x[i], y=y_c[i],
                       residuals=ResidualRecord(res_a[i].item(), res_b[i].item()),
                       c_normalized=not c_degenerate[i])
            for i in np.flatnonzero((res_a <= ORACLE_TOL) & (res_b <= ORACLE_TOL))]


def solve(problem: TwoParProblem) -> list:
    """All quadruplets of the problem via the determinant linearization.

    For nonsingular delta0 the coupled problem is the standard eigenvalue
    problem of Gamma1 = delta0^-1 delta1 (Atkinson's operator), formed with
    the LU of delta0 that also measures its condition, and solved by
    _linalg.geig(Gamma1, None); an rcond of delta0 below
    RCOND_SINGULAR_PROBLEM raises SingularProblem. When the six matrices
    of the problem are real, the LU leaves Gamma1 an exactly zero imaginary
    part, and geig gets its real part, so it runs LAPACK's real driver and
    the non-real lam come in exact conjugate pairs. Each finite eigenvector
    is split into its rank-one factors z = y (x) x, mu comes by least
    squares from the large equation, and one Newton step on the full
    two-parameter system (_newton_step) refines (lam, mu, x, y). A
    candidate whose relative residuals, from the products already formed,
    are both at most STEP_SKIP_TOL takes no step, and one whose step is
    singular keeps its unrefined values; either keeps those residuals as
    its record; the stepped ones are re-scored together by one row-wise
    _residual_norms. Quadruplets whose relative residuals in both equations
    are at most ORACLE_TOL are kept, in the canonical order of the
    eigensolver's lam. Eigenvectors that are not numerically rank-one are
    dropped with a RankOneExtractionWarning.

    The refinement runs on array stacks over chunks of at most
    (n*m)^2 // (n+m+2)^2 candidates, so that a chunk's bordered Jacobians
    hold no more entries than Gamma1.
    """
    dp = assemble(problem)
    fact = _linalg.Factorization(dp.delta0)
    delta1 = dp.delta1
    del dp  # delta0 lives on in its LU factors only
    if fact.rcond < RCOND_SINGULAR_PROBLEM:
        raise SingularProblem(
            f"delta0 is numerically singular (rcond={fact.rcond:.2e}), so the "
            "oracle cannot solve this problem"
        )
    gamma1 = fact.solve(delta1)
    del delta1, fact  # of the order-n*m matrices, only gamma1 enters the eigensolve
    if _is_real(problem):
        gamma1 = np.ascontiguousarray(gamma1.real)  # rebinding frees the complex copy
    lams, vr = _linalg.geig(gamma1, None)
    del gamma1
    A = tuple(_linalg.to_dense(M) for M in (problem.A1, problem.A2, problem.A3))
    n, m = problem.n, problem.m
    chunk = max(1, (n * m) ** 2 // (n + m + 2) ** 2)
    quads = []
    for start in range(0, lams.size, chunk):
        quads += _refine(problem, A, lams[start:start + chunk], vr[:, start:start + chunk])
    return quads
