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
Multiparameter Eigenvalue Problems, 1972), splits each eigenvector into y
and x by the pivoted split that also tests B3 (core._rank_one_factors),
recovers mu from the large equation, so delta2 is never needed, and refines
each quadruplet not yet at working accuracy by one Newton step.
For a problem whose six matrices are real, the oracle works in float64
from delta0 on: real delta0 and delta1, a real LU and a real Gamma1,
whose eigenvalues come from LAPACK's real driver in exact conjugate
pairs. Only the candidates with Im lam <= 0 are refined; each with
Im lam < 0 is followed by its partner, the exact conjugates of its values,
which carries its residuals. The candidates are refined by array
operations over chunks whose stacks of bordered Jacobians fit in Gamma1's
entries. Everything here is dense of order n*m, so it is capped and meant
for verification at desk scale, not production solves.
"""
from __future__ import annotations

import os
import warnings

import numpy as np

from . import _linalg, pencil
from .core import (Quadruplet, ResidualRecord, TwoParProblem, _rank_one_factors,
                   _residual_norms)
from .core import residuals  # unused here; benchmarks/tracing.py wraps delta.residuals
from .errors import SingularProblem, TooLarge

CAP_DEFAULT = 4000
CAP_ENV = "MEPNL_CAP"
# a relative misfit of the rank-one split (core._rank_one_factors) above
# this fails the rank-one test for an eigenvector of the linearization
RANK_ONE_TOL = 0.01
# both relative residuals must beat this for a quadruplet to be kept
ORACLE_TOL = 1e-8
# a candidate whose relative residuals are both at most this, a few hundred
# eps, is at working accuracy already and takes no Newton step
STEP_SKIP_TOL = 1e-13


class RankOneExtractionWarning(UserWarning):
    """A candidate of the linearization was dropped: its eigenvector was not
    numerically rank-one, or A3 x = 0 left mu free in the large equation."""


def size_cap() -> int:
    """The current n*m cap: MEPNL_CAP from the environment, else 4000."""
    raw = os.environ.get(CAP_ENV)
    if raw is None:
        return CAP_DEFAULT
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAP_ENV} must be an integer, got {raw!r}") from exc


def assemble(problem: TwoParProblem):
    """(delta0, delta1), enforcing the size cap of size_cap():
    float64 from the real parts of the six matrices when the problem is
    real (TwoParProblem.is_real), complex128 otherwise."""
    cap = size_cap()
    n, m = problem.n, problem.m
    if n * m > cap:
        raise TooLarge(
            f"operator determinants have order n*m = {n * m} > cap {cap}; "
            f"raise {CAP_ENV} to override"
        )
    A1, A2, A3 = (_linalg.to_dense(M) for M in (problem.A1, problem.A2, problem.A3))
    B1, B2, B3 = problem.B1, problem.B2, problem.B3
    if problem.is_real:
        A1, A2, A3, B1, B2, B3 = (M.real for M in (A1, A2, A3, B1, B2, B3))
    # in place, so that no more than three order-n*m matrices are alive
    d0 = np.kron(B2, A3)
    d0 -= np.kron(B3, A2)
    d1 = np.kron(B3, A1)
    d1 -= np.kron(B1, A3)
    return d0, d1


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


def _refine(problem: TwoParProblem, A, lams, vr) -> list:
    """The kept quadruplets of the candidates lams[i], with eigenvectors
    vr[:, i] of Gamma1, in their order. Each eigenvector is split as
    z = y (x) x by core._rank_one_factors; one whose misfit exceeds
    RANK_ONE_TOL, or with A3 x = 0, which leaves mu free, is dropped with a
    RankOneExtractionWarning. mu comes by least squares from the large
    equation, and one Newton step on the full two-parameter system
    (_newton_step) refines (lam, mu, x, y), except for a candidate whose
    relative residuals, from the products already formed, are both at most
    STEP_SKIP_TOL; one whose step is singular keeps its unrefined values.
    The stepped rows are re-scored by one row-wise _residual_norms, and a
    Quadruplet is built only for a candidate whose residuals are both at
    most ORACLE_TOL. For a real problem solve passes only the candidates
    with Im lam <= 0, and each kept one whose lam had Im lam < 0 before its
    step is followed by its partner: the exact conjugates of its lam, mu, x
    and y, with y then normalized by c as every row's is, and its
    residuals, which are equal in exact arithmetic. A dropped one drops its
    partner too and warns for both lam. Each stage is one array operation
    over the candidates. A holds the dense A1, A2, A3."""
    n, m = problem.n, problem.m
    y, x, miss = _rank_one_factors(vr.T.reshape(-1, m, n))
    flat = ~(miss <= RANK_ONE_TOL)
    y /= np.linalg.norm(y, axis=1)[:, None]  # unit rows, as _newton_step wants
    x /= np.linalg.norm(x, axis=1)[:, None]
    a2x, a3x = x @ A[1].T, x @ A[2].T
    denom = np.einsum("ij,ij->i", a3x.conj(), a3x).real
    keep = ~flat & (denom != 0.0)
    for lam, r, split in zip(lams[~keep], miss[~keep], flat[~keep]):
        why = f"is not rank-one (relative misfit {r:.2e})" if split else "has A3 x = 0"
        for z in [lam, lam.conjugate()] if problem.is_real and lam.imag < 0 else [lam]:
            warnings.warn(f"eigenvector at lam={z:.6g} {why}; dropped",
                          RankOneExtractionWarning, stacklevel=3)
    lams, x, y, a2x, a3x, denom = (v[keep] for v in (lams, x, y, a2x, a3x, denom))
    # the leaders of pairs, by the lam solve chose them by, not the refined one
    lead = problem.is_real & (lams.imag < 0)
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
        lams[rows], mus[rows], x[rows], y[rows] = (v[stepped] for v in moved)
        x[rows] /= np.linalg.norm(x[rows], axis=1)[:, None]
        y_c[rows], c_degenerate[rows] = pencil._normalize_y(y[rows], problem.c)
        res_a[rows], res_b[rows] = _residual_norms(
            problem, lams[rows], mus[rows], x[rows], y_c[rows])
    kept = np.flatnonzero((res_a <= ORACLE_TOL) & (res_b <= ORACLE_TOL))
    kept = np.repeat(kept, np.where(lead[kept], 2, 1))
    partner = np.diff(kept, prepend=-1) == 0
    lams, mus, x, y, y_c, c_degenerate, res_a, res_b = (
        v[kept] for v in (lams, mus, x, y, y_c, c_degenerate, res_a, res_b))
    lams[partner], mus[partner], x[partner] = (v[partner].conj() for v in (lams, mus, x))
    y_c[partner], c_degenerate[partner] = pencil._normalize_y(y[partner].conj(), problem.c)
    return [Quadruplet(lam=lam, mu=mu, x=xi, y=yi, residuals=ResidualRecord(ra, rb),
                       c_normalized=not degenerate)
            for lam, mu, xi, yi, ra, rb, degenerate in zip(
                lams.tolist(), mus.tolist(), x, y_c, res_a.tolist(), res_b.tolist(),
                c_degenerate.tolist())]


def solve(problem: TwoParProblem) -> list:
    """All quadruplets of the problem via the determinant linearization.

    For nonsingular delta0 the coupled problem is the standard eigenvalue
    problem of Gamma1 = delta0^-1 delta1 (Atkinson's operator), formed with
    the LU of delta0 and solved by _linalg.geig(Gamma1, None). SingularProblem
    is raised when one step of inverse iteration from a fixed pseudo-random
    start proves delta0 singular (_linalg.proves_singular_from_start at
    ||delta0||_1), the test and tolerance that refuse the bordered Jacobian
    and M(sigma) too: the solve for Gamma1 cannot, as delta1 may lie in a
    singular delta0's range. When the six matrices are real
    (TwoParProblem.is_real), delta0 and delta1 are float64, the LU is
    LAPACK's real one and Gamma1 comes out float64, so geig runs
    LAPACK's real driver and the non-real lam come in exact conjugate pairs,
    Im lam < 0 first, with conjugate eigenvectors. _refine then gets only
    the candidates with Im lam <= 0 and follows each non-real one by its
    partner. _refine turns the eigenpairs into quadruplets, in the
    canonical order of the eigensolver's lam, over chunks of
    (n*m)^2 // (n+m+2)^2 candidates, whose bordered Jacobians fit in
    Gamma1's entries.
    """
    delta0, delta1 = assemble(problem)
    norm = np.linalg.norm(delta0, 1)
    fact = _linalg.Factorization(delta0)
    del delta0  # delta0 lives on in its LU factors only
    if _linalg.proves_singular_from_start(fact, len(delta1), norm):
        raise SingularProblem(
            "delta0 is numerically singular, so the oracle cannot solve this problem")
    gamma1 = fact.solve(delta1)
    del delta1, fact  # of the order-n*m matrices, only gamma1 enters the eigensolve
    lams, vr = _linalg.geig(gamma1, None)
    del gamma1
    A = tuple(_linalg.to_dense(M) for M in (problem.A1, problem.A2, problem.A3))
    n, m = problem.n, problem.m
    chunk = max(1, (n * m) ** 2 // (n + m + 2) ** 2)
    cols = np.flatnonzero(lams.imag <= 0) if problem.is_real else np.arange(lams.size)
    quads = []
    for start in range(0, cols.size, chunk):
        at = cols[start:start + chunk]
        quads += _refine(problem, A, lams[at], vr[:, at])
    return quads
