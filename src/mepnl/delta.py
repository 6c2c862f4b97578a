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
Everything here is dense of order n*m, so it is capped and meant for
verification at desk scale, not production solves.
"""
from __future__ import annotations

import dataclasses
import os
import warnings

import numpy as np

from . import _linalg, pencil
from .core import Quadruplet, TwoParProblem, residuals
from .errors import ShiftIsEigenvalue, SingularProblem, TooLarge

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
    d0 = np.kron(B2, A3) - np.kron(B3, A2)
    d1 = np.kron(B3, A1) - np.kron(B1, A3)
    return DeltaPencil(d0, d1, n, m)


def _newton_step(problem: TwoParProblem, A, lam, mu, x, y, a2x, a3x, ax):
    """One Newton step on the full two-parameter system from (lam, mu, x, y)
    with unit x and y; ax, a2x and a3x are A(lam, mu)x, A2x and A3x. The
    bordered Jacobian of order n+m+2,

        [[A(lam, mu), 0,          A2x, A3x],
         [0,          B(lam, mu), B2y, B3y],
         [x^H,        0,          0,   0  ],
         [0,          y^H,        0,   0  ]],

    fixes the scale of x and y by its last two rows. Returns the refined
    (lam, mu, x, y), or None when the Jacobian is singular or the update is
    not finite. A holds the dense A1, A2, A3.
    """
    n, m = problem.n, problem.m
    B = problem.eval_b(lam, mu)
    J = np.zeros((n + m + 2, n + m + 2), dtype=np.complex128)
    J[:n, :n] = A[0] + lam * A[1] + mu * A[2]
    J[n:n + m, n:n + m] = B
    J[:n, n + m], J[:n, n + m + 1] = a2x, a3x
    J[n:n + m, n + m] = problem.B2 @ y
    J[n:n + m, n + m + 1] = problem.B3 @ y
    J[n + m, :n] = x.conj()
    J[n + m + 1, n:n + m] = y.conj()
    rhs = np.concatenate((-ax, -(B @ y), [0.0, 0.0]))
    try:
        d = np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(d)):
        return None
    return lam + d[n + m], mu + d[n + m + 1], x + d[:n], y + d[n:n + m]


def _quadruplet(problem: TwoParProblem, lam, mu, x, y, ax=None) -> Quadruplet:
    """The candidate (lam, mu, x, y) with y normalized by c, and its residuals
    record; ax is (A1 + lam A2 + mu A3) x when already formed."""
    y, c_degenerate = pencil._normalize_y(y, problem.c)
    quad = Quadruplet(lam=lam, mu=mu, x=x, y=y, c_normalized=not c_degenerate)
    quad.residuals = residuals(problem, quad, ax=ax)
    return quad


def solve(problem: TwoParProblem) -> list:
    """All quadruplets of the problem via the determinant linearization.

    For nonsingular delta0 the coupled problem is the standard eigenvalue
    problem of Gamma1 = delta0^-1 delta1 (Atkinson's operator), formed with
    the LU of delta0 that also measures its condition and solved by
    _linalg.geig(Gamma1, None). Each finite eigenvector is split into its
    rank-one factors z = y (x) x, mu comes by least squares from the large
    equation, and one Newton step on the full two-parameter system
    (_newton_step) refines (lam, mu, x, y). A candidate whose residuals
    record, from the products already formed, has both relative residuals
    at most STEP_SKIP_TOL takes no step and keeps that record, and one whose
    step is singular keeps its unrefined values. Quadruplets whose relative
    residuals in both equations are at most ORACLE_TOL are kept, in the
    canonical order of the eigensolver's lam. Eigenvectors that are not
    numerically rank-one are dropped with a RankOneExtractionWarning.
    """
    dp = assemble(problem)
    try:
        fact = _linalg.Factorization(dp.delta0)
        rc = fact.rcond
    except ShiftIsEigenvalue:
        rc = 0.0
    if rc < RCOND_SINGULAR_PROBLEM:
        raise SingularProblem(
            f"delta0 is numerically singular (rcond={rc:.2e}), so the oracle "
            "cannot solve this problem"
        )
    gamma1 = fact.solve(dp.delta1)
    del dp, fact  # of the order-n*m matrices, only gamma1 enters the eigensolve
    lams, vr, _ = _linalg.geig(gamma1, None)
    A = tuple(_linalg.to_dense(M) for M in (problem.A1, problem.A2, problem.A3))
    quads = []
    for lam, z in zip(lams.tolist(), vr.T):
        Z = z.reshape(problem.m, problem.n)
        try:
            u, s, vh = np.linalg.svd(Z, full_matrices=False)
        except np.linalg.LinAlgError:  # pragma: no cover - extremely rare
            continue
        if s.size > 1 and s[1] > RANK_ONE_TOL * s[0]:
            warnings.warn(
                f"eigenvector at lam={lam:.6g} is not rank-one "
                f"(s2/s1 = {s[1] / s[0]:.2e}); dropped",
                RankOneExtractionWarning,
                stacklevel=2,
            )
            continue
        # Z = outer(y, x) = s[0] * outer(u[:,0], vh[0]): the vh row already
        # carries the unconjugated second factor
        y = u[:, 0]
        x = vh[0]
        a2x, a3x = A[1] @ x, A[2] @ x
        denom = np.vdot(a3x, a3x).real
        if denom == 0.0:
            continue
        a12x = (A[0] @ x) + lam * a2x
        mu = complex(-np.vdot(a3x, a12x) / denom)
        ax = a12x + mu * a3x
        quad = _quadruplet(problem, lam, mu, x, y, ax)
        rec = quad.residuals
        if not (rec.res_a <= STEP_SKIP_TOL and rec.res_b <= STEP_SKIP_TOL):
            # the step takes the unit y; a singular step keeps quad
            step = _newton_step(problem, A, lam, mu, x, y, a2x, a3x, ax)
            if step is not None:
                lam, mu, x, y = step
                quad = _quadruplet(problem, complex(lam), complex(mu),
                                   x / np.linalg.norm(x), y)
        if quad.residuals.res_a <= ORACLE_TOL and quad.residuals.res_b <= ORACLE_TOL:
            quads.append(quad)
    return quads
