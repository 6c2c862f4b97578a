"""Operator-determinant linearization: the dense cross-checking oracle.

The coupled problem is equivalent (for nonsingular delta0) to the pair of
ordinary generalized eigenvalue problems

    delta1 z = lam * delta0 z,    delta2 z = mu * delta0 z,

on the Kronecker product space, with decomposable eigenvectors z = y (x) x:

    delta0 = B2 (x) A3 - B3 (x) A2
    delta1 = B3 (x) A1 - B1 (x) A3
    delta2 = B1 (x) A2 - B2 (x) A1

The oracle forms delta0 and delta1 only: it solves the first problem and
recovers mu from the large equation, so delta2 is never needed.
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
# reciprocal condition of delta0 below this means the problem is singular
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


def assemble(problem: TwoParProblem, cap: int | None = None) -> DeltaPencil:
    """Assemble delta0 and delta1, enforcing the size cap."""
    if cap is None:
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


def solve(problem: TwoParProblem) -> list:
    """All quadruplets of the problem via the determinant linearization.

    Solves delta1 z = lam delta0 z, splits each finite eigenvector into its
    rank-one factors z = y (x) x, recovers mu by least squares on the large
    equation, and keeps quadruplets whose relative residuals in both
    equations are at most ORACLE_TOL, in the canonical order of lam (see
    _linalg.geig). Eigenvectors that are not numerically rank-one are
    dropped with a RankOneExtractionWarning.
    """
    dp = assemble(problem)
    try:
        rc = _linalg.Factorization(dp.delta0).rcond
    except ShiftIsEigenvalue:
        rc = 0.0
    if rc < RCOND_SINGULAR_PROBLEM:
        raise SingularProblem(
            f"delta0 is numerically singular (rcond={rc:.2e}); the coupled "
            "problem is singular"
        )
    lams, vr, _ = _linalg.geig(dp.delta1, dp.delta0)
    A1, A2, A3 = problem.A1, problem.A2, problem.A3
    quads = []
    for lam, z in zip(lams.tolist(), vr.T):
        Z = z.reshape(problem.m, problem.n)
        try:
            u, s, vh = np.linalg.svd(Z)
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
        a3x = A3 @ x
        denom = np.vdot(a3x, a3x).real
        if denom == 0.0:
            continue
        a12x = (A1 @ x) + lam * (A2 @ x)
        mu = complex(-np.vdot(a3x, a12x) / denom)
        y, c_degenerate = pencil._normalize_y(y, problem.c)
        quad = Quadruplet(lam=lam, mu=mu, x=x, y=y, c_normalized=not c_degenerate)
        # the operations and order of problem.apply_a, on the matvecs above
        quad.residuals = residuals(problem, quad, ax=a12x + mu * a3x)
        if quad.residuals.res_a <= ORACLE_TOL and quad.residuals.res_b <= ORACLE_TOL:
            quads.append(quad)
    return quads
