"""Eigenvalue solvers for the branch-implicit nonlinear problem.

Two iterations on M(lam) x = 0 for one tracked branch mu = g(lam):

* augmented_newton: a Newton step with g' in closed form, one linear solve
  with M(lam_k) per iteration, locally quadratic at simple eigenvalues;
* resinv: residual inverse iteration with a single factorization of
  M(sigma), the eigenvalue update coming from a scalar-projected small
  problem, locally linear with rate proportional to |sigma - lam*|.

Plus the scalar projection that resinv's eigenvalue update leans on.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np

from . import _linalg, core, pencil
from .core import Quadruplet, TwoParProblem
from .errors import ConvergenceFailure, DegenerateProjection, ShiftIsEigenvalue
from .nep import NepView

# |w^T A3 v| below this (times norm scale) makes the scalar projection useless.
TOL_PROJECTION = 1e-14


@dataclasses.dataclass
class SolverConfig:
    """Settings shared by the iterative solvers.

    tol is the relative residual target in the large equation, maxit >= 0
    the step budget and sigma the resinv shift.
    """

    tol: float = 1e-10
    maxit: int = 100
    sigma: complex | None = None


def _require_budget(config: SolverConfig):
    """Raise ValueError for a negative maxit; maxit = 0 records iterate 0 only."""
    if config.maxit < 0:
        raise ValueError(f"maxit must be >= 0, got {config.maxit}")


@dataclasses.dataclass
class SolveTrace:
    """Per-iteration record of a solver run.

    termination says why the run stopped: "converged" (res_a <= tol),
    "maxit" (the step budget ran out), "stagnated" (Newton only: a solve
    proves M(lam_k) at an iterate past the start numerically singular, so
    lam_k sits at the accuracy limit; the step from it, an inverse-iteration
    step, is still taken, and its iterate, the last recorded, does not meet
    tol either) or "nonfinite" (the next iterate's lam or x is not finite;
    the last finite iterate is the one returned).
    """

    lam: list = dataclasses.field(default_factory=list)
    mu: list = dataclasses.field(default_factory=list)
    res_a: list = dataclasses.field(default_factory=list)
    res_b: list = dataclasses.field(default_factory=list)
    alpha: list = dataclasses.field(default_factory=list)  # Newton steps
    seconds: list = dataclasses.field(default_factory=list)
    termination: str = ""

    def record(self, lam, mu, rec, t0, config: SolverConfig) -> bool:
        """Append one iterate, timed from t0; return whether the run stops
        there, "converged" (res_a <= tol) or at "maxit" steps."""
        self.lam.append(lam)
        self.mu.append(mu)
        self.res_a.append(rec.res_a)
        self.res_b.append(rec.res_b)
        self.seconds.append(time.perf_counter() - t0)
        if rec.res_a <= config.tol:
            self.termination = "converged"
        elif len(self.lam) > config.maxit:
            self.termination = "maxit"
        return bool(self.termination)

    @property
    def converged(self) -> bool:
        return self.termination == "converged"

    @property
    def iterations(self) -> int:
        return len(self.lam)

    def rows(self):
        """(iter, lam, mu, res_a, res_b, seconds) tuples for reporting."""
        return [
            (k, self.lam[k], self.mu[k], self.res_a[k], self.res_b[k], self.seconds[k])
            for k in range(len(self.lam))
        ]


def augmented_newton(nep: NepView, lam0, x0, config: SolverConfig | None = None):
    """Newton iteration on the bordered system (M(lam) x, d^T x - 1) = 0 with
    the fixed normalization d = conj(x0)/||x0||^2, so d^T x0 = 1 (Ruhe, SIAM
    J. Numer. Anal. 1973).

    Per iteration: with u = M(lam_k)^{-1} M'(lam_k) x_k and
    alpha_k = 1/(d^T u), update x_{k+1} = alpha_k * u and
    lam_{k+1} = lam_k - alpha_k. M'(lam) = A2 + g'(lam) A3 with g' in
    closed form on the tracked branch (NonSimpleMu when its mu is not
    simple); M(lam_k) is formed only to be factorized, and the single linear
    solve per iteration serves both updates.

    Returns (Quadruplet, SolveTrace); trace.termination is "converged",
    "maxit", "stagnated" or "nonfinite" (non-convergence is reported, not
    raised). A run is nonfinite when u is not finite or an update would make
    lam or x non-finite; the last finite iterate is returned. When u proves
    M(lam_k) at an iterate k >= 1 singular (NepView.refuse_singular, which
    reads the view's point at lam_k, where the factorization took M), u is
    still the inverse-iteration direction at the accuracy limit: the step is
    taken and its iterate k + 1, one of the maxit steps, recorded, and the
    run ends there, "converged" when it meets tol and "stagnated"
    otherwise. At k = 0 ShiftIsEigenvalue propagates, the singular point
    being the caller's own start. d^T u = 0, as when M'(lam_k) x_k = 0,
    raises ConvergenceFailure.
    """
    if config is None:
        config = SolverConfig()
    _require_budget(config)
    problem = nep.problem
    x = np.asarray(x0, dtype=np.complex128).copy()
    d = x.conj() / (np.linalg.norm(x) ** 2)
    lam = complex(lam0)
    trace = SolveTrace()
    t0 = time.perf_counter()
    bp = nep.branch_point(lam)
    singular = False  # whether the last solve proved M(lam_k) singular
    for k in range(config.maxit + 1):
        a1x, a2x, a3x = problem.A1 @ x, problem.A2 @ x, problem.A3 @ x
        rec = core.residuals(problem, Quadruplet(lam, bp.mu, x, bp.y),
                             ax=(a1x + lam * a2x) + bp.mu * a3x)
        if trace.record(lam, bp.mu, rec, t0, config) or singular:
            if singular and not trace.converged:
                trace.termination = "stagnated"
            break
        gprime = pencil.g_prime_closed_form(problem, bp)
        rhs = a2x + gprime * a3x
        del a1x, a2x, a3x  # n-vectors not held across the LU of M(lam_k)
        u = nep.factorization().solve(rhs)  # M(lam_k)'s LU is freed here
        dtu = d @ u
        if not np.isfinite(dtu):
            trace.termination = "nonfinite"
            break
        try:
            nep.refuse_singular(rhs, u)
        except ShiftIsEigenvalue:
            if k == 0:
                raise
            singular = True
        if dtu == 0:
            raise ConvergenceFailure(
                f"normalization functional annihilated the Newton direction "
                f"at iteration {k} (lam={lam})"
            )
        alpha = 1.0 / dtu
        lam_next, x_next = lam - alpha, alpha * u
        del u  # nor across the next one
        if not (np.isfinite(lam_next) and np.all(np.isfinite(x_next))):
            trace.termination = "nonfinite"
            break
        trace.alpha.append(alpha)
        lam, x = lam_next, x_next
        bp = nep.branch_point(lam)
    return Quadruplet(lam, bp.mu, x, bp.y, residuals=rec,
                      c_normalized=not bp.c_degenerate), trace


def rayleigh_candidates(problem: TwoParProblem, v, w, av=None):
    """All finite (lam, mu, y) of the scalar-projected problem.

    Projecting the large equation onto single vectors (w^T on the left, v on
    the right) and eliminating mu couples the scalars p_j = w^T A_j v with
    the small matrices:

        (p3 B1 - p1 B3) y = lam (p2 B3 - p3 B2) y,
        mu = -(p1 + lam p2)/p3.

    Every returned triple solves the small equation at (lam, mu) exactly;
    they come in the canonical order of lam (see _linalg.geig). av is
    (A1 v, A2 v, A3 v) if formed already. Raises DegenerateProjection
    when p3 = w^T A3 v is numerically zero.
    """
    v = np.asarray(v, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if av is None:
        av = (problem.A1 @ v, problem.A2 @ v, problem.A3 @ v)
    p1, p2, p3 = (w @ a for a in av)
    scale = np.linalg.norm(w) * np.linalg.norm(v) * problem.norms_a[2]
    if abs(p3) <= TOL_PROJECTION * scale:
        raise DegenerateProjection(
            f"w^T A3 v = {p3:.2e} is numerically zero (scale {scale:.2e})"
        )
    P = p3 * problem.B1 - p1 * problem.B3
    Q = p2 * problem.B3 - p3 * problem.B2
    lams, vr = _linalg.geig(P, Q)
    out = []
    for lam, y in zip(lams.tolist(), vr.T):
        mu = complex(-(p1 + lam * p2) / p3)
        y, _ = pencil._normalize_y(y, problem.c)
        out.append((lam, mu, y))
    return out


def rayleigh_gep(problem: TwoParProblem, v, w, select, av=None):
    """One (lam, mu, y) from the scalar-projected problem: the candidate
    nearest the complex reference select, the first in canonical order on
    a tie. av is as in rayleigh_candidates."""
    cands = rayleigh_candidates(problem, v, w, av)
    if not cands:
        raise DegenerateProjection("scalar-projected pencil has no finite eigenvalue")
    ref = complex(select)
    return min(cands, key=lambda t: abs(t[0] - ref))


def resinv(nep: NepView, x0, config: SolverConfig):
    """Residual inverse iteration with a fixed shift sigma (Neumaier, SIAM J.
    Numer. Anal. 1985).

    M(sigma) is factorized once (NepView.factorization, with the view moved
    to sigma by branch_point); that LU also gives
    the fixed left projection vector w = M(sigma)^{-H} x0, normalized, a
    solve that refuses M(sigma) when it proves it singular
    (NepView.refuse_singular, at the point that factorization took). It
    can do so only when x0 has a component on ker M(sigma); otherwise the
    run goes on with the floored LU. Each iteration solves the
    scalar-projected small problem at the current iterate for
    (lam_{k+1}, mu_{k+1}), selecting the eigenvalue nearest the previous
    one (nearest sigma initially), then corrects
    x_{k+1} = normalize(x_k - M(sigma)^{-1} M(lam_{k+1}) x_k); the products
    A_j x_k of the projection also give M(lam_{k+1}) x_k and its residual.

    Returns (Quadruplet, SolveTrace); non-convergence is a trace flag,
    "maxit" or "nonfinite" (a correction that is not finite ends the run at
    the last finite iterate).
    """
    if config.sigma is None:
        raise ValueError("resinv requires config.sigma")
    _require_budget(config)
    problem = nep.problem
    sigma = complex(config.sigma)
    nep.branch_point(sigma)
    fact = nep.factorization()
    x0 = np.asarray(x0, dtype=np.complex128)
    x = x0 / np.linalg.norm(x0)
    w = fact.solve(x0, adjoint=True)
    nep.refuse_singular(x0, w)
    w = w / np.linalg.norm(w)
    ref = sigma
    trace = SolveTrace()
    t0 = time.perf_counter()
    for k in range(config.maxit + 1):
        av = (problem.A1 @ x, problem.A2 @ x, problem.A3 @ x)
        try:
            lam, mu, y = rayleigh_gep(problem, x, w, ref, av)
        except DegenerateProjection as exc:
            raise DegenerateProjection(
                f"iteration {k} (lam_ref={ref}): {exc}"
            ) from exc
        z = av[0] + lam * av[1] + mu * av[2]  # apply_a's sum, in its order
        rec = core.residuals(problem, Quadruplet(lam, mu, x, y), ax=z)
        if trace.record(lam, mu, rec, t0, config):
            break
        u = x - fact.solve(z)
        nu = np.linalg.norm(u)
        if not np.isfinite(nu):
            trace.termination = "nonfinite"
            break
        if nu == 0:
            raise ConvergenceFailure(
                f"correction vanished at iteration {k} (lam={lam})"
            )
        x = u / nu
        ref = lam
    return Quadruplet(lam, mu, x, y, residuals=rec), trace
