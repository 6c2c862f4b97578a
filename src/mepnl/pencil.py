"""The small lam-parametrized pencil and its eigenvalue branches.

For fixed lam the small equation is the generalized eigenvalue problem
``-(B1 + lam*B2) y = mu * B3 y``. Each finite eigenvalue, followed
continuously in lam, is a branch mu = g_i(lam): an implicitly defined,
locally analytic function wherever the eigenvalue stays simple. Branches,
their derivatives, and the continuation that follows one branch along a
path all live here. Slopes g' come from their closed form
(g_prime_closed_form); the bordered-Jacobian recursion serves higher orders.

A continuation step chooses the followed eigenvalue from the shift-invert
spectrum about its first-order prediction s: one LU of order m of
B(lam, s), one solve for B(lam, s)^-1 B3 and one zgeev of that operator
(_linalg.shift_invert_eigvals), with no QZ. One more LU of order m, of
B(lam, mu) at the chosen eigenvalue, gives its y and w by inverse
iteration, and their residual test certifies the point's backward error
whatever routine found mu. Where a real pencil at real lam offers a
conjugate pair equally near the prediction, as past a point where two real
eigenvalues meet, the step follows the branch from above: it takes the
member nearest the candidate at lam + i*h for a small h, the limit
lam + i0, so neither the step sizes nor the sign of a rounding-level
imaginary part of lam choose it. Each of these LUs, like the bordered
Jacobian's, is a _linalg.Factorization, which refuses no matrix; this
module calls no LAPACK routine itself. When B3 has rank one, as in the
Helmholtz and quadratic generators, the pencil has at most one finite eigenvalue,
which needs no step, no shift-invert spectrum and no LU: one generalized
Schur form of (B1, B2) per problem (TwoParProblem.schur_k) turns a point's
solves with B1 + lam*B2 into two triangular solves of order m, and
problems.tabulate_branches takes them for its whole grid in one batch
(_rank_one_points), returned as arrays. Every residual test
(_null_vectors_pass), of a batch or of one step, takes products with B1,
B2 and B3 and scales them by the 2-norm bound scale_b(lam, mu) of the
problem's residuals, so a grid builds no m x m matrix per lam.
The full QZ with left and right eigenvectors (eigenpairs_at) runs once
per problem at REFERENCE_LAM (TwoParProblem.reference_points, the same QZ
that draws a default c), at other reference points, and when those
vectors fail their residual test.
The branches' poles take one QZ per problem, of a bordered pencil of order
m + rank(B3) (branch_poles), which no continuation step needs.
"""
from __future__ import annotations

import dataclasses
from math import comb

import numpy as np

from . import _linalg
from .core import TwoParProblem, _branch_slope, _c_normalizable
from .errors import AmbiguousBranch, NoFiniteEigenvalue, NonSimpleMu, SingularJacobian

# Two continuation candidates whose distances to the prediction differ by less
# than this (times scale) cannot be told apart.
TOL_AMBIGUOUS = 1e-12
# Eigenvalues closer than this (relative) are copies of one semisimple value.
TOL_DEDUPE = 1e-9
# sigma_min(J) / ||J|| at or below this means J is numerically singular.
TOL_SINGULAR_J = 1e-12
# Branch ids are fixed by the eigenvalue order here unless a caller says otherwise.
REFERENCE_LAM = 0.0
# Interval splits one continue_branch call may make to resolve ambiguity.
MAX_BISECTIONS = 12
# Inverse-iteration steps that take the followed branch's y and w from one LU
# of B(lam, mu) at its eigenvalue mu.
INVERSE_STEPS = 3
# Those vectors are kept when ||B y|| and ||B^H w|| (unit y and w) are at most
# this times the 2-norm bound scale_b, about 450 eps; else the full QZ does.
TOL_INVERSE_RESIDUAL = 1e-13
# A conjugate tie at lam_new is broken at lam_new + i*h, with h this fraction
# of the step length |lam_new - lam_prev|.
TIE_SHIFT = 1e-4


@dataclasses.dataclass(frozen=True)
class BranchPoint:
    """One eigenpair of the small pencil at a fixed lam.

    y is scaled so c^T y = 1 when feasible (else unit norm, c_degenerate
    True); w is the unit left eigenvector of the same eigenvalue.
    """

    lam: complex
    mu: complex
    y: np.ndarray
    w: np.ndarray
    branch_id: int
    c_degenerate: bool = False


def _raw_eigenpairs(B1, B2, B3, lam):
    """(mu, y, w) of -(B1 + lam*B2) y = mu B3 y, as _linalg.geig orders them."""
    return _linalg.geig(-(B1 + lam * B2), B3, vectors="both")


def _normalize_y(y, c):
    """(y scaled to c^T y = 1, False), or (unit y, True) when c cannot normalize
    y; row by row, with an array of flags, for the rows of a 2-D y."""
    cy = y @ c
    y_norm = np.linalg.norm(y, axis=-1)
    degen = ~_c_normalizable(cy, np.linalg.norm(c), y_norm)
    return y / np.where(degen, y_norm, cy)[..., None], degen


def eigenpairs_at(problem: TwoParProblem, lam):
    """All finite eigenpairs of the small pencil at lam, sorted by |mu|.

    Returns a list of BranchPoint with branch_id set to the position in that
    ordering; eigenvalues at infinity are never branches.
    """
    spectrum = _raw_eigenpairs(problem.B1, problem.B2, problem.B3, lam)
    return _branch_points(problem, lam, spectrum)


def _branch_points(problem: TwoParProblem, lam, spectrum):
    """The BranchPoints of eigenpairs_at from the spectrum (mu, y, w) that
    _raw_eigenpairs gives at lam."""
    mus, ys, ws = spectrum
    points = []
    for i, mu in enumerate(mus):
        y, degen = _normalize_y(ys[:, i], problem.c)
        w = ws[:, i]
        points.append(
            BranchPoint(
                lam=complex(lam), mu=complex(mu), y=y, w=w / np.linalg.norm(w),
                branch_id=i, c_degenerate=degen,
            )
        )
    return points


@dataclasses.dataclass
class JacobianJ:
    """Bordered Jacobian [[B(lam, mu), B3 y], [c^T, 0]] of the branch system.

    Nonsingular exactly when the branch is locally analytic with c^T y = 1
    enforceable; sigma_min/norm quantifies the margin.
    """

    lam: complex
    mu: complex
    sigma_min: float
    norm: float
    _fact: _linalg.Factorization | None

    def solve(self, rhs):
        if self._fact is None:
            raise SingularJacobian(
                f"bordered Jacobian singular at lam={self.lam}, mu={self.mu} "
                f"(sigma_min/norm = {self.sigma_min / max(self.norm, 1e-300):.2e})"
            )
        return self._fact.solve(rhs)

    @property
    def singular(self) -> bool:
        return self.sigma_min <= TOL_SINGULAR_J * self.norm


def jacobian(problem: TwoParProblem, bp: BranchPoint) -> JacobianJ:
    """Assemble and factorize the bordered Jacobian at a branch point."""
    m = problem.m
    J = np.zeros((m + 1, m + 1), dtype=np.complex128)
    J[:m, :m] = problem.eval_b(bp.lam, bp.mu)
    J[:m, m] = problem.B3 @ bp.y
    J[m, :m] = problem.c
    svals = np.linalg.svd(J, compute_uv=False)
    jac = JacobianJ(bp.lam, bp.mu, float(svals[-1]), float(svals[0]), None)
    if not jac.singular:
        jac._fact = _linalg.Factorization(J)
    return jac


def derivatives(problem: TwoParProblem, bp: BranchPoint, order: int):
    """Branch derivatives g^(1..order) and y^(1..order) at a branch point.

    Solves, with the bordered Jacobian factorized once,
        J [y^(k); g^(k)] = [-b_k; 0],
        b_k = k*B2 y^(k-1) + sum_{j=1}^{k-1} C(k,j) g^(k-j) B3 y^(j),
    which is the k-th lam-derivative of the defining system (the k on the B2
    term is the Leibniz factor from d^k/dlam^k of lam*B2*y).

    Returns (g_derivs, y_derivs) with shapes (order,) and (order, m).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    J = jacobian(problem, bp)
    m = problem.m
    g = np.zeros(order + 1, dtype=np.complex128)
    y = np.zeros((order + 1, m), dtype=np.complex128)
    g[0] = bp.mu
    y[0] = bp.y
    rhs = np.zeros(m + 1, dtype=np.complex128)
    for k in range(1, order + 1):
        bk = k * (problem.B2 @ y[k - 1])
        for j in range(1, k):
            bk += comb(k, j) * g[k - j] * (problem.B3 @ y[j])
        rhs[:m] = -bk
        sol = J.solve(rhs)
        y[k] = sol[:m]
        g[k] = sol[m]
    return g[1:], y[1:]


def g_prime_closed_form(problem: TwoParProblem, bp: BranchPoint) -> complex:
    """g'(lam) = -(w^H B2 y)/(w^H B3 y) at a simple mu (core._branch_slope)."""
    return complex(_branch_slope(problem, bp.w, bp.y)[0])


def branch_poles(problem: TwoParProblem) -> np.ndarray:
    """The finite eigenvalues lam of the bordered pencil [[K, U], [V^H, 0]],
    K = B1 + lam*B2, in geig's canonical order: the poles of the branches,
    as det(K + mu U V^H) = det K * det(I + mu V^H K^-1 U).

    When B3 passes the rank-one test (problem.b3_rank_one), U and V are its
    factors (u, v) and r = 1, so the poles belong to the branch that
    _rank_one_points evaluates. Otherwise B3 = U V^H with U = U_r diag(s_r)
    and V = V_r from its SVD, at numpy's matrix_rank default,
    s > s_max * m * eps. When r = 0 or r = m the result is empty, and no QZ
    runs.
    """
    m = problem.m
    if problem.b3_rank_one is not None:
        u, v = problem.b3_rank_one
        U, Vh = u[:, None], v.conj()[None, :]
    else:
        U, s, Vh = np.linalg.svd(problem.B3)
        kept = s > s[0] * m * np.finfo(float).eps
        U, Vh = U[:, kept] * s[kept], Vh[kept]
    r = Vh.shape[0]
    if r in (0, m):
        return np.empty(0, dtype=np.complex128)
    P = np.zeros((m + r, m + r), dtype=np.complex128)
    Q = np.zeros_like(P)
    P[:m, :m] = problem.B1
    P[:m, m:] = U
    P[m:, :m] = Vh
    Q[:m, :m] = -problem.B2
    return _linalg.geig(P, Q)[0]


def reference_point(problem: TwoParProblem, branch_id: int,
                    lam=REFERENCE_LAM) -> BranchPoint:
    """The point of branch branch_id at a reference lam, where branch ids are
    positions in the |mu| ordering of eigenpairs_at(lam); at REFERENCE_LAM it
    is one of the problem's reference_points, one full QZ per problem.
    Raises NoFiniteEigenvalue when the pencil has no finite eigenvalue at
    lam, KeyError when it has no branch branch_id there."""
    points = problem.reference_points if lam == REFERENCE_LAM else eigenpairs_at(problem, lam)
    if not points:
        raise NoFiniteEigenvalue(
            f"small pencil has no finite eigenvalue at reference lam={lam}"
        )
    if not 0 <= branch_id < len(points):
        raise KeyError(
            f"branch {branch_id} not present at reference lam={lam} "
            f"(have 0..{len(points) - 1})"
        )
    return points[branch_id]


def _null_vectors_pass(problem: TwoParProblem, lams, mus, y, w):
    """The residual test of unit y and w at an eigenvalue mu of B = B(lam,
    mu): ||B y|| and ||w^H B|| at most TOL_INVERSE_RESIDUAL * scale_b(lam,
    mu), the 2-norm bound ||B1|| + |lam| ||B2|| + |mu| ||B3|| that
    core._residual_norms divides by; elementwise over lams and mus with the
    rows of 2-D y and w. Both residuals are three products with B1, B2 and
    B3 for all entries at once, so no B is formed per entry.
    """
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    mus = np.asarray(mus, dtype=np.complex128).reshape(-1)
    y, w = np.atleast_2d(y), np.atleast_2d(w)
    by = np.linalg.norm(problem.apply_b(lams, mus, y.T), axis=0)
    # the rows of w @ conj(B) are B^H w, as long as w^H B, with no copy of w
    bhw = (w @ problem.B1.conj() + lams.conj()[:, None] * (w @ problem.B2.conj())
           + mus.conj()[:, None] * (w @ problem.B3.conj()))
    residual = np.maximum(by, np.linalg.norm(bhw, axis=1))
    return residual <= TOL_INVERSE_RESIDUAL * problem.scale_b(lams, mus)


def _full_qz_point(problem: TwoParProblem, lam, mu, branch_id=None) -> BranchPoint:
    """The point of eigenpairs_at(lam) nearest mu, for a step whose y and w
    failed their residual test and for core.attach_left_vectors. It carries
    branch_id when given, the tracked branch's id, else its position in
    eigenpairs_at."""
    points = eigenpairs_at(problem, lam)
    if not points:
        raise NoFiniteEigenvalue(f"full QZ finds no finite eigenvalue at lam={lam}")
    point = min(points, key=lambda p: abs(p.mu - mu))
    if branch_id is None:
        return point
    return dataclasses.replace(point, branch_id=branch_id)


def _inverse_iteration(problem: TwoParProblem, prev: BranchPoint, lam, mu):
    """Unit (y, w) with B y ~ 0 and B^H w ~ 0 for B = B(lam, mu) at an
    eigenvalue mu: INVERSE_STEPS steps of inverse iteration from prev.y and
    prev.w on one Factorization of B, which floors the exactly zero pivot
    of a B singular by design. None when they fail _null_vectors_pass.
    """
    fact = _linalg.Factorization(problem.eval_b(lam, mu))
    y, w = prev.y, prev.w
    for _ in range(INVERSE_STEPS):
        y, w = fact.solve(y), fact.solve(w, adjoint=True)
        y, w = y / np.linalg.norm(y), w / np.linalg.norm(w)
    return (y, w) if _null_vectors_pass(problem, lam, mu, y, w)[0] else None


def _rank_one_points(problem: TwoParProblem, lams):
    """The points of the one branch at each of lams when B3 = u v^H has rank
    one, as arrays in the order of lams: (mu, y, w, c_degenerate, failed).
    mu has one entry per lam, y and w one row (y scaled as in BranchPoint, w
    unit), and c_degenerate one flag; failed maps the index of each lam
    where the pencil has no finite eigenvalue to its NoFiniteEigenvalue,
    and mu, y and w are NaN there.

    With K = B1 + lam*B2, det(K + mu u v^H) = det(K) (1 + mu v^H K^-1 u) is
    of degree one in mu, so the one finite eigenvalue is mu = -1/tau with
    tau = v^H K^-1 u, y ~ K^-1 u and w ~ K^-H v. Both solves come from the
    problem's one generalized Schur form of (B1, B2)
    (TwoParProblem.schur_k): two triangular solves per lam, for all of
    lams at once, and no LU.
    mu is finite when the pair (-1, tau) passes _linalg.finite_pair, the
    test geig applies to QZ's pairs, which here means |mu| < 1/TOL_INF - 1.
    y and w are certified for all of lams at once by _null_vectors_pass,
    from products with B1, B2 and B3, with no B(lam, mu) formed per lam;
    an entry that fails it takes mu, y and w from the full QZ at its lam
    instead (_full_qz_point).
    """
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    u, v = problem.b3_rank_one
    x = problem.schur_k.solve(lams, u)
    z = problem.schur_k.solve(lams, v, adjoint=True)
    tau = x @ v.conj()
    finite = _linalg.finite_pair(-1.0, tau)
    mu = np.divide(-1.0, tau, out=np.full(lams.size, np.nan, dtype=np.complex128),
                   where=finite)
    y = x / np.linalg.norm(x, axis=1)[:, None]
    w = z / np.linalg.norm(z, axis=1)[:, None]
    # NaN mu fails the test, so only finite entries can be certified
    certified = _null_vectors_pass(problem, lams, mu, y, w)
    y, degen = _normalize_y(y, problem.c)
    y[~finite] = w[~finite] = np.nan
    failed = {
        int(i): NoFiniteEigenvalue(
            f"the rank-one pencil has no finite eigenvalue at lam={complex(lams[i])} "
            f"(v^H K^-1 u = {tau[i]:.3e})"
        )
        for i in np.flatnonzero(~finite)
    }
    for i in np.flatnonzero(finite & ~certified):
        try:
            point = _full_qz_point(problem, lams[i], mu[i])
        except NoFiniteEigenvalue as exc:
            failed[int(i)] = exc
            mu[i], y[i], w[i] = np.nan, np.nan, np.nan
            continue
        mu[i], y[i], w[i], degen[i] = point.mu, point.y, point.w, point.c_degenerate
    return mu, y, w, degen, failed


def _nearest_candidate(problem: TwoParProblem, prev: BranchPoint, lam_new,
                       break_conjugate_tie: bool = True):
    """(mus, i): the candidates at lam_new and the index of the one nearest
    the first-order prediction pred = mu_prev + g'(lam_prev)*(lam_new -
    lam_prev), with g' in closed form (mu_prev itself when mu_prev is not
    simple). The candidates are the pencil's finite eigenvalues in geig's
    order, from the shift-invert spectrum about pred
    (_linalg.shift_invert_eigvals): one LU of order m, one solve and one
    zgeev, most accurate next to pred, where the choice is made.

    Two candidates about equally near are resolved in two cases: copies of
    one semisimple value give the first copy, and a conjugate pair, as a
    real pencil has at real lam past a point where two real eigenvalues
    meet, gives the member nearest the candidate chosen at
    lam_new + i*h, h = TIE_SHIFT*|lam_new - lam_prev|: the limit lam + i0.
    Any other tie raises AmbiguousBranch, as does a tie at lam_new + i*h.
    """
    try:
        pred = prev.mu + g_prime_closed_form(problem, prev) * (lam_new - prev.lam)
    except NonSimpleMu:
        pred = prev.mu
    mus = _linalg.shift_invert_eigvals(-(problem.B1 + lam_new * problem.B2),
                                       problem.B3, pred).tolist()
    if not mus:
        raise NoFiniteEigenvalue(
            f"no finite eigenvalue at lam={lam_new} while continuing a branch"
        )
    dists = np.array([abs(mu - pred) for mu in mus])
    order = np.argsort(dists, kind="stable")
    i0 = order[0]
    if len(mus) < 2 or dists[order[1]] - dists[i0] > TOL_AMBIGUOUS * max(1.0, abs(pred)):
        return mus, i0
    i1 = order[1]
    mu0, mu1 = mus[i0], mus[i1]
    tol = TOL_DEDUPE * max(1.0, abs(mu0), abs(mu1))
    if abs(mu0 - mu1) <= tol:
        # numerically one semisimple eigenvalue reported twice; the
        # candidates are in canonical order, so take the first copy
        return mus, min(i0, i1)
    if break_conjugate_tie and abs(mu0 - mu1.conjugate()) <= tol:
        h = TIE_SHIFT * abs(lam_new - prev.lam)
        above, j = _nearest_candidate(problem, prev, lam_new + 1j * h, False)
        return mus, min((i0, i1), key=lambda i: abs(mus[i] - above[j]))
    raise AmbiguousBranch(lam_new, (mu0, mu1))


def _continue_step(problem: TwoParProblem, prev: BranchPoint, lam_new):
    """One continuation step of prev's branch to the candidate of
    _nearest_candidate. Raises AmbiguousBranch when it cannot choose,
    NoFiniteEigenvalue when the pencil has no finite eigenvalue at lam_new.

    The step's cost is two LUs of order m and one zgeev of order m: one LU
    and the zgeev give the candidates, and the winner's y and w come from
    one LU of B(lam_new, mu) (_inverse_iteration), or, when those fail
    their residual test, from the point of eigenpairs_at nearest mu.
    """
    mus, i0 = _nearest_candidate(problem, prev, lam_new)
    mu = mus[i0]
    vectors = _inverse_iteration(problem, prev, lam_new, mu)
    if vectors is None:
        return _full_qz_point(problem, lam_new, mu, prev.branch_id)
    y, degen = _normalize_y(vectors[0], problem.c)
    return BranchPoint(lam=complex(lam_new), mu=mu, y=y, w=vectors[1],
                       branch_id=prev.branch_id, c_degenerate=degen)


def _bisected_steps(problem: TwoParProblem, point: BranchPoint, lam_new):
    """Continuation steps from point to lam_new. A step whose destination is
    ambiguous (two candidates about equally close, as happens when the step
    jumps over most of the gap between two nearby branches) is bisected and
    retried, up to MAX_BISECTIONS interval splits in total. Ambiguity that
    survives the smallest step is genuine (the branches meet on the way)
    and AmbiguousBranch propagates."""
    pending = [lam_new]
    splits = 0
    while pending:
        target = pending[-1]
        try:
            point = _continue_step(problem, point, target)
        except AmbiguousBranch:
            splits += 1
            mid = point.lam + 0.5 * (target - point.lam)
            if splits > MAX_BISECTIONS or mid == point.lam or mid == target:
                raise
            pending.append(mid)
            continue
        pending.pop()
    return point


def continue_branch(problem: TwoParProblem, point: BranchPoint, lam_new) -> BranchPoint:
    """The point of point's branch at lam_new, continued from point, which is
    left unchanged; at lam_new == point.lam it is point itself.

    When B3 has rank one (problem.b3_rank_one) the pencil has at most one
    finite eigenvalue, so the point at lam_new is evaluated directly
    (_rank_one_points, as a batch of one): two triangular solves of order m
    with the problem's generalized Schur form of (B1, B2), with no step, no
    bisection and no LU. Otherwise the branch is followed by continuation
    steps, bisected on ambiguity (_bisected_steps); a conjugate pair equally
    near a step's prediction is resolved from above, in the limit lam + i0
    (_nearest_candidate). NoFiniteEigenvalue is raised when the pencil
    degenerates at lam_new, ValueError when lam_new is not finite.
    """
    lam_new = complex(lam_new)
    if not np.isfinite(lam_new):
        raise ValueError(f"cannot continue a branch to non-finite lam={lam_new}")
    if lam_new == point.lam:
        return point
    if problem.b3_rank_one is None:
        return _bisected_steps(problem, point, lam_new)
    mu, y, w, degen, failed = _rank_one_points(problem, [lam_new])
    if failed:
        raise failed[0]
    return BranchPoint(lam=lam_new, mu=complex(mu[0]), y=y[0], w=w[0],
                       branch_id=point.branch_id, c_degenerate=bool(degen[0]))
