"""The small lam-parametrized pencil and its eigenvalue branches.

For fixed lam the small equation is the generalized eigenvalue problem
``-(B1 + lam*B2) y = mu * B3 y``. Each finite eigenvalue, followed
continuously in lam, is a branch mu = g_i(lam): an implicitly defined,
locally analytic function wherever the eigenvalue stays simple. Branches,
their derivatives, and the continuation that follows one branch along a
path all live here. Slopes g' come from their closed form
(g_prime_closed_form); the bordered-Jacobian recursion serves higher orders.
It refuses a singular Jacobian, as at a Jordan chain, by the oracle's test
of delta0 (_linalg.proves_singular_from_start), at the tolerance that
refuses M(sigma).

A continuation step chooses the followed eigenvalue from the shift-invert
operator T = B(lam, s)^-1 B3 about its first-order prediction s
(_linalg.shift_invert_eigvals), with no QZ: one LU of order m of B(lam, s)
and one solve for T, then power iteration on T and T^H from the previous
point's y and w and two products of order m, which certify the nearest
candidate when a lower bound on the runner-up's distance decides the step
rule, and give its y and w with one more solve: one LU in all. zgeev of
the same T, within shift_invert_eigvals, runs only when the bound cannot
decide, and then the same power iteration on a second LU, of B(lam, mu)
at the chosen eigenvalue, gives y and w. Their residual test certifies
the point's backward error whatever routine found mu. Where a real pencil at real lam offers a
conjugate pair equally near the prediction, as past a point where two real
eigenvalues meet, the step follows the branch from above: it takes the
member nearest the candidate at lam + i*h for a small h, the limit
lam + i0, so neither the step sizes nor the sign of a rounding-level
imaginary part of lam choose it. Each of these LUs, like the bordered
Jacobian's, is a _linalg.Factorization, which refuses no matrix; this
module calls no LAPACK routine itself. continue_branch takes one such step
per call, and a step that cannot choose raises AmbiguousBranch: the
caller's grid or iterates set the step lengths, and no step is split.
When B3 has rank one, as in the Helmholtz and quadratic generators, the
pencil has at most one finite eigenvalue, which needs no step, no
shift-invert spectrum and no LU: one generalized Schur form of (B1, B2)
per problem (TwoParProblem.schur_k) turns a point's solves with
B1 + lam*B2 into two quasi-triangular substitutions of order m, for a
whole grid at once (_rank_one_points). A table reads mu alone, which
takes one substitution, for y, and is certified by y's residual alone,
where a point also certifies w. A real problem's form is real, and
its real lams run in float64 throughout, so their points are exactly real
by real arithmetic.
Every residual test, of a batch or of one step, reads the small
equation's one residual routine, core._small_residual, which res_b reads
too: products with B1, B2 and B3, compared with TOL_INVERSE_RESIDUAL times
the 2-norm bound scale_b(lam, mu), so a grid builds no m x m matrix per lam.
Branch ids are positions in the canonical order of the eigenvalues at a
reference lam, which an eigenvalues-only QZ gives (eigvals_at): at
REFERENCE_LAM one per problem, at its construction
(TwoParProblem.reference_mus); a rank-one B3 has one branch, 0, and needs
none. Each rank of B3 has one builder of a point, reference or continued,
and nothing is kept: for rank one _rank_one_point, a batch of one, with no
QZ; else _point_at, with y and w by inverse iteration at mu on one LU of
order m, certified by the residual test.
The full QZ with every eigenvector (eigenpairs_at) runs only for a point
whose vectors fail that test or whose reference mu is double, and gives
its point nearest mu.
The branches' poles take one QZ per problem, of a bordered pencil of order
m + rank(B3) (branch_poles), which no continuation step needs.
"""
from __future__ import annotations

import dataclasses
from math import comb

import numpy as np

from . import _linalg
from .core import TwoParProblem, _branch_slope, _c_normalizable, _small_residual
from .errors import AmbiguousBranch, NoFiniteEigenvalue, NonSimpleMu, SingularJacobian

# Two continuation candidates whose distances to the prediction differ by less
# than this (times scale) cannot be told apart.
TOL_AMBIGUOUS = 1e-12
# Eigenvalues closer than this (relative) are copies of one semisimple value.
TOL_DEDUPE = 1e-9
# Branch ids are fixed by the eigenvalue order here unless a caller says otherwise.
REFERENCE_LAM = 0.0
# A continuation step's y and w, or a rank-one batch entry's, are kept when
# ||B y|| and ||B^H w|| (unit y and w) are at most this times the 2-norm bound
# scale_b, about 450 eps (||B y|| alone for a table's mu); else the full QZ
# gives them.
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


def _normalize_y(y, c):
    """(y scaled to c^T y = 1, False), or (unit y, True) when c cannot normalize
    y; row by row, with an array of flags, for the rows of a 2-D y."""
    cy = y @ c
    y_norm = np.linalg.norm(y, axis=-1)
    degen = ~_c_normalizable(cy, np.linalg.norm(c), y_norm)
    return y / np.where(degen, y_norm, cy)[..., None], degen


def eigvals_at(problem: TwoParProblem, lam) -> np.ndarray:
    """The finite eigenvalues mu of the small pencil at lam, in geig's
    canonical order, from one QZ that computes no eigenvector: branch ids
    are positions in this order. eigenpairs_at, which computes every
    eigenvector too, gives the same mu bit for bit, in the same order."""
    return _linalg.geig(-(problem.B1 + lam * problem.B2), problem.B3, vectors="none")


def eigenpairs_at(problem: TwoParProblem, lam):
    """All finite eigenpairs of the small pencil at lam, in geig's canonical
    (|mu|, Re mu, Im mu) order.

    Returns a list of BranchPoint with branch_id set to the position in that
    order; eigenvalues at infinity are never branches. The full QZ, with
    every right and left eigenvector: the package's one caller of geig's
    "both" mode (tests/test_api.py), the fallback of a point whose vectors
    fail their residual test.
    """
    mus, ys, ws = _linalg.geig(-(problem.B1 + lam * problem.B2), problem.B3,
                               vectors="both")
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


def jacobian(problem: TwoParProblem, bp: BranchPoint) -> np.ndarray:
    """The bordered Jacobian [[B(lam, mu), B3 y], [c^T, 0]] of the branch
    system at a branch point, of order m + 1: nonsingular exactly when the
    branch is locally analytic with c^T y = 1 enforceable."""
    m = problem.m
    J = np.zeros((m + 1, m + 1), dtype=np.complex128)
    J[:m, :m] = problem.eval_b(bp.lam, bp.mu)
    J[:m, m] = problem.B3 @ bp.y
    J[m, :m] = problem.c
    return J


def derivatives(problem: TwoParProblem, bp: BranchPoint, order: int):
    """Branch derivatives g^(1..order) and y^(1..order) at a branch point.

    Solves, with the bordered Jacobian factorized once,
        J [y^(k); g^(k)] = [-b_k; 0],
        b_k = k*B2 y^(k-1) + sum_{j=1}^{k-1} C(k,j) g^(k-j) B3 y^(j),
    which is the k-th lam-derivative of the defining system (the k on the B2
    term is the Leibniz factor from d^k/dlam^k of lam*B2*y).

    Returns (g_derivs, y_derivs) with shapes (order,) and (order, m).
    Raises SingularJacobian when one step of inverse iteration with J from
    the fixed start proves it singular (_linalg.proves_singular_from_start
    at ||J||_1), the oracle's test of delta0, at the one tolerance of
    _linalg.proves_singular.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    J = jacobian(problem, bp)
    m = problem.m
    fact = _linalg.Factorization(J)
    if _linalg.proves_singular_from_start(fact, m + 1, np.linalg.norm(J, 1)):
        raise SingularJacobian(f"bordered Jacobian singular at lam={bp.lam}, mu={bp.mu}")
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
        sol = fact.solve(rhs)
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
    return _linalg.geig(P, Q, vectors="none")


def _branch_mu(mus, branch_id: int, lam):
    """mus[branch_id], the eigenvalue of branch branch_id among the finite
    eigenvalues mus at lam. Raises NoFiniteEigenvalue when mus is empty,
    KeyError when it has no entry branch_id."""
    if not mus.size:
        raise NoFiniteEigenvalue(
            f"small pencil has no finite eigenvalue at reference lam={lam}"
        )
    if not 0 <= branch_id < mus.size:
        raise KeyError(
            f"branch {branch_id} not present at reference lam={lam} "
            f"(have 0..{mus.size - 1})"
        )
    return complex(mus[branch_id])


def reference_point(problem: TwoParProblem, branch_id: int,
                    lam=REFERENCE_LAM) -> BranchPoint:
    """The point of branch branch_id at a reference lam, where branch ids are
    positions in the canonical order of eigvals_at(lam) (at REFERENCE_LAM,
    the problem's reference_mus). When B3 has rank one its one branch 0
    has its point from _rank_one_point, as at any lam, with no QZ.
    Otherwise its mu is that eigenvalue, and _point_at builds it from the
    fixed start of all ones, or from the full QZ when mu is listed twice
    within TOL_DEDUPE, where inverse iteration cannot settle. Nothing is
    kept. Raises NoFiniteEigenvalue when the pencil has no finite eigenvalue
    at lam, KeyError when it has no branch branch_id there.
    """
    if problem.b3_rank_one is not None:
        if branch_id != 0:
            raise KeyError(f"branch {branch_id}: a rank-one B3 has the one branch 0")
        return _rank_one_point(problem, lam, 0)
    mus = problem.reference_mus if lam == REFERENCE_LAM else eigvals_at(problem, lam)
    mu = _branch_mu(mus, branch_id, lam)
    copies = np.abs(mus - mu) <= TOL_DEDUPE * np.maximum(np.abs(mus), max(1.0, abs(mu)))
    ones = np.ones(problem.m, dtype=np.complex128)
    start = (ones, ones) if np.count_nonzero(copies) == 1 else None
    return _point_at(problem, lam, mu, branch_id, start)


def _point_at(problem: TwoParProblem, lam, mu, branch_id: int, start,
              vectors=None) -> BranchPoint:
    """The point of branch branch_id at lam with eigenvalue mu, the one
    builder of a reference point and of a step's point when rank(B3) >= 2.
    Its unit y and w are vectors when given, else inverse iteration at mu
    from start = (y, w) when that is given (_linalg.shift_invert_vectors,
    Ipsen, SIAM Review 1997), kept when they pass the residual test, of
    core._small_residual as a batch of one; with none that pass, the point
    is the full QZ's nearest mu (_full_qz_point)."""
    if vectors is None and start is not None:
        vectors = _linalg.shift_invert_vectors(-(problem.B1 + lam * problem.B2),
                                               problem.B3, mu, start)
    if vectors is not None:
        lams, mus = np.array([lam]), np.array([mu])  # the residual test of a batch of one
        residual = _small_residual(problem, lams, mus, *(v[None] for v in vectors))
        if not residual[0] <= TOL_INVERSE_RESIDUAL * problem.scale_b(lams, mus)[0]:
            vectors = None
    if vectors is None:
        return _full_qz_point(problem, lam, mu, branch_id)
    y, degen = _normalize_y(vectors[0], problem.c)
    return BranchPoint(lam=complex(lam), mu=mu, y=y, w=vectors[1],
                       branch_id=branch_id, c_degenerate=bool(degen))


def _full_qz_point(problem: TwoParProblem, lam, mu, branch_id: int) -> BranchPoint:
    """The point of eigenpairs_at(lam) nearest mu, with branch_id: the
    fallback of _point_at and of a rank-one batch entry. A tie goes to the
    point at position branch_id, else to the first, so each copy of a
    double reference mu keeps its own eigenvector."""
    points = eigenpairs_at(problem, lam)
    if not points:
        raise NoFiniteEigenvalue(f"full QZ finds no finite eigenvalue at lam={lam}")
    point = min(points, key=lambda p: (abs(p.mu - mu), p.branch_id != branch_id))
    return dataclasses.replace(point, branch_id=branch_id)


def _rank_one_points(problem: TwoParProblem, lams, vectors: bool = True):
    """The points of the one branch at each of lams when B3 = u v^H has rank
    one, as arrays in the order of lams: (mu, y, w, c_degenerate, failed).
    mu has one entry per lam, y and w one row (y scaled as in BranchPoint, w
    unit), and c_degenerate one flag; failed maps the index of each lam
    where the pencil has no finite eigenvalue to its NoFiniteEigenvalue,
    and mu, y and w are NaN there. mu, y and w are complex128 throughout.
    With vectors False, for a caller that reads mu and failed alone
    (problems.tabulate_branches), y, w and c_degenerate are None.

    With K = B1 + lam*B2, det(K + mu u v^H) = det(K) (1 + mu v^H K^-1 u) is
    of degree one in mu, so the one finite eigenvalue is mu = -1/tau with
    tau = v^H K^-1 u, y ~ K^-1 u and w ~ K^-H v. The solves come from the
    problem's one generalized Schur form of (B1, B2)
    (TwoParProblem.schur_k): a substitution per vector per lam, for all of
    lams at once, and no LU (_rank_one_batch). When the problem is real
    (is_real) that form is real, and its real lams make one batch in
    float64, from the solves to the residual test, so their mu, y and w are
    exactly real; its other lams make a second batch, in complex arithmetic
    on the same form. mu is finite when the pair (-1, tau) passes
    _linalg.finite_pair, the test geig applies to QZ's pairs, which here
    means |mu| < 1/TOL_INF - 1. The point is certified by the residual
    test of core._small_residual, from products with B1, B2 and B3, with no
    B(lam, mu) formed per lam: y and w, or y alone without vectors, which
    takes one substitution per lam and certifies mu by y's residual. An
    entry that fails it takes its point from the full QZ at its lam instead
    (_full_qz_point).
    """
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    mu, tau = np.empty((2, lams.size), dtype=np.complex128)
    certified = np.empty(lams.size, dtype=bool)
    if vectors:
        y, w = np.empty((2, lams.size, problem.m), dtype=np.complex128)
    real = problem.is_real & (lams.imag == 0)
    for batch, at in ((real, lams.real), (~real, lams)):
        if batch.any():
            mu[batch], tau[batch], y_batch, w_batch, certified[batch] = _rank_one_batch(
                problem, at[batch], vectors)
            if vectors:
                y[batch], w[batch] = y_batch, w_batch
    finite = ~np.isnan(mu)
    failed = {
        int(i): NoFiniteEigenvalue(
            f"the rank-one pencil has no finite eigenvalue at lam={complex(lams[i])} "
            f"(v^H K^-1 u = {tau[i]:.3e})"
        )
        for i in np.flatnonzero(~finite)
    }
    full_qz = {}
    for i in np.flatnonzero(finite & ~certified):
        try:
            full_qz[i] = _full_qz_point(problem, lams[i], mu[i], 0)  # the batch reads no id
        except NoFiniteEigenvalue as exc:
            failed[int(i)] = exc
            mu[i] = np.nan
        else:
            mu[i] = full_qz[i].mu
    if not vectors:
        return mu, None, None, None, failed
    with np.errstate(invalid="ignore"):  # NaN y rows, from _rank_one_batch
        y, degen = _normalize_y(y, problem.c)
    for i, point in full_qz.items():
        y[i], w[i], degen[i] = point.y, point.w, point.c_degenerate
    y[list(failed)] = w[list(failed)] = np.nan
    return mu, y, w, degen, failed


def _rank_one_batch(problem: TwoParProblem, lams, vectors: bool = True):
    """(mu, tau, y, w, certified) of _rank_one_points at each of lams, in
    float64 for float64 lams, which only a real problem's real lams are,
    and in complex arithmetic otherwise: tau = v^H K^-1 u, mu = -1/tau
    where the pair (-1, tau) is finite and NaN elsewhere, unit y and w, and
    the residual test of each entry, core._small_residual at most
    TOL_INVERSE_RESIDUAL * scale_b, which a NaN mu fails. Without vectors
    w is None, its solve is not taken, and the test is y's alone."""
    u, v = problem.b3_rank_one
    if lams.dtype == np.float64:
        u, v = u.real, v.real
    x = problem.schur_k.solve(lams, u)
    tau = x @ v.conj()
    mu = np.divide(-1.0, tau, out=np.full(lams.size, np.nan, dtype=tau.dtype),
                   where=_linalg.finite_pair(-1.0, tau))

    def unit(s):
        # at large enough |lam| the norm of K^-1 u or K^-H v underflows to 0,
        # or lies past the float range: NaN rows there, which the residual
        # test fails, where a zero row would pass it
        ns = _linalg.vector_norms(s, 1)[:, None]
        return np.divide(s, ns, out=np.full_like(s, np.nan), where=(0 < ns) & (ns < np.inf))

    y = unit(x)
    w = unit(problem.schur_k.solve(lams, v, adjoint=True)) if vectors else None
    residual = _small_residual(problem, lams, mu, y, w)
    return mu, tau, y, w, residual <= TOL_INVERSE_RESIDUAL * problem.scale_b(lams, mu)


def _rank_one_point(problem: TwoParProblem, lam, branch_id: int) -> BranchPoint:
    """The point of branch branch_id at lam, _rank_one_points as a batch of
    one: the one builder of a rank-one problem's points. Raises its failure."""
    mu, y, w, degen, failed = _rank_one_points(problem, [lam])
    if failed:
        raise failed[0]
    return BranchPoint(lam=complex(lam), mu=complex(mu[0]), y=y[0], w=w[0],
                       branch_id=branch_id, c_degenerate=bool(degen[0]))


def _nearest_candidate(problem: TwoParProblem, prev: BranchPoint, lam_new,
                       break_conjugate_tie: bool = True):
    """(mu, vectors): the candidate at lam_new nearest the first-order
    prediction pred = mu_prev + g'(lam_prev)*(lam_new - lam_prev), with g'
    in closed form (mu_prev itself when mu_prev is not simple), and its unit
    y and w when they came with it, else None. The candidates come from the
    shift-invert operator T about pred (_linalg.shift_invert_eigvals): one
    LU of order m and one solve for T. Power iteration on T and T^H from
    prev.y and prev.w, and a lower bound on every other candidate's distance
    from two products of order m (_linalg.certified_dominant), give the
    nearest candidate alone, with its y and w from the same iterates and
    LU, and no zgeev, when the bound shows it nearer than the runner-up by
    more than TOL_AMBIGUOUS * max(1, |pred|), the rule applied below.
    Otherwise the candidates are the pencil's finite eigenvalues in geig's
    order, by zgeev of the same T, most accurate next to pred, where the
    choice is made.

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
    gap = TOL_AMBIGUOUS * max(1.0, abs(pred))
    candidates, vectors = _linalg.shift_invert_eigvals(
        -(problem.B1 + lam_new * problem.B2), problem.B3, pred, (prev.y, prev.w), gap)
    mus = candidates.tolist()
    if not mus:
        raise NoFiniteEigenvalue(
            f"no finite eigenvalue at lam={lam_new} while continuing a branch"
        )
    dists = np.array([abs(mu - pred) for mu in mus])
    order = np.argsort(dists, kind="stable")
    i0 = order[0]
    if len(mus) < 2 or dists[order[1]] - dists[i0] > gap:
        return mus[i0], vectors
    i1 = order[1]
    mu0, mu1 = mus[i0], mus[i1]
    tol = TOL_DEDUPE * max(1.0, abs(mu0), abs(mu1))
    if abs(mu0 - mu1) <= tol:
        # numerically one semisimple eigenvalue reported twice; the
        # candidates are in canonical order, so take the first copy
        return mus[min(i0, i1)], None
    if break_conjugate_tie and abs(mu0 - mu1.conjugate()) <= tol:
        h = TIE_SHIFT * abs(lam_new - prev.lam)
        above, _ = _nearest_candidate(problem, prev, lam_new + 1j * h, False)
        return min((mu0, mu1), key=lambda mu: abs(mu - above)), None
    raise AmbiguousBranch(lam_new, (mu0, mu1))


def _continue_step(problem: TwoParProblem, prev: BranchPoint, lam_new):
    """One continuation step of prev's branch to the candidate of
    _nearest_candidate. Raises AmbiguousBranch when it cannot choose,
    NoFiniteEigenvalue when the pencil has no finite eigenvalue at lam_new.

    A step the certificate of _nearest_candidate decides costs one LU of
    order m, one solve with m right-hand sides and one more with the LU, a
    few dozen matrix-vector products and two matrix products of order m,
    and its power iterates are the winner's y and w. One it refuses adds
    one zgeev of order m, and _point_at's inverse iteration from prev's y
    and w, on a second LU, gives y and w; it certifies them, or takes the
    full QZ's point, as it does for a reference point.
    """
    mu, vectors = _nearest_candidate(problem, prev, lam_new)
    return _point_at(problem, lam_new, mu, prev.branch_id, (prev.y, prev.w), vectors)


def continue_branch(problem: TwoParProblem, point: BranchPoint, lam_new) -> BranchPoint:
    """The point of point's branch at lam_new, continued from point, which is
    left unchanged; at lam_new == point.lam it is point itself.

    When B3 has rank one (problem.b3_rank_one) the point at lam_new is
    _rank_one_point's, from the problem's generalized Schur form of
    (B1, B2), with no step and no LU. Otherwise the branch is followed by
    one continuation step (_continue_step) from point to lam_new; a
    conjugate pair equally near its prediction is resolved from above, in
    the limit lam + i0 (_nearest_candidate). AmbiguousBranch is raised when
    the step cannot choose, NoFiniteEigenvalue when the pencil degenerates
    at lam_new, ValueError when lam_new is not finite.
    """
    lam_new = complex(lam_new)
    if not np.isfinite(lam_new):
        raise ValueError(f"cannot continue a branch to non-finite lam={lam_new}")
    if lam_new == point.lam:
        return point
    if problem.b3_rank_one is None:
        return _continue_step(problem, point, lam_new)
    return _rank_one_point(problem, lam_new, point.branch_id)
