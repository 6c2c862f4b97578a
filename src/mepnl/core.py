"""Problem container, residuals, and eigenvalue conditioning.

A two-parameter problem couples a large equation
``(A1 + lam*A2 + mu*A3) x = 0`` of order n with a small equation
``(B1 + lam*B2 + mu*B3) y = 0`` of order m, m << n. Solutions are
quadruplets (lam, x, mu, y). The small equation defines mu implicitly as a
function of lam (a branch), which turns the large equation into a nonlinear
eigenvalue problem in lam alone; see the pencil and nep modules.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np
import scipy.sparse as sp

from . import _linalg
from .errors import (
    DimensionMismatch,
    MissingLeftVectors,
    NonSimpleLambda,
    NonSimpleMu,
)

# Scaled thresholds below which an eigenvalue is treated as non-simple and
# conditioning is refused.
TOL_SIMPLE = 1e-12
# max|B3 - u v^H| at or below this times the largest |B3| entry makes B3 rank
# one; forming np.outer(u, v.conj()) in floating point leaves about 2 eps.
TOL_RANK_ONE = 8 * np.finfo(float).eps
# |c^T y| below this times ||c|| ||y|| means the normalization functional is
# useless for that eigenvector.
TOL_C_DEGENERATE = 1e-10
# Seeded draws of a default normalization vector c tried before giving up.
MAX_C_DRAWS = 16


def _weighted(weights, lam, mu) -> float:
    """weights[0] + |lam| weights[1] + |mu| weights[2]: the scale of a
    coefficient triple at (lam, mu), for norms and perturbation weights
    alike. The one home of this sum."""
    return weights[0] + abs(lam) * weights[1] + abs(mu) * weights[2]


def _check_square(mat, name, order=None):
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {mat.shape}")
    if order is not None and mat.shape[0] != order:
        raise DimensionMismatch(f"{name} has order {mat.shape[0]}, expected {order}")
    return mat


def _rank_one_factors(B3):
    """(u, v) with B3 = u v^H to within TOL_RANK_ONE, or None when B3 is zero
    or of rank two or more. Pivots on the largest entry B3[i, j]: u = B3[:, j]
    and v^H = B3[i, :] / B3[i, j]. O(m^2), no SVD."""
    i, j = np.unravel_index(np.argmax(np.abs(B3)), B3.shape)
    pivot = B3[i, j]
    if pivot == 0:
        return None
    u, vh = B3[:, j].copy(), B3[i, :] / pivot
    if not np.max(np.abs(B3 - np.outer(u, vh))) <= TOL_RANK_ONE * abs(pivot):
        return None  # rank two or more, or not finite
    return u, vh.conj()


def _c_normalizable(cy, c_norm, y_norm):
    """Whether cy = c^T y is far enough from zero, relative to ||c|| ||y||,
    for c to normalize y; elementwise on arrays. The one such test."""
    return abs(cy) > TOL_C_DEGENERATE * c_norm * y_norm


def _default_c(ys) -> np.ndarray:
    """Deterministic pseudo-random unit complex c: drawn from a fixed seed and
    re-drawn (next seed) while it cannot normalize some column of ys, the
    finite eigenvectors at the reference point."""
    m = ys.shape[0]
    y_norms = np.linalg.norm(ys, axis=0)
    for attempt in range(MAX_C_DRAWS):
        rng = np.random.default_rng(1000003 + attempt)
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        c /= np.linalg.norm(c)
        if np.all(_c_normalizable(c @ ys, np.linalg.norm(c), y_norms)):
            return c
    raise ValueError(
        "no normalization vector found after re-draws; pencil may be degenerate"
    )


class TwoParProblem:
    """Immutable container for the six coefficient matrices and the normalization c.

    A1, A2, A3 are n x n (dense ndarray or scipy.sparse, stored as CSR);
    B1, B2, B3 are m x m dense; c is a complex m-vector fixing the eigenvector
    scaling of the small equation through c^T y = 1 (unconjugated transpose).
    c=None draws one that can normalize every finite eigenvector at
    pencil.REFERENCE_LAM (_default_c), from the full QZ there that
    reference_points then reuses.
    b3_rank_one is (u, v) with B3 = u v^H when B3 has rank exactly one, else
    None; the small pencil then has at most one finite eigenvalue.
    """

    def __init__(self, A1, A2, A3, B1, B2, B3, c, label="2ep"):
        self.A1 = _linalg.to_complex(A1)
        self.A2 = _linalg.to_complex(A2)
        self.A3 = _linalg.to_complex(A3)
        _check_square(self.A1, "A1")
        n = self.A1.shape[0]
        _check_square(self.A2, "A2", n)
        _check_square(self.A3, "A3", n)
        B1, B2, B3 = (
            _linalg.to_dense(M).astype(np.complex128)
            for M in (B1, B2, B3)
        )
        _check_square(B1, "B1")
        m = B1.shape[0]
        _check_square(B2, "B2", m)
        _check_square(B3, "B3", m)
        self.B1, self.B2, self.B3 = B1, B2, B3
        if c is None:
            c = _default_c(self._reference_spectrum[1])
        c = np.asarray(c, dtype=np.complex128).reshape(-1)
        if c.shape[0] != m:
            raise DimensionMismatch(f"c has length {c.shape[0]}, expected {m}")
        if not np.any(c):
            raise ValueError("normalization vector c must be nonzero")
        self.c = c
        self.label = str(label)
        self.b3_rank_one = _rank_one_factors(B3)
        for mat in (self.A1, self.A2, self.A3, self.B1, self.B2, self.B3, self.c,
                    *(self.b3_rank_one or ())):
            if not sp.issparse(mat):
                mat.flags.writeable = False
                continue
            # canonical first, so that scipy never needs to sort or merge
            # the frozen arrays in place later
            mat.sum_duplicates()
            for arr in (mat.data, mat.indices, mat.indptr):
                arr.flags.writeable = False
        self.norms_a = tuple(_linalg.norm2_bound(M) for M in (self.A1, self.A2, self.A3))
        self.norms_b = tuple(_linalg.norm2_bound(M) for M in (self.B1, self.B2, self.B3))

    @property
    def n(self) -> int:
        return self.A1.shape[0]

    @property
    def m(self) -> int:
        return self.B1.shape[0]

    @functools.cached_property
    def _reference_spectrum(self) -> tuple:
        """(mu, y, w) of the small pencil at pencil.REFERENCE_LAM: the
        problem's one full QZ there, on first use or when c is drawn."""
        from . import pencil

        return pencil._raw_eigenpairs(self.B1, self.B2, self.B3, pencil.REFERENCE_LAM)

    @functools.cached_property
    def reference_points(self) -> tuple:
        """The small pencil's eigenpairs at pencil.REFERENCE_LAM, which fix
        branch ids: the points of eigenpairs_at there, built on first use
        from the reference spectrum, with read-only y and w."""
        from . import pencil

        points = tuple(pencil._branch_points(self, pencil.REFERENCE_LAM,
                                             self._reference_spectrum))
        for point in points:
            point.y.flags.writeable = False
            point.w.flags.writeable = False
        return points

    @functools.cached_property
    def schur_k(self) -> _linalg.GeneralizedSchur:
        """The generalized Schur form of (B1, B2), which solves with
        K(lam) = B1 + lam*B2 at any number of lam for the rank-one branch
        (pencil._rank_one_points): one complex QZ per problem, on first use.
        The points' residual test then takes products with B1, B2 and B3
        over the 2-norm bound scale_b (pencil._null_vectors_pass), so no
        B1 + lam*B2 + mu*B3 is formed per lam either."""
        return _linalg.GeneralizedSchur(self.B1, self.B2)

    @property
    def is_sparse(self) -> bool:
        return any(sp.issparse(M) for M in (self.A1, self.A2, self.A3))

    def eval_a(self, lam, mu):
        """A1 + lam*A2 + mu*A3, sparse if the inputs are sparse; for factorizing."""
        return self.A1 + lam * self.A2 + mu * self.A3

    def eval_b(self, lam, mu):
        return self.B1 + lam * self.B2 + mu * self.B3

    def apply_a(self, lam, mu, x):
        """(A1 + lam*A2 + mu*A3) x by three matvecs, without forming the sum."""
        return self.A1 @ x + lam * (self.A2 @ x) + mu * (self.A3 @ x)

    def apply_b(self, lam, mu, y):
        return self.B1 @ y + lam * (self.B2 @ y) + mu * (self.B3 @ y)

    def scale_a(self, lam, mu) -> float:
        """||A1|| + |lam| ||A2|| + |mu| ||A3||, each norm the 2-norm bound of
        _linalg.norm2_bound (norms_a; scale_b takes norms_b): the backward
        error's scale (Tisseur, LAA 2000), elementwise for arrays lam, mu."""
        return _weighted(self.norms_a, lam, mu)

    def scale_b(self, lam, mu) -> float:
        return _weighted(self.norms_b, lam, mu)

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"TwoParProblem(label={self.label!r}, n={self.n} [{kind}], m={self.m})"


@dataclasses.dataclass
class ResidualRecord:
    """Relative residual norms of the two equations at a quadruplet."""

    res_a: float
    res_b: float


@dataclasses.dataclass
class Quadruplet:
    """One solution (lam, x, mu, y), optionally with left vectors v, w.

    y carries c^T y = 1 when that normalization is feasible (c_normalized
    True); otherwise y is unit and c_normalized is False. v is a left null
    vector of A1 + lam*A2 + mu*A3, w one of B1 + lam*B2 + mu*B3.
    """

    lam: complex
    mu: complex
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray | None = None
    w: np.ndarray | None = None
    residuals: ResidualRecord | None = None
    c_normalized: bool = True


def residuals(problem: TwoParProblem, quad: Quadruplet, ax=None) -> ResidualRecord:
    """Relative residuals of both equations at the quadruplet.

    res_a = ||(A1 + lam A2 + mu A3) x|| / (scale_a(lam, mu) ||x||) and
    analogously for the small equation; 2-norm bounds in the scales. ax is
    the product (A1 + lam A2 + mu A3) x when the caller has already formed it.
    """
    ra, rb = _residual_norms(problem, quad.lam, quad.mu, quad.x, quad.y, ax)
    return ResidualRecord(float(ra), float(rb))


def _residual_norms(problem: TwoParProblem, lam, mu, x, y, ax=None) -> tuple:
    """(res_a, res_b) of residuals, for a caller that only tests them; row by
    row, as arrays, for arrays lam and mu and the rows of a 2-D x, y and ax."""
    if ax is None:
        ax = problem.apply_a(lam, mu, x.T).T
    by = problem.apply_b(lam, mu, y.T).T
    # one vector's norm is numpy's whole-vector norm, which rounds apart
    # from the row-wise reduction in about a third of cases
    axis = None if np.ndim(x) == 1 else -1
    ra = np.linalg.norm(ax, axis=axis)
    ra /= problem.scale_a(lam, mu) * np.linalg.norm(x, axis=axis)
    rb = np.linalg.norm(by, axis=axis)
    rb /= problem.scale_b(lam, mu) * np.linalg.norm(y, axis=axis)
    return ra, rb


@dataclasses.dataclass
class Weights:
    """Perturbation weights: alphas for A1..A3, betas for B1..B3, gamma for lam."""

    alphas: tuple
    betas: tuple
    gamma: float = 1.0

    @classmethod
    def relative(cls, problem: TwoParProblem, lam=None) -> "Weights":
        """Norm-based weights; gamma = |lam| when lam is given, else 1."""
        gamma = abs(lam) if lam is not None else 1.0
        return cls(problem.norms_a, problem.norms_b, float(gamma))


@dataclasses.dataclass
class ConditionReport:
    """Condition numbers of a simple quadruplet under weighted perturbations."""

    kappa_a: float
    kappa_g_b: float
    kappa_g_lambda: float
    kappa_total: float
    det_c0: complex
    backward_lambda_bound: float
    weights: Weights
    theta2_absolute: float
    theta2_relative: float


def _require_left(quad: Quadruplet):
    if quad.v is None or quad.w is None:
        raise MissingLeftVectors(
            "quadruplet lacks left vectors; fill them with core.attach_left_vectors"
        )


def _branch_slope(problem, w, y):
    """(g', w^H B2 y, w^H B3 y) for the eigenpair (w, y) of a simple mu, with
    g' = -(w^H B2 y)/(w^H B3 y) the classical derivative of a simple
    eigenvalue (Lancaster, Numer. Math. 1964). The one home of this closed
    form and of its simplicity test, which raises NonSimpleMu."""
    wb2y = w.conj() @ (problem.B2 @ y)
    wb3y = w.conj() @ (problem.B3 @ y)
    nw, ny = np.linalg.norm(w), np.linalg.norm(y)
    if abs(wb3y) <= TOL_SIMPLE * nw * problem.norms_b[2] * ny:
        raise NonSimpleMu(
            f"|w^H B3 y| = {abs(wb3y):.2e} is below the simplicity threshold; "
            "mu is (numerically) not simple"
        )
    return -wb2y / wb3y, wb2y, wb3y


def _bilinears(problem, quad):
    """The six scalar pairings that drive conditioning, plus simplicity guards."""
    v, x = quad.v, quad.x
    va2x = v.conj() @ (problem.A2 @ x)
    va3x = v.conj() @ (problem.A3 @ x)
    gprime, wb2y, wb3y = _branch_slope(problem, quad.w, quad.y)
    # v^H M'(lam) x with M'(lam) = A2 + g'(lam) A3
    vmpx = va2x + gprime * va3x
    nv, nx = np.linalg.norm(v), np.linalg.norm(x)
    mp_scale = problem.norms_a[1] + abs(gprime) * problem.norms_a[2]
    if abs(vmpx) <= TOL_SIMPLE * nv * mp_scale * nx:
        raise NonSimpleLambda(
            f"|v^H M'(lam) x| = {abs(vmpx):.2e} is below the simplicity threshold; "
            "lam is (numerically) not simple"
        )
    return va2x, va3x, wb2y, wb3y, vmpx


def c0_matrix(problem: TwoParProblem, quad: Quadruplet) -> np.ndarray:
    """The 2x2 coupling matrix [[v^H A2 x, v^H A3 x], [w^H B2 y, w^H B3 y]].

    Its determinant equals (w^H B3 y)(v^H M'(lam) x); a zero determinant marks
    a critical point of the coupled problem.
    """
    _require_left(quad)
    v, w, x, y = quad.v, quad.w, quad.x, quad.y
    return np.array(
        [
            [v.conj() @ (problem.A2 @ x), v.conj() @ (problem.A3 @ x)],
            [w.conj() @ (problem.B2 @ y), w.conj() @ (problem.B3 @ y)],
        ],
        dtype=np.complex128,
    )


def condition_numbers(problem: TwoParProblem, quad: Quadruplet,
                      weights: Weights | None = None) -> ConditionReport:
    """Eigenvalue condition numbers of a simple quadruplet.

    kappa_a measures the sensitivity of lam to perturbations of A1..A3 alone,
    kappa_g_b the sensitivity of the branch value mu = g(lam) to perturbations
    of B1..B3, kappa_g_lambda the sensitivity of g to lam itself, and
    kappa_total combines the A- and B-channels into the full first-order
    bound |d lam| <= eps * kappa_total for perturbations of size eps in the
    given weights. Defaults to relative (norm-based) weights with gamma=|lam|.
    """
    _require_left(quad)
    if weights is None:
        weights = Weights.relative(problem, quad.lam)
    b1, _, b3 = weights.betas
    lam, mu = quad.lam, quad.mu
    va2x, va3x, wb2y, wb3y, vmpx = _bilinears(problem, quad)
    nv, nx = np.linalg.norm(quad.v), np.linalg.norm(quad.x)
    nw, ny = np.linalg.norm(quad.w), np.linalg.norm(quad.y)

    kappa_a = nv * nx * _weighted(weights.alphas, lam, mu) / abs(vmpx)
    kappa_g_b = nw * ny * _weighted(weights.betas, lam, mu) / abs(wb3y)
    kappa_g_lambda = weights.gamma * abs(wb2y) / abs(wb3y)
    kappa_total = kappa_a + kappa_g_b * abs(va3x) / abs(vmpx)
    det_c0 = va2x * wb3y - va3x * wb2y
    backward = (nw * ny * _weighted((b1, 0.0, b3), lam, mu) / abs(wb3y)
                * abs(va3x) / abs(vmpx))
    return ConditionReport(
        kappa_a=float(kappa_a),
        kappa_g_b=float(kappa_g_b),
        kappa_g_lambda=float(kappa_g_lambda),
        kappa_total=float(kappa_total),
        det_c0=complex(det_c0),
        backward_lambda_bound=float(backward),
        weights=weights,
        theta2_absolute=float(_weighted((1.0, 1.0, 1.0), lam, mu)),
        theta2_relative=float(problem.scale_b(lam, mu)),
    )


def _phase(z) -> complex:
    return z / abs(z) if z != 0 else 1.0 + 0j


def worst_case_perturbation(problem: TwoParProblem, quad: Quadruplet,
                            weights: Weights | None, eps: float):
    """Rank-one perturbation of all six matrices attaining eps * kappa_total.

    Directions are v x^H / (||v|| ||x||) on the A side and w y^H / (||w|| ||y||)
    on the B side, with per-matrix phases conj(lam)/|lam| and conj(mu)/|mu|
    and one extra phase aligning the B-channel shift with the A-channel one
    so the two first-order contributions to d lam add up instead of partially
    cancelling. A side (A or B) whose weights are all zero is passed through
    as it is, so a sparse problem stays sparse under backward weights; a
    side with a nonzero weight becomes dense. Weights default as in
    condition_numbers. Returns (perturbed TwoParProblem, predicted |d lam|).
    Weights((0, 0, 0), (beta1, 0, beta3)) gives the perturbation of a
    backward-stable small solve; its prediction is eps *
    backward_lambda_bound of condition_numbers under weights with the same
    beta1 and beta3.
    """
    _require_left(quad)
    if weights is None:
        weights = Weights.relative(problem, quad.lam)
    a1, a2, a3 = weights.alphas
    b1, b2, b3 = weights.betas
    lam, mu = quad.lam, quad.mu
    v, w, x, y = quad.v, quad.w, quad.x, quad.y
    _, va3x, _, wb3y, vmpx = _bilinears(problem, quad)
    rho = va3x / wb3y
    psi = _phase(rho).conjugate()

    def perturbed(mats, side_weights, coefs, left, right):
        if not any(side_weights):
            return mats
        hat = np.outer(left, right.conj()) / (np.linalg.norm(left) * np.linalg.norm(right))
        return [_linalg.to_dense(mat) + coef * hat for mat, coef in zip(mats, coefs)]

    As = perturbed((problem.A1, problem.A2, problem.A3), weights.alphas, (
        -eps * a1, -eps * a2 * _phase(lam).conjugate(),
        -eps * a3 * _phase(mu).conjugate()), v, x)
    Bs = perturbed((problem.B1, problem.B2, problem.B3), weights.betas, (
        eps * b1 * psi, eps * b2 * _phase(lam).conjugate() * psi,
        eps * b3 * _phase(mu).conjugate() * psi), w, y)
    sa = _weighted(weights.alphas, lam, mu)
    sb = _weighted(weights.betas, lam, mu)
    nv, nx = np.linalg.norm(v), np.linalg.norm(x)
    nw, ny = np.linalg.norm(w), np.linalg.norm(y)
    predicted = eps * (nv * nx * sa + nw * ny * sb * abs(rho)) / abs(vmpx)
    pert = TwoParProblem(*As, *Bs, problem.c, label=problem.label + ":perturbed")
    return pert, float(predicted)


def attach_left_vectors(problem: TwoParProblem, quad: Quadruplet,
                        seed: int = 0) -> Quadruplet:
    """Return a copy of the quadruplet with left vectors v and w filled in.

    v comes from adjoint inverse iteration to _linalg.NULL_VECTOR_TOL on
    A1 + lam*A2 + mu*A3 (mu taken from the quadruplet, no branch tracking
    needed), which is singular at the solution by design; its LU, dense or
    sparse, is floored rather than refused (_linalg.Factorization). w is
    the left eigenvector of the small pencil at lam nearest mu, from the
    full QZ (pencil._full_qz_point).
    """
    from . import pencil

    rng = np.random.default_rng(seed)
    norm = problem.scale_a(quad.lam, quad.mu)
    fact = _linalg.Factorization(problem.eval_a(quad.lam, quad.mu))
    v = _linalg.null_vector_adjoint(fact, norm, rng)
    w = pencil._full_qz_point(problem, quad.lam, quad.mu).w
    return dataclasses.replace(quad, v=v, w=w)
