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
from .errors import DimensionMismatch, NonSimpleLambda, NonSimpleMu

# Scaled thresholds below which an eigenvalue is treated as non-simple and
# conditioning is refused.
TOL_SIMPLE = 1e-12
# A misfit of _rank_one_factors at or below this makes B3 rank one; forming
# the outer product in floating point leaves about 2 eps.
TOL_RANK_ONE = 8 * np.finfo(float).eps
# |c^T y| below this times ||c|| ||y|| means the normalization functional is
# useless for that eigenvector.
TOL_C_DEGENERATE = 1e-10
# Rows of a dense M(lam) that eval_a sums at a time, so that a block's three
# passes stay in cache: at n = 700 the sum takes 2.2 ms, against 3.2 ms for
# A1 + lam*A2 + mu*A3 with its four n x n temporaries (one BLAS thread, 2 vCPUs).
DENSE_SUM_ROWS = 16


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


def _rank_one_factors(Z):
    """The package's one rank-one split, of B3 and of the oracle's
    eigenvectors: (u, vh, miss) for a stack Z of shape (K, m, n), with
    u[k] = Z[k, :, j] and vh[k] = Z[k, i, :] / Z[k, i, j] for the largest
    entry Z[k, i, j], so Z[k] ~ outer(u[k], vh[k]), and the relative misfit
    miss[k] = max|Z[k] - outer(u[k], vh[k])| / |Z[k, i, j]|, NaN for a zero
    or non-finite matrix. O(Kmn), no SVD."""
    k = np.arange(Z.shape[0])
    i, j = np.unravel_index(np.abs(Z).reshape(k.size, -1).argmax(axis=1), Z.shape[1:])
    pivot = Z[k, i, j]
    u = Z[k, :, j]
    with np.errstate(divide="ignore", invalid="ignore"):  # miss is NaN then
        vh = Z[k, i, :] / pivot[:, None]
        miss = np.abs(Z - u[:, :, None] * vh[:, None, :]).max(axis=(1, 2)) / np.abs(pivot)
    return u, vh, miss


def _c_normalizable(cy, c_norm, y_norm):
    """Whether cy = c^T y is far enough from zero, relative to ||c|| ||y||,
    for c to normalize y; elementwise on arrays. The one such test."""
    return abs(cy) > TOL_C_DEGENERATE * c_norm * y_norm


def _default_c(m) -> np.ndarray:
    """Deterministic pseudo-random unit complex c of length m, drawn from a
    fixed seed. No eigenvector is consulted: a point whose y this c cannot
    normalize is flagged c_degenerate, at the reference as at every other
    lam (pencil._normalize_y)."""
    rng = np.random.default_rng(1000003)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return c / np.linalg.norm(c)


class TwoParProblem:
    """Immutable container for the six coefficient matrices and the normalization c.

    A1, A2, A3 are n x n, dense ndarray or scipy.sparse; B1, B2, B3 are
    m x m and stored dense. The storage, and with it the LU of every
    M(lam) = A1 + lam*A2 + mu*A3, is decided once, here, from the input
    before any copy: when A1, A2 and A3 are all sparse, their
    half-bandwidths (_linalg.half_bandwidths) are within (2, 1) and their
    diagonal -2 is zero but at (n - 1, n - 3) (_linalg.tridiagonal_but_corner),
    so that every M(lam) is tridiagonal but for that corner, as the split
    Helmholtz M(lam) is, each is stored as a dia_array of its own diagonals
    (_linalg.to_diagonals), float64 when all three have exactly zero
    imaginary parts and complex128 otherwise, with no CSR copy beside it,
    and factorize_a takes the tridiagonal LU. scipy cannot add complex
    data into a float64 dia_array, so with a complex lam, p.A1 + lam*p.A2
    on such a real problem raises UFuncTypeError inside scipy: eval_a is
    the way to form M(lam) = A1 + lam*A2 + mu*A3, factorize_a the way to
    factorize it and apply_a the way to take products with it, at any lam
    and mu. Any other sparse A side, narrow or wide, is stored as complex
    CSR, for SuperLU, a dense one as complex128, and the B side is
    complex128. is_real says whether the imaginary parts of all six are
    zero. c is a complex m-vector fixing the eigenvector scaling of the
    small equation through c^T y = 1 (unconjugated transpose).
    c=None takes the fixed-seed draw of _default_c.
    reference_mus holds the finite eigenvalues of the small pencil at
    pencil.REFERENCE_LAM, read-only, from one eigenvalues-only QZ at
    construction (pencil.eigvals_at); branch ids are positions in their
    order. The problem keeps no branch point: pencil.reference_point
    builds one on each call.
    b3_rank_one is (u, v) with B3 = u v^H when B3 has rank exactly one, else
    None; the small pencil then has at most one finite eigenvalue.
    """

    def __init__(self, A1, A2, A3, B1, B2, B3, c, label="2ep"):
        A = [M if sp.issparse(M) else np.asarray(M) for M in (A1, A2, A3)]
        _check_square(A[0], "A1")
        n = A[0].shape[0]
        _check_square(A[1], "A2", n)
        _check_square(A[2], "A3", n)
        tridiagonal = False
        if all(sp.issparse(M) for M in A):
            A = [M if M.format == "dia" else M.tocsr() for M in A]
            bands = [_linalg.half_bandwidths(M) for M in A]
            kl, ku = np.max(bands, axis=0)
            tridiagonal = kl <= 2 and ku <= 1 and _linalg.tridiagonal_but_corner(A)
        if tridiagonal:
            real = not any(np.iscomplexobj(M.data) and np.any(M.data.imag) for M in A)
            dtype = np.float64 if real else np.complex128
            A = [_linalg.to_diagonals(M, *band, dtype) for M, band in zip(A, bands)]
        else:
            A = [_linalg.to_complex(M) for M in A]
        self.A1, self.A2, self.A3 = A
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
            c = _default_c(m)
        c = np.asarray(c, dtype=np.complex128).reshape(-1)
        if c.shape[0] != m:
            raise DimensionMismatch(f"c has length {c.shape[0]}, expected {m}")
        if not np.any(c):
            raise ValueError("normalization vector c must be nonzero")
        self.c = c
        self.label = str(label)
        u, vh, miss = _rank_one_factors(B3[None])
        self.b3_rank_one = (u[0], vh[0].conj()) if miss[0] <= TOL_RANK_ONE else None
        for mat in (self.A1, self.A2, self.A3, self.B1, self.B2, self.B3, self.c,
                    *(self.b3_rank_one or ())):
            if not sp.issparse(mat):
                mat.flags.writeable = False
            elif mat.format == "dia":
                mat.data.flags.writeable = mat.offsets.flags.writeable = False
            else:
                # canonical first, so that scipy never needs to sort or
                # merge the frozen arrays in place later
                mat.sum_duplicates()
                for arr in (mat.data, mat.indices, mat.indptr):
                    arr.flags.writeable = False
        self.norms_a = tuple(_linalg.norm2_bound(M) for M in (self.A1, self.A2, self.A3))
        self.norms_b = tuple(_linalg.norm2_bound(M) for M in (self.B1, self.B2, self.B3))
        from . import pencil

        self.reference_mus = pencil.eigvals_at(self, pencil.REFERENCE_LAM)
        self.reference_mus.flags.writeable = False

    @property
    def n(self) -> int:
        return self.A1.shape[0]

    @property
    def m(self) -> int:
        return self.B1.shape[0]

    @functools.cached_property
    def schur_k(self) -> _linalg.GeneralizedSchur:
        """The generalized Schur form of (B1, B2), which solves with
        K(lam) = B1 + lam*B2 at any number of lam for the rank-one branch
        (pencil._rank_one_points): one QZ per problem, on first use, the
        real QZ of their real parts when the problem is real (is_real), so
        that a real lam's solves run in float64, and the complex QZ
        otherwise. The points' residual test then takes products with B1,
        B2 and B3 (_small_residual) over the 2-norm bound scale_b, so no
        B1 + lam*B2 + mu*B3 is formed per lam either."""
        if self.is_real:
            return _linalg.GeneralizedSchur(self.B1.real, self.B2.real)
        return _linalg.GeneralizedSchur(self.B1, self.B2)

    @property
    def is_sparse(self) -> bool:
        return any(sp.issparse(M) for M in (self.A1, self.A2, self.A3))

    @functools.cached_property
    def is_real(self) -> bool:
        """Whether the imaginary parts of all six coefficient matrices are
        exactly zero: the package's one realness rule, read by eval_a and
        factorize_a, by _small_residual, by the rank-one branch (schur_k
        and pencil._rank_one_points), by the oracle (delta.solve and
        delta._refine) and by Newton (solvers._iterate_arithmetic). Decided
        once per problem, on first use, from the stored entries, which a
        float64 A side has none of; the matrices are read-only."""
        mats = (self.A1, self.A2, self.A3, self.B1, self.B2, self.B3)
        return not any(np.iscomplexobj(M) and np.any(M.imag)
                       for M in (M.data if sp.issparse(M) else M for M in mats))

    def eval_a(self, lam, mu):
        """M(lam) = A1 + lam*A2 + mu*A3, bit-equal to that expression: the
        one builder of M(lam) as a matrix, for any problem. When A1-A3 are
        stored by their diagonals (the storage decision of __init__), M is
        a dia_array of diagonals -2..1, each entry the sum
        (a1 + lam*a2) + mu*a3 of the matrices that have it
        (_linalg.DiagonalSum.add_into), so no CSR sum is formed; float64
        when the problem is real (is_real) and lam and mu have exactly zero
        imaginary parts, each entry then the real part of the complex sum,
        whose imaginary part is exactly 0 there. Any other sparse M is the
        complex CSR sum; a dense M is summed in one complex output array,
        DENSE_SUM_ROWS rows at a time. factorize_a does not form this M
        when A1-A3 are stored by their diagonals."""
        if isinstance(self.A1, sp.dia_array):
            total = self._diagonal_sum(lam, mu)
            data = np.zeros((4, self.n), dtype=total.dtype)
            total.add_into(lambda k, cols: (data[k + 2, cols], cols))
            return sp.dia_array((data, np.arange(-2, 2)), shape=(self.n, self.n))
        if self.is_sparse:
            return self.A1 + lam * self.A2 + mu * self.A3
        out = np.empty_like(self.A1)
        for start in range(0, self.n, DENSE_SUM_ROWS):
            rows = slice(start, start + DENSE_SUM_ROWS)
            block = out[rows]
            np.multiply(lam, self.A2[rows], out=block)
            np.add(self.A1[rows], block, out=block)
            block += np.multiply(mu, self.A3[rows])
        return out

    def _diagonal_sum(self, lam, mu) -> _linalg.DiagonalSum:
        """M(lam) unsummed, of a problem that stores A1-A3 by their
        diagonals: float64 when the problem is real and lam and mu have
        exactly zero imaginary parts, complex128 otherwise."""
        real = self.is_real and np.imag(lam) == 0 and np.imag(mu) == 0
        if real:
            lam, mu = np.real(lam), np.real(mu)
        return _linalg.DiagonalSum((self.A1, self.A2, self.A3), (None, lam, mu),
                                   np.float64 if real else np.complex128)

    def factorize_a(self, lam, mu) -> _linalg.Factorization:
        """The LU of M(lam) = A1 + lam*A2 + mu*A3 (_linalg.Factorization),
        of NepView.factorization and attach_left_vectors alike. When A1-A3
        are stored by their diagonals, every M(lam) is tridiagonal but for
        entry (n - 1, n - 3), and no M is formed: the tridiagonal LU sums
        each entry, in eval_a's order and with eval_a's float64 rule,
        straight into its three diagonals and that corner. Any other M is
        eval_a's, which SuperLU factorizes when it is sparse."""
        if isinstance(self.A1, sp.dia_array):
            return _linalg.Factorization(self._diagonal_sum(lam, mu))
        return _linalg.Factorization(self.eval_a(lam, mu))

    def eval_b(self, lam, mu):
        return self.B1 + lam * self.B2 + mu * self.B3

    def products_a(self, x):
        """(A1 @ x, A2 @ x, A3 @ x), each by _linalg.split_product, so a
        float64 A_i times a complex x is taken in float64, with no complex
        copy of A_i: Newton's and resinv's products."""
        return tuple(_linalg.split_product(M, x) for M in (self.A1, self.A2, self.A3))

    def apply_a(self, lam, mu, x):
        """(A1 + lam*A2 + mu*A3) x by three products (_linalg.split_product),
        without forming the sum, each product freed once it is added."""
        product = _linalg.split_product
        return product(self.A1, x) + lam * product(self.A2, x) + mu * product(self.A3, x)

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
    # one vector's norm is numpy's whole-vector norm, which rounds apart
    # from the row-wise reduction in about a third of cases
    axis = None if np.ndim(x) == 1 else -1
    ra = _linalg.vector_norms(ax, axis)
    ra /= problem.scale_a(lam, mu) * np.linalg.norm(x, axis=axis)
    rb = _small_residual(problem, lam, mu, y)
    rb /= problem.scale_b(lam, mu) * np.linalg.norm(y, axis=axis)
    return ra, rb


def _small_residual(problem: TwoParProblem, lam, mu, y, w=None):
    """||B y||, or given w the larger of ||B y|| and ||w^H B||, unscaled, for
    B = B1 + lam*B2 + mu*B3: the small equation's one residual routine, of
    res_b and of every branch point's residual test (pencil._point_at, as a
    batch of one, and pencil._rank_one_batch). Row by row for arrays lam
    and mu and the rows of a 2-D y and w, from three products with B1, B2
    and B3 for all rows at once, so no B is formed; one vector's is its
    whole-vector norm. A real problem (is_real) takes them with the real
    parts of B1, B2 and B3 when lam, mu, y and w are all float64."""
    mats = (problem.B1, problem.B2, problem.B3)
    if problem.is_real and not any(map(np.iscomplexobj, (lam, mu, y, w))):
        mats = tuple(np.ascontiguousarray(M.real) for M in mats)
    B1, B2, B3 = mats
    axis = None if np.ndim(y) == 1 else 0
    yt = y.T  # the columns of B @ yt are B y, row by row
    residual = _linalg.vector_norms(B1 @ yt + lam * (B2 @ yt) + mu * (B3 @ yt), axis)
    if w is not None:
        wh = w.conj()  # the rows of wh @ B are w^H B, with no copy of B
        if axis is not None:
            lam, mu, axis = np.reshape(lam, (-1, 1)), np.reshape(mu, (-1, 1)), 1
        bhw = wh @ B1 + lam * (wh @ B2) + mu * (wh @ B3)
        residual = np.maximum(residual, _linalg.vector_norms(bhw, axis))
    return residual


@dataclasses.dataclass
class Weights:
    """Perturbation weights: alphas for A1..A3, betas for B1..B3, gamma for lam."""

    alphas: tuple
    betas: tuple
    gamma: float = 1.0

    @classmethod
    def relative(cls, problem: TwoParProblem, lam) -> "Weights":
        """Norm-based weights at lam: gamma = |lam|."""
        return cls(problem.norms_a, problem.norms_b, float(abs(lam)))


@dataclasses.dataclass
class ConditionReport:
    """Condition numbers of a simple quadruplet under weighted perturbations
    (condition_numbers), without the weights, which the caller has."""

    kappa_a: float
    kappa_g_b: float
    kappa_g_lambda: float
    kappa_total: float
    det_c0: complex
    backward_lambda_bound: float
    theta2_absolute: float
    theta2_relative: float


def _with_left(problem: TwoParProblem, quad: Quadruplet) -> Quadruplet:
    """quad when it carries both left vectors, else attach_left_vectors's
    copy: the conditioning routines' one way to get v and w."""
    if quad.v is None or quad.w is None:
        return attach_left_vectors(problem, quad)
    return quad


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
    va2x = v.conj() @ _linalg.split_product(problem.A2, x)
    va3x = v.conj() @ _linalg.split_product(problem.A3, x)
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
    a critical point of the coupled problem. A quadruplet without v or w
    has both attached first (attach_left_vectors).
    """
    quad = _with_left(problem, quad)
    v, w, x, y = quad.v, quad.w, quad.x, quad.y
    return np.array(
        [
            [v.conj() @ _linalg.split_product(problem.A2, x),
             v.conj() @ _linalg.split_product(problem.A3, x)],
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
    A quadruplet without v or w has both attached first
    (attach_left_vectors), once per call.
    """
    quad = _with_left(problem, quad)
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
    condition_numbers, and so does the attaching of missing left vectors,
    once per call. Returns (perturbed TwoParProblem, predicted |d lam|),
    the prediction being eps * kappa_total of condition_numbers.
    Weights((0, 0, 0), (beta1, 0, beta3)) gives the perturbation of a
    backward-stable small solve; its prediction is eps *
    backward_lambda_bound of condition_numbers under weights with the same
    beta1 and beta3.
    """
    quad = _with_left(problem, quad)
    if weights is None:
        weights = Weights.relative(problem, quad.lam)
    a1, a2, a3 = weights.alphas
    b1, b2, b3 = weights.betas
    lam, mu = quad.lam, quad.mu
    _, va3x, _, wb3y, _ = _bilinears(problem, quad)
    psi = _phase(va3x / wb3y).conjugate()

    def perturbed(mats, side_weights, coefs, left, right):
        if not any(side_weights):
            return mats
        hat = np.outer(left, right.conj()) / (np.linalg.norm(left) * np.linalg.norm(right))
        return [_linalg.to_dense(mat) + coef * hat for mat, coef in zip(mats, coefs)]

    As = perturbed((problem.A1, problem.A2, problem.A3), weights.alphas, (
        -eps * a1, -eps * a2 * _phase(lam).conjugate(),
        -eps * a3 * _phase(mu).conjugate()), quad.v, quad.x)
    Bs = perturbed((problem.B1, problem.B2, problem.B3), weights.betas, (
        eps * b1 * psi, eps * b2 * _phase(lam).conjugate() * psi,
        eps * b3 * _phase(mu).conjugate() * psi), quad.w, quad.y)
    pert = TwoParProblem(*As, *Bs, problem.c, label=problem.label + ":perturbed")
    return pert, eps * condition_numbers(problem, quad, weights).kappa_total


def attach_left_vectors(problem: TwoParProblem, quad: Quadruplet) -> Quadruplet:
    """Return a copy of the quadruplet with left vectors v and w filled in,
    each by adjoint inverse iteration (_linalg.null_vector_adjoint) on an LU
    at the quadruplet's (lam, mu): v of A1 + lam*A2 + mu*A3, from
    TwoParProblem.factorize_a, which forms no M for a problem stored by its
    diagonals, to
    NULL_VECTOR_TOL times scale_a, started from the quadruplet's own x, and
    w of B1 + lam*B2 + mu*B3 times scale_b, started from its own y, the
    classical start of inverse iteration (Ipsen, SIAM Review 1997). So v
    and w are a function of the quadruplet, found with no branch tracking
    and no eigensolver. Both matrices are singular at a solution by design,
    so their LUs are floored rather than refused; a lam, or a mu at lam,
    that is not an eigenvalue raises ConvergenceFailure.
    """
    lam, mu = quad.lam, quad.mu
    v = _linalg.null_vector_adjoint(problem.factorize_a(lam, mu),
                                    problem.scale_a(lam, mu), quad.x)
    w = _linalg.null_vector_adjoint(_linalg.Factorization(problem.eval_b(lam, mu)),
                                    problem.scale_b(lam, mu), quad.y)
    return dataclasses.replace(quad, v=v, w=w)
