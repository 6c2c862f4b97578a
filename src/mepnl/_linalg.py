"""Internal dense/sparse linear algebra helpers.

Thin wrappers around LAPACK (via scipy.linalg) and SuperLU (via
scipy.sparse.linalg) so the rest of the package never branches on the
storage format of a matrix. Every LU is a Factorization, and no other
module calls an LU routine (tests/test_api.py checks this).
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import ConvergenceFailure, ShiftIsEigenvalue

# Relative reciprocal-condition threshold below which a factorization is
# treated as singular.
RCOND_SINGULAR = 1e-14
# |beta| <= TOL_INF * (|alpha| + |beta|) classifies a pencil eigenvalue as infinite.
TOL_INF = 1e-10
# rcond of P - s*Q below this moves the shift s of shift_invert_eigvals: at a
# shift on an eigenvalue the operator's norm would swamp the finite test.
SHIFT_RCOND_FLOOR = 1e-8
# Each move adds SHIFT_MOVE times the pencil's scale ||P - s*Q||_1/||Q||_1
# along the fixed non-real direction SHIFT_DIRECTION, at most MAX_SHIFT_MOVES
# times.
SHIFT_MOVE = 1e-3
SHIFT_DIRECTION = complex(0.6, 0.8)
MAX_SHIFT_MOVES = 4
# null_vector_adjoint's target ||M^H v|| / ||M|| and its step budget.
NULL_VECTOR_TOL = 1e-8
NULL_VECTOR_MAXIT = 50


def to_complex(mat):
    """Return mat as complex128, dense ndarray or CSR, without copying if possible."""
    if sp.issparse(mat):
        return mat.tocsr().astype(np.complex128, copy=False)
    return np.asarray(mat, dtype=np.complex128)


def to_dense(mat):
    """Return mat as a dense ndarray, converting it only when it is sparse."""
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat)


def fro_norm(mat) -> float:
    if sp.issparse(mat):
        return float(np.sqrt(np.sum(np.abs(mat.data) ** 2)))
    return float(np.linalg.norm(mat, "fro"))


class Factorization:
    """LU factorization of a dense or sparse square matrix: the one LU type
    of the package, of M(lam), of the small pencil and of delta0 alike.

    Supports solves with the matrix and with its conjugate transpose from
    the single factorization. rcond is the reciprocal condition measure:
    the LAPACK 1-norm estimate (zgecon) for a dense matrix, the smallest
    over the largest |U| diagonal entry for a sparse one. It is computed
    when first read, so a factorization nobody asks about pays nothing for
    it. A refusing factorization reads it at once and raises
    ShiftIsEigenvalue when it is below RCOND_SINGULAR.

    allow_singular=True is for inverse iteration, which wants the LU of a
    matrix that is singular by design: nothing is refused, and the factors
    are those of a matrix within eps*||mat||_1 of mat. A dense LU replaces
    an exactly zero pivot, common when mat is real, by eps*||mat||_1 as in
    LAPACK's inverse iteration (zlaein); SuperLU cannot, so an exactly
    singular sparse matrix is factorized as mat + eps*||mat||_1 * I.
    """

    def __init__(self, mat, allow_singular: bool = False):
        self.shape = mat.shape
        self.sparse = sp.issparse(mat)
        if self.sparse:
            mat = mat.tocsc().astype(np.complex128, copy=False)
            try:
                self._lu = spla.splu(mat)
            except RuntimeError as exc:  # SuperLU signals exact singularity this way
                if not allow_singular:
                    raise ShiftIsEigenvalue(f"singular sparse factorization: {exc}") from exc
                floor = np.finfo(float).eps * spla.norm(mat, 1)
                self._lu = spla.splu(mat + floor * sp.identity(mat.shape[0], format="csc"))
        else:
            a = np.asarray(mat, dtype=np.complex128)
            self._norm = np.linalg.norm(a, 1) if a.size else 0.0
            lu, piv, info = lapack.zgetrf(a)
            if allow_singular:
                zero = np.flatnonzero(lu.diagonal() == 0)
                lu[zero, zero] = np.finfo(float).eps * self._norm
            elif info > 0 or self._norm == 0.0:
                raise ShiftIsEigenvalue("dense factorization hit an exactly zero pivot")
            self._lu = (lu, piv)
        if not allow_singular and self.rcond < RCOND_SINGULAR:
            raise ShiftIsEigenvalue(f"{'sparse' if self.sparse else 'dense'} factorization "
                                    f"is numerically singular (rcond={self.rcond:.2e})")

    @functools.cached_property
    def rcond(self) -> float:
        if self.sparse:
            udiag = np.abs(self._lu.U.diagonal())
            umax = udiag.max() if udiag.size else 0.0
            return float(udiag.min() / umax) if umax > 0.0 else 0.0
        return float(lapack.zgecon(self._lu[0], self._norm, norm="1")[0])

    def solve(self, b, adjoint: bool = False):
        b = np.asarray(b, dtype=np.complex128)
        if self.sparse:
            return self._lu.solve(b, trans="H" if adjoint else "N")
        x, info = lapack.zgetrs(*self._lu, b, trans=2 if adjoint else 0)
        if info != 0:
            raise ShiftIsEigenvalue(f"triangular solve failed (info={info})")
        return x


def finite_pair(alpha, beta):
    """Whether the homogeneous eigenvalue (alpha, beta) is finite, alpha/beta:
    |beta| > TOL_INF * (|alpha| + |beta|); elementwise on arrays. The one
    home of this test, for QZ's pairs in geig and for the pair (-1, tau) of
    a rank-one B3 in the pencil module."""
    return np.abs(beta) > TOL_INF * (np.abs(alpha) + np.abs(beta))


def finite_shift_invert(theta):
    """Whether each eigenvalue theta = 1/(z - s) of a shift-invert operator
    stands for a finite eigenvalue z of its pencil: |theta| > TOL_INF *
    max|theta|; elementwise. An infinite z maps to theta = 0, which rounding
    leaves at about eps*||operator||, so theta is judged relative to the
    spectrum, not to 1 as finite_pair would judge the pair (theta, 1): near
    convergence the shift is an eigenvalue to working accuracy, and the
    nearest candidate's |theta| can exceed 1/TOL_INF. On 900 random cases
    (m = 2 to 11; Q of full rank, of rank 1 to m-1, the identity, or 1e6
    times ||P||; shifts generic, on an eigenvalue and 1e-9 from one) it
    counts as many finite eigenvalues as finite_pair does on QZ's pairs
    (tests/test_pencil.py, test_shift_invert_spectrum_matches_qz)."""
    mag = np.abs(theta)
    return mag > TOL_INF * mag.max(initial=0.0)


def _canonical_order(z):
    """Indices sorting z ascending by (|z|, Re z, Im z), stable for exact
    ties: the one eigenvalue order, of geig and of its shift-invert mode."""
    return np.lexsort((z.imag, z.real, np.abs(z)))


def geig(P, Q, vectors: str = "right", shift=None):
    """The finite eigenvalues z of P v = z Q v in canonical order: ascending
    (|z|, Re z, Im z), stable for exact ties. One whose homogeneous pair
    fails finite_pair is infinite and dropped. Q=None means the standard
    problem P v = z v, whose pairs are (z, 1).

    vectors picks the eigenvectors computed with z: "right" returns
    (z, vr, n_inf) and "both" returns (z, vr, vl, n_inf). Columns of vr and
    vl are the right and left eigenvectors of z in the same order, n_inf the
    count of infinite eigenvalues. A pencil goes through LAPACK's QZ driver
    (zggev), the standard problem through its QR driver (zgeev); within one
    driver both modes give bit-equal z.

    shift=s says that P is the shift-invert operator (A - s*B)^-1 B of a
    pencil A v = z B v, with Q None (see shift_invert_eigvals): its
    eigenvalues theta, from zgeev, give z = s + 1/theta, finite by
    finite_shift_invert, and (z, n_inf) is returned in the same order.
    """
    if shift is not None:
        theta, _, _, info = lapack.zgeev(P, compute_vl=0, compute_vr=0)
        if info > 0:
            raise np.linalg.LinAlgError("zgeev did not converge")
        finite = finite_shift_invert(theta)
        z = shift + 1.0 / theta[finite]
        return z[_canonical_order(z)], int(np.sum(~finite))
    left = vectors == "both"
    P = np.asarray(P, dtype=np.complex128)
    if Q is not None:
        Q = np.asarray(Q, dtype=np.complex128)
    out = sla.eig(P, Q, left=left, right=True, homogeneous_eigvals=True)
    alpha, beta = out[0]
    finite = finite_pair(alpha, beta)
    z = alpha[finite] / beta[finite]
    order = _canonical_order(z)
    cols = np.flatnonzero(finite)[order]
    n_inf = int(np.sum(~finite))
    # scipy returns (w, vr) or (w, vl, vr)
    vr = out[-1][:, cols]
    if left:
        return z[order], vr, out[1][:, cols], n_inf
    return z[order], vr, n_inf


def shift_invert_eigvals(P, Q, shift):
    """The finite eigenvalues z and the infinite count n_inf of geig(P, Q),
    from the shift-invert spectrum about shift instead of QZ (Ericsson and Ruhe,
    Math. Comp. 1980): one LU of P - s*Q, the operator T = (P - s*Q)^-1 Q
    by one solve, and its eigenvalues by geig's shift-invert mode (zgeev).
    The spectrum is most accurate near s: an eigenvalue at distance d from
    s carries an error of about eps*||T||*d^2.

    s starts at shift. While rcond(P - s*Q) is below SHIFT_RCOND_FLOOR, as
    when shift is an eigenvalue to working accuracy, s moves by SHIFT_MOVE
    times the pencil's scale ||P - shift*Q||_1/||Q||_1 along
    SHIFT_DIRECTION, at most MAX_SHIFT_MOVES times; the last LU is used
    whatever its rcond. Each LU is a Factorization with allow_singular,
    whose rcond is read to decide the move and which never refuses.
    """
    s = shift
    fact = Factorization(P - s * Q, allow_singular=True)
    norm, qnorm = fact._norm, np.linalg.norm(Q, 1)
    for k in range(1, MAX_SHIFT_MOVES + 1):
        if qnorm == 0.0 or fact.rcond >= SHIFT_RCOND_FLOOR:
            break
        s = shift + k * SHIFT_MOVE * (norm / qnorm) * SHIFT_DIRECTION
        fact = Factorization(P - s * Q, allow_singular=True)
    return geig(fact.solve(Q), None, shift=s)


def null_vector_adjoint(fact: Factorization, norm: float, rng):
    """Approximate null vector of M^H by inverse iteration on a factorization of M.

    Returns the unit vector v once ||M^H v|| <= NULL_VECTOR_TOL * norm, where
    norm should be a norm of M. Raises ConvergenceFailure otherwise.
    """
    tol, maxit = NULL_VECTOR_TOL, NULL_VECTOR_MAXIT
    n = fact.shape[0]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    res = np.inf
    for _ in range(maxit):
        w = fact.solve(v, adjoint=True)
        nw = np.linalg.norm(w)
        v = w / nw
        res = 1.0 / nw  # exactly ||M^H v|| because the previous v was unit
        if res <= tol * norm:
            return v
    raise ConvergenceFailure(
        f"adjoint inverse iteration did not reach {tol:.1e}*||M|| in {maxit} steps "
        f"(last residual {res:.2e} vs target {tol * norm:.2e})"
    )
