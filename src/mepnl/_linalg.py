"""Internal dense/sparse linear algebra helpers.

Thin wrappers around LAPACK (via scipy.linalg) and SuperLU (via
scipy.sparse.linalg) so the rest of the package never branches on the
storage format of a matrix.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import ShiftIsEigenvalue

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


def pivot_floor_lu(B):
    """(lu, piv, ||B||_1): LAPACK's LU of the dense B, with an exactly zero
    pivot, common when B is real, replaced by eps*||B||_1 as in LAPACK's
    inverse iteration (zlaein). For matrices that may be singular to working
    precision by design, as at an eigenvalue, where Factorization would
    refuse."""
    B = np.asarray(B, dtype=np.complex128)
    norm = np.linalg.norm(B, 1)
    lu, piv, _ = lapack.zgetrf(B)
    zero = np.flatnonzero(lu.diagonal() == 0)
    lu[zero, zero] = np.finfo(float).eps * norm
    return lu, piv, norm


class Factorization:
    """LU factorization of a dense or sparse square matrix.

    Supports solves with the matrix and with its conjugate transpose from
    the single factorization. rcond is the reciprocal condition measure:
    the LAPACK 1-norm estimate for a dense matrix, the smallest over the
    largest |U| diagonal entry for a sparse one. Raises ShiftIsEigenvalue
    when it is below RCOND_SINGULAR.

    allow_singular=True is for inverse iteration, which wants the LU of a
    matrix that is singular by design: nothing is refused, and the factors
    are those of a matrix within eps*||mat||_1 of mat. A dense LU floors an
    exactly zero pivot (pivot_floor_lu); SuperLU cannot, so an exactly
    singular sparse matrix is factorized as mat + eps*||mat||_1 * I.
    """

    def __init__(self, mat, allow_singular: bool = False):
        self.shape = mat.shape
        if sp.issparse(mat):
            self.sparse = True
            mat = mat.tocsc().astype(np.complex128, copy=False)
            try:
                self._lu = spla.splu(mat)
            except RuntimeError as exc:  # SuperLU signals exact singularity this way
                if not allow_singular:
                    raise ShiftIsEigenvalue(f"singular sparse factorization: {exc}") from exc
                floor = np.finfo(float).eps * spla.norm(mat, 1)
                self._lu = spla.splu(mat + floor * sp.identity(mat.shape[0], format="csc"))
            udiag = np.abs(self._lu.U.diagonal())
            umax = udiag.max() if udiag.size else 0.0
            self.rcond = float(udiag.min() / umax) if umax > 0.0 else 0.0
            if self.rcond < RCOND_SINGULAR and not allow_singular:
                raise ShiftIsEigenvalue(
                    "sparse factorization is numerically singular "
                    f"(U-diagonal ratio {udiag.min():.2e}/{udiag.max():.2e})"
                )
        else:
            self.sparse = False
            a = np.asarray(mat, dtype=np.complex128, order="F")
            if allow_singular:
                lu, piv, anorm = pivot_floor_lu(a)
            else:
                anorm = np.linalg.norm(a, 1) if a.size else 0.0
                lu, piv, info = lapack.zgetrf(a)
                if info > 0 or anorm == 0.0:
                    raise ShiftIsEigenvalue("dense factorization hit an exactly zero pivot")
            rc, _ = lapack.zgecon(lu, anorm, norm="1")
            self.rcond = float(rc)
            if self.rcond < RCOND_SINGULAR and not allow_singular:
                raise ShiftIsEigenvalue(
                    f"dense factorization is numerically singular (rcond={rc:.2e})"
                )
            self._lu = (lu, piv)

    def solve(self, b, adjoint: bool = False):
        b = np.asarray(b, dtype=np.complex128)
        if self.sparse:
            return self._lu.solve(b, trans="H" if adjoint else "N")
        lu, piv = self._lu
        x, info = lapack.zgetrs(lu, piv, b.reshape(self.shape[0], -1), trans=2 if adjoint else 0)
        if info != 0:
            raise ShiftIsEigenvalue(f"triangular solve failed (info={info})")
        return x.reshape(b.shape)


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

    vectors picks what the eigensolver computes besides the eigenvalues:
    "right" returns (z, vr, n_inf), "both" returns (z, vr, vl, n_inf) and
    "none" returns (z, n_inf). Columns of vr and vl are the right and left
    eigenvectors of z in the same order, n_inf the count of infinite
    eigenvalues. A pencil goes through LAPACK's QZ driver (zggev), the
    standard problem through its QR driver (zgeev); within one driver all
    modes give bit-equal z.

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
    left, right = vectors == "both", vectors != "none"
    P = np.asarray(P, dtype=np.complex128)
    if Q is not None:
        Q = np.asarray(Q, dtype=np.complex128)
    out = sla.eig(P, Q, left=left, right=right, homogeneous_eigvals=True)
    alpha, beta = out[0] if right else out
    finite = finite_pair(alpha, beta)
    z = alpha[finite] / beta[finite]
    order = _canonical_order(z)
    cols = np.flatnonzero(finite)[order]
    n_inf = int(np.sum(~finite))
    if not right:
        return z[order], n_inf
    # scipy returns (w, vr) or (w, vl, vr)
    vr = out[-1][:, cols]
    if left:
        return z[order], vr, out[1][:, cols], n_inf
    return z[order], vr, n_inf


def shift_invert_eigvals(P, Q, shift):
    """(z, n_inf) as geig(P, Q, vectors="none") gives them, from the
    shift-invert spectrum about shift instead of QZ (Ericsson and Ruhe,
    Math. Comp. 1980): one LU of P - s*Q, the operator T = (P - s*Q)^-1 Q
    by one solve, and its eigenvalues by geig's shift-invert mode (zgeev).
    The spectrum is most accurate near s: an eigenvalue at distance d from
    s carries an error of about eps*||T||*d^2.

    s starts at shift. While rcond(P - s*Q) is below SHIFT_RCOND_FLOOR, as
    when shift is an eigenvalue to working accuracy, s moves by SHIFT_MOVE
    times the pencil's scale ||P - shift*Q||_1/||Q||_1 along
    SHIFT_DIRECTION, at most MAX_SHIFT_MOVES times; the last LU is used
    whatever its rcond. The LU is a raw LAPACK one (pivot_floor_lu), not a
    Factorization, whose refusal would fire.
    """
    s = shift
    lu, piv, norm = pivot_floor_lu(P - s * Q)
    qnorm = np.linalg.norm(Q, 1)
    for k in range(1, MAX_SHIFT_MOVES + 1):
        if qnorm == 0.0 or lapack.zgecon(lu, norm, norm="1")[0] >= SHIFT_RCOND_FLOOR:
            break
        s = shift + k * SHIFT_MOVE * (norm / qnorm) * SHIFT_DIRECTION
        lu, piv, _ = pivot_floor_lu(P - s * Q)
    T = lapack.zgetrs(lu, piv, Q)[0]
    return geig(T, None, vectors="none", shift=s)


def null_vector_adjoint(fact: Factorization, norm: float, rng, tol: float = 1e-8,
                        maxit: int = 50):
    """Approximate null vector of M^H by inverse iteration on a factorization of M.

    Returns the unit vector v once ||M^H v|| <= tol * norm, where norm should
    be a norm of M. Raises ConvergenceFailure otherwise.
    """
    from .errors import ConvergenceFailure

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
