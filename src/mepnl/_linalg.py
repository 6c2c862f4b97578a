"""Internal dense/sparse linear algebra helpers.

Thin wrappers around LAPACK (via scipy.linalg) and SuperLU (via
scipy.sparse.linalg) so the rest of the package never branches on the
storage format of a matrix. Every LU is a Factorization, and no other
module calls an LU routine (tests/test_api.py checks this). A
Factorization picks one of three storage paths from its input: LAPACK's
dense LU (zgetrf) for a dense matrix, LAPACK's band LU (zgbtrf) for a
sparse matrix with kl + ku <= BAND_MAX, and SuperLU for any other sparse
matrix. rcond is the zgecon estimate on the dense path and the ratio of the
smallest to the largest |U| diagonal entry on the two sparse ones. No LU
is refused: an exactly zero pivot is floored at eps*||mat||_1 in place by
the dense and band LUs; SuperLU instead factorizes mat + eps*||mat||_1 * I.
A caller that must refuse a singular matrix tests rcond against
RCOND_SINGULAR itself, as nep.NepView.factorization does for M(sigma).
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
# Largest kl + ku of a sparse matrix that Factorization packs into LAPACK
# band storage instead of handing to SuperLU. At n = 1e5 (one BLAS thread,
# 2 vCPUs), full bands and 2-D five-point strips with kl + ku <= 8 were
# factorized 2.3 to 5.8 times faster by zgbtrf than by SuperLU, in at most
# 1.3 times SuperLU's entries (2kl + ku + 1 a column). At kl + ku = 32 the
# band LU was only 1.4 times faster, and a strip held 1.7 times SuperLU's
# entries.
BAND_MAX = 8


def to_complex(mat):
    """Return mat as complex128, dense ndarray or CSR, without copying if possible."""
    if sp.issparse(mat):
        return mat.tocsr().astype(np.complex128, copy=False)
    return np.asarray(mat, dtype=np.complex128)


def to_dense(mat):
    """Return mat as a dense ndarray, converting it only when it is sparse."""
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat)


def norm2_bound(mat) -> float:
    """min(||mat||_F, sqrt(||mat||_1 ||mat||_inf)) >= ||mat||_2 of a square
    mat, which unlike ||mat||_F does not grow like sqrt(n) for a stencil. One
    pass over |mat|: for a sparse mat, one matvec each way with its |data|
    in its pattern."""
    if sp.issparse(mat):
        mat = mat.tocsr()
        absolute = np.abs(mat.data)
        wrapped = sp.csr_array((absolute, mat.indices, mat.indptr), shape=mat.shape)
        ones = np.ones(mat.shape[0])
        col_sums, row_sums = ones @ wrapped, wrapped @ ones
    else:
        absolute = np.abs(mat)
        col_sums, row_sums = absolute.sum(axis=0), absolute.sum(axis=1)
    fro = np.linalg.norm(absolute)
    return float(min(fro, np.sqrt(col_sums.max(initial=0.0) * row_sums.max(initial=0.0))))


def half_bandwidths(mat) -> tuple[int, int]:
    """(kl, ku) of a CSR mat: the largest distance below and above the
    diagonal of a stored entry, from its pattern in O(nnz)."""
    offsets = mat.indices - np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    return -int(offsets.min(initial=0)), int(offsets.max(initial=0))


class Factorization:
    """LU factorization of a dense or sparse square matrix: the one LU type
    of the package, of M(lam), of the bordered Jacobian, of the shifted small
    pencil of a continuation step and of delta0 alike.

    storage names the path taken. A dense matrix is "dense": LAPACK's LU
    (zgetrf). A sparse matrix whose half-bandwidths kl and ku, read from its
    pattern, add up to at most BAND_MAX is "band": it is packed into LAPACK
    band storage and factorized by the band LU (zgbtrf), with bandwidths
    = (kl, ku); the split Helmholtz M(lam) has (2, 1). Any other sparse
    matrix is "sparse": SuperLU. Neither sparse path keeps the matrix.

    Supports solves with the matrix and with its conjugate transpose from
    the single factorization. rcond is the reciprocal condition measure:
    the LAPACK 1-norm estimate (zgecon) for a dense matrix, the smallest
    over the largest |U| diagonal entry, in O(n), on both sparse paths. It
    is computed when first read, so a factorization nobody asks about pays
    nothing for it; a caller judges it against its own threshold.

    No matrix is refused: the factors are those of a matrix within
    eps*||mat||_1 of mat, as inverse iteration wants for a matrix that is
    singular by design. The dense and band LUs replace an exactly zero
    pivot, common when mat is real, by eps*||mat||_1 as in LAPACK's inverse
    iteration (zlaein); SuperLU cannot, so an exactly singular matrix on
    the "sparse" path is factorized as mat + eps*||mat||_1 * I.
    """

    def __init__(self, mat):
        self.shape = mat.shape
        self.bandwidths = None
        if sp.issparse(mat):
            mat = mat.tocsr().astype(np.complex128, copy=False)
            kl, ku = half_bandwidths(mat)
            if kl + ku <= BAND_MAX:
                self.storage, self.bandwidths = "band", (kl, ku)
                self._lu = _band_lu(mat, kl, ku)
            else:
                self.storage = "sparse"
                self._lu = _superlu(mat.tocsc())
        else:
            self.storage = "dense"
            a = np.asarray(mat, dtype=np.complex128)
            self._norm = np.linalg.norm(a, 1) if a.size else 0.0
            lu, piv, _ = lapack.zgetrf(a)
            zero = np.flatnonzero(lu.diagonal() == 0)
            lu[zero, zero] = np.finfo(float).eps * self._norm
            self._lu = (lu, piv)

    @functools.cached_property
    def rcond(self) -> float:
        if self.storage == "dense":
            return float(lapack.zgecon(self._lu[0], self._norm, norm="1")[0])
        if self.storage == "band":
            udiag = np.abs(self._lu[0][sum(self.bandwidths)])
        else:
            udiag = np.abs(self._lu.U.diagonal())
        umax = udiag.max(initial=0.0)
        return float(udiag.min() / umax) if umax > 0.0 else 0.0

    def solve(self, b, adjoint: bool = False):
        b = np.asarray(b, dtype=np.complex128)
        if self.storage == "sparse":
            return self._lu.solve(b, trans="H" if adjoint else "N")
        trans = 2 if adjoint else 0
        if self.storage == "band":
            lu, piv = self._lu
            x, info = lapack.zgbtrs(lu, *self.bandwidths, b.reshape(len(b), -1), piv,
                                    trans=trans)
            x = x.reshape(b.shape)
        else:
            x, info = lapack.zgetrs(*self._lu, b, trans=trans)
        if info != 0:
            raise ShiftIsEigenvalue(f"triangular solve failed (info={info})")
        return x


def _band_lu(mat, kl, ku):
    """(lu, ipiv) of zgbtrf for the CSR mat of half-bandwidths (kl, ku).
    Band storage holds mat[i, j] at [kl + ku + i - j, j], Fortran order, with
    kl rows on top for the fill of row interchanges; U's diagonal ends up in
    row kl + ku. Diagonal k of mat is copied in one O(nnz) pass each, so
    nothing but the band array has the size of mat."""
    n = mat.shape[0]
    ab = np.zeros((2 * kl + ku + 1, n), dtype=np.complex128, order="F")
    for k in range(-kl, ku + 1):
        ab[kl + ku - k, max(k, 0):n + min(k, 0)] = mat.diagonal(k)
    lu, piv, info = lapack.zgbtrf(ab, kl, ku, overwrite_ab=1)
    if info > 0:  # U has an exactly zero pivot
        udiag = lu[kl + ku]
        udiag[udiag == 0] = np.finfo(float).eps * spla.norm(mat, 1)
    return lu, piv


def _superlu(mat):
    """SuperLU of the CSC mat, or of mat + eps*||mat||_1 * I when mat is
    exactly singular."""
    try:
        return spla.splu(mat)
    except RuntimeError:  # SuperLU signals exact singularity this way
        floor = np.finfo(float).eps * spla.norm(mat, 1)
        return spla.splu(mat + floor * sp.identity(mat.shape[0], format="csc"))


class GeneralizedSchur:
    """The complex generalized Schur form of a pencil (P, Q), for solves with
    P + lam*Q and its conjugate transpose at any number of lam (Laub, IEEE
    TAC 1981): P = X S Y^H and Q = X T Y^H with X, Y unitary and S, T upper
    triangular, from one complex QZ (zgges). After that O(m^3) reduction a
    lam costs two O(m^2) products with X and Y and one triangular solve
    with S + lam*T; no LU is taken.

    An exactly zero diagonal entry of S + lam*T, as at a lam where P +
    lam*Q is exactly singular, is replaced by eps*||S + lam*T||_1, as
    Factorization floors an exactly zero pivot.
    """

    def __init__(self, P, Q):
        self.S, self.T, self._x, self._y = sla.qz(P, Q, output="complex")

    def solve(self, lams, b, adjoint: bool = False):
        """Rows (P + lams[k]*Q)^-1 b, or (P + lams[k]*Q)^-H b with adjoint, as
        an array of shape (len(lams), m). The substitution loops in Python
        over the shorter of two ranges: over at most m lams, one LAPACK
        triangular solve (ztrtrs) each, as for the single point of a Newton
        iterate; over the m rows of S + lam*T otherwise, each row for every
        lam at once, as for a tabulation's grid."""
        lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
        S, T = self.S, self.T
        m = S.shape[0]
        diag = np.diagonal(S) + lams[:, None] * np.diagonal(T)
        for k in np.flatnonzero(np.any(diag == 0, axis=1)):
            floor = np.finfo(float).eps * np.linalg.norm(S + lams[k] * T, 1)
            diag[k, diag[k] == 0] = floor
        rhs = (self._y if adjoint else self._x).conj().T @ b
        if lams.size <= m:
            out = np.empty((lams.size, m), dtype=np.complex128)
            for k, lam in enumerate(lams):
                R = S + lam * T
                np.fill_diagonal(R, diag[k])
                out[k], _ = lapack.ztrtrs(R, rhs, trans=2 if adjoint else 0)
            return out @ (self._x if adjoint else self._y).T
        # back substitution with S + lam*T, or forward substitution with its
        # conjugate transpose S^H + conj(lam)*T^H
        if adjoint:
            S, T, lams, diag = S.conj().T, T.conj().T, lams.conj(), diag.conj()
        out = np.empty((m, lams.size), dtype=np.complex128)
        for i in range(m) if adjoint else range(m - 1, -1, -1):
            done = slice(0, i) if adjoint else slice(i + 1, m)
            rest = rhs[i] - S[i, done] @ out[done] - lams * (T[i, done] @ out[done])
            out[i] = rest / diag[:, i]
        return out.T @ (self._x if adjoint else self._y).T


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


def _real_or_complex(mat):
    """mat as an ndarray, float64 if it is float64 and complex128 otherwise."""
    mat = np.asarray(mat)
    return mat if mat.dtype == np.float64 else mat.astype(np.complex128, copy=False)


def geig(P, Q, vectors: str = "right", shift=None):
    """The finite eigenvalues z of P v = z Q v in canonical order: ascending
    (|z|, Re z, Im z), stable for exact ties. One whose homogeneous pair
    fails finite_pair is infinite and dropped. Q=None means the standard
    problem P v = z v, whose pairs are (z, 1).

    vectors picks the eigenvectors computed with z: "right" returns
    (z, vr) and "both" returns (z, vr, vl). Columns of vr and vl are the
    right and left eigenvectors of z in the same order; z and the vectors
    are complex128. A pencil goes through LAPACK's QZ driver (zggev), the
    standard problem through its QR driver (zgeev); within one driver both
    modes give bit-equal z. A real float64 P (with a real Q, if any) is not
    made complex, so it runs the cheaper real driver (dgeev, dggev), and
    its non-real z come in exact conjugate pairs, which the canonical order
    puts next to each other, Im z < 0 first. Any other input is made
    complex128 for the complex driver.

    shift=s says that P is the shift-invert operator (A - s*B)^-1 B of a
    pencil A v = z B v, with Q None (see shift_invert_eigvals): its
    eigenvalues theta, from zgeev, give z = s + 1/theta, finite by
    finite_shift_invert, and z alone is returned in the same order.
    """
    if shift is not None:
        theta, _, _, info = lapack.zgeev(P, compute_vl=0, compute_vr=0)
        if info > 0:
            raise np.linalg.LinAlgError("zgeev did not converge")
        finite = finite_shift_invert(theta)
        z = shift + 1.0 / theta[finite]
        return z[_canonical_order(z)]
    left = vectors == "both"
    P = _real_or_complex(P)
    if Q is not None:
        Q = _real_or_complex(Q)
    out = sla.eig(P, Q, left=left, right=True, homogeneous_eigvals=True)
    alpha, beta = out[0]
    finite = finite_pair(alpha, beta)
    z = alpha[finite] / beta[finite]
    order = _canonical_order(z)
    cols = np.flatnonzero(finite)[order]
    # scipy returns (w, vr) or (w, vl, vr), real vectors from a real driver
    # when every eigenvalue is real
    vr = out[-1][:, cols].astype(np.complex128, copy=False)
    if left:
        return z[order], vr, out[1][:, cols].astype(np.complex128, copy=False)
    return z[order], vr


def shift_invert_eigvals(P, Q, shift):
    """The finite eigenvalues z of geig(P, Q), from the shift-invert spectrum
    about shift instead of QZ (Ericsson and Ruhe, Math. Comp. 1980): one LU
    of P - s*Q, the operator T = (P - s*Q)^-1 Q by one solve, and its
    eigenvalues by geig's shift-invert mode (zgeev).
    The spectrum is most accurate near s: an eigenvalue at distance d from
    s carries an error of about eps*||T||*d^2.

    s starts at shift. While rcond(P - s*Q) is below SHIFT_RCOND_FLOOR, as
    when shift is an eigenvalue to working accuracy, s moves by SHIFT_MOVE
    times the pencil's scale ||P - shift*Q||_1/||Q||_1 along
    SHIFT_DIRECTION, at most MAX_SHIFT_MOVES times; the last LU is used
    whatever its rcond. Each LU is a Factorization, whose rcond is read to
    decide the move.
    """
    s = shift
    fact = Factorization(P - s * Q)
    norm, qnorm = fact._norm, np.linalg.norm(Q, 1)
    for k in range(1, MAX_SHIFT_MOVES + 1):
        if qnorm == 0.0 or fact.rcond >= SHIFT_RCOND_FLOOR:
            break
        s = shift + k * SHIFT_MOVE * (norm / qnorm) * SHIFT_DIRECTION
        fact = Factorization(P - s * Q)
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
