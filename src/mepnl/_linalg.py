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
    """LU factorization of a dense or sparse square matrix.

    Supports solves with the matrix and with its conjugate transpose from
    the single factorization. rcond is the reciprocal condition measure:
    the LAPACK 1-norm estimate for a dense matrix, the smallest over the
    largest |U| diagonal entry for a sparse one. Raises ShiftIsEigenvalue
    when it is below RCOND_SINGULAR.
    """

    def __init__(self, mat):
        self.shape = mat.shape
        if sp.issparse(mat):
            self.sparse = True
            try:
                self._lu = spla.splu(mat.tocsc().astype(np.complex128, copy=False))
            except RuntimeError as exc:  # SuperLU signals exact singularity this way
                raise ShiftIsEigenvalue(f"singular sparse factorization: {exc}") from exc
            udiag = np.abs(self._lu.U.diagonal())
            umax = udiag.max() if udiag.size else 0.0
            self.rcond = float(udiag.min() / umax) if umax > 0.0 else 0.0
            if self.rcond < RCOND_SINGULAR:
                raise ShiftIsEigenvalue(
                    "sparse factorization is numerically singular "
                    f"(U-diagonal ratio {udiag.min():.2e}/{udiag.max():.2e})"
                )
        else:
            self.sparse = False
            a = np.asarray(mat, dtype=np.complex128, order="F")
            anorm = np.linalg.norm(a, 1) if a.size else 0.0
            lu, piv, info = lapack.zgetrf(a)
            if info > 0 or anorm == 0.0:
                raise ShiftIsEigenvalue("dense factorization hit an exactly zero pivot")
            rc, _ = lapack.zgecon(lu, anorm, norm="1")
            self.rcond = float(rc)
            if self.rcond < RCOND_SINGULAR:
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


def geig(P, Q, vectors: str = "right"):
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
    """
    left, right = vectors == "both", vectors != "none"
    P = np.asarray(P, dtype=np.complex128)
    if Q is not None:
        Q = np.asarray(Q, dtype=np.complex128)
    out = sla.eig(P, Q, left=left, right=right, homogeneous_eigvals=True)
    alpha, beta = out[0] if right else out
    finite = finite_pair(alpha, beta)
    z = alpha[finite] / beta[finite]
    order = np.lexsort((z.imag, z.real, np.abs(z)))
    cols = np.flatnonzero(finite)[order]
    n_inf = int(np.sum(~finite))
    if not right:
        return z[order], n_inf
    # scipy returns (w, vr) or (w, vl, vr)
    vr = out[-1][:, cols]
    if left:
        return z[order], vr, out[1][:, cols], n_inf
    return z[order], vr, n_inf


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
