"""Internal dense/sparse linear algebra helpers.

Thin wrappers around LAPACK (via scipy.linalg) and SuperLU (via
scipy.sparse.linalg) so the rest of the package never branches on the
storage format of a matrix. Every LU is a Factorization, and no other
module calls an LU routine (tests/test_api.py checks this), but for one:
delta._newton_step solves its stack of bordered Jacobians with
np.linalg.solve, an LU of each matrix of the stack. A Factorization
picks one of three storage paths from its input: LAPACK's dense LU for a
dense matrix; LAPACK's tridiagonal LU for a DiagonalSum, the unsummed
M(lam) of a problem that TwoParProblem.__init__ has found tridiagonal but
for one corner entry (tridiagonal_but_corner) and stored by its
diagonals (to_diagonals); and SuperLU for any other sparse matrix, a
narrow one or a dia_array too. The LAPACK LUs work in the matrix's own
dtype, real (dgetrf, dgttrf) for a float64 matrix, as the oracle's delta0
of a real problem and a real problem's M(lam) at real lam and mu are, and
complex (zgetrf, zgttrf) otherwise; SuperLU works in complex arithmetic.
No LU is refused: an exactly zero pivot is floored at eps*||mat||_1 in
place by the LAPACK LUs; SuperLU instead factorizes
mat + eps*||mat||_1 * I. A caller that must refuse a singular
matrix reads it from a solve, by proves_singular, the same test at the
same tolerance on every storage path: M(lam) from the caller's own solve,
delta0 and the bordered Jacobian from one step of inverse iteration
(proves_singular_from_start). geig solves every eigenvalue problem but one:
shift_invert_eigvals takes a continuation step's candidates from zgeev.
"""
from __future__ import annotations

import typing

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import ConvergenceFailure

# The tolerance of proves_singular, for M(lam), delta0 and the bordered
# Jacobian alike: a solve A x = b with ||b|| < RCOND_SINGULAR * scale * ||x||
# proves A numerically singular.
RCOND_SINGULAR = 1e-14
# |beta| <= TOL_INF * (|alpha| + |beta|) classifies a pencil eigenvalue as infinite.
TOL_INF = 1e-10
# The power iteration of shift_invert_eigvals and shift_invert_vectors
# (_power_iterates) takes at most POWER_STEPS steps, until ||T y - theta y||
# <= POWER_TOL * |theta| for a unit y; an iterate that gets no nearer leaves
# the choice to zgeev, or a step's vectors to the full QZ.
# On the 220 continuation steps of 24 bench-like Newton solves
# (gen_random(300, 100)), a budget of 16, 24, 40 and 60 steps decided 76%,
# 85%, 91% and 92% of them; the undecided ones had the runner-up at most
# 2.2 times as far from the shift as the nearest.
POWER_STEPS = 40
POWER_TOL = 1e-13
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


def to_diagonals(mat, kl, ku, dtype):
    """The square sparse mat as a dia_array of dtype (float64 keeps the real
    part) holding its diagonals -kl..ku in ascending order, each a row of
    length n with entry (j - k, j) of diagonal k in column j. A dia_array
    already in that form is returned as it is; any other has each diagonal
    copied once into a row that is zero outside mat."""
    n = mat.shape[0]
    offsets = np.arange(-kl, ku + 1)
    if (isinstance(mat, sp.dia_array) and mat.dtype == dtype and mat.data.shape[1] == n
            and np.array_equal(mat.offsets, offsets)):
        return mat
    data = np.zeros((offsets.size, n), dtype=dtype)
    for row, k in zip(data, offsets):
        diagonal = mat.diagonal(k)
        row[max(k, 0):n + min(k, 0)] = diagonal.real if dtype == np.float64 else diagonal
    return sp.dia_array((data, offsets), shape=(n, n))


def split_product(mat, x):
    """mat @ x. A float64 mat times a complex128 x is taken in float64, of
    x's real part alone when its imaginary part is exactly zero, and
    otherwise of its real and imaginary parts side by side, as the two
    columns per column of x of one float64 product with x's float64 view,
    whose result viewed as complex is mat @ x: each entry equals that of
    scipy's complex product, which would first make a complex copy of mat.
    At n = 5e5 the split Helmholtz A1 takes 5.5 ms so, against 10.8 ms for
    the complex product (one BLAS thread, 2 vCPUs). Any other product is
    mat @ x as it is."""
    if mat.dtype != np.float64 or x.dtype != np.complex128:
        return mat @ x
    if not x.imag.any():
        return (mat @ x.real).astype(np.complex128)
    pairs = np.ascontiguousarray(x).view(np.float64).reshape(len(x), -1)
    return np.ascontiguousarray(mat @ pairs).view(np.complex128).reshape(x.shape)


class DiagonalSum(typing.NamedTuple):
    """The n x n matrix sum of scale * mat over zip(mats, scales), unsummed,
    for Factorization to sum into the storage of the tridiagonal LU: each
    mat a dia_array of to_diagonals's form, rows of n entries, and a scale
    None standing for 1, of a problem that has found every such sum
    tridiagonal but for entry (n - 1, n - 3) (tridiagonal_but_corner).
    dtype is that of the sum, float64 or complex128."""

    mats: tuple
    scales: tuple
    dtype: type

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]

    def add_into(self, dest):
        """Add the sum into the caller's storage: dest(k, cols) gives the
        array view that holds the entries of diagonal k in the columns cols
        of the matrix, and the columns it holds. Each term's diagonals are
        added in turn, so each entry is (a1 + lam*a2) + mu*a3 for the terms
        (A1, None), (A2, lam), (A3, mu): TwoParProblem.eval_a's order."""
        for mat, scale in zip(self.mats, self.scales):
            for k, row, cols, _ in _in_range(mat):
                out, cols = dest(k, cols)
                out += row[cols] if scale is None else row[cols] * scale


def tridiagonal_but_corner(mats) -> bool:
    """Whether every sum of the square sparse mats, dia_arrays or CSR of
    half-bandwidths within (2, 1), is tridiagonal but for entry
    (n - 1, n - 3), n >= 3: diagonal -2 has no nonzero but that one, as
    the split Helmholtz A1 has its one-sided interface row. Read once per
    problem, from its input before any copy of a diagonal, by
    TwoParProblem.__init__ alone."""
    n = mats[0].shape[0]
    return n >= 3 and not any(mat.diagonal(-2)[:n - 3].any() for mat in mats)


def _in_range(mat):
    """(k, row, cols, rows) for each diagonal k of the dia_array mat in
    ascending order: its row of data, and the slices of the columns, in
    row, and of the rows of mat that the diagonal meets; the rest of row is
    padding, which no reader sees."""
    n, width = mat.shape[0], min(mat.data.shape[1], mat.shape[1])
    for d in np.argsort(mat.offsets):
        k = int(mat.offsets[d])
        start, stop = max(k, 0), max(min(n + k, width), max(k, 0))
        yield k, mat.data[d], slice(start, stop), slice(start - k, stop - k)


def norm2_bound(mat) -> float:
    """min(||mat||_F, sqrt(||mat||_1 ||mat||_inf)) >= ||mat||_2 of a square
    mat, which unlike ||mat||_F does not grow like sqrt(n) for a stencil. One
    pass over |mat|: for a CSR mat, one matvec each way with its |data| in
    its pattern; a dia_array is read as _dia_norm2_bound says."""
    if sp.issparse(mat) and mat.format == "dia":
        return _dia_norm2_bound(mat)
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


def _dia_norm2_bound(mat) -> float:
    """norm2_bound of the dia_array mat, from its |data| without its padding.
    Each row sum adds its terms by ascending column and each column sum by
    ascending row, as the CSR matvecs do, and ||mat||_F is taken over the
    nonzero entries row by row, as the CSR stores them, so a mat with no
    stored zeros has the bound of its CSR form bit for bit. The sums run
    over blocks of 2^14 rows and columns, which stay in cache. The
    row-by-row pass is skipped when ||mat||_F summed in the diagonals'
    order is above the other bound by more than rounding, as a band of
    many rows has it."""
    n = mat.shape[0]
    diagonals = list(_in_range(mat))
    block = 1 << 14
    row_max = col_max = squares = 0.0
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        row_sums, col_sums = np.zeros(hi - lo), np.zeros(hi - lo)
        for k, row, _, rows in diagonals:
            start = max(rows.start, lo)
            stop = max(min(rows.stop, hi), start)
            row_sums[start - lo:stop - lo] += np.abs(row[start + k:stop + k])
        for _, row, cols, _ in diagonals[::-1]:
            start = max(cols.start, lo)
            absolute = np.abs(row[start:max(min(cols.stop, hi), start)])
            col_sums[start - lo:start - lo + absolute.size] += absolute
            squares += absolute @ absolute
        row_max, col_max = max(row_max, row_sums.max()), max(col_max, col_sums.max())
    bound = np.sqrt(col_max * row_max)
    # two orders of a sum of size nonnegative terms differ by less than
    # size * eps of it, so above this margin fro is not the minimum
    if np.sqrt(squares) > bound * (1.0 + 2.0 * n * len(diagonals) * np.finfo(float).eps):
        return float(bound)
    by_row = np.zeros((len(diagonals), n))
    for out, (_, row, cols, rows) in zip(by_row, diagonals):
        out[rows] = np.abs(row[cols])
    return float(min(np.linalg.norm(by_row.T[by_row.T != 0]), bound))


def vector_norms(a, axis):
    """np.linalg.norm(a, axis=axis), but a norm whose squares overflow (past
    about 1e154 an entry) is taken from its slice scaled by its largest
    modulus; axis None takes the one norm of the whole of a."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(a, axis=axis)
        if np.isinf(norms).any():
            peak = np.where(np.isinf(norms), np.abs(a).max(axis=axis), 1.0)
            slices = peak if axis is None else np.expand_dims(peak, axis)
            scaled = peak * np.linalg.norm(a / slices, axis=axis)
            norms = np.where(np.isfinite(peak), scaled, norms)
    return norms


def half_bandwidths(mat) -> tuple[int, int]:
    """(kl, ku) of a dia_array or CSR mat: the largest distance below and
    above the diagonal of a stored entry, from the offsets or from the
    pattern in O(nnz). Read once per problem, for A1, A2 and A3, by
    TwoParProblem.__init__ alone."""
    if mat.format == "dia":
        offsets = mat.offsets
    else:
        offsets = mat.indices - np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    return -int(offsets.min(initial=0)), int(offsets.max(initial=0))


class Factorization:
    """LU factorization of a dense or sparse square matrix: the one LU type
    of the package, of M(lam), of the bordered Jacobian, of the shifted small
    pencil of a continuation step and of delta0 alike. The one LU that is
    not a Factorization is np.linalg.solve's of the oracle's stacked
    Jacobians, in delta._newton_step.

    storage names the path taken, one of three. A dense matrix is "dense":
    LAPACK's LU. A DiagonalSum, the form in which TwoParProblem.factorize_a
    hands over M(lam) for a problem whose __init__ has found every M(lam)
    tridiagonal but for entry (n - 1, n - 3) (the package's one storage
    decision), as the split Helmholtz M(lam) is, is "tridiagonal": the sum
    goes straight into the three diagonals and that corner entry, so no
    M(lam) is formed beside them, one Gauss transform with partial
    pivoting between rows n - 2 and n - 1 removes the corner
    (_eliminate_corner), and the tridiagonal LU factorizes in place. The
    LAPACK paths keep a float64 matrix real (dgetrf, dgttrf), at half the
    bytes of the complex LU (zgetrf, zgttrf) that any other dtype gets; the
    oracle's delta0 of a real problem is the one dense float64 matrix the
    package factorizes. Any other sparse matrix, narrow or wide, a
    dia_array too, is "sparse": SuperLU, with no scan of its pattern. No
    sparse path keeps the matrix.

    Supports solves with the matrix and with its conjugate transpose from
    the single factorization, by one LAPACK routine per storage, ?getrs for
    the dense LU and ?gttrs for the tridiagonal LU (after or before the
    corner's Gauss transform on the right-hand side), real or complex as
    the LU is. A real LU solves a float64 b in float64 and returns float64;
    any other b gets complex128, from two float64 solves, of its real part
    and then of its imaginary part, which is left out when it is exactly
    zero, as Newton's right-hand side is at a real iterate. A complex LU
    and SuperLU solve b made complex and return complex128.

    No matrix is refused: the factors are those of a matrix within
    eps*||mat||_1 of mat, as inverse iteration wants for a matrix that is
    singular by design. The LAPACK LUs replace an exactly zero pivot of U,
    common when mat is real, by _pivot_floor's eps*||mat||_1 as in
    LAPACK's inverse iteration (zlaein), or the smallest normal float for
    a zero mat; SuperLU cannot, so an exactly singular matrix on the
    "sparse" path is factorized as mat + _pivot_floor(||mat||_1) * I.
    """

    def __init__(self, mat):
        if isinstance(mat, DiagonalSum):
            self.storage = "tridiagonal"
            self._lu, self._corner = _tridiagonal_lu(mat)
        elif sp.issparse(mat):
            self.storage = "sparse"
            self._lu = _superlu(mat.astype(np.complex128, copy=False).tocsc())
        else:
            self.storage = "dense"
            a = _real_or_complex(mat)
            getrf = lapack.dgetrf if a.dtype == np.float64 else lapack.zgetrf
            lu, piv, _ = getrf(a)
            zero = np.flatnonzero(lu.diagonal() == 0)
            if zero.size:
                lu[zero, zero] = _pivot_floor(np.linalg.norm(a, 1))
            self._lu = (lu, piv)

    def solve(self, b, adjoint: bool = False):
        if self.storage == "sparse":
            return self._lu.solve(np.asarray(b, dtype=np.complex128),
                                  trans="H" if adjoint else "N")
        dtype = self._lu[0].dtype
        real = dtype == np.float64
        b = _real_or_complex(b)
        if real and b.dtype == np.complex128:
            x = self.solve(b.real, adjoint).astype(np.complex128)
            if b.imag.any():
                x.imag = self.solve(b.imag, adjoint)
            return x
        flat = b.reshape(len(b), -1)
        if self.storage == "tridiagonal":
            x, info = _tridiagonal_solve(self._lu, self._corner, flat, adjoint)
        else:
            getrs = lapack.dgetrs if real else lapack.zgetrs
            # trans 2 is the conjugate transpose, which for a real LU is the transpose
            x, info = getrs(*self._lu, flat.astype(dtype, copy=False), trans=2 if adjoint else 0)
        if info != 0:  # the LAPACK solves fail only on an illegal argument
            raise RuntimeError(f"LAPACK triangular solve rejected argument {-info}")
        return x.reshape(b.shape)


def proves_singular(b, x, scale) -> bool:
    """Whether the solve A x = b proves A numerically singular: ||b|| <
    RCOND_SINGULAR * scale * ||x||, as sigma_min(A) <= ||b||/||x|| (Ipsen,
    SIAM Review 1997), scale a norm of A. A non-finite x or a zero scale
    proves it too. The norms do not overflow (vector_norms), as the squares
    of x solved on a floored zero pivot would."""
    norm_x = vector_norms(x, None)
    return not (np.isfinite(norm_x) and scale > 0
                and vector_norms(b, None) >= RCOND_SINGULAR * scale * norm_x)


def proves_singular_from_start(fact: Factorization, n: int, scale) -> bool:
    """proves_singular of A^H x' = x, x = A^-1 s, for the order-n A that fact
    factorizes, s a fixed default_rng(0) draw and scale a norm of A: one
    step of inverse iteration from a fixed start."""
    x = fact.solve(np.random.default_rng(0).standard_normal(n))
    return proves_singular(x, fact.solve(x, adjoint=True), scale)


def _tridiagonal_storage(total):
    """(dl, d, du, corner): the DiagonalSum total, tridiagonal but for entry
    (n - 1, n - 3), summed into fresh sub-, main and super-diagonals and
    that corner entry, an array of one. dl holds columns 0..n-2 and du
    columns 1..n-1, as the in-range columns of diagonals -1 and 1 are."""
    n = total.n
    dl, d, du, corner = (np.zeros(size, dtype=total.dtype) for size in (n - 1, n, n - 1, 1))
    total.add_into(lambda k, cols: (corner, slice(n - 3, n - 2)) if k == -2
                   else ((dl, d, du)[k + 1], cols))
    return dl, d, du, corner


def _norm1(total) -> float:
    """||total||_1 of a DiagonalSum, from a fresh tridiagonal sum of it
    (_tridiagonal_storage): the floor of an exactly zero pivot, so read
    only after the LU met one."""
    dl, d, du, corner = (np.abs(a) for a in _tridiagonal_storage(total))
    d[1:] += du
    d[:-1] += dl
    d[-3] += corner[0]
    return float(d.max())


def _tridiagonal_lu(total):
    """((dl, d, du, du2, ipiv), transform) of the LU of the DiagonalSum
    total, which is tridiagonal but for entry (n - 1, n - 3): the sum goes
    straight into its sub-, main and super-diagonals dl, d and du and that
    corner entry (_tridiagonal_storage), _eliminate_corner removes the
    corner by one Gauss transform, whose (swap, factor) or None is
    transform, and dgttrf or zgttrf, as total is float64 or not,
    factorizes the tridiagonal result in place, with partial pivoting; du2
    and ipiv are its fill and interchanges. An exactly zero pivot of U, on
    d, is floored at _pivot_floor(||total||_1)."""
    dl, d, du, corner = _tridiagonal_storage(total)
    transform = _eliminate_corner(dl, d, du, corner[0])
    gttrf = lapack.dgttrf if total.dtype == np.float64 else lapack.zgttrf
    *lu, info = gttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info > 0:  # U has an exactly zero pivot
        udiag = lu[1]
        udiag[udiag == 0] = _pivot_floor(_norm1(total))
    return tuple(lu), transform


def _eliminate_corner(dl, d, du, corner):
    """Make the matrix with diagonals dl, d and du and the entry corner at
    (n - 1, n - 3) tridiagonal, in place, by one Gauss transform with
    partial pivoting: rows n - 2 and n - 1 are exchanged when |corner|
    exceeds |dl[n - 3]|, the entry of row n - 2 in that column, and then
    factor times row n - 2 is subtracted from row n - 1, which clears the
    corner, with |factor| <= 1. Row n - 2 has no entry left of column
    n - 3, so the result stays tridiagonal. Returns (swap, factor), or None
    for a zero corner, which needs no transform."""
    if corner == 0:
        return None
    n = d.size
    partner = dl[n - 3]
    swap = abs(corner) > abs(partner)
    if swap:
        # the new row n - 2 is the old row n - 1, and the new row n - 1 the
        # old row n - 2 minus factor times it
        factor = partner / corner
        dl[n - 3], d[n - 2], du[n - 2], dl[n - 2], d[n - 1] = (
            corner, dl[n - 2], d[n - 1], d[n - 2] - factor * dl[n - 2],
            du[n - 2] - factor * d[n - 1])
    else:
        factor = corner / partner
        dl[n - 2] -= factor * d[n - 2]
        d[n - 1] -= factor * du[n - 2]
    return swap, factor


def _tridiagonal_solve(lu, transform, b, adjoint):
    """(x, info) of the tridiagonal LU lu of _tridiagonal_lu, whose corner
    transform G = L P (P the exchange of rows n - 2 and n - 1 when swap, L
    the subtraction of factor times row n - 2 from row n - 1; G = I for
    None) left G M tridiagonal: M x = b is solved as (G M) x = G b, and
    M^H x = b as (G M)^H z = b, x = G^H z, each by one ?gttrs call in place
    on one copy of b in the LU's dtype."""
    x = np.array(b, dtype=lu[0].dtype, order="F")
    n = len(x)
    gttrs = lapack.dgttrs if lu[0].dtype == np.float64 else lapack.zgttrs
    swap, factor = transform or (False, 0)
    if not adjoint and swap:
        x[[n - 2, n - 1]] = x[[n - 1, n - 2]]
    if not adjoint and transform:
        x[n - 1] -= factor * x[n - 2]
    x, info = gttrs(*lu, x, trans="C" if adjoint else "N", overwrite_b=1)
    if adjoint and transform:
        x[n - 2] -= np.conj(factor) * x[n - 1]
    if adjoint and swap:
        x[[n - 2, n - 1]] = x[[n - 1, n - 2]]
    return x, info


def _superlu(mat):
    """SuperLU of the CSC mat, or of mat + _pivot_floor(||mat||_1) * I when
    mat is exactly singular."""
    try:
        return spla.splu(mat)
    except RuntimeError:  # SuperLU signals exact singularity this way
        floor = _pivot_floor(spla.norm(mat, 1))
        return spla.splu(mat + floor * sp.identity(mat.shape[0], format="csc"))


def _pivot_floor(norm1) -> float:
    """The value that stands in for an exactly zero pivot of a matrix of
    1-norm norm1: eps*norm1, as LAPACK's inverse iteration (zlaein) takes,
    and never below the smallest normal float, which a zero matrix gets, as
    zhsein takes for a zero Hessenberg norm."""
    return max(np.finfo(float).eps * norm1, np.finfo(float).tiny)


class GeneralizedSchur:
    """The generalized Schur form of a pencil (P, Q), for solves with
    P + lam*Q and its conjugate transpose at any number of lam (Laub, IEEE
    TAC 1981): P = X S Y^H and Q = X T Y^H with X, Y unitary, T upper
    triangular and S upper quasi-triangular, from one QZ. A float64 pencil
    keeps to real arithmetic, by geig's dtype rule (_real_or_complex): the
    real QZ (dgges; Moler and Stewart, SIAM J. Numer. Anal. 1973) gives
    real S, T, X and Y, and a 2x2 diagonal block of S for each complex
    conjugate pair of eigenvalues. Any other pencil is made complex for the
    complex QZ (zgges), whose S is triangular. After that O(m^3) reduction
    a lam costs two O(m^2) products with X and Y and one substitution with
    the quasi-triangular S + lam*T, block row by block row for every lam at
    once; no LU is taken. The substitution runs in the dtype of S, lam and
    b together, so the real form at a real lam and a real b gives a float64
    solution.

    Each diagonal block of S + lam*T, 1x1 or 2x2, is solved by Gaussian
    elimination with partial pivoting (_block_solve). An exactly zero
    pivot, as at a lam where P + lam*Q is exactly singular, in a 1x1 block
    or in an exactly singular 2x2 block, is replaced by
    _pivot_floor(||S + lam*T||_1), as Factorization floors an exactly zero
    pivot, so a zero S + lam*T gets the smallest normal float, not 0.
    """

    def __init__(self, P, Q):
        P, Q = _real_or_complex(P), _real_or_complex(Q)
        real = P.dtype == Q.dtype == np.float64
        self.S, self.T, self._x, self._y = sla.qz(P, Q, output="real" if real else "complex")
        # the diagonal blocks of S, a 2x2 one where S has a nonzero entry
        # below the diagonal
        m, pair = self.S.shape[0], np.diagonal(self.S, -1) != 0
        self._blocks, i = [], 0
        while i < m:
            size = 2 if i + 1 < m and pair[i] else 1
            self._blocks.append(slice(i, i + size))
            i += size

    def solve(self, lams, b, adjoint: bool = False):
        """Rows (P + lams[k]*Q)^-1 b, or (P + lams[k]*Q)^-H b with adjoint, as
        an array of shape (len(lams), m), for one lam or a whole grid alike:
        one substitution over the diagonal blocks of S + lam*T, each block
        for every lam at once."""
        lams = np.asarray(lams).reshape(-1)
        S, T = self.S, self.T
        m = S.shape[0]

        def floored(pivot):
            if not pivot.all():
                zero = np.flatnonzero(pivot == 0)
                pivot[zero] = [_pivot_floor(np.linalg.norm(self.S + lam * self.T, 1))
                               for lam in lams[zero]]
            return pivot

        rhs = (self._y if adjoint else self._x).conj().T @ b
        # back substitution with S + lam*T, or forward substitution with its
        # conjugate transpose S^H + conj(lam)*T^H
        at = lams
        if adjoint:
            S, T, at = S.conj().T, T.conj().T, lams.conj()
        out = np.empty((m, lams.size), dtype=np.result_type(S, at, rhs))
        for rows in self._blocks if adjoint else self._blocks[::-1]:
            done = slice(0, rows.start) if adjoint else slice(rows.stop, m)
            rest = (rhs[rows, None] - S[rows, done] @ out[done]
                    - at * (T[rows, done] @ out[done]))
            block = S[rows, rows, None] + at * T[rows, rows, None]
            out[rows] = _block_solve(block, rest, floored)
        return out.T @ (self._x if adjoint else self._y).T


def _block_solve(block, rest, floored):
    """The solution of block[:, :, k] x = rest[:, k] for each k, block of
    shape (1, 1, N) or (2, 2, N), by Gaussian elimination with partial
    pivoting, floored(pivot) replacing each exactly zero entry of a pivot
    array in place."""
    if block.shape[0] == 1:
        return rest / floored(block[0, 0])
    (a, b), (c, d) = block
    r0, r1 = rest
    swap = np.abs(c) > np.abs(a)
    a, b, c, d = (np.where(swap, p, q) for p, q in ((c, a), (d, b), (a, c), (b, d)))
    r0, r1 = np.where(swap, r1, r0), np.where(swap, r0, r1)
    a = floored(a)
    factor = c / a
    x1 = (r1 - factor * r0) / floored(d - factor * b)
    return np.stack(((r0 - b * x1) / a, x1))


def finite_pair(alpha, beta):
    """Whether the homogeneous eigenvalue (alpha, beta) is finite, alpha/beta:
    |beta| > TOL_INF * (|alpha| + |beta|); elementwise on arrays. The one
    home of this test, for QZ's pairs in geig and for the pair (-1, tau) of
    a rank-one B3 in the pencil module."""
    return np.abs(beta) > TOL_INF * (np.abs(alpha) + np.abs(beta))


def finite_shift_invert(theta):
    """Whether each eigenvalue theta = 1/(z - s) of the shift-invert operator
    of shift_invert_eigvals stands for a finite eigenvalue z of its pencil:
    |theta| > TOL_INF * max|theta|; elementwise. An infinite z maps to
    theta = 0, which rounding leaves at about eps*||operator||, so theta is
    judged relative to the spectrum, not to 1 as finite_pair would judge the
    pair (theta, 1): near convergence the shift is an eigenvalue to working
    accuracy, and the nearest candidate's |theta| can exceed 1/TOL_INF. So
    a finite z is dropped only when it is more than 1/TOL_INF times as far
    from the shift as the nearest one, too far to tie with it in a step's
    rule, which reads no more than the two nearest (tests/test_pencil.py,
    test_shift_invert_spectrum_matches_qz)."""
    mag = np.abs(theta)
    return mag > TOL_INF * mag.max(initial=0.0)


def _canonical_order(z):
    """Indices sorting z ascending by (|z|, Re z, Im z), stable for exact
    ties: the one eigenvalue order, of geig and of shift_invert_eigvals's
    spectrum."""
    return np.lexsort((z.imag, z.real, np.abs(z)))


def _real_or_complex(mat):
    """mat as an ndarray, float64 if it is float64 and complex128 otherwise."""
    mat = np.asarray(mat)
    return mat if mat.dtype == np.float64 else mat.astype(np.complex128, copy=False)


def geig(P, Q, vectors: str = "right"):
    """The finite eigenvalues z of P v = z Q v in canonical order: ascending
    (|z|, Re z, Im z), stable for exact ties. One whose homogeneous pair
    fails finite_pair is infinite and dropped. Q=None means the standard
    problem P v = z v, whose pairs are (z, 1).

    vectors picks the eigenvectors computed with z: "none" returns z
    alone, "right" returns (z, vr) and "both" returns (z, vr, vl). Columns
    of vr and vl are the right and left eigenvectors of z in the same
    order; z and the vectors are complex128. A pencil goes through LAPACK's
    QZ driver (zggev), the standard problem through its QR driver (zgeev);
    within one driver all three modes give bit-equal z
    (tests/test_pencil.py), so an eigenvalues-only call, at about half the
    cost of one with both vector sets at order 100, numbers the same
    eigenvalues in the same order. A real float64 P (with a real Q, if any) is not
    made complex, so it runs the cheaper real driver (dgeev, dggev). For
    the standard problem (dgeev) the non-real z come in exact conjugate
    pairs with conjugate vectors, which the canonical order puts next to
    each other, Im z < 0 first. For a pencil (dggev) they do not: the two
    members of a pair carry different betas, so z and its partner are
    conjugate only to rounding (478 of 616 pairs of 200 seeded real
    pencils of order 10 are not exact), and rounding decides their order.
    Any other input is made complex128 for the complex driver.
    """
    left, right = vectors == "both", vectors != "none"
    P = _real_or_complex(P)
    if Q is not None:
        Q = _real_or_complex(Q)
    out = sla.eig(P, Q, left=left, right=right, homogeneous_eigvals=True)
    alpha, beta = out[0] if right else out
    finite = finite_pair(alpha, beta)
    z = alpha[finite] / beta[finite]
    order = _canonical_order(z)
    if not right:
        return z[order]
    cols = np.flatnonzero(finite)[order]
    # scipy returns (w, vr) or (w, vl, vr), real vectors from a real driver
    # when every eigenvalue is real
    vr = out[-1][:, cols].astype(np.complex128, copy=False)
    if left:
        return z[order], vr, out[1][:, cols].astype(np.complex128, copy=False)
    return z[order], vr


def _power_iterates(apply, apply_adjoint, y, u):
    """(theta, y, u): power iteration on an operator T from y and on T^H
    from u (Saad, Numerical Methods for Large Eigenvalue Problems, ch. 4),
    with apply(x) = T x and apply_adjoint(x) = T^H x, at most POWER_STEPS
    steps, until the unit y has ||T y - theta y|| <= POWER_TOL * |theta|
    with theta the two-sided Rayleigh quotient u^H T y / u^H y; u is unit
    too. None when it does not get there."""
    y, u = y / np.linalg.norm(y), u / np.linalg.norm(u)
    for _ in range(POWER_STEPS):
        ty, tu, uy = apply(y), apply_adjoint(u), np.vdot(u, y)
        norm_ty, norm_tu = np.linalg.norm(ty), np.linalg.norm(tu)
        if not (uy != 0 and 0 < norm_ty < np.inf and 0 < norm_tu < np.inf):
            return None
        theta = np.vdot(u, ty) / uy
        if np.linalg.norm(ty - theta * y) <= POWER_TOL * abs(theta):
            return theta, y, u
        y, u = ty / norm_ty, tu / norm_tu
    return None


def certified_dominant(T, y, u, gap):
    """(theta, y, u) of _power_iterates from y and u when theta is the
    eigenvalue of T of largest modulus and the bound below shows that every
    other eigenvalue theta_j has 1/|theta_j| - 1/|theta| > gap; None when it
    cannot. For a shift-invert operator 1/|theta| is an eigenvalue's
    distance from the shift, so this is the step rule's test of the nearest
    candidate against the runner-up.

    Wielandt deflation T' = T - theta y u^H / (u^H y) sends theta to 0 and
    keeps every other eigenvalue of T, so |theta_j| <= rho(T') <=
    ||T'^4||_F^(1/4), and L = ||T'^4||_F^(-1/4), from two products of
    order m and no SVD, bounds every other 1/|theta_j| from below; theta is
    returned when L - 1/|theta| > gap. An iterate that settles on a
    subdominant eigenvalue leaves the dominant one in T', so L < 1/|theta|
    and nothing is returned.
    """
    th = T.conj().T
    found = _power_iterates(lambda x: T @ x, lambda x: th @ x, y, u)
    if found is None:
        return None
    theta, y, u = found
    deflated = T - (theta / np.vdot(u, y)) * np.outer(y, u.conj())
    squared = deflated @ deflated
    norm4 = np.linalg.norm(squared @ squared)
    bound = norm4 ** -0.25 if norm4 > 0.0 else np.inf
    return found if bound - 1.0 / abs(theta) > gap else None


def _pencil_vectors(fact, y, u):
    """Unit (y, w) of P v = z Q v from the unit y and u of T and T^H at theta,
    fact the LU of P - s*Q: w = (P - s*Q)^-H u, as u^H T = theta u^H."""
    w = fact.solve(u, adjoint=True)
    return y, w / np.linalg.norm(w)


def shift_invert_eigvals(P, Q, shift, start, gap):
    """(z, vectors): the finite eigenvalues z of geig(P, Q) that can be the
    one nearest shift, from the shift-invert operator about it instead of
    QZ (Ericsson and Ruhe, Math. Comp. 1980): one LU of P - s*Q at s =
    shift, singular or not, and T = (P - s*Q)^-1 Q by one solve.

    start = (y, w) estimates the right and left eigenvectors of P v = z Q v
    at the eigenvalue nearest shift. The certificate runs first:
    certified_dominant on T from y and from Q^H w, which is parallel to T's
    left eigenvector (P - s*Q)^H w when w is exact. When it shows that one
    z0 = s + 1/theta is nearer shift than every other candidate by more than
    gap, z is z0 alone and vectors its unit right and left eigenvectors,
    from the certificate's iterates and one more solve with the same LU
    (_pencil_vectors): no zgeev and no second LU.

    Otherwise z is every finite eigenvalue, in geig's canonical order, and
    vectors is None: zgeev of the same T gives its eigenvalues theta, which
    give z = s + 1/theta, finite by finite_shift_invert. The spectrum is
    most accurate near s: an eigenvalue at distance d from s carries an
    error of about eps*||T||*d^2.
    """
    fact = Factorization(P - shift * Q)
    T = fact.solve(Q)
    y, w = start
    found = certified_dominant(T, y, Q.conj().T @ w, gap)
    if found is None:
        theta, _, _, info = lapack.zgeev(T, compute_vl=0, compute_vr=0)
        if info > 0:
            raise np.linalg.LinAlgError("zgeev did not converge")
        z = shift + 1.0 / theta[finite_shift_invert(theta)]
        return z[_canonical_order(z)], None
    theta, y, u = found
    return np.array([shift + 1.0 / theta]), _pencil_vectors(fact, y, u)


def shift_invert_vectors(P, Q, shift, start):
    """Unit (y, w) of P v = z Q v at the eigenvalue nearest shift, or None:
    the power iterates of shift_invert_eigvals's certificate from start, on
    T about shift applied by solves with one LU, with no bound and no zgeev.
    At a shift on an eigenvalue, as chosen from zgeev's candidates or taken
    from QZ at a reference point, this is inverse iteration and settles in
    a step or two."""
    fact = Factorization(P - shift * Q)
    qh = Q.conj().T
    y, w = start
    found = _power_iterates(lambda x: fact.solve(Q @ x),
                            lambda x: qh @ fact.solve(x, adjoint=True), y, qh @ w)
    return None if found is None else _pencil_vectors(fact, *found[1:])


def null_vector_adjoint(fact: Factorization, norm: float, start):
    """Approximate null vector of M^H by inverse iteration on a factorization
    of M, from the caller's nonzero start: the iterate is a function of M
    and start alone.

    Returns the unit vector v once ||M^H v|| <= NULL_VECTOR_TOL * norm, where
    norm should be a norm of M. Raises ConvergenceFailure otherwise.
    """
    tol, maxit = NULL_VECTOR_TOL, NULL_VECTOR_MAXIT
    v = start / np.linalg.norm(start)
    res = np.inf
    for _ in range(maxit):
        w = fact.solve(v, adjoint=True)
        nw = vector_norms(w, None)  # a floored zero matrix gives w near 1/tiny
        v = w / nw
        res = 1.0 / nw  # exactly ||M^H v|| because the previous v was unit
        if res <= tol * norm:
            return v
    raise ConvergenceFailure(
        f"adjoint inverse iteration did not reach {tol:.1e}*||M|| in {maxit} steps "
        f"(last residual {res:.2e} vs target {tol * norm:.2e})"
    )
