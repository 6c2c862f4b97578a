"""Problem generators and branch tabulation.

Four families: dense random instances, quadratic eigenvalue problems recast
with a 2x2 coupling block, square-root nonlinearities with a closed-form
branch, and a 1-D Helmholtz problem split at an interior interface so that
each subdomain becomes one equation of the pair.
"""
from __future__ import annotations

import cmath
import dataclasses

import numpy as np
import scipy.sparse as sp

from . import pencil
from .core import TwoParProblem
from .errors import AmbiguousBranch, NoFiniteEigenvalue

# A-side matrices are assembled sparse from this order on.
SPARSE_MIN_N = 500
# flag_singularities: a sample this many times the median magnitude is a
# spike; a sign flip between samples both this many times the median is a pole.
SPIKE_FACTOR = 10.0
FLIP_FACTOR = 3.0


def gen_random(n, m, seed, alphas=(1.0, 1.0 / 500.0, 1.0 / 50.0),
               betas=(1.0, 1.0 / 500.0, 1.0 / 50.0)) -> TwoParProblem:
    """Dense random problem: A_i = alphas[i] * V diag(f) U, same for B_i.

    V, U and the diagonal f are standard normal, drawn from a single
    generator seeded with seed, so instances are bit-reproducible. The
    default scalings keep the lam and mu terms small against the constant
    term. The normalization vector is drawn to be non-orthogonal to every
    finite eigenvector of the small pencil at lam = 0.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(seed)

    def draw(order, scale):
        V = rng.standard_normal((order, order))
        f = rng.standard_normal(order)
        U = rng.standard_normal((order, order))
        return scale * (V * f) @ U

    As = [draw(n, a) for a in alphas]
    Bs = [draw(m, b) for b in betas]
    return TwoParProblem(*As, *Bs, None, label=f"random(n={n},m={m},seed={seed})")


def gen_qep(A1, A2, A3) -> TwoParProblem:
    """Quadratic problem (A1 + lam*A2 + lam^2*A3) x = 0 as a coupled pair.

    The 2x2 small equation encodes y2 = lam*y1 and mu = lam^2, so the single
    finite branch is g(lam) = lam^2 with eigenvector y = (1, lam). The
    normalization c = (1, 0) keeps c^T y = 1 for every finite lam.
    """
    B1 = np.array([[0.0, 0.0], [0.0, -1.0]])
    B2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    B3 = np.array([[-1.0, 0.0], [0.0, 0.0]])
    c = np.array([1.0, 0.0])
    return TwoParProblem(A1, A2, A3, B1, B2, B3, c, label="qep")


def gen_sqrt_nep(A1, A2, A3, a=3.0, b=2.0, c=-1.0, d=-2.0, e=2.0, f=1.0):
    """Square-root nonlinearity with a 2x2 coupling block.

    The small equation B1 + lam*B2 + mu*I with B1 = [[a, b], [c, d]] and
    B2 = [[0, e], [f, 0]] has the two branches

        g(lam) = -(a + d)/2 +- sqrt((a + d)^2/4 - a*d + (b + lam*e)(c + lam*f)),

    the two roots of det B(lam, mu) = 0 in mu. With a = d = 0 this is
    mu = +-sqrt(p(lam)) for the polynomial p(lam) = (b + lam*e)(c + lam*f).

    Returns (problem, branch_fn) where branch_fn(lam, sign=+1) evaluates the
    closed form with the principal square root; which sign matches branch 0
    depends on the coefficients and the region of lam.
    """
    B1 = np.array([[a, b], [c, d]], dtype=np.complex128)
    B2 = np.array([[0.0, e], [f, 0.0]], dtype=np.complex128)
    B3 = np.eye(2, dtype=np.complex128)
    problem = TwoParProblem(A1, A2, A3, B1, B2, B3, None, label="sqrt")

    def branch_fn(lam, sign=+1):
        lam = complex(lam)
        disc = (a + d) ** 2 / 4.0 - a * d + (b + lam * e) * (c + lam * f)
        return -(a + d) / 2.0 + sign * cmath.sqrt(disc)

    return problem, branch_fn


def default_kappa_a(x):
    """Piecewise-constant wavenumber jumping at half-integers: 2 +- 0.8."""
    return 2.0 + 0.8 * (-1.0) ** np.floor(2.0 * np.asarray(x, dtype=float))


def default_kappa_b(x, x1=4.0):
    """Decaying high-frequency ripple around 1 on the spectral subdomain."""
    t = np.asarray(x, dtype=float) - x1
    return 1.0 + 2.0 * np.exp(-t) * np.sin(40.0 * t)


@dataclasses.dataclass
class HelmholtzConfig:
    """Configuration of the split 1-D Helmholtz problem u'' + kappa(x)^2 u = lam u.

    Dirichlet at 0, Neumann at x2, and the interface ratio
    mu = u'(x1)/u(x1) couples the subdomains: [0, x1] is discretized by
    second-order finite differences on n points (the large equation),
    [x1, x2] by Chebyshev collocation on m points (the small equation).
    kappa_a and kappa_b accept a scalar or a vectorized callable; None picks
    the built-in profiles.
    """

    x1: float = 4.0
    x2: float = 5.0
    n: int = 2000
    m: int = 30
    kappa_a: object = None
    kappa_b: object = None

    def validate(self):
        if not (0.0 < self.x1 < self.x2):
            raise ValueError(f"need 0 < x1 < x2, got {self.x1}, {self.x2}")
        if self.n < 3 or self.m < 3:
            raise ValueError(f"need n, m >= 3, got n={self.n}, m={self.m}")

    def kappa_a_values(self, x):
        return _profile_values(self.kappa_a, x, lambda z: default_kappa_a(z))

    def kappa_b_values(self, x):
        return _profile_values(
            self.kappa_b, x, lambda z: default_kappa_b(z, x1=self.x1)
        )


def _profile_values(profile, x, fallback):
    x = np.asarray(x, dtype=float)
    if profile is None:
        vals = fallback(x)
    elif callable(profile):
        vals = np.asarray(profile(x), dtype=float)
    else:
        vals = np.full(x.shape, float(profile))
    vals = np.broadcast_to(vals, x.shape).astype(float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("wavenumber profile produced non-finite values")
    return vals


def _cheb(N):
    """Chebyshev differentiation matrix and points t_j = cos(j*pi/N) on [-1, 1]."""
    if N == 0:
        return np.zeros((1, 1)), np.ones(1)
    t = np.cos(np.pi * np.arange(N + 1) / N)
    sign = (-1.0) ** np.arange(N + 1)
    cvec = np.concatenate(([2.0], np.ones(N - 1), [2.0])) * sign
    X = np.tile(t, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(cvec, 1.0 / cvec) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return D, t


@dataclasses.dataclass
class HelmholtzDiscretization:
    """Assembled split Helmholtz problem plus everything needed to interpret it.

    grid_a and grid_b are the physical points of the two subdomains (both
    include the interface x1); kappa_a/kappa_b the wavenumber samples there;
    deriv_row_b is the spectral first-derivative row at x1 before scaling,
    used for interface checks; h the finite-difference step.
    """

    problem: TwoParProblem
    config: HelmholtzConfig
    grid_a: np.ndarray
    grid_b: np.ndarray
    kappa_a: np.ndarray
    kappa_b: np.ndarray
    h: float
    deriv_row_b: np.ndarray

    def one_sided_slope(self, x):
        """Second-order one-sided derivative of the FD eigenvector at x1."""
        x = np.asarray(x).reshape(-1)
        return (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * self.h)

    def reconstruct(self, quad):
        """Merge a quadruplet into one eigenfunction on [0, x2].

        The spectral part is rescaled so both one-sided derivatives at the
        interface agree; value continuity at x1 is then a genuine
        consistency check, not a construction artifact. Returns
        (grid, values).
        """
        x = np.asarray(quad.x).reshape(-1)
        y = np.asarray(quad.y).reshape(-1)
        s1 = self.one_sided_slope(x)
        s2 = self.deriv_row_b @ y
        span = self.config.x2 - self.config.x1
        # slope matching needs a usable slope; a mu ~ 0 eigenfunction is
        # nearly flat at x1, fall back to value matching there
        if abs(s2) * span > 1e-8 * np.max(np.abs(y)):
            w = s1 / s2
        else:
            w = x[-1] / y[0]
        grid = np.concatenate([self.grid_a, self.grid_b[1:]])
        vals = np.concatenate([x, w * y[1:]])
        return grid, vals

    def interface_mismatch(self, quad) -> float:
        """Relative disagreement of the two subdomain values at x1 after
        matching their interface slopes."""
        x = np.asarray(quad.x).reshape(-1)
        y = np.asarray(quad.y).reshape(-1)
        s1 = self.one_sided_slope(x)
        s2 = self.deriv_row_b @ y
        v1 = x[-1]
        v2 = y[0] * s1 / s2
        return float(abs(v1 - v2) / max(abs(v1), abs(v2)))


def gen_helmholtz(config: HelmholtzConfig | None = None) -> HelmholtzDiscretization:
    """Assemble the split Helmholtz problem of the given configuration.

    Large equation (n x n, sparse from n >= 500): second-order central
    differences for u'' + kappa^2 u - lam u on [0, x1], a Dirichlet row at
    0, and a one-sided second-order stencil at x1 for the interface
    condition u'(x1) - mu u(x1) = 0 (the mu term is the only entry of A3).
    It is assembled directly in CSR from flat real arrays, in O(n) time and
    memory, and cast to complex only when each matrix is made; below
    SPARSE_MIN_N the matrices are then densified.
    Small equation (m x m, dense): Chebyshev collocation on [x1, x2] with
    the same interface condition in row 0 and a Neumann row at x2. Both
    equations are row-scaled to unit diagonal at (lam, mu) = (1, 1); row
    scaling changes neither eigenvalues nor eigenvectors. The normalization
    vector is c = e_0, so c^T y = 1 pins the spectral eigenfunction to value
    one at the interface.
    """
    if config is None:
        config = HelmholtzConfig()
    config.validate()
    n, m = config.n, config.m
    grid_a = np.linspace(0.0, config.x1, n)
    h = config.x1 / (n - 1)
    ka = config.kappa_a_values(grid_a)

    # A1 in CSR arrays: the Dirichlet row 0, then three entries per row, the
    # interior stencil on rows 1..n-2 and the one-sided interface row n-1
    stencil = np.empty((n - 1, 3))
    stencil[:, 0] = 1.0 / h**2
    stencil[:, 1] = -2.0 / h**2 + ka[1:] ** 2
    stencil[:, 2] = 1.0 / h**2
    stencil[-1] = (1.0 / (2.0 * h), -2.0 / h, 3.0 / (2.0 * h))
    cols = np.arange(n - 1)[:, None] + np.arange(3)  # row i: i-1, i, i+1
    cols[-1] -= 1  # row n-1: n-3, n-2, n-1
    a1_head = np.array([1.0])
    a1_diag = np.concatenate((a1_head, stencil[:-1, 1], stencil[-1:, 2]))
    # A2 is -1 on the interior diagonal, A3 a single -1 at (n-1, n-1)
    a2_diag = np.zeros(n)
    a2_diag[1:-1] = -1.0
    a3_diag = np.zeros(n)
    a3_diag[-1] = -1.0
    # unit diagonal at (1, 1); real arithmetic keeps the imaginary zeros
    # +0.0 after the cast
    s = 1.0 / ((a1_diag + a2_diag) + a3_diag)
    a1_head = a1_head * s[0]
    stencil = stencil * s[1:, None]
    a2_diag = a2_diag * s
    a3_diag = a3_diag * s

    def csr(data, indices, indptr):
        return sp.csr_matrix((data.astype(np.complex128), indices, indptr), shape=(n, n))

    A1 = csr(np.concatenate((a1_head, stencil.ravel())),
             np.concatenate(([0], cols.ravel())),
             np.concatenate(([0], np.arange(1, 3 * n - 1, 3))))
    A2 = csr(a2_diag[1:-1], np.arange(1, n - 1),
             np.concatenate(([0], np.arange(n - 1), [n - 2])))
    A3 = csr(a3_diag[-1:], [n - 1], np.concatenate((np.zeros(n, dtype=int), [1])))

    N = m - 1
    D_t, t = _cheb(N)
    span = config.x2 - config.x1
    grid_b = config.x1 + span * (1.0 - t) / 2.0  # ascending: row 0 is x1
    D_x = (-2.0 / span) * D_t
    kb = config.kappa_b_values(grid_b)
    B1 = D_x @ D_x + np.diag(kb**2)
    B1[0, :] = D_x[0, :]
    B1[m - 1, :] = D_x[m - 1, :]
    B2 = -np.eye(m)
    B2[0, 0] = 0.0
    B2[m - 1, m - 1] = 0.0
    B3 = np.zeros((m, m))
    B3[0, 0] = -1.0

    db = np.diag(B1 + B2 + B3)
    B1, B2, B3 = B1 / db[:, None], B2 / db[:, None], B3 / db[:, None]

    if n < SPARSE_MIN_N:
        A1, A2, A3 = A1.toarray(), A2.toarray(), A3.toarray()
    c = np.zeros(m)
    c[0] = 1.0
    problem = TwoParProblem(
        A1, A2, A3, B1, B2, B3, c,
        label=f"helmholtz(n={n},m={m})",
    )
    return HelmholtzDiscretization(
        problem=problem, config=config, grid_a=grid_a, grid_b=grid_b,
        kappa_a=ka, kappa_b=kb, h=h, deriv_row_b=D_x[0, :].copy(),
    )


def helmholtz_analytic_eigenvalues(kappa0, length, count):
    """First eigenvalues of u'' + kappa0^2 u = lam u, u(0) = 0, u'(L) = 0.

    Separation of variables gives lam_k = kappa0^2 - ((k - 1/2) pi / L)^2
    with eigenfunction sin(sqrt(kappa0^2 - lam_k) x).
    """
    k = np.arange(1, count + 1, dtype=float)
    return kappa0**2 - ((k - 0.5) * np.pi / length) ** 2


def helmholtz_analytic_mu(kappa0, lam, x1):
    """Interface ratio u'(x1)/u(x1) of the analytic mode at eigenvalue lam."""
    omega = cmath.sqrt(complex(kappa0) ** 2 - complex(lam))
    return omega * cmath.cos(omega * x1) / cmath.sin(omega * x1)


@dataclasses.dataclass
class BranchTable:
    """Tabulated branch values g_i(lam) over a lam grid.

    values[i, j] is branch branch_ids[j] at grid[i]; NaN marks a point the
    continuation could not resolve, with the reason recorded in gaps as
    (grid index, branch id, message).
    """

    grid: np.ndarray
    branch_ids: tuple
    values: np.ndarray
    gaps: list

    def column(self, branch_id) -> np.ndarray:
        return self.values[:, self.branch_ids.index(branch_id)]


def tabulate_branches(problem: TwoParProblem, lambda_grid, branch_ids=None) -> BranchTable:
    """Follow branches across a sorted lam grid, recording gaps instead of
    raising.

    Branch identities are fixed by the |mu| ordering at pencil.REFERENCE_LAM. The
    grid is walked outward from the sample nearest the reference, each
    direction from the problem's reference points (one full QZ for both), so
    steps stay small. Where a step cannot be resolved (no finite eigenvalue,
    or two candidates genuinely indistinguishable) the value is NaN and the
    walk continues from the last resolved point.
    """
    grid = np.asarray(lambda_grid, dtype=np.complex128).reshape(-1)
    if grid.size == 0:
        raise ValueError("lambda grid is empty")
    if branch_ids is None:
        branch_ids = tuple(range(len(problem.reference_points)))
    else:
        branch_ids = tuple(branch_ids)
    values = np.full((grid.size, len(branch_ids)), np.nan, dtype=np.complex128)
    gaps = []
    start = int(np.argmin(np.abs(grid - pencil.REFERENCE_LAM)))

    def sweep(indices):
        last = {b: pencil.reference_point(problem, b) for b in branch_ids}
        for i in indices:
            for j, b in enumerate(branch_ids):
                try:
                    last[b] = pencil.continue_branch(problem, last[b], grid[i])
                    values[i, j] = last[b].mu
                except (AmbiguousBranch, NoFiniteEigenvalue) as exc:
                    gaps.append((i, b, f"{type(exc).__name__}: {exc}"))

    sweep(range(start, grid.size))
    sweep(range(start - 1, -1, -1))
    return BranchTable(grid, branch_ids, values, gaps)


@dataclasses.dataclass
class SingularInterval:
    """A real-axis interval where the tabulated branch looks non-analytic."""

    lo: float
    hi: float
    kind: str  # "gap", "pole", or "spike"

    def contains(self, lam) -> bool:
        return self.lo <= complex(lam).real <= self.hi


def flag_singularities(table: BranchTable, branch_id=0):
    """Detect likely singularities of one tabulated branch on a real grid.

    Three signatures: recorded gaps (NaN runs), poles (a sign flip of an
    essentially real branch between adjacent samples, both of magnitude well
    above the median), and spikes (a single sample of magnitude
    SPIKE_FACTOR times the median). Returns merged SingularInterval's;
    interval ends are midpoints to the neighboring untouched samples.
    """
    vals = table.column(branch_id)
    grid = table.grid.real.astype(float)
    k = grid.size
    finite = np.isfinite(vals)
    scale = float(np.median(np.abs(vals[finite]))) if finite.any() else 0.0
    floor = max(scale, 1e-300)

    # kind priority when an index matches several signatures
    marked = {}
    spike = finite & (np.abs(np.where(finite, vals, 0.0)) >= SPIKE_FACTOR * max(scale, 1.0))
    for i in np.flatnonzero(spike):
        marked[int(i)] = "spike"
    for i in np.flatnonzero(~finite):
        marked[int(i)] = "gap"
    for i in range(k - 1):
        a, b = vals[i], vals[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        real_enough = abs(a.imag) <= 1e-8 * abs(a) and abs(b.imag) <= 1e-8 * abs(b)
        big = min(abs(a), abs(b)) >= FLIP_FACTOR * floor
        if real_enough and big and a.real * b.real < 0:
            marked[i] = "pole"
            marked[i + 1] = "pole"

    if not marked:
        return []
    runs = []
    idx = sorted(marked)
    run = [idx[0]]
    for i in idx[1:]:
        if i == run[-1] + 1:
            run.append(i)
        else:
            runs.append(run)
            run = [i]
    runs.append(run)
    out = []
    order = {"pole": 0, "gap": 1, "spike": 2}
    for run in runs:
        i0, i1 = run[0], run[-1]
        lo = grid[i0] if i0 == 0 else 0.5 * (grid[i0 - 1] + grid[i0])
        hi = grid[i1] if i1 == k - 1 else 0.5 * (grid[i1] + grid[i1 + 1])
        kind = min((marked[i] for i in run), key=order.__getitem__)
        out.append(SingularInterval(float(lo), float(hi), kind))
    return out
