"""Problem generators and branch tabulation.

Four families: dense random instances, quadratic eigenvalue problems recast
with a 2x2 coupling block, square-root nonlinearities with a closed-form
branch, and a 1-D Helmholtz problem split at an interior interface so that
each subdomain becomes one equation of the pair.
tabulate_branches follows branches across a real lam grid, and
flag_singularities marks its unresolved samples and computed poles there.
"""
from __future__ import annotations

import cmath
import dataclasses

import numpy as np
import scipy.sparse as sp

from . import pencil
from .core import TwoParProblem
from .errors import AmbiguousBranch, NoFiniteEigenvalue


def gen_random(n, m, seed, alphas=(1.0, 1.0 / 500.0, 1.0 / 50.0),
               betas=(1.0, 1.0 / 500.0, 1.0 / 50.0)) -> TwoParProblem:
    """Dense random problem: A_i = alphas[i] * V diag(f) U, same for B_i.

    V, U and the diagonal f are standard normal, drawn from a single
    generator seeded with seed, so instances are bit-reproducible. The
    default scalings keep the lam and mu terms small against the constant
    term. The normalization vector is TwoParProblem's fixed-seed draw.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(seed)

    def draw(order, scale):
        V = rng.standard_normal((order, order))
        f = rng.standard_normal(order)
        U = rng.standard_normal((order, order))
        # in place, so that no n x n temporary is made beside V, U and the product
        V *= f
        V *= scale
        return V @ U

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
    the built-in profiles. kappa_a_values and kappa_b_values give a
    constant's values as a read-only broadcast of it (_profile_values).
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
        return _profile_values(self.kappa_a, x, default_kappa_a)

    def kappa_b_values(self, x):
        return _profile_values(
            self.kappa_b, x, lambda z: default_kappa_b(z, x1=self.x1)
        )


def _profile_values(profile, x, fallback):
    """The float64 values of profile (None for fallback) on the points x, of
    x's shape: a constant, or a callable's scalar, as a read-only broadcast
    of it, never a filled array; a callable's float64 array of that shape
    as it is, uncopied. ValueError when a value is not finite."""
    x = np.asarray(x, dtype=float)
    if profile is None:
        vals = fallback(x)
    elif callable(profile):
        vals = profile(x)
    else:
        vals = float(profile)
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("wavenumber profile produced non-finite values")
    return vals if vals.shape == x.shape else np.broadcast_to(vals, x.shape)


def _cheb(N):
    """Chebyshev differentiation matrix and points t_j = cos(j*pi/N) on [-1, 1],
    N >= 1."""
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
    """Assembled split Helmholtz problem plus what its interface check reads.

    grid_a is the finite-difference grid of [0, x1], interface included, and
    h its step; deriv_row_b is the spectral first-derivative row at x1
    before scaling, for interface_mismatch.
    """

    problem: TwoParProblem
    grid_a: np.ndarray
    h: float
    deriv_row_b: np.ndarray

    def one_sided_slope(self, x):
        """Second-order one-sided derivative of the FD eigenvector at x1."""
        x = np.asarray(x).reshape(-1)
        return (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * self.h)

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


def gen_helmholtz(config: HelmholtzConfig) -> HelmholtzDiscretization:
    """Assemble the split Helmholtz problem of the given configuration,
    which is validated first (ValueError when it is not valid).

    Large equation (n x n, sparse at every n): second-order central
    differences for u'' + kappa^2 u - lam u on [0, x1], a Dirichlet row at
    0, and a one-sided second-order stencil at x1 for the interface
    condition u'(x1) - mu u(x1) = 0 (the mu term is the only entry of A3).
    Each matrix is assembled directly as a float64 dia_array of its
    diagonals, -2..1 for A1 and the main one for A2 and A3, from flat real
    arrays in O(n) time and memory: the form TwoParProblem stores a narrow
    A side in, so it keeps them without a copy. Each stored entry is
    written once, as its scaled value, but for A1's main diagonal: it first
    holds the unscaled d1, from which the row scales s = 1/((d1 + d2) + d3)
    are summed in that order, d2 and d3 being those of A2 and A3. Beside
    the stored diagonals, s is the one n-vector made, and the wavenumber
    values are one more unless the profile is a constant. Its M(lam) is
    tridiagonal but for the interface row's entry at (n-1, n-3), so it
    takes the tridiagonal LU (TwoParProblem.factorize_a).
    Small equation (m x m, dense): Chebyshev collocation on [x1, x2] with
    the same interface condition in row 0 and a Neumann row at x2. Both
    equations are row-scaled to unit diagonal at (lam, mu) = (1, 1); row
    scaling changes neither eigenvalues nor eigenvectors. The normalization
    vector is c = e_0, so c^T y = 1 pins the spectral eigenfunction to value
    one at the interface.
    """
    config.validate()
    n, m = config.n, config.m
    grid_a = np.linspace(0.0, config.x1, n)
    h = config.x1 / (n - 1)
    ka = config.kappa_a_values(grid_a)

    # A1 by its diagonals -2..1, diagonal k in row k + 2 holding entry
    # (j - k, j) in column j, as a dia_array keeps it: the Dirichlet row 0,
    # the interior stencil on rows 1..n-2 at columns i-1, i, i+1 and the
    # one-sided interface row n-1 at columns n-3, n-2, n-1
    a1 = np.empty((4, n))
    a1[2, 0] = 1.0
    np.square(ka[1:-1], out=a1[2, 1:n - 1])
    a1[2, 1:n - 1] += -2.0 / h**2
    a1[2, n - 1] = 3.0 / (2.0 * h)
    # unit diagonal at (1, 1): row i is scaled by s[i] = 1/((d1 + d2) + d3),
    # A2's -1 on rows 1..n-2 and A3's -1 at (n-1, n-1) added to d1 in place
    # (adding their +0.0 elsewhere changes no sum)
    s = a1[2].copy()
    s[1:] += -1.0
    np.divide(1.0, s, out=s)
    # each scaled entry written once, as the unscaled entry times s[i]; no
    # zero of a diagonal is scaled, so every zero, padding too, is +0.0
    a1[0, :n - 3] = a1[0, n - 2:] = a1[1, n - 1] = a1[3, :2] = 0.0
    a1[0, n - 3] = 1.0 / (2.0 * h) * s[-1]
    np.multiply(1.0 / h**2, s[1:n - 1], out=a1[1, :n - 2])
    a1[1, n - 2] = -2.0 / h * s[-1]
    a1[2] *= s
    a1[3, 2:] = a1[1, :n - 2]
    # A2 is -1 on the interior diagonal, A3 a single -1 at (n-1, n-1)
    a2 = np.empty((1, n))
    a2[0, [0, -1]] = 0.0
    np.negative(s[1:-1], out=a2[0, 1:-1])
    a3 = np.zeros((1, n))
    a3[0, -1] = -s[-1]
    A1 = sp.dia_array((a1, np.arange(-2, 2)), shape=(n, n))
    A2, A3 = (sp.dia_array((a, [0]), shape=(n, n)) for a in (a2, a3))

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

    c = np.zeros(m)
    c[0] = 1.0
    problem = TwoParProblem(
        A1, A2, A3, B1, B2, B3, c,
        label=f"helmholtz(n={n},m={m})",
    )
    return HelmholtzDiscretization(
        problem=problem, grid_a=grid_a, h=h, deriv_row_b=D_x[0, :].copy(),
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

    values[i, j] is branch branch_ids[j] at grid[i]; NaN in both parts
    marks a point the continuation could not resolve, with the reason
    recorded in gaps as (grid index, branch id, message).
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

    Branch identities are fixed by the canonical (|mu|, Re mu, Im mu) order
    at pencil.REFERENCE_LAM. The grid is walked outward from the sample
    nearest the reference, each direction from the branch's reference point
    (pencil.reference_point, built once for both), so steps stay small.
    Where a step cannot be resolved (no finite eigenvalue, or two
    candidates genuinely indistinguishable) the value is NaN and the
    walk continues from the last resolved point. When B3 has rank one a
    point does not depend on the one before it, so the whole grid is
    evaluated in one call (pencil._rank_one_points) instead of walked, and
    its mu fills the values directly; its gaps are listed in the walk's
    order all the same. That call computes no vectors: one substitution per
    lam, and mu certified by y's residual alone, where a point also
    certifies w. A grid entry that is not finite raises ValueError.
    """
    grid = np.asarray(lambda_grid, dtype=np.complex128).reshape(-1)
    if grid.size == 0:
        raise ValueError("lambda grid is empty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("lambda grid has a non-finite entry")
    if branch_ids is None:
        branch_ids = tuple(range(problem.reference_mus.size))
    else:
        branch_ids = tuple(branch_ids)
    values = np.full((grid.size, len(branch_ids)), complex(np.nan, np.nan))
    gaps = []
    start = int(np.argmin(np.abs(grid - pencil.REFERENCE_LAM)))

    if problem.b3_rank_one is not None:
        # the one branch there is has id 0; a start the walk could not take
        # raises here as it would there, with no reference vectors built
        for b in branch_ids:
            pencil._branch_mu(problem.reference_mus, b, pencil.REFERENCE_LAM)
        if branch_ids:
            mu, _, _, _, failed = pencil._rank_one_points(problem, grid, vectors=False)
            values[:] = mu[:, None]
            values[list(failed)] = complex(np.nan, np.nan)
            # the walk's order: start up to the end, then start - 1 down to 0
            for i in sorted(failed, key=lambda i: i - start if i >= start else grid.size - i):
                gaps.extend((i, b, f"{type(failed[i]).__name__}: {failed[i]}")
                            for b in branch_ids)
        return BranchTable(grid, branch_ids, values, gaps)

    def sweep(indices, last):
        for i in indices:
            for j, b in enumerate(branch_ids):
                try:
                    last[b] = pencil.continue_branch(problem, last[b], grid[i])
                    values[i, j] = last[b].mu
                except (AmbiguousBranch, NoFiniteEigenvalue) as exc:
                    gaps.append((i, b, f"{type(exc).__name__}: {exc}"))

    reference = {b: pencil.reference_point(problem, b) for b in branch_ids}
    sweep(range(start, grid.size), dict(reference))
    sweep(range(start - 1, -1, -1), reference)
    return BranchTable(grid, branch_ids, values, gaps)


@dataclasses.dataclass
class SingularInterval:
    """A real-axis interval where a tabulated branch is not analytic."""

    lo: float
    hi: float
    kind: str  # "gap" (unresolved samples) or "pole" (a pole of the problem)

    def contains(self, lam) -> bool:
        return self.lo <= complex(lam).real <= self.hi


def flag_singularities(problem: TwoParProblem, table: BranchTable):
    """{branch_id: [SingularInterval]} for every branch of table, a
    tabulation of problem on a sorted real grid.

    A sample the continuation could not resolve (NaN) is marked "gap". A
    pole p of pencil.branch_poles, computed once for the problem, with
    grid[0] <= Re p <= grid[-1] and |Im p| at most the step between the two
    samples that bracket Re p, marks those two samples "pole". When B3 has
    rank two or more a pole belongs to the problem, not to one branch, so
    it is flagged on every tabulated branch. Marked samples in a row make
    one interval, a "pole" if any of them is one, whose ends are the
    midpoints to the unmarked neighbors, or the grid's ends.
    """
    grid = table.grid.real.astype(float)
    k = grid.size
    poles = set()
    for p in pencil.branch_poles(problem):
        if k < 2 or not grid[0] <= p.real <= grid[-1]:
            continue
        i = min(int(np.searchsorted(grid, p.real, side="right")) - 1, k - 2)
        if abs(p.imag) <= grid[i + 1] - grid[i]:
            poles.update((i, i + 1))

    def intervals(vals):
        marked = set(np.flatnonzero(~np.isfinite(vals)).tolist()) | poles
        out = []
        for i in sorted(marked):
            hi = float(grid[i] if i == k - 1 else 0.5 * (grid[i] + grid[i + 1]))
            if i - 1 not in marked:
                lo = float(grid[i] if i == 0 else 0.5 * (grid[i - 1] + grid[i]))
                out.append(SingularInterval(lo, hi, "gap"))
            out[-1].hi = hi
            if i in poles:
                out[-1].kind = "pole"
        return out

    return {b: intervals(table.column(b)) for b in table.branch_ids}
