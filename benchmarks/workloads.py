"""The four benchmark workloads: seeded inputs, the solves of one session, and
the checks on every result.

Each workload builds its inputs with ``setup(seed, session)`` and runs one
session with ``session(inputs, seed, session, ctx)``. Sessions run in a
closed loop: one client, the next solve starts when the previous one ends.
Every solve goes through ``ctx.op(kind, fn, check)``, which times it and
queues ``check(result)`` to run after the session; a check returns the
failure reasons it found (empty when the result is correct). ``session_s``
is the nominal wall time of one session on the measuring machine, its
set-up included unless the inputs are shared (``setup_s`` is then that of
the shared set-up); run.py sizes a run from them. The solvers
are called with the arguments the CLI passes (``mepnl solve --solver
newton|resinv|delta`` and ``mepnl branches``), except where noted. The
checks use ``CHECK_RESIDUALS``, bound before any tracing is installed, so
they never show up in the trace.
"""
from __future__ import annotations

import numpy as np

from mepnl import core, delta, nep, problems, solvers

CHECK_RESIDUALS = core.residuals
# res_b is checked against this for every solve; res_a against the solve's tol.
RES_B_TOL = 1e-10


def session_rng(seed, session, stream):
    """Generator for one input stream of one session, fixed by the run seed."""
    return np.random.default_rng([seed, session, stream])


def problem_seed(seed, session):
    """Seed of the generated problem of one session."""
    return int(session_rng(seed, session, 0).integers(2**31))


def check_solve(problem, tol):
    """Check of a (Quadruplet, SolveTrace) result, independent of the solver's
    own stopping test: it must have converged, and both residuals, recomputed
    with core.residuals, must meet tol (large equation) and RES_B_TOL (small)."""

    def check(result):
        quad, trace = result
        reasons = []
        if not trace.converged:
            reasons.append(trace.termination or "not_converged")
        rec = CHECK_RESIDUALS(problem, quad)
        if not rec.res_a <= tol:
            reasons.append("res_a")
        if not rec.res_b <= RES_B_TOL:
            reasons.append("res_b")
        return reasons

    return check


def newton(ctx, problem, lam0, x0, tol=1e-10, **view_args):
    """One ``solve --solver newton`` call; the NepView is reported to ctx."""
    view = nep.NepView(problem, branch_id=0, **view_args)
    ctx.views.append(view)
    return solvers.augmented_newton(view, lam0, x0, solvers.SolverConfig(tol=tol, maxit=100))


def resinv(ctx, problem, x0, sigma, tol=1e-10):
    """One ``solve --solver resinv`` call; the NepView is reported to ctx."""
    view = nep.NepView(problem, branch_id=0)
    ctx.views.append(view)
    return solvers.resinv(view, x0, solvers.SolverConfig(tol=tol, maxit=100, sigma=sigma))


class NewtonSmallPencil:
    """Dense random n=300, m=100: the small pencil does the work.

    A session is a new problem and two Newton solves from seeded starts near
    the origin. Short sessions give a run many of them, which keeps the
    medians steady although the iteration count varies from start to start.
    """

    name = "newton-small-pencil"
    session_s = 1.1
    shared_inputs = False
    headline = "newton"
    n, m, starts = 300, 100, 2

    def setup(self, seed, session):
        return problems.gen_random(self.n, self.m, problem_seed(seed, session))

    def session(self, problem, seed, session, ctx):
        rng = session_rng(seed, session, 1)
        for _ in range(self.starts):
            lam0 = complex(*rng.uniform(-0.2, 0.2, 2))
            ctx.op("newton", lambda: newton(ctx, problem, lam0, np.ones(problem.n)),
                   check_solve(problem, 1e-10))


class DenseLargeLu:
    """Dense random n=700, m=20: the large LU and the M(lam) builds do the work.

    A session is a new problem, three Newton solves from seeded starts near
    the origin, then resinv set up as acceptance criterion 7 does from the
    first solve: x0 is its eigenvector plus 5% noise, sigma = lam + 0.05. At
    n=1000 a run held only about seven Newton solves, too few for a steady
    mean; at n=700 it holds about thirty and the dense LU still dominates.
    """

    name = "dense-large-lu"
    session_s = 2.2
    shared_inputs = False
    headline = "newton"
    n, m, starts = 700, 20, 3
    agree_tol = 1e-7

    def setup(self, seed, session):
        return problems.gen_random(self.n, self.m, problem_seed(seed, session))

    def session(self, problem, seed, session, ctx):
        rng = session_rng(seed, session, 1)
        solved = []
        for _ in range(self.starts):
            lam0 = complex(*rng.uniform(-0.2, 0.2, 2))
            solved.append(ctx.op("newton", lambda: newton(ctx, problem, lam0, np.ones(problem.n)),
                                 check_solve(problem, 1e-10)))
        if solved[0] is None:
            return
        ref = solved[0][0]
        x0 = ref.x / np.abs(ref.x).max() + rng.uniform(-0.05, 0.05, problem.n)
        ctx.op("resinv", lambda: resinv(ctx, problem, x0, ref.lam + 0.05),
               self._check_resinv(problem, ref))

    def _check_resinv(self, problem, ref):
        base = check_solve(problem, 1e-10)

        def check(result):
            reasons = base(result)
            if not abs(result[0].lam - ref.lam) <= self.agree_tol:
                reasons.append("disagrees_with_newton")
            return reasons

        return check


class HelmholtzSparse:
    """Split 1-D Helmholtz with n=5e5, m=30, as acceptance criterion 10 sets
    it up: Newton at tol 1e-13 on modes 1-4 from the analytic eigenvalue plus
    a seeded offset, then branch 0 tabulated over -10:0.125:100."""

    name = "helmholtz-sparse"
    session_s = 1.45
    setup_s = 3.5
    headline = "tabulate"
    # the problem does not depend on the seed and takes ~4 s to assemble, so
    # a run assembles it a few times and its sessions share the last one
    shared_inputs = True
    kappa0, x1, x2, n, m = 2.0, 3.7, 5.0, 500_000, 30
    modes, max_offset, tol, analytic_tol = 4, 1e-2, 1e-13, 1e-4
    grid = np.arange(-10.0, 100.0 + 1e-9, 0.125)
    min_finite = 0.9

    def setup(self, seed, session):
        return problems.gen_helmholtz(problems.HelmholtzConfig(
            x1=self.x1, x2=self.x2, n=self.n, m=self.m,
            kappa_a=self.kappa0, kappa_b=self.kappa0))

    def session(self, disc, seed, session, ctx):
        rng = session_rng(seed, session, 1)
        problem = disc.problem
        analytic = problems.helmholtz_analytic_eigenvalues(self.kappa0, self.x2, self.modes)
        for k, lam_k in enumerate(analytic):
            omega = (k + 0.5) * np.pi / self.x2
            lam0 = lam_k + rng.uniform(-self.max_offset, self.max_offset)
            x0 = np.sin(omega * disc.grid_a)
            # the CLI has no reference option; criterion 10 fixes branch 0 at
            # the start value, which is what is run here
            ctx.op("newton",
                   lambda: newton(ctx, problem, lam0, x0, tol=self.tol,
                                  reference_lam=lam0),
                   self._check_mode(problem, lam_k))
        ctx.op("tabulate",
               lambda: problems.tabulate_branches(problem, self.grid, branch_ids=[0]),
               self._check_table)

    def _check_mode(self, problem, lam_k):
        base = check_solve(problem, self.tol)

        def check(result):
            reasons = base(result)
            if not abs(result[0].lam - lam_k) <= self.analytic_tol:
                # a solve that never left its start is the recorded finding
                stopped = result[1].iterations == 1
                reasons.append("stopped_at_start_off_analytic" if stopped
                               else "off_analytic")
            return reasons

        return check

    def _check_table(self, table):
        finite = np.isfinite(table.column(0)).mean()
        return [] if finite >= self.min_finite else ["table_not_finite"]


class OracleDense:
    """The dense operator-determinant oracle on n*m = 400."""

    name = "oracle-dense"
    session_s = 1.5
    shared_inputs = False
    headline = "oracle"
    n, m = 25, 16

    def setup(self, seed, session):
        return problems.gen_random(self.n, self.m, problem_seed(seed, session),
                                   alphas=(1, 1, 1), betas=(1, 1, 1))

    def session(self, problem, seed, session, ctx):
        quads = ctx.op("oracle", lambda: delta.solve(problem), self._check_quads(problem))
        if quads is not None:
            ctx.counts["delta.kept"] += len(quads)
            ctx.counts["delta.order"] += problem.n * problem.m

    @staticmethod
    def _check_quads(problem):
        def check(quads):
            if not quads:
                return ["no_quadruplets"]
            for q in quads:
                rec = CHECK_RESIDUALS(problem, q)
                if not (rec.res_a <= delta.ORACLE_TOL and rec.res_b <= delta.ORACLE_TOL):
                    return ["kept_above_oracle_tol"]
            return []

        return check


WORKLOADS = {w.name: w for w in (NewtonSmallPencil(), DenseLargeLu(),
                                 HelmholtzSparse(), OracleDense())}
