"""Acceptance gate: one test per advertised guarantee, pinned tolerances.

Every test prints one summary line (shown with pytest -s, or in the captured
output on failure) and asserts all of its checks at the end, so a red run
names exactly which guarantee broke and by how much.  Guarantees that come
with a runtime budget assert the elapsed time as one more check.
"""
import json
import os
import time

import numpy as np

import mepnl
from mepnl import cli, delta, nep, pencil, problems, solvers
from mepnl.core import (attach_left_vectors, c0_matrix, condition_numbers,
                        worst_case_perturbation)
from mepnl.errors import SingularJacobian


class Criterion:
    """Collects named checks and renders a single pass/fail line."""

    def __init__(self, num, label):
        self.num = num
        self.label = label
        self.checks = []
        self.t0 = time.perf_counter()

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def finish(self, budget=None):
        elapsed = time.perf_counter() - self.t0
        if budget is not None:
            self.check(f"runtime < {budget:g}s", elapsed < budget,
                       f"took {elapsed:.2f}s")
        bad = [(n, d) for n, ok, d in self.checks if not ok]
        verdict = "PASS" if not bad else "FAIL"
        line = (f"[criterion {self.num:02d}] {self.label}: {verdict} "
                f"({len(self.checks)} checks, {elapsed:.2f}s)")
        print(line)
        assert not bad, line + "; failed: " + "; ".join(
            f"{n} ({d})" if d else n for n, d in bad)


def view_through(problem, quad):
    """Bind the branch that carries quad's mu at quad's lam."""
    pts = pencil.eigenpairs_at(problem, quad.lam)
    bid = min(range(len(pts)), key=lambda i: abs(pts[i].mu - quad.mu))
    return nep.NepView(problem, branch_id=bid, reference_lam=quad.lam)


def test_criterion_01_quadratic_branch_exactness():
    c = Criterion(1, "quadratic coupling reproduces g(lam) = lam^2")
    rng = np.random.default_rng(202)
    n = 5
    A1, A2, A3 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                  for _ in range(3))
    p = problems.gen_qep(A1, A2, A3)
    samples = rng.uniform(-1.2, 1.2, 50) + 1j * rng.uniform(-1.2, 1.2, 50)
    worst_g = worst_d = 0.0
    for lam in samples:
        pts = pencil.eigenpairs_at(p, lam)
        c.check("single finite branch", len(pts) == 1, f"got {len(pts)}")
        bp = pts[0]
        worst_g = max(worst_g, abs(bp.mu - lam ** 2))
        g, _ = pencil.derivatives(p, bp, 5)
        worst_d = max(worst_d, abs(g[0] - 2 * lam), abs(g[1] - 2.0),
                      abs(g[2]), abs(g[3]), abs(g[4]))
    c.check("|g(lam) - lam^2| <= 1e-12 on 50 samples", worst_g <= 1e-12,
            f"worst {worst_g:.2e}")
    c.check("derivative recursion gives 2*lam, 2, 0, 0, 0 to 1e-10",
            worst_d <= 1e-10, f"worst {worst_d:.2e}")
    c.finish(budget=1.0)


def test_criterion_02_delta_oracle_and_newton_agree():
    c = Criterion(2, "dense oracle eigenpairs reconverge under Newton")
    sizes = [(4, 2), (6, 3), (8, 4), (10, 2), (5, 4)]
    worst_res = worst_gap = 0.0
    total = 0
    for k in range(20):
        n, m = sizes[k % len(sizes)]
        p = problems.gen_random(n, m, seed=40 + k, alphas=(1.0, 1.0, 1.0),
                                betas=(1.0, 1.0, 1.0))
        quads = delta.solve(p)
        total += len(quads)
        for q in quads:
            r = mepnl.residuals(p, q)
            worst_res = max(worst_res, r.res_a, r.res_b)
            view = view_through(p, q)
            got, trace = solvers.augmented_newton(
                view, q.lam + 1e-3, q.x + 1e-3 * np.ones(p.n))
            c.check(f"seed {40 + k} converged", trace.converged,
                    trace.termination)
            worst_gap = max(worst_gap, abs(got.lam - q.lam))
    c.check("oracle residuals <= 1e-8 (both equations)", worst_res <= 1e-8,
            f"worst {worst_res:.2e} over {total} quadruplets")
    c.check("Newton reconverges to |d lam| <= 1e-8", worst_gap <= 1e-8,
            f"worst {worst_gap:.2e}")
    c.finish(budget=30.0)


def test_criterion_03_companion_linearization_identity():
    c = Criterion(3, "determinant operators match the companion blocks")
    rng = np.random.default_rng(303)
    n = 4
    A1, A2, A3 = (rng.standard_normal((n, n)) for _ in range(3))
    p = problems.gen_qep(A1, A2, A3)
    delta0, delta1 = delta.assemble(p)
    Z = np.zeros((n, n))
    c.check("delta1 equals [[-A1, 0], [0, A3]] entrywise",
            np.array_equal(delta1, np.block([[-A1, Z], [Z, A3]])))
    c.check("delta0 equals [[A2, A3], [A3, 0]] entrywise",
            np.array_equal(delta0, np.block([[A2, A3], [A3, Z]])))

    quads = delta.solve(p)
    eye = np.eye(n)
    C1 = np.block([[Z, eye], [-A1, -A2]])
    C2 = np.block([[eye, Z], [Z, A3]])
    companion = [z for z in np.linalg.eigvals(np.linalg.solve(C2, C1))
                 if np.isfinite(z)]
    lams = [q.lam for q in quads]
    c.check("both routes give 2n eigenvalues",
            len(lams) == len(companion) == 2 * n,
            f"{len(lams)} vs {len(companion)}")
    worst = 0.0
    for z in companion:
        best = min(lams, key=lambda w: abs(w - z))
        worst = max(worst, abs(best - z))
        lams.remove(best)
    c.check("eigenvalues match companion QEP to 1e-8", worst <= 1e-8,
            f"worst {worst:.2e}")
    c.finish()


def test_criterion_04_sqrt_branch_round_trip():
    c = Criterion(4, "eigenpairs solve the explicit square-root NEP")
    rng = np.random.default_rng(404)
    n = 6
    A1, A2, A3 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                  for _ in range(3))
    # p(lam) = (2 + 2 lam)(-1 + lam), pure +-sqrt coupling
    p, branch_fn = problems.gen_sqrt_nep(A1, A2, A3, a=0.0, b=2.0, c=-1.0,
                                         d=0.0, e=2.0, f=1.0)
    quads = delta.solve(p)
    c.check("oracle returns eigenpairs", bool(quads), f"{len(quads)}")
    worst = 0.0
    for q in quads:
        rs = []
        for sign in (+1, -1):
            mu = branch_fn(q.lam, sign)
            res = np.linalg.norm((A1 + q.lam * A2 + mu * A3) @ q.x)
            rs.append(res / (p.scale_a(q.lam, mu) * np.linalg.norm(q.x)))
        worst = max(worst, min(rs))
    c.check("NEP residual <= 1e-8 on one sqrt branch for every eigenpair",
            worst <= 1e-8, f"worst {worst:.2e} over {len(quads)}")
    c.finish()


STENCILS = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
    5: ((-3, -2, -1, 1, 2, 3), (-0.5, 2.0, -2.5, 2.5, -2.0, 0.5)),
}


def central_difference(fun, x0, k, h):
    offsets, coefs = STENCILS[k]
    return sum(cf * fun(x0 + o * h) for o, cf in zip(offsets, coefs)) / h ** k


def extrapolated_difference(fun, x0, k, h0=0.2, levels=4):
    # Richardson on the even-power error expansion of the central stencils
    vals = [central_difference(fun, x0, k, h0 / 2 ** i) for i in range(levels)]
    for p in range(1, levels):
        vals = [(4 ** p * b - a) / (4 ** p - 1)
                for a, b in zip(vals, vals[1:])]
    return vals[0]


def test_criterion_05_derivative_recursion_vs_finite_differences():
    c = Criterion(5, "branch derivatives match an independent FD oracle")
    rng = np.random.default_rng(505)
    n = 3
    A1, A2, A3 = (rng.standard_normal((n, n)) for _ in range(3))
    p, branch_fn = problems.gen_sqrt_nep(A1, A2, A3)
    lam = 0.3
    pts = pencil.eigenpairs_at(p, lam)
    bp = min(pts, key=lambda q: abs(q.mu - branch_fn(lam, +1)))
    c.check("pencil branch sits on the closed form",
            abs(bp.mu - branch_fn(lam, +1)) <= 1e-12,
            f"{abs(bp.mu - branch_fn(lam, +1)):.2e}")
    g, _ = pencil.derivatives(p, bp, 5)
    for k in range(1, 6):
        fd = extrapolated_difference(lambda t: branch_fn(t, +1), lam, k)
        rel = abs(g[k - 1] - fd) / abs(fd)
        c.check(f"order {k} matches FD to relative 1e-6", rel <= 1e-6,
                f"rel {rel:.2e}")
    gap = abs(g[0] - pencil.g_prime_closed_form(p, bp))
    c.check("order 1 matches the bilinear closed form to 1e-10",
            gap <= 1e-10, f"{gap:.2e}")
    c.finish()


def test_criterion_06_jacobian_detects_jordan_chains():
    c = Criterion(6, "bordered Jacobian singular iff the branch degenerates")
    B1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = mepnl.TwoParProblem(np.eye(2), np.eye(2), np.eye(2),
                            B1, np.zeros((2, 2)), np.eye(2), [1.0, 1.0])
    bp = pencil.BranchPoint(lam=0.0, mu=0.0, y=np.array([1.0, 0.0]),
                            w=np.array([0.0, 1.0]), branch_id=0)
    s = np.linalg.svd(pencil.jacobian(p, bp), compute_uv=False)
    c.check("Jordan chain drives sigma_min/norm <= 1e-12",
            s[-1] <= 1e-12 * s[0], f"{s[-1] / s[0]:.2e}")
    try:
        pencil.derivatives(p, bp, 1)
        c.check("derivative recursion refuses the degenerate point", False)
    except SingularJacobian:
        c.check("derivative recursion refuses the degenerate point", True)

    worst = np.inf
    for seed in range(20):
        rp = mepnl.gen_random(4, 3, seed=500 + seed, betas=(1.0, 1.0, 1.0))
        for point in pencil.eigenpairs_at(rp, 0.0):
            s = np.linalg.svd(pencil.jacobian(rp, point), compute_uv=False)
            worst = min(worst, s[-1] / s[0])
    c.check("every simple branch on 20 pencils has sigma_min/norm >= 1e-8",
            worst >= 1e-8, f"worst {worst:.2e}")
    c.finish()


def _desk_scale_traces():
    """The n=500 convergence-shape run; shared by criteria 7 and 8."""
    seed = 11
    lam0 = 0.15 + 0.1j
    p = problems.gen_random(500, 20, seed=seed)
    view = nep.NepView(p, branch_id=0, reference_lam=lam0)
    ref_q, ref_trace = solvers.augmented_newton(view, lam0, np.ones(p.n))
    x_exact = ref_q.x / np.abs(ref_q.x).max()
    rng = np.random.default_rng(seed + 100)
    x0 = x_exact + rng.uniform(-0.05, 0.05, p.n)
    newton_q, newton_trace = solvers.augmented_newton(view, lam0, x0)
    sigma = ref_q.lam + 0.05
    resinv_q, resinv_trace = solvers.resinv(
        view, x0, solvers.SolverConfig(sigma=sigma, maxit=100))
    return (ref_trace, newton_q, newton_trace, resinv_q, resinv_trace)


def test_criterion_07_convergence_shape_at_desk_scale():
    c = Criterion(7, "Newton digit gains and resinv geometric decay, n=500")
    ref_trace, newton_q, newton_trace, resinv_q, resinv_trace = \
        _desk_scale_traces()
    c.check("reference Newton from flat start converged",
            ref_trace.converged, ref_trace.termination)
    c.check("Newton converged within 15 iterations",
            newton_trace.converged and newton_trace.iterations <= 15,
            f"{newton_trace.iterations} iterations")
    c.check("final residual <= 1e-10", newton_trace.res_a[-1] <= 1e-10,
            f"{newton_trace.res_a[-1]:.2e}")
    gains = [np.log10(a / b)
             for a, b in zip(newton_trace.res_a, newton_trace.res_a[1:])]
    c.check("at least 3 digit gains recorded", len(gains) >= 3,
            f"{len(gains)}")
    c.check("gains over the last 3 iterations strictly increase",
            gains[-3] < gains[-2] < gains[-1],
            "gains " + str([f"{g:.2f}" for g in gains]))
    c.check("resinv with the same start converged", resinv_trace.converged,
            resinv_trace.termination)
    tail = [r for r in resinv_trace.res_a if r > 1e-14]
    slope = np.polyfit(np.arange(len(tail)), np.log10(tail), 1)[0]
    c.check("fitted geometric ratio < 0.9", 10 ** slope < 0.9,
            f"ratio {10 ** slope:.3f}")
    c.check("both solvers agree on the eigenvalue",
            abs(resinv_q.lam - newton_q.lam) <= 1e-7,
            f"{abs(resinv_q.lam - newton_q.lam):.2e}")
    c.finish(budget=60.0)


def test_criterion_08_eliminated_equation_exact_along_iterations():
    c = Criterion(8, "resB stays <= 1e-10 at every iterate of every trace")
    traces = []

    p = problems.gen_random(120, 6, seed=8)
    view = nep.NepView(p, branch_id=0, reference_lam=0.15 + 0.1j)
    _, t1 = solvers.augmented_newton(view, 0.15 + 0.1j, np.ones(p.n))
    traces.append(("newton random", t1))
    _, t2 = solvers.resinv(view, np.ones(p.n),
                           solvers.SolverConfig(sigma=0.15 + 0.1j, maxit=40))
    traces.append(("resinv random", t2))

    cfg = problems.HelmholtzConfig(x1=3.7, x2=5.0, n=201, m=12,
                                   kappa_a=2.0, kappa_b=2.0)
    disc = problems.gen_helmholtz(cfg)
    lam1 = problems.helmholtz_analytic_eigenvalues(2.0, 5.0, 1)[0]
    hview = nep.NepView(disc.problem, branch_id=0, reference_lam=lam1 + 1e-3)
    x0 = np.sin(0.5 * np.pi / 5.0 * disc.grid_a)
    _, t3 = solvers.augmented_newton(hview, lam1 + 1e-3, x0)
    traces.append(("newton helmholtz", t3))

    ref_trace, _, newton_trace, _, resinv_trace = _desk_scale_traces()
    traces += [("newton n=500 flat", ref_trace),
               ("newton n=500", newton_trace), ("resinv n=500", resinv_trace)]

    for name, tr in traces:
        c.check(f"{name} has iterates", len(tr.res_b) >= 2,
                f"{len(tr.res_b)}")
        worst = max(tr.res_b)
        c.check(f"{name} resB <= 1e-10 at all {len(tr.res_b)} iterates",
                worst <= 1e-10, f"worst {worst:.2e}")
    c.finish()


def test_criterion_09_worst_case_perturbation_attains_kappa():
    c = Criterion(9, "rank-one perturbation attains the condition bound")
    p = mepnl.gen_random(6, 3, seed=11)
    q = attach_left_vectors(p, delta.solve(p)[8])
    rep = condition_numbers(p, q)
    eps = 1e-7
    pert, predicted = worst_case_perturbation(p, q, None, eps)
    c.check("predicted shift equals eps * kappa_total",
            abs(predicted - eps * rep.kappa_total) <= 1e-12 * predicted,
            f"{predicted:.3e} vs {eps * rep.kappa_total:.3e}")
    observed = min(abs(q2.lam - q.lam) for q2 in delta.solve(pert))
    c.check("observed |d lam| within a factor 2 of the prediction",
            predicted / 2 <= observed <= predicted * 2,
            f"observed {observed:.3e}, predicted {predicted:.3e}")
    det_direct = np.linalg.det(c0_matrix(p, q))
    c.check("det(C0) identity holds to 1e-10",
            abs(det_direct - rep.det_c0) <= 1e-10 * abs(det_direct),
            f"gap {abs(det_direct - rep.det_c0):.2e}")
    c.finish()


def test_criterion_10_helmholtz_interface_problem():
    c = Criterion(10, "split Helmholtz matches separation of variables")
    kappa0, x1, x2 = 2.0, 3.7, 5.0
    analytic = problems.helmholtz_analytic_eigenvalues(kappa0, x2, 3)
    omegas = (np.arange(1, 4) - 0.5) * np.pi / x2
    tight = solvers.SolverConfig(tol=1e-13)

    def run_all(n):
        cfg = problems.HelmholtzConfig(x1=x1, x2=x2, n=n, m=20,
                                       kappa_a=kappa0, kappa_b=kappa0)
        disc = problems.gen_helmholtz(cfg)
        quads = []
        for lam_k, om in zip(analytic, omegas):
            view = nep.NepView(disc.problem, branch_id=0,
                               reference_lam=lam_k + 1e-3)
            quad, trace = solvers.augmented_newton(
                view, lam_k + 1e-3, np.sin(om * disc.grid_a), config=tight)
            c.check(f"n={n} mode {len(quads) + 1} converged", trace.converged,
                    trace.termination)
            quads.append(quad)
        errs = np.abs([q.lam - lam_k for q, lam_k in zip(quads, analytic)])
        return errs, quads, disc

    errs800, quads800, disc800 = run_all(800)
    c.check("n=800 eigenvalues match the analytic ones to 1e-3",
            errs800.max() <= 1e-3, f"worst {errs800.max():.2e}")

    # mode 3 has the largest h^2 discretization error, so only its halving
    # ratio is meaningfully second order
    errs401 = run_all(401)[0]
    errs801 = run_all(801)[0]
    ratio = errs401[2] / errs801[2]
    c.check("halving h divides the mode-3 error by about 4",
            3.5 <= ratio <= 4.5, f"ratio {ratio:.2f}")

    mism = max(disc800.interface_mismatch(q) for q in quads800)
    c.check("reconstructed eigenfunctions continuous at x1 to 1e-6",
            mism <= 1e-6, f"worst {mism:.2e}")

    grid = np.arange(-10.0, 100.0 + 1e-9, 0.125)
    table = problems.tabulate_branches(disc800.problem, grid, branch_ids=[0])
    col = table.column(0)
    c.check("branch curve tabulated across the window",
            np.isfinite(col).mean() >= 0.9,
            f"{np.isfinite(col).mean():.0%} finite")
    flags = problems.flag_singularities(disc800.problem, table)[0]
    c.check("real-axis singularities detected", bool(flags),
            f"{len(flags)} intervals")
    # interface ratio omega*tan(omega*(x2 - x1)) has poles where the cosine
    # vanishes; both fall inside the tabulated window
    poles = [kappa0 ** 2 - ((2 * j - 1) * np.pi / (2 * (x2 - x1))) ** 2
             for j in (1, 2)]
    for pole in poles:
        c.check(f"pole near lam={pole:.2f} flagged",
                any(f.contains(pole) for f in flags))
    for quad, lam_k in zip(quads800, analytic):
        c.check(f"converged eigenvalue {lam_k:.4f} lies off the flagged set",
                not any(f.contains(quad.lam) for f in flags))
    c.finish(budget=120.0)


def test_criterion_11_cli_runs_are_deterministic(tmp_path):
    c = Criterion(11, "repeated CLI runs produce identical results.json")
    rng = np.random.default_rng(0)
    p = problems.gen_qep(*(rng.standard_normal((6, 6)) for _ in range(3)))
    lams = [q.lam for q in delta.solve(p)]
    target = max(lams, key=lambda z: min(abs(z - w) for w in lams if w != z))
    lam0 = target + 1e-3

    out = tmp_path / "run"
    args = ["solve", "--gen", "qep", "--n", "6", "--seed", "0",
            "--solver", "newton", "--lambda0", f"{lam0.real}+{lam0.imag}i",
            "--out", str(out)]
    c.check("first run exits 0", cli.main(args) == 0)
    with open(os.path.join(out, "results.json")) as fh:
        first = json.load(fh)
    c.check("second run exits 0", cli.main(args) == 0)
    with open(os.path.join(out, "results.json")) as fh:
        second = json.load(fh)
    first.pop("timings")
    second.pop("timings")
    c.check("results.json identical outside timings", first == second)
    lam = complex(*first["quadruplets"][0]["lam"])
    c.check("run converged to the isolated eigenvalue",
            abs(lam - target) <= 1e-8, f"{abs(lam - target):.2e}")
    c.finish()
