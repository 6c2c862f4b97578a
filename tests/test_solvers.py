"""Newton and residual inverse iteration against the dense oracle."""
import collections
import dataclasses

import numpy as np
import pytest

import mepnl
from mepnl import _linalg, core, delta, nep, pencil, problems, solvers
from mepnl.errors import DegenerateProjection, ShiftIsEigenvalue


def make_problem(seed=0, n=8, m=3):
    return problems.gen_random(n, m, seed=seed, alphas=(1.0, 1.0, 1.0),
                               betas=(1.0, 1.0, 1.0))


def pick_isolated(quads):
    """The quadruplet whose lam is farthest from the rest of the spectrum."""
    lams = [q.lam for q in quads]

    def isolation(q):
        return min(abs(q.lam - z) for z in lams if z != q.lam)

    return max(quads, key=isolation)


def branch_view(problem, lam):
    """A NepView whose tracked branch passes through (lam, mu) of a quad."""
    pts = mepnl.pencil.eigenpairs_at(problem, lam)
    return nep.NepView(problem, branch_id=0, reference_lam=lam), pts


def view_through(problem, quad):
    """Bind the branch that carries quad's mu at quad's lam."""
    pts = mepnl.pencil.eigenpairs_at(problem, quad.lam)
    bid = min(range(len(pts)), key=lambda i: abs(pts[i].mu - quad.mu))
    return nep.NepView(problem, branch_id=bid, reference_lam=quad.lam)


def test_newton_converges_and_trace_is_consistent():
    p = make_problem(seed=1)
    quad = pick_isolated(delta.solve(p))
    view = view_through(p, quad)
    lam0 = quad.lam + 1e-3
    x0 = quad.x + 1e-3 * np.ones(p.n)
    got, trace = solvers.augmented_newton(view, lam0, x0)
    assert trace.converged
    assert trace.iterations <= 10
    assert abs(got.lam - quad.lam) <= 1e-8
    assert abs(got.mu - quad.mu) <= 1e-8
    assert got.residuals.res_a <= 1e-10
    # the eliminated equation is satisfied through the branch at every iterate
    assert max(trace.res_b) <= 1e-10
    # stored eigenvalue path and step sizes must agree exactly
    for k, alpha in enumerate(trace.alpha):
        assert trace.lam[k + 1] == trace.lam[k] - alpha


def test_newton_quadratic_tail():
    p = make_problem(seed=2)
    quad = pick_isolated(delta.solve(p))
    view = view_through(p, quad)
    _, trace = solvers.augmented_newton(view, quad.lam + 1e-2,
                                        quad.x + 1e-2 * np.ones(p.n))
    assert trace.converged
    res = trace.res_a
    checked = 0
    for rk, rk1 in zip(res, res[1:]):
        if rk <= 1e-3 and rk1 > 1e-13:
            assert rk1 <= 100 * rk ** 2, f"step {rk:.2e} -> {rk1:.2e} not quadratic"
            checked += 1
    assert checked >= 1


def test_newton_normalization_held():
    p = make_problem(seed=3)
    quad = pick_isolated(delta.solve(p))
    view = view_through(p, quad)
    x0 = quad.x + 1e-3
    # the fixed normalization functional, d^T x0 = 1
    d = x0.conj() / np.linalg.norm(x0) ** 2
    got, trace = solvers.augmented_newton(view, quad.lam + 1e-3, x0)
    assert trace.converged
    assert d @ got.x == pytest.approx(1.0, abs=1e-10)


def test_newton_maxit_reported_not_raised():
    p = make_problem(seed=5)
    quad = pick_isolated(delta.solve(p))
    view = view_through(p, quad)
    # unreachable tolerance: the run must stop at maxit without raising
    cfg = solvers.SolverConfig(tol=1e-30, maxit=2)
    _, trace = solvers.augmented_newton(view, quad.lam + 1e-2,
                                        quad.x + 1e-2, cfg)
    assert trace.termination == "maxit"
    assert not trace.converged
    assert trace.iterations == 3  # initial point plus two steps


def test_newton_stagnates_at_accuracy_limit():
    p = problems.gen_random(60, 5, seed=11)
    view = nep.NepView(p, branch_id=0)
    cfg = solvers.SolverConfig(tol=1e-17)
    quad, trace = solvers.augmented_newton(view, 0.0, np.ones(p.n), cfg)
    # M(lam_k) became too close to singular to factorize before tol was met
    assert trace.termination == "stagnated"
    assert not trace.converged and 1 < trace.iterations <= cfg.maxit
    # the iterate it stopped at is the one returned, at the accuracy limit
    assert quad.lam == trace.lam[-1] and quad.mu == trace.mu[-1]
    assert quad.residuals.res_a == trace.res_a[-1] <= 1e-12
    assert quad.residuals.res_b <= 1e-14


def test_newton_singular_start_raises():
    # M(lam0) singular at the caller's own start is an error, not stagnation
    rng = np.random.default_rng(6)
    A1, A2, A3 = (rng.standard_normal((5, 5)) for _ in range(3))
    A1[0] = 0.0
    p = problems.gen_qep(A1, A2, A3)
    view = nep.NepView(p, branch_id=0, reference_lam=0.0)
    with pytest.raises(ShiftIsEigenvalue):
        solvers.augmented_newton(view, 0.0, np.ones(p.n))


def test_newton_nonfinite_update_returns_last_finite_iterate(nan_at_second_solve):
    p = problems.gen_random(30, 4, seed=5)
    view = nep.NepView(p, branch_id=0)
    quad, trace = solvers.augmented_newton(view, 0.0, np.ones(p.n))
    # the second Newton solve is NaN: the run stops there with a name
    # instead of carrying NaN into the small pencil
    assert trace.termination == "nonfinite" and not trace.converged
    assert trace.iterations == 2 and len(trace.alpha) == 1
    assert quad.lam == trace.lam[-1] and quad.mu == trace.mu[-1]
    assert np.isfinite(quad.lam) and np.all(np.isfinite(quad.x))
    assert quad.residuals.res_a == trace.res_a[-1]


def test_resinv_nonfinite_correction_returns_last_finite_iterate(nan_at_second_solve):
    # the first solve gives resinv's default projection vector, the second
    # its first correction
    p = problems.gen_random(30, 4, seed=5)
    view = nep.NepView(p, branch_id=0)
    quad, trace = solvers.resinv(view, np.ones(p.n), solvers.SolverConfig(sigma=0.0))
    assert trace.termination == "nonfinite" and not trace.converged
    assert trace.iterations == 1
    assert quad.lam == trace.lam[-1] and np.all(np.isfinite(quad.x))


class CountedMatvecs(np.ndarray):
    """Dense array that counts the products A @ x taken with it."""

    calls = 0

    def __matmul__(self, other):
        CountedMatvecs.calls += 1
        return np.asarray(self) @ other


def test_newton_three_a_side_products_per_iterate(monkeypatch):
    p = make_problem(seed=1)
    quad = pick_isolated(delta.solve(p))
    view = view_through(p, quad)
    for name in ("A1", "A2", "A3"):
        monkeypatch.setattr(p, name, getattr(p, name).view(CountedMatvecs))
    monkeypatch.setattr(CountedMatvecs, "calls", 0)
    _, trace = solvers.augmented_newton(view, quad.lam + 1e-3,
                                        quad.x + 1e-3 * np.ones(p.n))
    assert trace.converged and trace.iterations >= 3
    # A1 x, A2 x, A3 x once per iterate serve the residual and the Newton
    # right-hand side alike
    assert CountedMatvecs.calls == 3 * trace.iterations


def count_calls(monkeypatch, targets):
    """Wrap each (owner, name) so that calls to it are counted by name."""
    counts = dict.fromkeys((name for _, name in targets), 0)
    for owner, name in targets:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def count_lus_by_order(monkeypatch):
    """Count Factorization constructions by the order of the matrix: n for
    M(lam), m or m + 1 for the small pencil and its bordered Jacobian."""
    orders = collections.Counter()
    original = _linalg.Factorization.__init__

    def counted(self, mat, *args, **kwargs):
        orders[mat.shape[0]] += 1
        original(self, mat, *args, **kwargs)

    monkeypatch.setattr(_linalg.Factorization, "__init__", counted)
    return orders


def test_work_per_newton_step_resinv_solve_and_tabulation(monkeypatch):
    p = make_problem(seed=1)
    quad = pick_isolated(delta.solve(p))
    newton_view, resinv_view = view_through(p, quad), view_through(p, quad)
    counts = count_calls(monkeypatch, [
        (core.TwoParProblem, "eval_a"), (pencil, "jacobian"), (pencil, "derivatives"),
        (core, "residuals")])
    lus = count_lus_by_order(monkeypatch)
    _, trace = solvers.augmented_newton(newton_view, quad.lam + 1e-3,
                                        quad.x + 1e-3 * np.ones(p.n))
    steps = trace.iterations - 1
    assert trace.converged and steps >= 2
    # M(lam_k) is assembled once per step, to be factorized; g' needs no
    # bordered Jacobian; each iterate's residuals go through core.residuals,
    # where a counter on the module sees them
    assert counts == {"eval_a": steps, "jacobian": 0, "derivatives": 0,
                      "residuals": trace.iterations}
    assert lus[p.n] == steps

    counts.update(dict.fromkeys(counts, 0))
    lus.clear()
    cfg = solvers.SolverConfig(sigma=quad.lam + 0.02, maxit=60)
    _, trace = solvers.resinv(resinv_view, quad.x + 0.05 * np.ones(p.n), cfg)
    assert trace.converged and trace.iterations >= 3
    assert counts["eval_a"] == 1 and lus[p.n] == 1
    assert counts["residuals"] == trace.iterations

    problems.tabulate_branches(p, np.linspace(-1.0, 1.0, 41), [0, 1, 2])
    assert counts["jacobian"] == 0 and counts["derivatives"] == 0


def test_qz_work_per_continuation_step(monkeypatch):
    p = make_problem(seed=1)
    assert p.b3_rank_one is None  # a full-rank B3 takes QZ continuation steps
    quad = pick_isolated(delta.solve(p))
    view = view_through(p, quad)
    counts = dict.fromkeys(("geig.shift", "geig.right", "geig.both", "eigenpairs_at",
                            "reference_point", "_continue_step", "inverse", "fallback"), 0)

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[key(kwargs, result)] += 1
            return result

        monkeypatch.setattr(owner, name, counted)

    count(_linalg, "geig", lambda kw, _: "geig.shift" if kw.get("shift") is not None
          else "geig." + kw.get("vectors", "right"))
    for owner, name in ((pencil, "eigenpairs_at"), (pencil, "reference_point"),
                        (pencil, "_continue_step")):
        count(owner, name, lambda kw, _, name=name: name)
    count(pencil, "_inverse_iteration",
          lambda kw, vectors: "fallback" if vectors is None else "inverse")
    _, trace = solvers.augmented_newton(view, quad.lam + 1e-3, quad.x + 1e-3 * np.ones(p.n))
    assert trace.converged
    assert counts["_continue_step"] >= trace.iterations - 1
    problems.tabulate_branches(p, np.linspace(-1.0, 1.0, 41))
    steps = counts["_continue_step"]
    assert steps >= 40 * p.m
    # the shift-invert spectrum chooses every step and one LU gives the
    # vectors; the full QZ runs only on counted fallbacks, since each sweep's
    # reference points are the ones gen_random's QZ gave to draw c, before
    # counting
    assert counts["geig.shift"] == steps == counts["inverse"] + counts["fallback"]
    assert counts["reference_point"] == 2 * len(p.reference_points)
    assert counts["geig.both"] == counts["eigenpairs_at"] == counts["fallback"]
    assert counts["geig.right"] == 0


def test_newton_from_c_degenerate_point():
    # c^T y = 0.5 + lam for the qep branch eigenvector y = (1, lam), so c
    # cannot normalize y at the start lam0 = -0.5 and the bordered Jacobian
    # there is singular; the closed-form slope needs no normalization
    rng = np.random.default_rng(0)
    qep = problems.gen_qep(*(rng.standard_normal((6, 6)) for _ in range(3)))
    p = mepnl.TwoParProblem(qep.A1, qep.A2, qep.A3, qep.B1, qep.B2, qep.B3,
                            np.array([0.5, 1.0]))
    view = nep.NepView(p)
    assert view.branch_point(-0.5).c_degenerate
    got, trace = solvers.augmented_newton(view, -0.5, np.ones(p.n))
    assert trace.converged
    assert got.residuals.res_a <= 1e-10
    assert abs(got.mu - got.lam ** 2) <= 1e-10 * max(1.0, abs(got.mu))


def test_rayleigh_candidates_satisfy_small_equation_exactly():
    p = make_problem(seed=6)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
    w = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
    cands = solvers.rayleigh_candidates(p, v, w)
    assert cands
    for lam, mu, y in cands:
        rb = np.linalg.norm(p.eval_b(lam, mu) @ y)
        rb /= p.scale_b(lam, mu) * np.linalg.norm(y)
        assert rb <= 1e-12
    mags = [abs(lam) for lam, _, _ in cands]
    assert mags == sorted(mags)


def test_rayleigh_degenerate_projection():
    rng = np.random.default_rng(1)
    n, m = 4, 2
    p = mepnl.TwoParProblem(
        rng.standard_normal((n, n)), rng.standard_normal((n, n)),
        np.zeros((n, n)),
        rng.standard_normal((m, m)), rng.standard_normal((m, m)), np.eye(m),
        np.ones(m))
    with pytest.raises(DegenerateProjection):
        solvers.rayleigh_candidates(p, np.ones(n), np.ones(n))


def test_rayleigh_gep_select_modes():
    p = make_problem(seed=7)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(p.n)
    w = rng.standard_normal(p.n)
    cands = solvers.rayleigh_candidates(p, v, w)
    assert len(cands) >= 2
    target = cands[-1][0]
    lam, mu, y = solvers.rayleigh_gep(p, v, w, target + 1e-6)
    assert lam == target


def test_resinv_converges_with_single_factorization(monkeypatch):
    p = make_problem(seed=8)
    quad = pick_isolated(delta.solve(p))
    view = view_through(p, quad)
    sigma = quad.lam + 0.02
    cfg = solvers.SolverConfig(sigma=sigma, tol=1e-10, maxit=60)
    x0 = quad.x + 0.05 * np.ones(p.n)
    lus = count_lus_by_order(monkeypatch)
    got, trace = solvers.resinv(view, x0, cfg)
    assert trace.converged
    assert abs(got.lam - quad.lam) <= 1e-8
    assert lus[p.n] == 1, "shifted operator must be factorized once"
    # small equation holds exactly at every iterate by construction
    assert max(trace.res_b) <= 1e-10
    # linear convergence with a decent contraction factor
    res = trace.res_a
    ratios = [b / a for a, b in zip(res, res[1:]) if a > 1e-13 and b > 1e-14]
    assert ratios and max(ratios) < 0.9


def test_resinv_requires_sigma_and_flags_maxit():
    p = make_problem(seed=9)
    quad = pick_isolated(delta.solve(p))
    view = view_through(p, quad)
    with pytest.raises(ValueError):
        solvers.resinv(view, np.ones(p.n), solvers.SolverConfig())
    cfg = solvers.SolverConfig(sigma=quad.lam + 0.02, tol=0.0, maxit=4)
    _, trace = solvers.resinv(view, quad.x + 0.05, cfg)
    assert trace.termination == "maxit"
    assert not trace.converged
    assert trace.iterations == 5


def test_negative_maxit_is_refused_and_zero_records_the_start():
    p = make_problem(seed=10)
    quad = pick_isolated(delta.solve(p))
    view = view_through(p, quad)
    x0 = quad.x + 0.05 * np.ones(p.n)
    sigma = quad.lam + 0.02
    with pytest.raises(ValueError, match="maxit"):
        solvers.augmented_newton(view, sigma, x0, solvers.SolverConfig(maxit=-1))
    with pytest.raises(ValueError, match="maxit"):
        solvers.resinv(view, x0, solvers.SolverConfig(maxit=-1, sigma=sigma))
    for run in (lambda cfg: solvers.augmented_newton(view, sigma, x0, cfg),
                lambda cfg: solvers.resinv(view, x0, cfg)):
        _, trace = run(solvers.SolverConfig(maxit=0, sigma=sigma))
        assert trace.iterations == 1 and trace.termination == "maxit"


@pytest.mark.parametrize("imag", [0.0, 3e-17, -3e-17])
def test_oracle_newton_agreement_with_real_starts(imag):
    # acceptance criterion 02, with the imaginary part of every real oracle
    # lam set to imag: seed 53 has a real branch point just above one
    sizes = [(4, 2), (6, 3), (8, 4), (10, 2), (5, 4)]
    worst_gap = 0.0
    for k in range(20):
        n, m = sizes[k % len(sizes)]
        p = make_problem(seed=40 + k, n=n, m=m)
        for q in delta.solve(p):
            if abs(q.lam.imag) <= 1e-14 * abs(q.lam):
                q = dataclasses.replace(q, lam=complex(q.lam.real, imag))
            got, trace = solvers.augmented_newton(
                view_through(p, q), q.lam + 1e-3, q.x + 1e-3 * np.ones(n))
            assert trace.converged, (40 + k, trace.termination)
            worst_gap = max(worst_gap, abs(got.lam - q.lam))
    assert worst_gap <= 1e-8


def test_newton_on_large_helmholtz_ends_at_the_analytic_eigenvalue():
    # at n = 1e5 a residual scale that grows like sqrt(n) let Newton report
    # convergence at tol 1e-13 up to 1.4e-5 from the analytic eigenvalue
    kappa0, x2 = 2.0, 5.0
    disc = problems.gen_helmholtz(problems.HelmholtzConfig(
        x1=3.7, x2=x2, n=100_000, m=30, kappa_a=kappa0, kappa_b=kappa0))
    analytic = problems.helmholtz_analytic_eigenvalues(kappa0, x2, 3)
    tight = solvers.SolverConfig(tol=1e-13)
    for k, (lam_k, offset) in enumerate(zip(analytic, (-5e-3, 5e-3, -5e-3))):
        lam0 = lam_k + offset
        view = nep.NepView(disc.problem, branch_id=0, reference_lam=lam0)
        x0 = np.sin((k + 0.5) * np.pi / x2 * disc.grid_a)
        quad, trace = solvers.augmented_newton(view, lam0, x0, config=tight)
        assert trace.converged, (k, trace.termination)
        assert abs(quad.lam - lam_k) <= 1e-6, (k, abs(quad.lam - lam_k))
