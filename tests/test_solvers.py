"""Newton and residual inverse iteration against the dense oracle."""
import collections
import dataclasses

import numpy as np
import pytest
from scipy.linalg import lapack

import mepnl
from mepnl import _linalg, core, delta, nep, pencil, problems, solvers
from mepnl.errors import ConvergenceFailure, DegenerateProjection, ShiftIsEigenvalue


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


def test_newton_takes_the_step_from_a_refused_iterate(monkeypatch):
    # a solve at iterate k >= 1 that proves M(lam_k) singular still gives
    # the inverse-iteration direction: the step is taken and its iterate
    # recorded, and the run ends there, converged when that iterate meets
    # tol and stagnated otherwise, within the step budget
    p = problems.gen_random(60, 5, seed=11)
    x0 = np.ones(p.n)
    _, free = solvers.augmented_newton(nep.NepView(p), 0.0, x0)
    assert free.converged and free.iterations >= 4
    refuse_singular = nep.NepView.refuse_singular

    def refuse_at(k_refused):
        calls = []

        def refuse(self, b, x):
            calls.append(self.point.lam)
            if len(calls) == k_refused + 1:
                raise ShiftIsEigenvalue("forced")
            return refuse_singular(self, b, x)

        monkeypatch.setattr(nep.NepView, "refuse_singular", refuse)

    last = free.iterations - 1
    for k_refused, maxit, termination in ((1, 100, "stagnated"), (1, 2, "stagnated"),
                                          (last - 1, 100, "converged")):
        refuse_at(k_refused)
        quad, trace = solvers.augmented_newton(nep.NepView(p), 0.0, x0,
                                               solvers.SolverConfig(maxit=maxit))
        assert trace.termination == termination, k_refused
        assert trace.iterations == k_refused + 2 <= maxit + 1
        assert trace.lam == free.lam[:k_refused + 2]
        assert trace.res_a == free.res_a[:k_refused + 2]
        assert quad.lam == trace.lam[-1]


def test_refusal_reads_the_point_of_the_last_factorization(monkeypatch):
    # factorization() and refuse_singular both read the view's point, where
    # branch_point(sigma) left it, so neither continues anything: Newton
    # continues the branch once to its start and once per step, to the
    # iterate the step takes, and resinv once, to its shift
    p = problems.gen_random(60, 5, seed=11)
    counts = count_calls(monkeypatch, ((pencil, "continue_branch"),))
    view = nep.NepView(p)
    b = np.ones(p.n)
    view.branch_point(0.3)
    x = view.factorization().solve(b)
    point = view.point
    assert point.lam == 0.3 and counts == {"continue_branch": 1}
    view.refuse_singular(b, x)
    with pytest.raises(ShiftIsEigenvalue, match=r"sigma=\(0\.3\+0j\)"):
        view.refuse_singular(1e-300 * b, x)
    assert view.point is point and counts == {"continue_branch": 1}
    counts["continue_branch"] = 0
    _, trace = solvers.augmented_newton(nep.NepView(p), 0.0, np.ones(p.n))
    assert trace.converged
    assert len(trace.alpha) >= 2
    assert counts["continue_branch"] == 1 + len(trace.alpha)
    counts["continue_branch"] = 0
    _, trace = solvers.resinv(nep.NepView(p), np.ones(p.n),
                              solvers.SolverConfig(sigma=trace.lam[-1] + 0.01))
    assert trace.iterations >= 2 and counts["continue_branch"] == 1


def test_newton_singular_start_raises():
    # M(lam0) singular at the caller's own start is an error, not stagnation
    rng = np.random.default_rng(6)
    A1, A2, A3 = (rng.standard_normal((5, 5)) for _ in range(3))
    A1[0] = 0.0
    p = problems.gen_qep(A1, A2, A3)
    view = nep.NepView(p, branch_id=0, reference_lam=0.0)
    with pytest.raises(ShiftIsEigenvalue):
        solvers.augmented_newton(view, 0.0, np.ones(p.n))


def test_newton_annihilated_direction_raises_convergence_failure():
    # A2 = A3 = 0: M'(lam) x = 0, so the Newton direction u is 0 and d^T u = 0.
    # M = A1 is singular, but a solve for b = 0 proves nothing: the run
    # ends in ConvergenceFailure, not ShiftIsEigenvalue
    A1 = np.diag([0.0, 1.0, 2.0, 3.0])
    Z = np.zeros((4, 4))
    p = mepnl.TwoParProblem(A1, Z, Z, np.diag([1.0, 2.0]), np.eye(2), np.eye(2),
                            np.ones(2))
    with pytest.raises(ConvergenceFailure, match="annihilated the Newton direction "
                                                 "at iteration 0 "):
        solvers.augmented_newton(nep.NepView(p), 0.0, np.ones(4))


def test_resinv_names_the_iteration_of_a_degenerate_projection():
    # A3 = 0 makes w^T A3 v vanish at the first projection; resinv re-raises
    # DegenerateProjection with the iteration and the reference lam
    rng = np.random.default_rng(1)
    n, m = 4, 2
    p = mepnl.TwoParProblem(
        rng.standard_normal((n, n)), rng.standard_normal((n, n)), np.zeros((n, n)),
        rng.standard_normal((m, m)), rng.standard_normal((m, m)), np.eye(m),
        np.ones(m))
    with pytest.raises(DegenerateProjection,
                       match=r"^iteration 0 \(lam_ref=\(0\.3\+0j\)\): w\^T A3 v"):
        solvers.resinv(nep.NepView(p), np.ones(n), solvers.SolverConfig(sigma=0.3))


def test_dense_newton_iterate_runs_one_lu_and_no_condition_estimate(monkeypatch):
    # the singularity test reads the step's own solve: one zgetrf of order
    # n per Newton step and one per resinv run, and no zgecon
    calls = collections.Counter()
    for name in ("zgetrf", "zgecon"):
        def counted(a, *args, _routine=getattr(lapack, name), _name=name, **kwargs):
            calls[_name, a.shape[0]] += 1
            return _routine(a, *args, **kwargs)
        monkeypatch.setattr(lapack, name, counted)
    p = make_problem(seed=1)
    quad = pick_isolated(delta.solve(p))
    calls.clear()
    _, trace = solvers.augmented_newton(view_through(p, quad), quad.lam + 1e-3,
                                        quad.x + 1e-3 * np.ones(p.n))
    assert trace.converged and trace.iterations >= 3
    assert calls["zgetrf", p.n] == trace.iterations - 1
    assert not any(name == "zgecon" for name, _ in calls)
    calls.clear()
    cfg = solvers.SolverConfig(sigma=quad.lam + 0.02, maxit=60)
    _, trace = solvers.resinv(view_through(p, quad), quad.x + 0.05 * np.ones(p.n), cfg)
    assert trace.converged and calls["zgetrf", p.n] == 1
    assert not any(name == "zgecon" for name, _ in calls)
    assert not hasattr(_linalg.Factorization, "rcond")


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


def test_newton_stops_nonfinite_on_an_overflowing_iterate(monkeypatch):
    # a Newton solve u whose d^T u is finite but tiny: lam - 1/d^T u stays
    # finite while x = u / d^T u overflows, and the run ends as "nonfinite"
    # at the start, the last finite iterate
    p = problems.gen_random(30, 4, seed=5)
    x0 = np.eye(p.n)[0]  # d = e0, so d^T u = u[0]
    u = np.full(p.n, 1e10, dtype=np.complex128)
    u[0] = 1e-300
    factorization = nep.NepView.factorization

    def overflowing(self):
        fact = factorization(self)
        fact.solve = lambda b, adjoint=False: u.copy()
        return fact

    monkeypatch.setattr(nep.NepView, "factorization", overflowing)
    with np.errstate(over="ignore"):  # the product alpha * u overflows
        quad, trace = solvers.augmented_newton(nep.NepView(p), 0.0, x0)
    assert trace.termination == "nonfinite" and not trace.converged
    assert trace.iterations == 1 and trace.alpha == []
    assert quad.lam == 0.0 and np.array_equal(quad.x, x0)


def test_resinv_vanishing_correction_raises(monkeypatch):
    # a solve with M(sigma) that gives back the iterate x exactly leaves the
    # correction u = x - M(sigma)^-1 z at zero, which ConvergenceFailure names
    p = problems.gen_random(30, 4, seed=5)
    x0 = np.ones(p.n, dtype=np.complex128)
    unit = x0 / np.linalg.norm(x0)
    factorization = nep.NepView.factorization

    def giving_back_x(self):
        fact = factorization(self)
        solve = fact.solve
        fact.solve = lambda b, adjoint=False: solve(b, adjoint) if adjoint else unit.copy()
        return fact

    monkeypatch.setattr(nep.NepView, "factorization", giving_back_x)
    with pytest.raises(ConvergenceFailure, match=r"^correction vanished at iteration 0 "):
        solvers.resinv(nep.NepView(p), x0, solvers.SolverConfig(sigma=0.0))


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


def test_resinv_three_a_side_products_per_iterate(monkeypatch):
    p = make_problem(seed=8)
    quad = pick_isolated(delta.solve(p))
    view = view_through(p, quad)
    for name in ("A1", "A2", "A3"):
        monkeypatch.setattr(p, name, getattr(p, name).view(CountedMatvecs))
    monkeypatch.setattr(CountedMatvecs, "calls", 0)

    def no_apply_a(*args):
        raise AssertionError("apply_a forms A1 x, A2 x and A3 x again")

    monkeypatch.setattr(core.TwoParProblem, "apply_a", no_apply_a)
    cfg = solvers.SolverConfig(sigma=quad.lam + 0.02, tol=1e-10, maxit=60)
    _, trace = solvers.resinv(view, quad.x + 0.05 * np.ones(p.n), cfg)
    assert trace.converged and trace.iterations >= 3
    # A1 x, A2 x, A3 x once per iterate serve the projection, M(lam) x and
    # the residual alike
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


def test_qz_work_per_continuation_step(monkeypatch, reference_calls):
    p = make_problem(seed=1)
    assert p.b3_rank_one is None  # a full-rank B3 takes continuation steps
    quad = pick_isolated(delta.solve(p))
    view = view_through(p, quad)
    counts = collections.Counter()

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[key(kwargs, result)] += 1
            return result

        monkeypatch.setattr(owner, name, counted)

    count(_linalg, "geig", lambda kw, _: "geig." + kw.get("vectors", "right"))
    count(_linalg.lapack, "zgeev", lambda kw, _: "zgeev")
    count(_linalg, "certified_dominant",
          lambda kw, theta: "refused" if theta is None else "certified")
    reference_calls["calls"] = 0
    count(_linalg, "shift_invert_vectors", lambda kw, _: "reference vectors"
          if reference_calls["inside"] else "shift_invert_vectors")
    for owner, name in ((pencil, "eigenpairs_at"), (pencil, "_continue_step"),
                        (pencil, "_full_qz_point")):
        count(owner, name, lambda kw, _, name=name: name)
    _, trace = solvers.augmented_newton(view, quad.lam + 1e-3, quad.x + 1e-3 * np.ones(p.n))
    assert trace.converged
    assert counts["_continue_step"] >= trace.iterations - 1
    problems.tabulate_branches(p, np.linspace(-1.0, 1.0, 41))
    steps = counts["_continue_step"]
    assert steps >= 40 * p.m
    # every step runs the certificate, whose iterates give a certified
    # step's vectors; the steps it refuses take one zgeev of the shift-invert
    # operator, and the power loop at the chosen mu gives their vectors; the
    # full QZ runs on no step. Both sweeps start from every branch's
    # reference point, built once, with one power loop for its vectors
    assert counts["certified"] + counts["refused"] == steps
    assert counts["certified"] + counts["zgeev"] == steps
    assert counts["certified"] + counts["shift_invert_vectors"] + \
        counts["_full_qz_point"] == steps
    assert reference_calls["calls"] == p.reference_mus.size
    assert counts["reference vectors"] == p.reference_mus.size
    assert counts["geig.both"] == counts["eigenpairs_at"] == counts["_full_qz_point"] == 0
    assert counts["geig.right"] == counts["geig.none"] == 0
    # a Newton solve at m = 20 from a start near the origin, as the bench's:
    # the certificate decides most steps, so zgeev runs on at most half
    p = problems.gen_random(40, 20, seed=4)
    counts.clear()
    _, trace = solvers.augmented_newton(nep.NepView(p), 0.1 + 0.05j, np.ones(p.n))
    assert trace.converged
    steps = counts["_continue_step"]
    assert steps >= trace.iterations - 1
    assert counts["certified"] + counts["zgeev"] == steps
    assert counts["zgeev"] <= 0.5 * steps
    assert counts["certified"] + counts["shift_invert_vectors"] + \
        counts["_full_qz_point"] == steps
    assert counts["geig.both"] == counts["eigenpairs_at"] == counts["_full_qz_point"] == 0


def test_one_lu_per_certified_continuation_step(monkeypatch):
    # per step: a certified one builds one LU of order m and runs no zgeev;
    # one the certificate refuses runs one zgeev, and its vectors take one
    # more LU, of B(lam, mu)
    p = problems.gen_random(40, 20, seed=4)
    assert p.b3_rank_one is None
    lus = count_lus_by_order(monkeypatch)
    events = collections.Counter()

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            events[key(kwargs, result)] += 1
            return result

        monkeypatch.setattr(owner, name, counted)

    count(_linalg, "geig", lambda kw, _: "QZ")
    count(_linalg.lapack, "zgeev", lambda kw, _: "zgeev")
    count(_linalg, "certified_dominant",
          lambda kw, found: "refused" if found is None else "certified")
    count(pencil, "_full_qz_point", lambda kw, _: "full QZ")
    steps = collections.Counter()
    step = pencil._continue_step

    def counted_step(*args, **kwargs):
        before = lus[p.m], events["certified"], events["zgeev"]
        point = step(*args, **kwargs)
        certified = events["certified"] - before[1]
        steps[("certified" if certified else "refused", lus[p.m] - before[0],
               events["zgeev"] - before[2])] += 1
        return point

    monkeypatch.setattr(pencil, "_continue_step", counted_step)
    _, trace = solvers.augmented_newton(nep.NepView(p), 0.1 + 0.05j, np.ones(p.n))
    assert trace.converged
    problems.tabulate_branches(p, np.linspace(-0.5, 0.5, 21))
    assert steps[("certified", 1, 0)] >= 20 * p.m
    assert steps[("refused", 1, 1)] + steps[("refused", 2, 1)] >= 1
    assert set(steps) <= {("certified", 1, 0), ("refused", 1, 1), ("refused", 2, 1)}
    assert events["full QZ"] == 0


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


def test_rayleigh_candidates_take_formed_products():
    p = make_problem(seed=6)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
    w = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
    av = (p.A1 @ v, p.A2 @ v, p.A3 @ v)
    plain = solvers.rayleigh_candidates(p, v, w)
    given = solvers.rayleigh_candidates(p, v, w, av)
    assert len(plain) == len(given) >= 2
    for (lam, mu, y), (lam2, mu2, y2) in zip(plain, given):
        assert lam == lam2 and mu == mu2 and np.array_equal(y, y2)
    lam, mu, _ = solvers.rayleigh_gep(p, v, w, 0.0, av)
    assert (lam, mu) == solvers.rayleigh_gep(p, v, w, 0.0)[:2]


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


def test_rayleigh_gep_refuses_a_projection_without_finite_eigenvalue():
    # A2 = A3 gives p2 = p3, and B2 = B3 = I then Q = p2 B3 - p3 B2 = 0: every
    # eigenvalue of the projected pencil is infinite
    rng = np.random.default_rng(1)
    n, m = 4, 2
    A3 = rng.standard_normal((n, n))
    p = mepnl.TwoParProblem(rng.standard_normal((n, n)), A3, A3,
                            rng.standard_normal((m, m)), np.eye(m), np.eye(m), np.ones(m))
    assert solvers.rayleigh_candidates(p, np.ones(n), np.ones(n)) == []
    with pytest.raises(DegenerateProjection, match="no finite eigenvalue"):
        solvers.rayleigh_gep(p, np.ones(n), np.ones(n), 0.0)


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


def test_problem_and_newton_run_one_eigenvalues_only_qz(monkeypatch, reference_calls):
    # building a problem at the bench's m = 100 and one Newton solve from a
    # start near the origin, as the bench's: one QZ, eigenvalues only, at
    # the construction, none with vectors, and one LU of order m for the
    # followed branch's reference y and w
    counts = collections.Counter()
    geig, zgeev = _linalg.geig, _linalg.lapack.zgeev
    factorization = _linalg.Factorization.__init__

    def counted_geig(P, Q, vectors="right"):
        counts[f"qz.{vectors}"] += 1
        return geig(P, Q, vectors)

    def counted_zgeev(*args, **kwargs):
        counts["zgeev"] += 1
        return zgeev(*args, **kwargs)

    def counted_lu(self, mat):
        if reference_calls["inside"]:
            counts[f"reference lu, order {mat.shape[0]}"] += 1
        factorization(self, mat)

    monkeypatch.setattr(_linalg, "geig", counted_geig)
    monkeypatch.setattr(_linalg.lapack, "zgeev", counted_zgeev)
    monkeypatch.setattr(_linalg.Factorization, "__init__", counted_lu)
    p = problems.gen_random(30, 100, seed=1)
    assert dict(counts) == {"qz.none": 1}
    _, trace = solvers.augmented_newton(nep.NepView(p), 0.1 + 0.05j, np.ones(p.n))
    assert trace.converged
    assert counts["qz.none"] == 1 and counts["qz.right"] == counts["qz.both"] == 0
    assert counts["reference lu, order 100"] == 1
    assert sum(v for k, v in counts.items() if k.startswith("reference lu")) == 1
