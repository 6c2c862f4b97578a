"""Determinant-operator linearization: structure, cap, and oracle quality."""
import numpy as np
import pytest

import mepnl
from mepnl import core, delta, problems
from mepnl.errors import SingularProblem, TooLarge


def random_problem(n=4, m=3, seed=0):
    return problems.gen_random(n, m, seed=seed, alphas=(1.0, 1.0, 1.0),
                               betas=(1.0, 1.0, 1.0))


def test_assemble_shapes_and_definitions():
    p = random_problem(3, 2, seed=5)
    dp = delta.assemble(p)
    nm = p.n * p.m
    assert dp.delta0.shape == (nm, nm)
    assert dp.delta1.shape == (nm, nm)
    A1, A2, A3 = (np.asarray(M) for M in (p.A1, p.A2, p.A3))
    np.testing.assert_array_equal(dp.delta0, np.kron(p.B2, A3) - np.kron(p.B3, A2))
    np.testing.assert_array_equal(dp.delta1, np.kron(p.B3, A1) - np.kron(p.B1, A3))


def test_quadratic_coupling_block_structure():
    # the 2x2 coupling that embeds a quadratic matrix polynomial produces
    # determinant operators with a known block layout
    rng = np.random.default_rng(3)
    n = 4
    A1, A2, A3 = (rng.standard_normal((n, n)) for _ in range(3))
    p = problems.gen_qep(A1, A2, A3)
    dp = delta.assemble(p)
    Z = np.zeros((n, n))
    d1_expected = np.block([[-A1, Z], [Z, A3]])
    d0_expected = np.block([[A2, A3], [A3, Z]])
    np.testing.assert_allclose(dp.delta1, d1_expected, atol=1e-14)
    np.testing.assert_allclose(dp.delta0, d0_expected, atol=1e-14)


def test_solve_residuals_on_random_problems():
    for seed in (0, 1, 2):
        p = random_problem(4, 3, seed=seed)
        quads = delta.solve(p)
        assert quads, f"no quadruplets for seed {seed}"
        for q in quads:
            r = mepnl.residuals(p, q)
            assert r.res_a <= 1e-8
            assert r.res_b <= 1e-8


def test_solve_matches_companion_qep():
    # independent route: (A1 + lam A2 + lam^2 A3) x = 0 via the standard
    # companion linearization, compared against the determinant operators
    # applied to the quadratic coupling
    rng = np.random.default_rng(11)
    n = 4
    A1, A2, A3 = (rng.standard_normal((n, n)) for _ in range(3))
    p = problems.gen_qep(A1, A2, A3)
    quads = delta.solve(p)

    eye = np.eye(n)
    Z = np.zeros((n, n))
    C1 = np.block([[Z, eye], [-A1, -A2]])
    C2 = np.block([[eye, Z], [Z, A3]])
    companion = [z for z in np.linalg.eigvals(np.linalg.solve(C2, C1))
                 if np.isfinite(z)]

    # conjugate pairs make sorted comparisons order-unstable; match greedily
    lams = [q.lam for q in quads]
    assert len(lams) == len(companion) == 2 * n
    for z in companion:
        best = min(lams, key=lambda w: abs(w - z))
        assert abs(best - z) <= 1e-8
        lams.remove(best)
    for q in quads:
        assert q.mu == pytest.approx(q.lam ** 2, abs=1e-8)


def test_cap_enforced_and_env_override(monkeypatch):
    p = random_problem(4, 3, seed=7)
    monkeypatch.setenv(delta.CAP_ENV, "11")
    assert delta.size_cap() == 11
    with pytest.raises(TooLarge):
        delta.assemble(p)
    with pytest.raises(TooLarge):
        delta.solve(p)
    monkeypatch.setenv(delta.CAP_ENV, "12")
    assert delta.solve(p)
    monkeypatch.setenv(delta.CAP_ENV, "twelve")
    with pytest.raises(ValueError):
        delta.size_cap()


def test_singular_problem_detected():
    # B2 = B3 = 0 makes delta0 identically zero: maximally singular
    rng = np.random.default_rng(2)
    n, m = 3, 2
    A = [rng.standard_normal((n, n)) for _ in range(3)]
    p = mepnl.TwoParProblem(A[0], A[1], A[2],
                            rng.standard_normal((m, m)),
                            np.zeros((m, m)), np.zeros((m, m)),
                            np.ones(m))
    with pytest.raises(SingularProblem):
        delta.solve(p)


def test_rank_one_coupling_is_refused_as_beyond_the_oracle():
    # A3 and B3 of rank one, as in the Helmholtz generator, leave delta0 of
    # rank about n + m, though Newton solves the problem
    p = problems.gen_helmholtz(problems.HelmholtzConfig(n=100, m=10)).problem
    assert p.b3_rank_one is not None
    with pytest.raises(SingularProblem, match="the oracle cannot solve this problem"):
        delta.solve(p)


def test_sparse_inputs_accepted():
    import scipy.sparse as sp

    p = random_problem(4, 2, seed=9)
    p2 = mepnl.TwoParProblem(sp.csr_matrix(p.A1), sp.csr_matrix(p.A2),
                             sp.csr_matrix(p.A3), p.B1, p.B2, p.B3, p.c)
    q1 = delta.solve(p)
    q2 = delta.solve(p2)
    assert len(q1) == len(q2)
    for a, b in zip(q1, q2):
        assert a.lam == pytest.approx(b.lam, abs=1e-10)
        assert a.mu == pytest.approx(b.mu, abs=1e-10)


def test_one_factorization_and_one_standard_eigensolve(monkeypatch):
    from mepnl import _linalg

    p = random_problem(5, 3, seed=4)
    calls = []

    def record(owner, name, label):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(label(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    dtypes = []

    def geig_label(P, Q, **kw):
        dtypes.append(P.dtype)
        return "geig" if Q is None else "geig of a pencil"

    def eig_label(a, b=None, **kw):
        dtypes.append(a.dtype)
        # scipy's eig runs the QZ driver zggev exactly when given a second matrix
        return "eig" if b is None else "zggev"

    record(_linalg.Factorization, "__init__", lambda *a, **kw: "Factorization")
    record(_linalg.Factorization, "solve", lambda *a, **kw: "Factorization.solve")
    record(_linalg, "geig", geig_label)
    record(_linalg.sla, "eig", eig_label)
    quads = delta.solve(p)
    assert len(quads) == p.n * p.m
    assert sorted(calls) == ["Factorization", "Factorization.solve", "eig", "geig"]
    # the problem is real, so both see a real Gamma1 and LAPACK's real driver runs
    assert dtypes == [np.float64, np.float64]


def test_refined_quadruplets_at_working_accuracy():
    # order 400; the QZ of delta1 - lam delta0 kept residuals up to 1.8e-10
    # on seed 1008
    for seed in (1006, 1007, 1008):
        p = problems.gen_random(25, 16, seed, alphas=(1, 1, 1), betas=(1, 1, 1))
        quads = delta.solve(p)
        assert len(quads) == 400, seed
        worst = max(max(q.residuals.res_a, q.residuals.res_b) for q in quads)
        assert worst <= 1e-12, (seed, worst)


def test_singular_bordered_jacobian_keeps_unrefined_candidate(monkeypatch):
    from mepnl import _linalg

    p = random_problem(4, 3, seed=2)
    # every candidate takes the step, also those already at working accuracy
    monkeypatch.setattr(delta, "STEP_SKIP_TOL", -1.0)
    dp = delta.assemble(p)
    gamma1 = _linalg.Factorization(dp.delta0).solve(dp.delta1)
    # the problem is real, so the eigensolve gets the real part of gamma1
    assert not gamma1.imag.any()
    lams = _linalg.geig(gamma1.real, None)[0]
    refined = delta.solve(p)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    unrefined = delta.solve(p)
    assert len(unrefined) == len(refined) == lams.size
    # each candidate keeps the eigensolver's lam, bit for bit
    assert [q.lam for q in unrefined] == lams.tolist()
    for q, r in zip(unrefined, refined):
        assert q.lam != r.lam or q.mu != r.mu
        assert abs(q.lam - r.lam) <= 1e-8 * max(1.0, abs(r.lam))


def test_candidates_at_working_accuracy_take_no_newton_step(monkeypatch):
    # every unrefined candidate of a quadratic problem already has both
    # residuals at working accuracy; the step would only move lam by rounding
    rng = np.random.default_rng(7)
    p = problems.gen_qep(*(rng.standard_normal((20, 20)) for _ in range(3)))
    monkeypatch.setattr(delta, "STEP_SKIP_TOL", -1.0)  # every candidate steps
    stepped = delta.solve(p)
    monkeypatch.undo()

    def no_step(*args):
        raise AssertionError("a candidate at working accuracy took a Newton step")

    monkeypatch.setattr(delta, "_newton_step", no_step)
    skipped = delta.solve(p)
    assert len(skipped) == len(stepped) == p.n * p.m
    for q, r in zip(skipped, stepped):
        assert abs(q.lam - r.lam) <= 1e-12 * max(1.0, abs(r.lam))
        assert abs(q.mu - r.mu) <= 1e-12 * max(1.0, abs(r.mu))
        assert max(q.residuals.res_a, q.residuals.res_b) <= 1e-13


def test_real_problem_gives_adjacent_exact_conjugate_pairs():
    for seed in (0, 1, 2):
        p = problems.gen_random(8, 4, seed=seed)
        quads = delta.solve(p)
        assert len(quads) == p.n * p.m
        lams = [q.lam for q in quads]
        i = 0
        while i < len(lams):
            if lams[i].imag == 0.0:
                i += 1
                continue
            # a non-real lam is followed by its exact conjugate, Im < 0 first
            assert lams[i].imag < 0.0 and lams[i + 1] == lams[i].conjugate(), (seed, i)
            assert quads[i + 1].mu == quads[i].mu.conjugate(), (seed, i)
            i += 2


def test_complex_problem_takes_the_complex_path(monkeypatch):
    from mepnl import _linalg

    p = problems.gen_random(25, 16, 1006, alphas=(1, 1, 1), betas=(1, 1, 1))
    rng = np.random.default_rng(0)
    p = mepnl.TwoParProblem(p.A1, p.A2, p.A3, p.B1 + 1j * rng.standard_normal((16, 16)),
                            p.B2, p.B3, p.c)
    geig = _linalg.geig
    dtypes = []

    def recorded(P, Q, **kw):
        dtypes.append(P.dtype)
        return geig(P, Q, **kw)

    monkeypatch.setattr(_linalg, "geig", recorded)
    quads = delta.solve(p)
    assert dtypes == [np.complex128]
    assert len(quads) == 400
    worst = max(max(q.residuals.res_a, q.residuals.res_b) for q in quads)
    assert worst <= 1e-12, worst


def test_singular_candidate_in_a_batch_keeps_unrefined_values(monkeypatch):
    # chunks of 1600 // 256 = 6 candidates: the stacked solve of the first
    # chunk raises, and so does the own solve of its third candidate
    p = problems.gen_random(10, 4, seed=3, alphas=(1.0, 1.0, 1.0), betas=(1.0, 1.0, 1.0))
    monkeypatch.setattr(delta, "STEP_SKIP_TOL", -1.0)  # every candidate steps
    refined = delta.solve(p)
    solve = np.linalg.solve

    def never(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", never)
    unrefined = delta.solve(p)
    alone = []

    def singular_batch(a, b):
        if a.ndim == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        alone.append(a)
        if len(alone) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_batch)
    quads = delta.solve(p)
    assert len(quads) == len(refined) == len(unrefined) == p.n * p.m
    # only the third candidate keeps its unrefined values and residuals, bit for bit
    q, u = quads[2], unrefined[2]
    assert (q.lam, q.mu, q.residuals) == (u.lam, u.mu, u.residuals)
    assert np.array_equal(q.x, u.x) and np.array_equal(q.y, u.y)
    for i, (q, r, u) in enumerate(zip(quads, refined, unrefined)):
        if i == 2:
            continue
        assert q.lam != u.lam or q.mu != u.mu, i
        assert abs(q.lam - r.lam) <= 1e-12 * max(1.0, abs(r.lam)), i
        assert abs(q.mu - r.mu) <= 1e-12 * max(1.0, abs(r.mu)), i


def test_stepped_records_come_from_one_row_pass(monkeypatch):
    # every candidate steps; a chunk's stepped rows are re-scored by one
    # row-wise _residual_norms, and no candidate calls core.residuals
    p = problems.gen_random(10, 4, seed=3, alphas=(1.0, 1.0, 1.0), betas=(1.0, 1.0, 1.0))
    monkeypatch.setattr(delta, "STEP_SKIP_TOL", -1.0)

    def refused(*args, **kwargs):
        raise AssertionError("delta.solve called core.residuals")

    monkeypatch.setattr(core, "residuals", refused)
    monkeypatch.setattr(delta, "residuals", refused)
    quads = delta.solve(p)
    assert len(quads) == p.n * p.m
    chunk = (p.n * p.m) ** 2 // (p.n + p.m + 2) ** 2
    for start in range(0, len(quads), chunk):
        rows = quads[start:start + chunk]
        res_a, res_b = core._residual_norms(
            p, np.array([q.lam for q in rows]), np.array([q.mu for q in rows]),
            np.stack([q.x for q in rows]), np.stack([q.y for q in rows]))
        assert [(q.residuals.res_a, q.residuals.res_b) for q in rows] == \
            list(zip(res_a.tolist(), res_b.tolist()))


def test_solve_peaks_below_four_matrices_of_order_nm():
    import tracemalloc

    p = problems.gen_random(25, 16, 1006, alphas=(1, 1, 1), betas=(1, 1, 1))
    tracemalloc.start()
    try:
        quads = delta.solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(quads) == 400
    # four complex matrices of order n*m, 10.24 MB; refining all 400
    # candidates in one stack would take 11.8 MB for its Jacobians alone
    assert peak < 4 * 400 ** 2 * 16, peak


def test_every_dropped_candidate_warns_once(monkeypatch):
    p = random_problem(4, 3, seed=0)
    monkeypatch.setattr(delta, "RANK_ONE_TOL", -1.0)  # no eigenvector is rank-one
    with pytest.warns(delta.RankOneExtractionWarning) as record:
        assert delta.solve(p) == []
    assert len(record) == p.n * p.m
    assert {w.filename for w in record} == {__file__}
