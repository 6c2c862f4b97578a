"""Determinant-operator linearization: structure, cap, and oracle quality."""
import json
from pathlib import Path

import numpy as np
import pytest

import mepnl
from mepnl import core, delta, nep, problems, solvers
from mepnl.errors import SingularProblem, TooLarge


def random_problem(n=4, m=3, seed=0):
    return problems.gen_random(n, m, seed=seed, alphas=(1.0, 1.0, 1.0),
                               betas=(1.0, 1.0, 1.0))


def test_assemble_shapes_and_definitions():
    p = random_problem(3, 2, seed=5)
    delta0, delta1 = delta.assemble(p)
    nm = p.n * p.m
    assert delta0.shape == (nm, nm)
    assert delta1.shape == (nm, nm)
    A1, A2, A3 = (np.asarray(M) for M in (p.A1, p.A2, p.A3))
    np.testing.assert_array_equal(delta0, np.kron(p.B2, A3) - np.kron(p.B3, A2))
    np.testing.assert_array_equal(delta1, np.kron(p.B3, A1) - np.kron(p.B1, A3))


def test_quadratic_coupling_block_structure():
    # the 2x2 coupling that embeds a quadratic matrix polynomial produces
    # determinant operators with a known block layout
    rng = np.random.default_rng(3)
    n = 4
    A1, A2, A3 = (rng.standard_normal((n, n)) for _ in range(3))
    p = problems.gen_qep(A1, A2, A3)
    delta0, delta1 = delta.assemble(p)
    Z = np.zeros((n, n))
    d1_expected = np.block([[-A1, Z], [Z, A3]])
    d0_expected = np.block([[A2, A3], [A3, Z]])
    np.testing.assert_allclose(delta1, d1_expected, atol=1e-14)
    np.testing.assert_allclose(delta0, d0_expected, atol=1e-14)


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


def test_singular_problem_with_delta1_in_the_range_of_delta0_detected():
    # A3 = 0 and a singular B3 leave delta0 = -B3 (x) A2 with exactly zero
    # columns and delta1 = B3 (x) A1 with an exactly zero bottom half, in the range of
    # delta0: the solve for Gamma1 does not amplify, so the oracle's own test
    # must still refuse delta0
    rng = np.random.default_rng(2)
    n, m = 3, 2
    A1, A2, B1, B2 = (rng.standard_normal((k, k)) for k in (n, n, m, m))
    p = mepnl.TwoParProblem(A1, A2, np.zeros((n, n)), B1, B2, np.diag([1.0, 0.0]),
                            np.ones(m))
    with pytest.raises(SingularProblem, match="the oracle cannot solve this problem"):
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
    # one solve for Gamma1 and the singularity test's two vector solves
    assert sorted(calls) == ["Factorization"] + 3 * ["Factorization.solve"] + ["eig", "geig"]
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
    delta0, delta1 = delta.assemble(p)
    gamma1 = _linalg.Factorization(delta0).solve(delta1)
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


def assert_exact_conjugate_pairs(quads):
    """Each non-real lam of quads is followed by its partner, Im < 0 first,
    whose lam, mu and x are its exact conjugates; returns the pair count."""
    pairs, i = 0, 0
    while i < len(quads):
        q = quads[i]
        if q.lam.imag == 0.0:
            i += 1
            continue
        partner = quads[i + 1]
        assert q.lam.imag < 0.0 and partner.lam == q.lam.conjugate(), i
        assert partner.mu == q.mu.conjugate(), i
        assert np.array_equal(partner.x, q.x.conj()), i
        pairs, i = pairs + 1, i + 2
    return pairs


@pytest.mark.parametrize("n, m, skip_tol", [
    (4, 2, delta.STEP_SKIP_TOL), (4, 2, -1.0), (6, 3, -1.0), (7, 3, -1.0), (10, 4, -1.0),
    (25, 16, delta.STEP_SKIP_TOL), (25, 16, -1.0)])
def test_real_problem_steps_once_per_conjugate_pair(monkeypatch, n, m, skip_tol):
    # the stacked Jacobians number the real candidates stepped plus the
    # pairs stepped: no Im lam > 0 member of a pair reaches _refine, and its
    # quadruplet is the exact conjugate of its partner's. Chunks hold 1, 2
    # and 3 candidates at (4, 2), (6, 3) and (7, 3).
    p = problems.gen_random(n, m, 1006, alphas=(1, 1, 1), betas=(1, 1, 1))
    monkeypatch.setattr(delta, "STEP_SKIP_TOL", skip_tol)
    refine, step = delta._refine, delta._newton_step
    calls, stacked = [], []

    def refined(problem, A, lams, vr):
        calls.append(lams.copy())
        return refine(problem, A, lams, vr)

    def recorded(problem, A, lam, *args):
        stacked.append(lam.copy())
        return step(problem, A, lam, *args)

    monkeypatch.setattr(delta, "_refine", refined)
    monkeypatch.setattr(delta, "_newton_step", recorded)
    quads = delta.solve(p)
    assert len(quads) == n * m
    pairs = assert_exact_conjugate_pairs(quads)
    # every row's y, a partner's too, is normalized by c
    assert all(q.c_normalized and abs(q.y @ p.c - 1) <= 1e-12 for q in quads)
    chunk = (n * m) ** 2 // (n + m + 2) ** 2
    assert not any((lams.imag > 0).any() for lams in calls)
    assert max(lams.size for lams in calls + stacked) <= chunk
    lams = np.concatenate([np.empty(0, complex), *stacked])
    real = np.count_nonzero(lams.imag == 0)
    leaders = np.count_nonzero(lams.imag < 0)
    assert lams.size == real + leaders and leaders <= pairs
    if n * m == 400 and skip_tol > 0:
        # at working accuracy already, a few candidates take no step
        assert leaders >= 150 and lams.size < 300
    if skip_tol < 0:
        assert (real, leaders) == (n * m - 2 * pairs, pairs)


def test_leader_whose_step_makes_lam_real_keeps_its_partner(monkeypatch):
    # a nearly real pair's Newton correction can exceed its Im lam; the
    # leader is the candidate solve passed for the pair, so it keeps its
    # partner whatever sign its refined Im lam has. Every candidate steps,
    # and none is dropped for its residuals, so the count shows the pairing
    p = problems.gen_random(10, 4, 1006, alphas=(1, 1, 1), betas=(1, 1, 1))
    monkeypatch.setattr(delta, "STEP_SKIP_TOL", -1.0)
    monkeypatch.setattr(delta, "ORACLE_TOL", np.inf)
    step = delta._newton_step
    leaders = []

    def made_real(problem, A, lam, *args):
        leaders.append(np.count_nonzero(lam.imag < 0))
        out_lam, *rest = step(problem, A, lam, *args)
        return (out_lam.real.astype(complex), *rest)

    monkeypatch.setattr(delta, "_newton_step", made_real)
    quads = delta.solve(p)
    assert sum(leaders) > 0
    assert len(quads) == p.n * p.m
    assert all(q.lam.imag == 0 for q in quads)


@pytest.mark.parametrize("n, m", [(4, 2), (10, 4), (25, 16)])
def test_mirrored_partner_is_its_own_newton_step_bit_for_bit(monkeypatch, n, m):
    # a partner gets the exact conjugates of its leader's step; the step of
    # the conjugated stack, each partner taking its leader's row, gives
    # exactly those, so a BLAS that breaks conjugation symmetry fails here
    # rather than making a partner drift from the step it would take itself
    from mepnl import _linalg

    p = problems.gen_random(n, m, 1006, alphas=(1, 1, 1), betas=(1, 1, 1))
    monkeypatch.setattr(delta, "STEP_SKIP_TOL", -1.0)  # every candidate steps
    step = delta._newton_step
    calls = []

    def recorded(problem, A, *args):
        out = step(problem, A, *args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(delta, "_newton_step", recorded)
    quads = delta.solve(p)
    assert len(quads) == n * m and assert_exact_conjugate_pairs(quads) > 0
    A = tuple(_linalg.to_dense(M) for M in (p.A1, p.A2, p.A3))
    leaders = 0
    for args, out in calls:
        leaders += np.count_nonzero(args[0].imag < 0)
        partners = step(p, A, *(v.conj() for v in args))
        for got, want in zip(partners[:4], out[:4]):
            assert np.array_equal(got, want.conj())
        assert np.array_equal(partners[4], out[4])
    assert leaders > 0


def test_real_problem_runs_one_real_lu_and_no_complex_one(monkeypatch):
    import collections

    from scipy.linalg import lapack

    from mepnl import _linalg

    calls = collections.Counter()
    for name in ("dgetrf", "dgetrs", "zgetrf", "zgetrs"):
        def counted(a, *args, _routine=getattr(lapack, name), _name=name, **kwargs):
            calls[_name, a.shape[0]] += 1
            return _routine(a, *args, **kwargs)
        monkeypatch.setattr(lapack, name, counted)
    dtypes = []
    assemble, geig = delta.assemble, _linalg.geig

    def assembled(problem):
        delta0, delta1 = assemble(problem)
        dtypes.extend((delta0.dtype, delta1.dtype))
        return delta0, delta1

    def recorded(P, Q, **kw):
        dtypes.append(P.dtype)
        return geig(P, Q, **kw)

    p = random_problem(5, 3, seed=4)
    rng = np.random.default_rng(0)
    q = mepnl.TwoParProblem(p.A1, p.A2, p.A3, p.B1 + 1j * rng.standard_normal((3, 3)),
                            p.B2, p.B3, p.c)
    assert p.is_real and not q.is_real
    monkeypatch.setattr(delta, "assemble", assembled)
    monkeypatch.setattr(_linalg, "geig", recorded)
    assert len(delta.solve(p)) == p.n * p.m
    # one LU of delta0 and the solves of the singularity test and of Gamma1
    assert calls == {("dgetrf", 15): 1, ("dgetrs", 15): 3}
    assert dtypes == [np.float64] * 3
    calls.clear()
    dtypes.clear()
    assert len(delta.solve(q)) == q.n * q.m
    assert calls == {("zgetrf", 15): 1, ("zgetrs", 15): 3}
    assert dtypes == [np.complex128] * 3


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
    # chunks of 1600 // 256 = 6 candidates with Im lam <= 0; the first opens
    # with the leaders of three conjugate pairs, candidates 0, 2 and 4, each
    # giving its partner its values, so its stack opens with their steps:
    # the stacked solve raises, and so does the own solve of the third
    # step, candidate 4's
    p = problems.gen_random(10, 4, seed=3, alphas=(1.0, 1.0, 1.0), betas=(1.0, 1.0, 1.0))
    monkeypatch.setattr(delta, "STEP_SKIP_TOL", -1.0)  # every candidate steps
    refined = delta.solve(p)
    assert all(refined[i + 1].lam == refined[i].lam.conjugate() != refined[i].lam
               for i in (0, 2, 4))
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
    # only candidate 4 and its partner keep their unrefined values and
    # residuals, bit for bit
    for i in (4, 5):
        q, u = quads[i], unrefined[i]
        assert (q.lam, q.mu, q.residuals) == (u.lam, u.mu, u.residuals), i
        assert np.array_equal(q.x, u.x) and np.array_equal(q.y, u.y), i
    for i, (q, r, u) in enumerate(zip(quads, refined, unrefined)):
        if i in (4, 5):
            continue
        assert q.lam != u.lam or q.mu != u.mu, i
        assert abs(q.lam - r.lam) <= 1e-12 * max(1.0, abs(r.lam)), i
        assert abs(q.mu - r.mu) <= 1e-12 * max(1.0, abs(r.mu)), i


def test_stepped_records_come_from_one_row_pass(monkeypatch):
    # every candidate steps; a chunk's stepped rows, all but the partners,
    # are re-scored by one row-wise _residual_norms, each partner carries
    # its leader's record, and no candidate calls core.residuals
    p = problems.gen_random(10, 4, seed=3, alphas=(1.0, 1.0, 1.0), betas=(1.0, 1.0, 1.0))
    monkeypatch.setattr(delta, "STEP_SKIP_TOL", -1.0)

    def refused(*args, **kwargs):
        raise AssertionError("delta.solve called core.residuals")

    monkeypatch.setattr(core, "residuals", refused)
    monkeypatch.setattr(delta, "residuals", refused)
    refine, chunks = delta._refine, []

    def recorded(*args):
        chunks.append(refine(*args))
        return chunks[-1]

    monkeypatch.setattr(delta, "_refine", recorded)
    assert len(delta.solve(p)) == p.n * p.m
    partners = 0
    for quads in chunks:
        rows = []
        for q in quads:
            if rows and rows[-1].lam.imag < 0 and q.lam == rows[-1].lam.conjugate():
                assert q.residuals == rows[-1].residuals
                partners += 1
            else:
                rows.append(q)
        res_a, res_b = core._residual_norms(
            p, np.array([q.lam for q in rows]), np.array([q.mu for q in rows]),
            np.stack([q.x for q in rows]), np.stack([q.y for q in rows]))
        assert [(q.residuals.res_a, q.residuals.res_b) for q in rows] == \
            list(zip(res_a.tolist(), res_b.tolist()))
    assert partners > 0


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


def test_solve_splits_eigenvectors_without_an_svd(monkeypatch):
    p = problems.gen_random(6, 4, 2)
    want = delta.solve(p)

    def no_svd(*args, **kwargs):
        raise AssertionError("the rank-one split ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    got = delta.solve(p)
    assert len(got) == len(want) == p.n * p.m
    assert [q.lam for q in got] == [q.lam for q in want]
    assert max(max(q.residuals.res_a, q.residuals.res_b) for q in got) <= 1e-12


def test_every_dropped_candidate_warns_once(monkeypatch):
    p = random_problem(4, 3, seed=0)
    monkeypatch.setattr(delta, "RANK_ONE_TOL", -1.0)  # no eigenvector is rank-one
    with pytest.warns(delta.RankOneExtractionWarning) as record:
        assert delta.solve(p) == []
    assert len(record) == p.n * p.m
    assert {w.filename for w in record} == {__file__}


def test_candidate_with_a3x_zero_warns_when_dropped():
    # x = e4 has A3 x = 0 and (A1 + lam A2) x = 0 at lam = -2, so the large
    # equation leaves mu free: the two genuine quadruplets there, one for
    # each eigenvalue of the small pencil at lam = -2, are dropped, each
    # with a warning
    rng = np.random.default_rng(3)
    A = [rng.standard_normal((4, 4)) for _ in range(3)]
    for M, corner in zip(A, (2.0, 1.0, 0.0)):
        M[3, :] = M[:, 3] = 0.0
        M[3, 3] = corner
    B = [rng.standard_normal((2, 2)) for _ in range(3)]
    p = mepnl.TwoParProblem(*A, *B, None)
    with pytest.warns(delta.RankOneExtractionWarning, match="A3 x = 0") as record:
        quads = delta.solve(p)
    assert len(quads) == 6 and len(record) == 2
    assert all(abs(q.lam + 2.0) > 1e-6 for q in quads)


def test_oracle_and_newton_against_a_40_digit_reference():
    # the paper's error claim on one live case: |lam - lam_ref| stays within
    # a fraction of kappa_total * u, with lam_ref an eigenvalue of
    # Gamma1 = Delta0^-1 Delta1 at 40 digits, from Delta0 and Delta1 formed
    # here with np.kron and no mepnl linear algebra
    mpmath = pytest.importorskip("mpmath")
    p = problems.gen_random(6, 3, seed=1)
    A1, A2, A3 = (np.asarray(M) for M in (p.A1, p.A2, p.A3))
    delta0 = np.kron(A2, p.B3) - np.kron(A3, p.B2)
    delta1 = np.kron(A3, p.B1) - np.kron(A1, p.B3)
    with mpmath.workdps(40):
        gamma1 = mpmath.inverse(mpmath.matrix(delta0.tolist())) * mpmath.matrix(delta1.tolist())
        ref = np.array([complex(e) for e in mpmath.eig(gamma1, left=False, right=False)])
    assert_error_claim(p, ref)


def assert_error_claim(p, ref):
    """The oracle's lam within 1e-11 relative of the reference eigenvalues
    ref, and Newton's from three fixed starts within 0.25 kappa_total u."""
    assert ref.size == p.n * p.m

    def error(lam):
        return np.min(np.abs(ref - lam))

    quads = delta.solve(p)
    assert len(quads) == ref.size
    assert max(error(q.lam) / abs(q.lam) for q in quads) <= 1e-11
    u = np.finfo(float).eps / 2
    for lam0 in (0.05, -0.1 + 0.05j, 0.2j):
        quad, trace = solvers.augmented_newton(nep.NepView(p), lam0, np.ones(p.n),
                                               solvers.SolverConfig(tol=1e-13))
        assert trace.converged
        assert error(quad.lam) <= 0.25 * core.condition_numbers(p, quad).kappa_total * u


REFERENCES = json.loads((Path(__file__).parent / "reference_eigenvalues.json").read_text())


@pytest.mark.parametrize("case", REFERENCES["cases"], ids=lambda case: case["name"])
def test_oracle_and_newton_against_committed_40_digit_references(case):
    # the error claim of the live case above, against eigenvalues that
    # reference_eigenvalues.py computed at 40 digits and committed to 20:
    # no mpmath runs here
    p = getattr(problems, case["generator"])(*(np.array(a) for a in case["A"]))
    if case["generator"] == "gen_sqrt_nep":
        p = p[0]
    assert_error_claim(p, np.array([complex(float(re), float(im)) for re, im in case["lam"]]))
