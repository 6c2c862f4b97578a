"""End-to-end command-line runs: artifacts, determinism, exit codes."""
import argparse
import csv
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

import mepnl
from mepnl import cli, delta, mmio, pencil, problems


def run(args):
    return cli.main([str(a) for a in args])


def read_results(out):
    with open(os.path.join(out, "results.json")) as fh:
        return json.load(fh)


def test_parse_complex():
    assert cli.parse_complex("1.5") == 1.5 + 0j
    assert cli.parse_complex("1.5+2i") == 1.5 + 2j
    assert cli.parse_complex("-0.5-0.25j") == -0.5 - 0.25j
    assert cli.parse_complex(" 2i ") == 2j
    with pytest.raises(Exception):
        cli.parse_complex("one+2i")


def test_parse_grid():
    np.testing.assert_allclose(cli.parse_grid("0:0.5:2"),
                               [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(cli.parse_grid("0:0.4:1"), [0.0, 0.4, 0.8])
    np.testing.assert_allclose(cli.parse_grid("-1:1:1"), [-1.0, 0.0, 1.0])
    for bad in ("0:1", "a:b:c", "0:-1:5", "3:1:0"):
        with pytest.raises(Exception):
            cli.parse_grid(bad)


def test_dash_values_survive_argparse():
    joined = cli._join_dash_values(
        ["branches", "--grid", "-1:0.1:1", "--sigma", "-0.5+2i", "--n", "5"])
    assert "--grid=-1:0.1:1" in joined
    assert "--sigma=-0.5+2i" in joined
    assert joined[-2:] == ["--n", "5"]


def test_solve_delta_schema(tmp_path):
    out = tmp_path / "run"
    code = run(["solve", "--gen", "random", "--n", "6", "--m", "3",
                "--seed", "1", "--solver", "delta", "--out", out])
    assert code == 0
    res = read_results(out)
    assert res["schema_version"] == 3
    assert res["converged"] is True
    assert res["problem"]["n"] == 6 and res["problem"]["m"] == 3
    assert res["config"]["solver"] == "delta"
    assert "total_seconds" in res["timings"]
    assert res["quadruplets"]
    for q in res["quadruplets"]:
        assert q["res_a"] <= 1e-8 and q["res_b"] <= 1e-8
        assert len(q["lam"]) == 2 and len(q["x"]) == 6 and len(q["y"]) == 3
    assert not (out / "trace.csv").exists()


def qep_target(seed=0, n=6):
    rng = np.random.default_rng(seed)
    p = problems.gen_qep(*(rng.standard_normal((n, n)) for _ in range(3)))
    quads = delta.solve(p)
    lams = [q.lam for q in quads]

    def isolation(q):
        return min(abs(q.lam - z) for z in lams if z != q.lam)

    return max(quads, key=isolation).lam


def test_solve_newton_deterministic_reruns(tmp_path):
    target = qep_target()
    lam0 = target + 1e-3
    out = tmp_path / "run"
    args = ["solve", "--gen", "qep", "--n", "6", "--seed", "0",
            "--solver", "newton", "--lambda0", f"{lam0.real}+{lam0.imag}i",
            "--out", out]
    assert run(args) == 0
    first = read_results(out)
    first_trace = (out / "trace.csv").read_text().splitlines()
    assert run(args) == 0
    second = read_results(out)
    second_trace = (out / "trace.csv").read_text().splitlines()

    first.pop("timings")
    second.pop("timings")
    assert first == second, "rerun must be bit-identical outside timings"
    assert first_trace[0] == ("iteration,lam_re,lam_im,mu_re,mu_im,"
                              "res_a,res_b,seconds")
    assert len(first_trace) == len(second_trace)
    for a, b in zip(first_trace[1:], second_trace[1:]):
        assert a.split(",")[:-1] == b.split(",")[:-1]

    lam = complex(*first["quadruplets"][0]["lam"])
    assert abs(lam - target) <= 1e-8
    ks = [row.split(",")[0] for row in first_trace[1:]]
    assert ks == [str(i) for i in range(len(ks))]


def test_solve_resinv_maxit_exit_code(tmp_path):
    target = qep_target()
    out = tmp_path / "run"
    code = run(["solve", "--gen", "qep", "--n", "6", "--seed", "0",
                "--solver", "resinv", "--sigma", f"{target.real + 0.05}",
                "--tol", "1e-30", "--maxit", "3", "--out", out])
    assert code == 2
    res = read_results(out)
    assert res["converged"] is False
    assert res["trace"]["termination"] == "maxit"
    assert (out / "trace.csv").exists()


def test_tol_that_is_no_number_or_negative_exits_io(tmp_path, capsys):
    # parse_float's two refusals, as the README's exit table promises: exit
    # 4 with argparse's message, and no artifact
    out = tmp_path / "run"
    base = ["solve", "--gen", "random", "--n", "6", "--m", "3", "--out", out]
    for tol, message in (("abc", "not a number: 'abc'"), ("-1", "must be >= 0, got '-1'")):
        with pytest.raises(SystemExit) as exc:
            run([*base, "--tol", tol])
        assert exc.value.code == cli.EXIT_IO, tol
        assert f"argument --tol: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_sqrt_generator_converges(tmp_path):
    # the square-root generator from the command line: its A1-A3 are the
    # seed's three standard normal draws, and the answer solves both
    # equations, with mu on one of the closed-form branches
    out = tmp_path / "run"
    assert run(["solve", "--gen", "sqrt", "--n", "6", "--seed", "1", "--out", out]) == 0
    res = read_results(out)
    assert res["converged"] is True and res["problem"] == {"label": "sqrt", "n": 6, "m": 2}
    rng = np.random.default_rng(1)
    p, branch = problems.gen_sqrt_nep(*(rng.standard_normal((6, 6)) for _ in range(3)))
    got = res["quadruplets"][0]
    lam, mu = complex(*got["lam"]), complex(*got["mu"])
    x, y = (np.array([complex(*z) for z in got[k]]) for k in ("x", "y"))
    rec = mepnl.residuals(p, mepnl.Quadruplet(lam, mu, x, y))
    assert rec.res_a <= 1e-10 and rec.res_b <= 1e-10
    assert min(abs(mu - branch(lam, sign)) for sign in (1, -1)) <= 1e-10 * abs(mu)


def test_newton_at_accuracy_limit_exits_not_converged(tmp_path):
    # tol below the attainable accuracy: M(lam_k) turns numerically singular
    # near the solution, which is a stagnated run (exit 2), not a singular
    # problem (exit 3), and its artifacts are written
    out = tmp_path / "run"
    code = run(["solve", "--gen", "random", "--n", "60", "--m", "5",
                "--seed", "11", "--tol", "1e-17", "--out", out])
    assert code == 2
    res = read_results(out)
    assert res["converged"] is False
    assert res["trace"]["termination"] == "stagnated"
    assert res["quadruplets"][0]["res_a"] <= 1e-12
    assert (out / "trace.csv").exists()


def test_newton_nonfinite_update_exits_not_converged(tmp_path, nan_at_second_solve):
    # a NaN Newton solve ends the run as "nonfinite" (exit 2, artifacts of
    # the last finite iterate), not with a traceback from the small pencil
    out = tmp_path / "run"
    code = run(["solve", "--gen", "random", "--n", "30", "--m", "4",
                "--seed", "5", "--out", out])
    assert code == cli.EXIT_NOT_CONVERGED
    res = read_results(out)  # strict JSON: no NaN was written
    assert res["converged"] is False
    assert res["trace"]["termination"] == "nonfinite"
    assert all(math.isfinite(v) for v in res["quadruplets"][0]["lam"])


def exit_code_lines(text, pattern):
    """{code: line} for the lines of an exit-code table matched by pattern."""
    return {int(m.group(1)): m.group(0)
            for m in re.finditer(pattern, text, flags=re.MULTILINE)}


def test_exit_code_tables_match_the_code():
    codes = {name: value for name, value in vars(cli).items()
             if name.startswith("EXIT_")}
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    tables = {
        "cli docstring": exit_code_lines(cli.__doc__, r"^  (\d+)  .*(?:\n     .*)*"),
        "README": exit_code_lines(readme, r"^\| (\d+) \|.*"),
    }
    assert set(cli.TERMINATION_EXIT) == {"converged", "maxit", "stagnated", "nonfinite"}
    for where, lines in tables.items():
        assert set(lines) == set(codes.values()), where
        for term, code in cli.TERMINATION_EXIT.items():
            quoted = f'"{term}"' if where == "cli docstring" else f"`{term}`"
            holders = [c for c, line in lines.items() if quoted in line]
            assert holders == [code], f"{where}: {term} listed under {holders}"


def test_branches_flags_default_profile_pole(tmp_path):
    out = tmp_path / "run"
    code = run(["branches", "--gen", "helmholtz", "--n", "51", "--m", "30",
                "--grid", "-2:0.05:0", "--out", out])
    assert code == 0
    res = read_results(out)
    ivs = res["branches"]["singular_intervals"]["0"]
    assert len(ivs) == 1
    assert ivs[0]["kind"] == "pole"
    assert -1.0 <= ivs[0]["lo"] < ivs[0]["hi"] <= -0.7

    with open(out / "branches.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["lam", "g0_re", "g0_im", "flagged"]
    assert len(rows) == 41
    flagged = [float(r["lam"]) for r in rows if r["flagged"] == "1"]
    assert flagged and all(ivs[0]["lo"] <= x <= ivs[0]["hi"] for x in flagged)
    clean = [r for r in rows if r["flagged"] == "0"]
    assert all(np.isfinite(float(r["g0_re"])) for r in clean)


def test_branches_flags_only_the_computed_pole(tmp_path):
    # the one pole of the default profile in this window is lam = -0.8745;
    # the branch is analytic near -20, where its large values once read as a
    # "spike"
    out = tmp_path / "run"
    code = run(["branches", "--gen", "helmholtz", "--n", "51", "--m", "30",
                "--grid", "-20:0.05:40", "--out", out])
    assert code == 0
    poles = pencil.branch_poles(
        problems.gen_helmholtz(problems.HelmholtzConfig(n=51, m=30)).problem)
    inside = [z for z in poles if -20.0 <= z.real <= 40.0]
    assert len(inside) == 1 and abs(inside[0] + 0.8745) <= 1e-4
    ivs = read_results(out)["branches"]["singular_intervals"]["0"]
    assert len(ivs) == 1
    assert ivs[0]["kind"] == "pole"
    assert ivs[0]["lo"] <= inside[0].real <= ivs[0]["hi"]


def test_cond_reports(tmp_path):
    out = tmp_path / "run"
    code = run(["cond", "--gen", "random", "--n", "6", "--m", "3",
                "--seed", "2", "--solver", "delta", "--out", out])
    assert code == 0
    res = read_results(out)
    reports = res["condition_reports"]
    assert len(reports) == len(res["quadruplets"])
    for rep in reports:
        assert rep["kappa_total"] >= rep["kappa_a"] > 0
        assert np.isfinite(rep["kappa_g_b"])
        assert rep["det_c0"] > 0  # |det C0|, as printed


def test_cond_after_newton_on_singular_solution(tmp_path):
    # M(lam, mu) is numerically singular at this converged solution, and the
    # left vector comes from inverse iteration on its unrefused LU
    out = tmp_path / "run"
    code = run(["cond", "--gen", "random", "--n", "30", "--m", "4", "--seed", "5",
                "--solver", "newton", "--lambda0", "0.05", "--out", out])
    assert code == 0
    reports = read_results(out)["condition_reports"]
    assert len(reports) == 1 and np.isfinite(reports[0]["kappa_total"])


def test_cond_helmholtz(tmp_path, monkeypatch):
    # the split Helmholtz problem is real, and its rank-one branch point at a
    # real lam is exactly real: every M(lam) that Newton's iterates and the
    # left vectors factorize, at a real lam and mu, takes the real band LU
    # (dgbtrf)
    band_lus = {"dgbtrf": 0, "zgbtrf": 0}
    for name in band_lus:
        def counted(*args, _name=name, _original=getattr(lapack, name), **kwargs):
            band_lus[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lapack, name, counted)
    out = tmp_path / "run"
    assert run(["cond", "--gen", "helmholtz", "--out", out]) == 0
    reports = read_results(out)["condition_reports"]
    assert len(reports) == 1
    for key in ("kappa_a", "kappa_g_b", "kappa_g_lambda", "kappa_total",
                "backward_lambda_bound"):
        assert math.isfinite(reports[0][key]) and reports[0][key] > 0
    assert band_lus["dgbtrf"] > 0 and band_lus["zgbtrf"] == 0


@pytest.mark.parametrize("problem", [["--gen", "qep", "--n", "10", "--seed", "3"],
                                     ["--gen", "random", "--n", "12", "--m", "5",
                                      "--seed", "9"]])
def test_cond_delta_where_m_stays_singular_off_lam(tmp_path, problem):
    # these exited 3 (ShiftIsEigenvalue) while the left vector v was sought
    # at a lam moved off the solution, where M still had a reciprocal
    # condition of about 2e-15
    out = tmp_path / "run"
    assert run(["cond", "--solver", "delta", *problem, "--out", out]) == 0
    res = read_results(out)
    reports = res["condition_reports"]
    assert len(reports) == len(res["quadruplets"]) > 0
    assert all(np.isfinite(rep["kappa_total"]) for rep in reports)


def test_cond_reports_do_not_depend_on_seed(tmp_path):
    # --seed seeds generated problems only: on a problem read from files the
    # left vectors, and so the condition numbers, are the same at any seed
    gen_dir = tmp_path / "problem"
    assert run(["generate", "--gen", "random", "--n", "6", "--m", "3", "--seed", "2",
                "--out", gen_dir]) == 0
    files = ",".join(str(gen_dir / f"{name}.mtx")
                     for name in ("A1", "A2", "A3", "B1", "B2", "B3"))
    reports = []
    for seed in (0, 7):
        out = tmp_path / f"seed{seed}"
        assert run(["cond", "--matrix-files", files, "--c-file", gen_dir / "c.mtx",
                    "--solver", "delta", "--seed", seed, "--out", out]) == 0
        reports.append(read_results(out)["condition_reports"])
    assert reports[0] and reports[0] == reports[1]


def assert_cond_reports_ignore_x0(tmp_path, x0):
    """cond on random n=6 m=3 seed 0 gives the same reports from x0 as from
    the default x0 = ones, to rtol 1e-12."""
    x0_file = tmp_path / "x0.mtx"
    mmio.write_matrix(x0_file, x0[:, None])
    reports = []
    for start in ([], ["--x0-file", x0_file]):
        out = tmp_path / f"run{len(start)}"
        assert run(["cond", "--gen", "random", "--n", "6", "--m", "3", "--seed", "0",
                    "--solver", "newton", *start, "--out", out]) == 0
        reports += read_results(out)["condition_reports"]
    assert len(reports) == 2 and reports[0].keys() == reports[1].keys()
    for key, value in reports[0].items():
        np.testing.assert_allclose(reports[1][key], value, rtol=1e-12, err_msg=key)


def test_cond_reports_do_not_depend_on_the_phase_of_x0(tmp_path):
    # x0 = i*ones scales every Newton iterate x by i, which leaves the
    # solution as it was, to rounding; but v, from a solve with M(lam)
    # singular to rounding, takes the phase of its rounding-level pivot, and
    # det C0 the phase of v^H x: the reports carry |det C0|, and nothing in
    # them moves by more than rounding
    assert_cond_reports_ignore_x0(tmp_path, 1j * np.ones(6))


def test_cond_reports_do_not_depend_on_the_scale_of_x0(tmp_path):
    # x0 = 2*ones doubles x, and with it det C0 = (v^H A2 x)(w^H B3 y) -
    # (v^H A3 x)(w^H B2 y); the reports carry |det C0| / (||x|| ||y||)
    assert_cond_reports_ignore_x0(tmp_path, 2.0 * np.ones(6))


def test_newton_annihilated_direction_exits_not_converged(tmp_path, capsys):
    # M'(lam) x = 0 (A2 = A3 = 0) gives the Newton direction u = 0, which no
    # solve can prove singular though M = A1 is: d^T u = 0 is a
    # ConvergenceFailure, exit 2, and no artifact is written
    A1 = np.diag([0.0, 1.0, 2.0, 3.0])
    Z = np.zeros((4, 4))
    files = mmio.save_problem(mepnl.TwoParProblem(A1, Z, Z, np.diag([1.0, 2.0]), np.eye(2),
                                                  np.eye(2), np.ones(2)), tmp_path / "p")
    out = tmp_path / "run"
    code = run(["solve", "--matrix-files", ",".join(files[k] for k in mmio.MATRIX_NAMES),
                "--c-file", files["c"], "--solver", "newton", "--out", out])
    assert code == cli.EXIT_NOT_CONVERGED
    assert "annihilated the Newton direction at iteration 0" in capsys.readouterr().err
    assert not (out / "results.json").exists()


def test_newton_at_the_edge_of_the_float_range_warns_of_no_overflow(tmp_path, capsys):
    # at lam = 1e308 M(lam) x lies past the float range, so its residual
    # norm is taken scaled; the point's mu is not simple, exit 3, and no
    # RuntimeWarning is raised on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["solve", "--gen", "helmholtz", "--n", "20", "--m", "4",
                    "--lambda0", "1e308", "--out", tmp_path / "run"])
    assert code == 3
    assert "NonSimpleMu" in capsys.readouterr().err


def test_generate_check_solve_round_trip(tmp_path, capsys):
    gen_dir = tmp_path / "problem"
    assert run(["generate", "--gen", "random", "--n", "5", "--m", "3",
                "--seed", "3", "--out", gen_dir]) == 0
    res = read_results(gen_dir)
    assert sorted(res["written"]) == ["A1", "A2", "A3", "B1", "B2", "B3", "c"]
    files = ",".join(str(gen_dir / f"{k}.mtx") for k in mmio.MATRIX_NAMES)

    assert run(["check", "--matrix-files", files,
                "--c-file", gen_dir / "c.mtx", "--out", tmp_path]) == 0
    printed = capsys.readouterr().out
    assert "n=5" in printed and "m=3" in printed
    assert "branches at lam=0" in printed and "direct oracle" in printed

    out = tmp_path / "solve"
    assert run(["solve", "--matrix-files", files, "--c-file", gen_dir / "c.mtx",
                "--solver", "delta", "--out", out]) == 0
    back = read_results(out)
    direct = delta.solve(problems.gen_random(5, 3, seed=3))
    got = [complex(*q["lam"]) for q in back["quadruplets"]]
    assert len(got) == len(direct)
    for q in direct:
        best = min(got, key=lambda z: abs(z - q.lam))
        assert abs(best - q.lam) <= 1e-8 * (1.0 + abs(q.lam))
        got.remove(best)


def test_missing_matrix_file_is_io_error(tmp_path):
    out = tmp_path / "run"
    files = ",".join(str(tmp_path / f"missing{i}.mtx") for i in range(6))
    code = run(["solve", "--matrix-files", files, "--solver", "delta",
                "--out", out])
    assert code == 4
    assert not (out / "results.json").exists()


def test_size_cap_exit_and_no_partial_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run(["solve", "--gen", "random", "--n", "70", "--m", "60",
                "--solver", "delta", "--out", out])
    assert code == 5
    assert not os.path.exists(out)


def test_singular_problem_exit(tmp_path):
    rng = np.random.default_rng(4)
    d = tmp_path / "problem"
    d.mkdir()
    names = []
    for name, mat in [
        ("A1", rng.standard_normal((3, 3))),
        ("A2", rng.standard_normal((3, 3))),
        ("A3", rng.standard_normal((3, 3))),
        ("B1", np.eye(2)),
        ("B2", np.zeros((2, 2))),  # delta0 vanishes identically
        ("B3", np.zeros((2, 2))),
    ]:
        path = d / f"{name}.mtx"
        mmio.write_matrix(path, mat)
        names.append(str(path))
    cpath = d / "c.mtx"
    mmio.write_matrix(cpath, np.array([[1.0], [0.0]]))
    out = tmp_path / "run"
    code = run(["solve", "--matrix-files", ",".join(names), "--c-file", cpath,
                "--solver", "delta", "--out", out])
    assert code == 3
    assert not (out / "results.json").exists()


def test_wrong_x0_length_is_io_error(tmp_path):
    x0 = tmp_path / "x0.mtx"
    mmio.write_matrix(x0, np.ones((4, 1)))
    out = tmp_path / "run"
    code = run(["solve", "--gen", "qep", "--n", "6", "--seed", "0",
                "--x0-file", x0, "--out", out])
    assert code == 4
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("target, bad, solver", [
    ("x0", 0.0, "newton"), ("x0", 0.0, "resinv"),
    ("x0", np.nan, "newton"), ("x0", np.nan, "resinv"),
    ("c", 0.0, "newton"), ("B2", np.nan, "newton"),
    ("A1", np.inf, "newton"), ("A1", np.inf, "delta"),
])
def test_bad_input_file_is_io_error(tmp_path, capsys, target, bad, solver):
    # a zero value zeroes the whole vector; NaN or Inf replaces one entry
    files = mmio.save_problem(problems.gen_random(5, 3, seed=3), tmp_path / "problem")
    files["x0"] = str(tmp_path / "x0.mtx")
    mmio.write_matrix(files["x0"], np.ones((5, 1)))
    mat = mmio.read_matrix(files[target])
    if bad == 0.0:
        mat[:] = 0.0
    else:
        mat.flat[1] = bad
    mmio.write_matrix(files[target], mat)
    out = tmp_path / "run"
    code = run(["solve", "--matrix-files", ",".join(files[k] for k in mmio.MATRIX_NAMES),
                "--c-file", files["c"], "--x0-file", files["x0"], "--solver", solver,
                "--lambda0", "0.1", "--out", out])
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert err.startswith("error: ") and files[target] in err and "Traceback" not in err
    assert not (out / "results.json").exists()


def test_large_problem_omits_vectors():
    cfg = problems.HelmholtzConfig(x1=1.0, x2=1.5, n=201, m=12,
                                   kappa_a=2.0, kappa_b=2.0)
    disc = problems.gen_helmholtz(cfg)
    lam1 = problems.helmholtz_analytic_eigenvalues(2.0, 1.5, 1)[0]
    from mepnl.nep import NepView
    from mepnl.solvers import augmented_newton

    view = NepView(disc.problem, branch_id=0, reference_lam=lam1 + 0.01)
    quad, trace = augmented_newton(view, lam1 + 0.01, np.ones(cfg.n))
    assert trace.converged
    blob = cli._quad_json(disc.problem, quad)
    assert blob.get("vectors_omitted") is True
    assert "x" not in blob


def test_parse_complex_round_trips_printed_values():
    # f"{z.real}+{z.imag}i" is how callers build --lambda0; a negative or
    # negative-zero imaginary part prints as "+-"
    for z in (1 - 2j, complex(1.5, -0.0), complex(1e-05, -3e-17),
              complex(-2.5e10, -1e-300), complex(0.25, 3e-17)):
        got = cli.parse_complex(f"{z.real}+{z.imag}i")
        assert got == z
        assert math.copysign(1.0, got.imag) == math.copysign(1.0, z.imag)


def test_solve_and_cond_refuse_several_branch_ids(tmp_path, capsys):
    # solve and cond follow one branch, so several ids are refused before
    # any work, not recorded in results.json while only the first is solved
    out = tmp_path / "run"
    base = ["--gen", "random", "--n", "6", "--m", "3", "--out", out]
    for command in ("solve", "cond"):
        for solver in ("newton", "resinv", "delta"):
            argv = [command, *base, "--solver", solver, "--branch", "1,0"]
            assert run(argv) == cli.EXIT_IO, argv
            err = capsys.readouterr().err
            assert err.startswith("error: --branch 1,0:") and "one branch" in err, argv
            assert not out.exists(), argv
    assert run(["solve", *base, "--branch", "1"]) == cli.EXIT_OK
    assert read_results(out)["config"]["branch_ids"] == [1]


def test_repeated_branch_id_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    # a repeated id would tabulate one branch twice under a repeated header
    out = tmp_path / "run"
    base = ["--gen", "random", "--n", "6", "--m", "3", "--out", out]
    branches = ["branches", *base, "--grid", "-1:0.5:1"]

    def no_problem(cfg):
        raise AssertionError("a problem was built")

    with monkeypatch.context() as patched:
        patched.setattr(cli, "_build_problem", no_problem)
        for argv in ([*branches, "--branch", "0,0"], [*branches, "--branch", "1,0,1"],
                     ["solve", *base, "--branch", "1,1"], ["cond", *base, "--branch", "0,0"]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == cli.EXIT_IO, argv
            assert "repeated branch id" in capsys.readouterr().err, argv
            assert not out.exists(), argv
    assert run([*branches, "--branch", "1,0"]) == cli.EXIT_OK
    with open(out / "branches.csv") as fh:
        assert fh.readline() == "lam,g1_re,g1_im,g0_re,g0_im,flagged\n"
    assert read_results(out)["branches"]["branch_ids"] == [1, 0]


def test_grid_beyond_memory_exits_io_before_any_work(tmp_path, monkeypatch, capsys):
    # a grid past numpy's size limit, and one whose allocation fails (a
    # stand-in MemoryError, so nothing is allocated), both exit 4 with one
    # line naming the grid; the grid is built once, before the problem
    out = tmp_path / "run"
    base = ["branches", "--gen", "random", "--n", "6", "--m", "3", "--out", out]

    def no_problem(cfg):
        raise AssertionError("a problem was built")

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000001,) and data type float64")

    monkeypatch.setattr(cli, "_build_problem", no_problem)
    for grid, arange in (("0:1e-300:1e300", np.arange), ("0:1e-9:1e3", no_memory)):
        with monkeypatch.context() as patched:
            patched.setattr(np, "arange", arange)
            assert run([*base, "--grid", grid]) == cli.EXIT_IO, grid
        err = capsys.readouterr().err
        assert err.startswith(f"error: --grid {grid}: ") and err.count("\n") == 1, err
        assert not out.exists(), grid


def test_bad_and_non_finite_values_exit_io(tmp_path, monkeypatch, capsys):
    for text in ("nan", "inf", "-inf+1i", "1e400", "1+nani"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_complex(text)
    for text in ("0:nan:1", "-inf:1:0", "0:1:inf", "0:1e400:1"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_grid(text)
    out = tmp_path / "run"
    base = ["--gen", "random", "--n", "6", "--m", "3", "--out", out]
    for argv in (["solve", *base, "--lambda0", "nan"],
                 ["solve", *base, "--lambda0", "inf"],
                 ["solve", *base, "--solver", "resinv", "--sigma", "nan"],
                 ["solve", *base, "--tol", "nan"],
                 ["solve", *base, "--bogus"],
                 ["branches", *base, "--grid", "0:nan:1"],
                 ["branches", *base, "--grid", "0:1"],
                 ["solve", *base, "--branch", "x"],
                 ["solve", *base, "--branch", "-1"],
                 ["solve", "--gen", "random", "--n", "0", "--m", "3", "--out", out],
                 ["solve", "--gen", "random", "--n", "6", "--m", "0", "--out", out],
                 ["solve", *base, "--seed", "-1"],
                 ["solve", *base, "--maxit", "-1"],
                 ["solve", *base, "--tol", "-1e-10"],
                 ["solve", *base, "--solver", "resinv", "--maxit", "-1"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == cli.EXIT_IO, argv
    capsys.readouterr()
    # values that only the problem can refuse
    for argv in (["solve", *base, "--branch", "5"],
                 ["solve", *base, "--branch", "0,5"],
                 ["branches", *base, "--branch", "5", "--grid", "0:0.5:1"],
                 ["solve", "--gen", "helmholtz", "--n", "2", "--m", "3", "--out", out],
                 ["branches", "--gen", "helmholtz", "--n", "40", "--m", "2",
                  "--grid", "0:0.5:1", "--out", out]):
        assert run(argv) == cli.EXIT_IO, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv
    monkeypatch.setenv(delta.CAP_ENV, "abc")
    with pytest.raises(SystemExit) as exc:
        run(["check", *base])
    assert exc.value.code == cli.EXIT_IO
    assert "MEPNL_CAP" in capsys.readouterr().err
    assert not out.exists()
