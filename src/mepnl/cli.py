"""Command-line interface.

Subcommands: solve (one eigenvalue run or the small-problem oracle),
branches (tabulate g_i over a lam grid to CSV, flagging gaps and poles),
cond (solve plus condition numbers), generate (write a generated problem
to Matrix Market files), check (validate and summarize a problem source).

Exit codes (EXIT_*; TERMINATION_EXIT maps each SolveTrace termination):
  0  ok; termination "converged"
  2  solver did not converge: termination "maxit" (step budget spent),
     "stagnated" (Newton reached the accuracy limit before tol) or
     "nonfinite" (an update turned lam or x non-finite)
  3  singular or degenerate problem
  4  I/O or argument data failure, including a bad or non-finite
     command-line value or MEPNL_CAP (argparse usage errors exit here too)
  5  size cap exceeded
All artifacts of a run are written only after the computation finished, so
a failed run leaves no partial files; results.json isolates wall-clock data
under "timings" and is otherwise deterministic for a fixed config and seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import _linalg, delta, mmio, pencil, problems
from .core import Quadruplet, condition_numbers
from .errors import (ConvergenceFailure, DimensionMismatch, MepnlError,
                     ProblemIOError, TooLarge)
from .nep import NepView
from .solvers import SolverConfig, augmented_newton, resinv

SCHEMA_VERSION = 3
# eigenvectors go into results.json only up to this order
VECTOR_LIMIT = 200

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_SINGULAR = 3
EXIT_IO = 4
EXIT_TOO_LARGE = 5
# exit code of each SolveTrace termination
TERMINATION_EXIT = {"converged": EXIT_OK, "maxit": EXIT_NOT_CONVERGED,
                    "stagnated": EXIT_NOT_CONVERGED, "nonfinite": EXIT_NOT_CONVERGED}


def _require_finite(values, text):
    if not np.all(np.isfinite(values)):
        raise argparse.ArgumentTypeError(f"not finite: {text!r}")


def parse_complex(text) -> complex:
    """Accept 1.5, 1.5+2i, 1.5+2j, 1.5+-2i, with optional whitespace; reject
    non-finite values such as nan and inf.

    "a+-bi" is what f"{z.real}+{z.imag}i" prints for a negative imaginary part.
    """
    s = str(text).strip().replace(" ", "").replace("+-", "-")
    try:
        z = complex(s[:-1] + "j" if s.endswith("i") else s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")
    _require_finite(z, text)
    return z


def parse_float(text) -> float:
    """A finite float >= 0."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    _require_finite(x, text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return x


def _grid_bounds(text) -> tuple:
    """(lo, step, hi) of lo:step:hi, finite, with lo <= hi and step > 0."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be lo:step:hi, got {text!r}")
    try:
        lo, step, hi = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric grid bound in {text!r}")
    _require_finite((lo, step, hi), text)
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"need lo <= hi and step > 0 in {text!r}")
    return lo, step, hi


def parse_grid(text) -> np.ndarray:
    """lo:step:hi with finite bounds, inclusive of hi up to half a step."""
    lo, step, hi = _grid_bounds(text)
    return np.arange(lo, hi + step / 2.0, step)


def _grid_text(text) -> str:
    """The --grid text, once its bounds pass; cmd_branches builds the grid."""
    _grid_bounds(text)
    return text


def _int_at_least(low):
    """argparse type: an integer >= low."""

    def parse(text) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_count = _int_at_least(0)


def _branch_ids(text) -> tuple:
    """Comma-separated branch ids, each >= 0 and none repeated."""
    ids = tuple(_count(tok) for tok in str(text).split(","))
    if len(set(ids)) < len(ids):
        raise argparse.ArgumentTypeError(f"repeated branch id in {text!r}")
    return ids


def _file_list(text) -> tuple:
    """Comma-separated file names."""
    return tuple(tok.strip() for tok in str(text).split(","))


def _c2j(z):
    z = complex(z)
    return [z.real, z.imag]


@dataclasses.dataclass
class RunConfig:
    """Everything that determines a run; embedded verbatim in results.json."""

    command: str
    gen: str | None = None
    n: int | None = None
    m: int | None = None
    seed: int = 0
    solver: str = "newton"
    branch_ids: tuple = (0,)
    lambda0: complex | None = None
    sigma: complex | None = None
    tol: float = SolverConfig.tol
    maxit: int = SolverConfig.maxit
    grid: str | None = None
    out: str = "."
    matrix_files: tuple | None = None
    c_file: str | None = None
    x0_file: str | None = None

    def to_json(self):
        d = dataclasses.asdict(self)
        for key in ("lambda0", "sigma"):
            if d[key] is not None:
                d[key] = _c2j(d[key])
        d["branch_ids"] = list(self.branch_ids)
        if d["matrix_files"] is not None:
            d["matrix_files"] = list(d["matrix_files"])
        return d


def _build_problem(cfg: RunConfig):
    if cfg.matrix_files is not None:
        return mmio.load_problem(cfg.matrix_files, cfg.c_file)
    gen = cfg.gen or "random"
    if gen == "helmholtz":
        given = {k: v for k, v in (("n", cfg.n), ("m", cfg.m)) if v is not None}
        try:
            return problems.gen_helmholtz(problems.HelmholtzConfig(**given)).problem
        except ValueError as exc:
            raise ProblemIOError(f"--gen helmholtz: {exc}") from exc
    n = 20 if cfg.n is None else cfg.n
    if gen == "random":
        return problems.gen_random(n, 4 if cfg.m is None else cfg.m, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    A1, A2, A3 = (rng.standard_normal((n, n)) for _ in range(3))
    if gen == "qep":
        return problems.gen_qep(A1, A2, A3)
    return problems.gen_sqrt_nep(A1, A2, A3)[0]


def _require_branches(problem, branch_ids):
    """Refuse a branch id that the problem does not have at lam = 0. A problem
    with no finite branch there is left to NoFiniteEigenvalue."""
    have, b = problem.reference_mus.size, max(branch_ids)
    if have and b >= have:
        raise ProblemIOError(f"--branch {b}: the problem has branches 0..{have - 1} at lam = 0")


def _header(cfg: RunConfig, problem):
    """The results.json fields every command writes first."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_json(),
        "problem": {"label": problem.label, "n": problem.n, "m": problem.m},
    }


def _quad_json(problem, quad: Quadruplet):
    rec = quad.residuals
    out = {
        "lam": _c2j(quad.lam),
        "mu": _c2j(quad.mu),
        "res_a": rec.res_a,
        "res_b": rec.res_b,
        "c_normalized": bool(quad.c_normalized),
    }
    if problem.n <= VECTOR_LIMIT:
        out["x"] = [_c2j(v) for v in np.asarray(quad.x).reshape(-1)]
        out["y"] = [_c2j(v) for v in np.asarray(quad.y).reshape(-1)]
    else:
        out["vectors_omitted"] = True
    return out


def _trace_json(trace):
    return {
        "lam": [_c2j(z) for z in trace.lam],
        "mu": [_c2j(z) for z in trace.mu],
        "res_a": list(trace.res_a),
        "res_b": list(trace.res_b),
        "alpha": [_c2j(z) for z in trace.alpha],
        "iterations": trace.iterations,
        "termination": trace.termination,
    }


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace_csv(path, trace):
    with open(path, "w") as fh:
        fh.write("iteration,lam_re,lam_im,mu_re,mu_im,res_a,res_b,seconds\n")
        for k, lam, mu, ra, rb, sec in trace.rows():
            fh.write(
                f"{k},{float(lam.real)!r},{float(lam.imag)!r},"
                f"{float(mu.real)!r},{float(mu.imag)!r},"
                f"{float(ra)!r},{float(rb)!r},{float(sec)!r}\n"
            )


def _default_x0(cfg: RunConfig, n):
    if cfg.x0_file is not None:
        vec = _linalg.to_dense(mmio.read_matrix(cfg.x0_file)).reshape(-1)
        if vec.size != n:
            raise DimensionMismatch(f"x0 has length {vec.size}, problem order is {n}")
        if not np.any(vec):
            raise ProblemIOError(f"{cfg.x0_file}: x0 is the zero vector")
        return vec.astype(np.complex128)
    return np.ones(n, dtype=np.complex128)


def _compute_solve(cfg: RunConfig):
    """Run the configured solver; nothing is written here.

    Returns (exit code, payload dict without timings, problem, quadruplets,
    trace or None).
    """
    if len(cfg.branch_ids) > 1:
        raise ProblemIOError(f"--branch {','.join(map(str, cfg.branch_ids))}: "
                             f"{cfg.command} follows one branch; give one id")
    problem = _build_problem(cfg)
    payload = _header(cfg, problem)
    payload["solver"] = cfg.solver
    trace = None
    code = EXIT_OK
    if cfg.solver == "delta":
        quads = delta.solve(problem)
        payload["converged"] = True
    else:
        _require_branches(problem, cfg.branch_ids)
        nep = NepView(problem, branch_id=cfg.branch_ids[0])
        x0 = _default_x0(cfg, problem.n)
        lam0 = cfg.lambda0 if cfg.lambda0 is not None else 0.0
        solver_cfg = SolverConfig(tol=cfg.tol, maxit=cfg.maxit)
        if cfg.solver == "newton":
            quad, trace = augmented_newton(nep, lam0, x0, solver_cfg)
        else:
            solver_cfg.sigma = cfg.sigma if cfg.sigma is not None else lam0
            quad, trace = resinv(nep, x0, solver_cfg)
        quads = [quad]
        payload["trace"] = _trace_json(trace)
        payload["converged"] = trace.converged
        code = TERMINATION_EXIT[trace.termination]
    payload["quadruplets"] = [_quad_json(problem, q) for q in quads]
    return code, payload, problem, quads, trace


def _write_artifacts(cfg, payload, trace, t_start):
    payload["timings"] = {"total_seconds": time.perf_counter() - t_start}
    os.makedirs(cfg.out, exist_ok=True)
    _write_json(os.path.join(cfg.out, "results.json"), payload)
    if trace is not None:
        _write_trace_csv(os.path.join(cfg.out, "trace.csv"), trace)


def _status_line(cfg, payload, trace) -> str:
    """How the solve ended, the line solve prints, and cond when the solve
    did not converge."""
    if payload["converged"]:
        return f"converged: {len(payload['quadruplets'])} quadruplet(s) -> {cfg.out}/results.json"
    if trace.termination == "stagnated":
        return (f"stagnated at the accuracy limit after {trace.iterations} "
                f"iterates -> {cfg.out}/results.json")
    if trace.termination == "nonfinite":
        return (f"stopped before a non-finite update after {trace.iterations} "
                f"iterates -> {cfg.out}/results.json")
    return f"did not converge within {cfg.maxit} iterations -> {cfg.out}/results.json"


def cmd_solve(cfg: RunConfig) -> int:
    t_start = time.perf_counter()
    code, payload, _, _, trace = _compute_solve(cfg)
    _write_artifacts(cfg, payload, trace, t_start)
    print(_status_line(cfg, payload, trace))
    n_quads = len(payload["quadruplets"])
    for q in payload["quadruplets"][:8]:
        lam, mu = q["lam"], q["mu"]
        print(f"  lam = {lam[0]:+.12e}{lam[1]:+.12e}i   "
              f"mu = {mu[0]:+.12e}{mu[1]:+.12e}i   resA = {q['res_a']:.2e}")
    if n_quads > 8:
        print(f"  ... {n_quads - 8} more")
    return code


def cmd_cond(cfg: RunConfig) -> int:
    """solve plus the condition numbers of each quadruplet. A solve that did
    not converge gives no eigenpair to condition: its artifacts are written
    with no reports, and its line and exit code are solve's."""
    t_start = time.perf_counter()
    code, payload, problem, quads, trace = _compute_solve(cfg)
    reports = []
    for quad in quads if payload["converged"] else ():
        rep = dataclasses.asdict(condition_numbers(problem, quad))
        # |det C0| / (||x|| ||y||), as v and w are unit: x and y carry the
        # scales of x0 and c, and x and v an arbitrary phase
        scale = np.linalg.norm(quad.x) * np.linalg.norm(quad.y)
        rep["det_c0"] = abs(rep["det_c0"]) / scale
        reports.append({"lam": _c2j(quad.lam), **rep})
    payload["condition_reports"] = reports
    _write_artifacts(cfg, payload, trace, t_start)
    if not payload["converged"]:
        print(_status_line(cfg, payload, trace))
    for rep in reports:
        lam = rep["lam"]
        print(f"lam = {lam[0]:+.6e}{lam[1]:+.6e}i   kappa_total = "
              f"{rep['kappa_total']:.3e}   |det C0|/(||x|| ||y||) = {rep['det_c0']:.3e}")
    return code


def cmd_branches(cfg: RunConfig) -> int:
    t_start = time.perf_counter()
    try:
        grid = parse_grid(cfg.grid)
    except (MemoryError, ValueError) as exc:  # numpy's size limit or the memory's
        raise ProblemIOError(f"--grid {cfg.grid}: {exc}") from exc
    problem = _build_problem(cfg)
    _require_branches(problem, cfg.branch_ids)
    table = problems.tabulate_branches(problem, grid, cfg.branch_ids)
    intervals = problems.flag_singularities(problem, table)
    payload = _header(cfg, problem)
    payload["branches"] = {
        "branch_ids": list(cfg.branch_ids),
        "points": int(grid.size),
        "gaps": [
            {"index": int(i), "branch": int(b), "reason": reason}
            for i, b, reason in table.gaps
        ],
        "singular_intervals": {str(b): [dataclasses.asdict(iv) for iv in ivs]
                               for b, ivs in intervals.items()},
    }
    payload["timings"] = {"total_seconds": time.perf_counter() - t_start}
    flagged_union = [iv for ivs in intervals.values() for iv in ivs]
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, "branches.csv")
    with open(csv_path, "w") as fh:
        head = ",".join(
            f"g{b}_re,g{b}_im" for b in cfg.branch_ids
        )
        fh.write(f"lam,{head},flagged\n")
        for i in range(grid.size):
            lam = table.grid[i]
            cells = []
            for j in range(len(cfg.branch_ids)):
                v = table.values[i, j]
                cells.append(f"{float(v.real)!r},{float(v.imag)!r}")
            hit = any(iv.contains(lam) for iv in flagged_union)
            fh.write(f"{float(lam.real)!r},{','.join(cells)},{int(hit)}\n")
    _write_json(os.path.join(cfg.out, "results.json"), payload)
    n_flag = sum(len(v) for v in intervals.values())
    print(f"tabulated {grid.size} points, {len(table.gaps)} gap(s), "
          f"{n_flag} singular interval(s) -> {csv_path}")
    return EXIT_OK


def cmd_generate(cfg: RunConfig) -> int:
    problem = _build_problem(cfg)
    written = mmio.save_problem(problem, cfg.out)
    payload = _header(cfg, problem)
    payload["written"] = {k: os.path.basename(v) for k, v in written.items()}
    payload["timings"] = {}
    _write_json(os.path.join(cfg.out, "results.json"), payload)
    print(f"wrote {', '.join(sorted(written))} to {cfg.out}")
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    problem = _build_problem(cfg)
    points = [pencil.reference_point(problem, b) for b in range(problem.reference_mus.size)]
    cap = delta.size_cap()
    print(f"label: {problem.label}")
    print(f"orders: n={problem.n} ({'sparse' if problem.is_sparse else 'dense'}), "
          f"m={problem.m}")
    print(f"branches at lam=0: {len(points)} finite, {problem.m - len(points)} infinite")
    for p in points:
        print(f"  branch {p.branch_id}: mu = {p.mu:+.6e}"
              + ("  [c-degenerate]" if p.c_degenerate else ""))
    ok = problem.n * problem.m <= cap
    print(f"direct oracle: n*m = {problem.n * problem.m} "
          f"{'<=' if ok else '>'} cap {cap}")
    return EXIT_OK


def _add_common(p):
    p.add_argument("--gen", choices=("random", "qep", "sqrt", "helmholtz"),
                   help="problem generator (alternative to --matrix-files)")
    p.add_argument("--n", type=_positive_int, help="large equation order")
    p.add_argument("--m", type=_positive_int, help="small equation order")
    p.add_argument("--seed", type=_count,
                   help="seed of the --gen random, qep and sqrt generators; "
                        "nothing else reads it")
    p.add_argument("--matrix-files", type=_file_list, metavar="A1,A2,A3,B1,B2,B3",
                   help="six Matrix Market files, comma separated")
    p.add_argument("--c-file", help="Matrix Market file with the c vector")
    p.add_argument("--out", help="output directory")


def _add_branch(p):
    p.add_argument("--branch", dest="branch_ids", type=_branch_ids, metavar="BRANCH",
                   help="branch id (distinct, comma separated; solve and cond take one)")


def _add_solver(p):
    p.add_argument("--solver", choices=("newton", "resinv", "delta"))
    _add_branch(p)
    p.add_argument("--lambda0", type=parse_complex, help="start value, e.g. 0.15+0.1i")
    p.add_argument("--sigma", type=parse_complex, help="resinv shift (default lambda0)")
    p.add_argument("--x0-file", help="Matrix Market vector to start from")
    p.add_argument("--tol", type=parse_float)
    p.add_argument("--maxit", type=_count)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting EXIT_IO, not argparse's 2, which
    here means "not converged". An option that is not given is left out of
    the namespace, so each setting has its one default in RunConfig."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("argument_default", argparse.SUPPRESS)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="mepnl",
        description="Two-parameter eigenvalue problems via branch nonlinearization",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("solve", help="run one solver on one problem")
    _add_common(ps)
    _add_solver(ps)
    pc = sub.add_parser("cond", help="solve, then condition numbers per quadruplet")
    _add_common(pc)
    _add_solver(pc)
    pb = sub.add_parser("branches", help="tabulate branch values over a lam grid")
    _add_common(pb)
    _add_branch(pb)
    pb.add_argument("--grid", required=True, type=_grid_text, metavar="lo:step:hi")
    pg = sub.add_parser("generate", help="write a generated problem to --out")
    _add_common(pg)
    pk = sub.add_parser("check", help="validate a problem source and summarize")
    _add_common(pk)
    return ap


COMMANDS = {
    "solve": cmd_solve,
    "cond": cmd_cond,
    "branches": cmd_branches,
    "generate": cmd_generate,
    "check": cmd_check,
}


# options whose values may start with a dash (negative bounds, complex parts)
_DASH_VALUE_OPTS = ("--grid", "--lambda0", "--sigma")


def _join_dash_values(argv):
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _DASH_VALUE_OPTS:
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    cfg = RunConfig(**vars(parser.parse_args(_join_dash_values(argv))))
    try:  # the environment's one setting is checked with the command line
        delta.size_cap()
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return COMMANDS[cfg.command](cfg)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (ProblemIOError, DimensionMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MepnlError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
