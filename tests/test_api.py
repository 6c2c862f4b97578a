"""The package surface: exported names resolve and annotations name real objects.

No linter runs on this package. With ``from __future__ import annotations``
an annotation naming an object its module never imports still imports
cleanly, so resolving every annotation here stands in for that check.
"""
import importlib
import importlib.util
import inspect
import pkgutil
import re
import typing
from pathlib import Path

import mepnl


def _annotated_objects():
    """(qualified name, object) of every function, class and method defined
    in a mepnl module."""
    for info in pkgutil.iter_modules(mepnl.__path__):
        module = importlib.import_module(f"mepnl.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(fn):
                        yield f"{module.__name__}.{name}.{attr}", fn


def test_every_annotation_resolves():
    failures = []
    for qualname, obj in _annotated_objects():
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # collect every failure, not just the first
            failures.append(f"{qualname}: {type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures)


def test_all_names_resolve():
    assert len(mepnl.__all__) == len(set(mepnl.__all__))
    missing = [name for name in mepnl.__all__ if not hasattr(mepnl, name)]
    assert not missing


def test_only_linalg_builds_lus():
    """Every LU the package builds is a _linalg.Factorization: no other module
    names LAPACK's wrappers, its LU routines, or another LU routine."""
    banned = re.compile(r"lapack|lu_factor|lu_solve|splu|zget")
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(Path(mepnl.__file__).parent.glob("*.py"))
            if path.name != "_linalg.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)]
    assert not hits, "\n".join(hits)


def test_only_linalg_runs_eigensolvers():
    """Every eigenvalue problem the package solves goes through _linalg.geig,
    so it keeps geig's finite test and canonical order: no other module
    calls or imports an eigensolver of numpy, scipy or LAPACK."""
    solvers = r"(?:eig|eigvals|qz|ordqz|zggev|zgeev)\b"
    banned = re.compile(rf"\.{solvers}|\bimport\b.*\b{solvers}")
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(Path(mepnl.__file__).parent.glob("*.py"))
            if path.name != "_linalg.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)]
    assert not hits, "\n".join(hits)


def test_one_lu_mode_and_one_refusal():
    """A Factorization refuses no matrix and has no mode: no module names
    allow_singular. Outside _linalg.py, whose triangular solve raises on a
    LAPACK error, only nep.py raises ShiftIsEigenvalue, the one refusal of a
    singular M(sigma) by its rcond."""
    refusal = re.compile(r"raise\s+(?:\w+\.)?ShiftIsEigenvalue\b")
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(Path(mepnl.__file__).parent.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "allow_singular" in line
            or (path.name not in ("_linalg.py", "nep.py") and refusal.search(line))]
    assert not hits, "\n".join(hits)


def test_benchmark_interface_exists():
    """The benchmark wraps these names and reads these counters; tier-1 does
    not run benchmarks/, so a deletion would otherwise go unnoticed."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing._targets() if attr not in owner.__dict__]
    assert not missing
    view = mepnl.NepView(mepnl.gen_random(4, 2, seed=0))
    assert view.cache_hits == 0 and view.cache_misses == 0
    # the arguments benchmarks/workloads.py passes, by name where it names them
    calls = [
        (mepnl.HelmholtzConfig, 0, ("x1", "x2", "n", "m", "kappa_a", "kappa_b")),
        (mepnl.NepView, 1, ("branch_id", "reference_lam")),
        (mepnl.SolverConfig, 0, ("tol", "maxit", "sigma")),
        (mepnl.gen_random, 3, ("alphas", "betas")),
        (mepnl.tabulate_branches, 2, ("branch_ids",)),
        (mepnl.problems.helmholtz_analytic_eigenvalues, 3, ()),
        (mepnl.augmented_newton, 4, ()),
        (mepnl.resinv, 3, ()),
        (mepnl.gen_helmholtz, 1, ()),
        (mepnl.delta.solve, 1, ()),
    ]
    for fn, positional, keywords in calls:
        inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))
