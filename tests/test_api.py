"""The package surface: exported names resolve and annotations name real objects.

No linter runs on this package. With ``from __future__ import annotations``
an annotation naming an object its module never imports still imports
cleanly, so resolving every annotation here stands in for that check.
"""
import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
import typing
from collections import Counter
from pathlib import Path

import mepnl


def _scopes(node, scope, hit):
    """The enclosing function or class, as module.name, of each node under
    node for which hit is true; scope is node's own."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    if hit(node):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _scopes(child, scope, hit)


def _package_scopes(hit):
    """The sorted scopes of _scopes over every mepnl module."""
    return sorted({scope for path in Path(mepnl.__file__).parent.glob("*.py")
                   for scope in _scopes(ast.parse(path.read_text()), path.stem, hit)})


def _calls(name):
    """A hit for _scopes: a call of the function or method name."""
    return lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "attr", getattr(node.func, "id", None)) == name


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
    names LAPACK's wrappers, its LU routines, real or complex, or another LU
    routine. A real one is matched from the start of a word, as "budget"
    holds "dget". The one exception is numpy's or scipy's linalg.solve,
    an LU of each matrix it is given, which only delta._newton_step calls,
    on its stack of bordered Jacobians."""
    banned = re.compile(r"lapack|lu_factor|lu_solve|splu|spsolve|zget|\bdget")
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(Path(mepnl.__file__).parent.glob("*.py"))
            if path.name != "_linalg.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)]
    assert not hits, "\n".join(hits)

    def linalg_solve(node):
        # np.linalg.solve, scipy.linalg's as sla, or a solve imported from linalg
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").endswith("linalg") and any(
                alias.name == "solve" for alias in node.names)
        return isinstance(node, ast.Attribute) and node.attr == "solve" and re.search(
            r"linalg$|^sla$", ast.unparse(node.value)) is not None

    assert _package_scopes(linalg_solve) == ["delta._newton_step"]


def test_only_core_decides_the_band():
    """TwoParProblem.__init__ is the package's one narrow-band decision: no
    other function calls _linalg.half_bandwidths or reads BAND_MAX, so
    Factorization scans no pattern of its own and bands every dia_array
    without a second test of its width."""
    assert _package_scopes(_calls("half_bandwidths")) == ["core.TwoParProblem.__init__"]

    def reads_band_max(node):
        return (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                and getattr(node, "id", getattr(node, "attr", None)) == "BAND_MAX")

    assert _package_scopes(reads_band_max) == ["core.TwoParProblem.__init__"]


def test_one_builder_of_a_branch_point():
    """One builder per rank of B3 makes every reference point and every
    continued point. When rank(B3) >= 2 it is pencil._point_at, so it alone
    runs inverse iteration at a known mu, and the full QZ's points are
    reached only through its fallback, pencil._full_qz_point, which a
    rank-one batch entry shares. When B3 has rank one it is
    pencil._rank_one_point, a batch of one, so the Schur form's batch,
    pencil._rank_one_points, has no other caller but the tabulation of a
    whole grid, which alone asks it for mu without vectors; the solves and
    the residual test of both are pencil._rank_one_batch's alone."""
    assert _package_scopes(_calls("shift_invert_vectors")) == ["pencil._point_at"]
    assert _package_scopes(_calls("eigenpairs_at")) == ["pencil._full_qz_point"]
    assert _package_scopes(_calls("_rank_one_points")) == [
        "pencil._rank_one_point", "problems.tabulate_branches"]

    def without_vectors(node):
        return _calls("_rank_one_points")(node) and any(
            k.arg == "vectors" for k in node.keywords)

    assert _package_scopes(without_vectors) == ["problems.tabulate_branches"]
    assert _package_scopes(_calls("_rank_one_batch")) == ["pencil._rank_one_points"]


def test_a_problem_keeps_no_branch_points():
    """A TwoParProblem is set once, in its __init__: no other function
    assigns to an attribute or an item of a problem (problem.<attr>,
    problem.<attr>[...], self.problem.<attr>, or self.<attr> in another
    TwoParProblem method), so no point or other result is kept on it and a
    result cannot depend on what ran before on the same problem. Its
    cached_property values are functions of its matrices alone."""

    def assigns_to(base):
        """A hit for _scopes: an assignment or deletion whose target is an
        attribute or an item, at any depth, of an object that base accepts."""

        def hit(node):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                return False
            tops = getattr(node, "targets", None) or [node.target]
            for target in (t for top in tops for t in ast.walk(top)
                           if isinstance(getattr(t, "ctx", None), (ast.Store, ast.Del))):
                while isinstance(target, (ast.Attribute, ast.Subscript)):
                    target = target.value
                    if base(target):
                        return True
            return False

        return hit

    def named_problem(node):
        return getattr(node, "id", getattr(node, "attr", "")).endswith("problem")

    def named_self(node):
        return getattr(node, "id", None) == "self"

    found = _package_scopes(assigns_to(named_problem)) + [
        scope for scope in _package_scopes(assigns_to(named_self))
        if scope.startswith("core.TwoParProblem.")]
    assert sorted(set(found) - {"core.TwoParProblem.__init__"}) == []


def test_only_branch_point_moves_a_view():
    """A NepView's point is set in its __init__ and moved only by
    NepView.branch_point, which no method of the view calls: so
    factorization and refuse_singular, which read the view's point, take
    and judge M(sigma) where the caller's last branch_point left it, and
    continue nothing."""
    tree = ast.parse((Path(mepnl.__file__).parent / "nep.py").read_text())

    def on_self(attr, node):
        return (isinstance(node, ast.Attribute) and node.attr == attr
                and getattr(node.value, "id", None) == "self")

    def assigns_point(node):
        return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
            on_self("point", target)
            for target in getattr(node, "targets", None) or [node.target])

    def calls_branch_point(node):
        return isinstance(node, ast.Call) and on_self("branch_point", node.func)

    assert sorted(set(_scopes(tree, "nep", assigns_point))) == [
        "nep.NepView.__init__", "nep.NepView.branch_point"]
    assert sorted(set(_scopes(tree, "nep", calls_branch_point))) == []


def test_only_linalg_runs_eigensolvers():
    """Every eigenvalue problem the package solves goes through _linalg:
    through geig, or, for a continuation step's candidates, through the
    zgeev of _linalg.shift_invert_eigvals, which keeps geig's canonical
    order (next test); every QZ goes through geig or GeneralizedSchur. No
    other module calls or imports an eigensolver of numpy, scipy or LAPACK,
    by scipy's name or by its LAPACK driver's."""
    solvers = r"(?:eig|eigvals|qz|ordqz|dgges|zgges|dggev|zggev|dgeev|zgeev)\b"
    banned = re.compile(rf"\.{solvers}|\bimport\b.*\b{solvers}")
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(Path(mepnl.__file__).parent.glob("*.py"))
            if path.name != "_linalg.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)]
    assert not hits, "\n".join(hits)


def test_linalg_keeps_one_form_per_helper():
    """geig has one form for every caller, with no shift-invert mode: the
    one scope that calls zgeev is shift_invert_eigvals, for a continuation
    step's candidates. Factorization.solve takes one LAPACK routine per
    storage, with no helper that packs a complex b's parts, and
    proves_singular reads one tolerance for every caller."""
    from mepnl import _linalg

    geig = inspect.signature(_linalg.geig).parameters
    assert list(geig) == ["P", "Q", "vectors"] and geig["vectors"].default == "right"
    assert _package_scopes(_calls("zgeev")) == ["_linalg.shift_invert_eigvals"]
    assert list(inspect.signature(_linalg.proves_singular).parameters) == ["b", "x", "scale"]
    for gone in ("_real_solve", "RCOND_SINGULAR_FROM_START"):
        assert not hasattr(_linalg, gone), gone


def test_only_the_full_qz_asks_geig_for_both_vector_sets():
    """Branch ids need only eigenvalues and a followed branch only its own
    y and w, so the QZ with every right and left eigenvector runs in one
    place, the fallback pencil.eigenpairs_at: no other function calls geig
    with vectors="both", or with a vectors argument that is not a literal."""

    def asks_both(call):
        if getattr(call.func, "attr", getattr(call.func, "id", None)) != "geig":
            return False
        vectors = [k.value for k in call.keywords if k.arg == "vectors"] + call.args[2:3]
        return any(not isinstance(v, ast.Constant) or v.value == "both" for v in vectors)

    found = _package_scopes(lambda node: isinstance(node, ast.Call) and asks_both(node))
    assert found == ["pencil.eigenpairs_at"], found


def test_only_branch_poles_runs_an_svd():
    """Every singularity test reads solves (_linalg.proves_singular), the one
    rank-one split, core._rank_one_factors, pivots on the largest entry, and
    core.attach_left_vectors takes w by inverse iteration, so the one scope
    that calls or imports an SVD is pencil.branch_poles, for the rank split
    of B3."""
    names = ("svd", "svdvals")

    def svd(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return any(alias.name.rsplit(".", 1)[-1] in names for alias in node.names)
        return getattr(node, "attr", getattr(node, "id", None)) in names

    assert _package_scopes(svd) == ["pencil.branch_poles"]


def test_only_generators_draw_random_numbers():
    """A result is a function of the problem and the run's options: only
    the problem generators (problems.gen_random and cli._build_problem)
    and the fixed-seed draws of a default normalization vector
    (core._default_c) and of the start of the singularity test of delta0
    and the bordered Jacobian (_linalg.proves_singular_from_start) call
    default_rng or name np.random."""
    allowed = {"problems.gen_random", "cli._build_problem", "core._default_c",
               "_linalg.proves_singular_from_start"}

    def draws(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "default_rng" or (
                node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy"))
        if isinstance(node, ast.Name):
            return node.id == "default_rng"
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            return any(name in ("random", "default_rng") or name.endswith(".random")
                       for name in names)
        return False

    found = sorted(set(_package_scopes(draws)) - allowed)
    assert not found, found


def test_one_lu_mode_and_one_refusal():
    """A Factorization refuses no matrix and has no mode: no module names
    allow_singular. Only nep.py raises ShiftIsEigenvalue, the one refusal of
    an M(sigma) that a solve with its LU proves singular
    (NepView.refuse_singular)."""
    refusal = re.compile(r"raise\s+(?:\w+\.)?ShiftIsEigenvalue\b")
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(Path(mepnl.__file__).parent.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "allow_singular" in line
            or (path.name != "nep.py" and refusal.search(line))]
    assert not hits, "\n".join(hits)


def test_every_module_constant_is_read():
    """Every UPPER_CASE constant a mepnl module assigns is read somewhere in
    the package's code, as a name or an attribute: a mechanism deleted with
    its knobs left behind fails here, since a docstring or a comment that
    still names a knob is no read."""
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(mepnl.__file__).parent.glob("*.py"))]
    constants = {target.id for tree in trees for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)}
    reads = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    unread = sorted(constants - reads)
    assert constants and not unread, unread


def test_every_function_is_named_in_the_package():
    """Every module-level function and every method of a module-level class
    under src/mepnl, dunder methods aside, is named by package code outside
    its own body, as a name or an attribute, or is listed in mepnl.__all__:
    a helper that no solver or CLI path reaches fails here. The allowlist
    holds the three that only benchmarks/ and the tests read."""
    allowed = {
        # benchmarks/workloads.py reads it for its Newton starts and checks
        "problems.helmholtz_analytic_eigenvalues",
        # references for the tests of the Helmholtz discretization
        "problems.helmholtz_analytic_mu",
        "problems.HelmholtzDiscretization.interface_mismatch",
    }

    def loads(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute))
                       and isinstance(n.ctx, ast.Load))

    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(mepnl.__file__).parent.glob("*.py"))}
    named = sum((loads(tree) for tree in trees.values()), Counter())
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, functions):
                defs.append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{f.name}", f) for f in node.body
                         if isinstance(f, functions)]
    unnamed = {qualname for qualname, node in defs
               if not node.name.startswith("__") and node.name not in mepnl.__all__
               and named[node.name] == loads(node)[node.name]}
    assert unnamed == allowed


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


def test_no_line_of_the_package_exceeds_100_characters():
    long = [f"{path.name}:{number}"
            for path in sorted(Path(mepnl.__file__).parent.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 100]
    assert not long, long
