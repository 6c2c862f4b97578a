"""In-memory span tracing of mepnl's public functions, and the per-layer
metrics derived from the spans.

A Tracer replaces each traced function in the namespace where its callers
look it up (a module attribute, a class attribute, or a name another module
bound at import) with a wrapper that records one span per call:
[id, name, start, end, parent id, op id]. Spans stay in memory until the run
writes them out. The source under src/ is not edited; uninstall() puts the
original objects back.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# Span names of the benchmark's own operations start with this prefix; they
# are the roots under which the program's spans are attributed.
OP_PREFIX = "op."
# Solvers whose returned SolveTrace gives the iterations they took.
ITERATIVE = ("solvers.augmented_newton", "solvers.resinv")


def _targets():
    """(owner, attribute, span name) of every traced entry point."""
    from mepnl import _linalg, core, delta, nep, pencil, problems, solvers

    return [
        (pencil, "eigenpairs_at", "pencil.eigenpairs_at"),
        (pencil, "jacobian", "pencil.jacobian"),
        (pencil, "derivatives", "pencil.derivatives"),
        (pencil, "continue_branch", "pencil.continue_branch"),
        (_linalg.Factorization, "__init__", "linalg.Factorization"),
        (_linalg.Factorization, "solve", "linalg.Factorization.solve"),
        (_linalg, "geig", "linalg.geig"),
        (core.TwoParProblem, "eval_a", "core.TwoParProblem.eval_a"),
        (core, "residuals", "core.residuals"),
        # delta binds residuals with "from .core import residuals"
        (delta, "residuals", "core.residuals"),
        (nep.NepView, "branch_point", "nep.NepView.branch_point"),
        (nep.NepView, "factorization", "nep.NepView.factorization"),
        (solvers, "augmented_newton", "solvers.augmented_newton"),
        (solvers, "resinv", "solvers.resinv"),
        (solvers, "rayleigh_gep", "solvers.rayleigh_gep"),
        (problems, "gen_random", "problems.gen_random"),
        (problems, "gen_helmholtz", "problems.gen_helmholtz"),
        (problems, "tabulate_branches", "problems.tabulate_branches"),
        (delta, "assemble", "delta.assemble"),
        (delta, "solve", "delta.solve"),
    ]


def span_names():
    """Names of the traced functions, each once, in a fixed order."""
    return list(dict.fromkeys(name for _, _, name in _targets()))


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._op = None
        self._restore = []

    def install(self):
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _open(self, name):
        rec = [len(self.spans), name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self._op]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if name in ITERATIVE:
                self.counts[name + ".iters"] += result[1].iterations - 1
            return result

        return traced

    def run_op(self, kind, fn):
        """Run one benchmark operation as a root span with a fresh op id."""
        self._op = len(self.spans)
        rec = self._open(OP_PREFIX + kind)
        try:
            return fn()
        finally:
            self._close(rec)
            self._op = None


def _module(name):
    return name.split(".", 1)[0]


# Groups of modules whose covered time the workload rationale quotes.
GROUPS = (("pencil",), ("linalg",), ("core",), ("nep",), ("solvers",),
          ("problems",), ("delta",), ("linalg", "core"))


def summarize(spans):
    """Totals per span name, plus the attributions the ratios and shares need.

    Returns (per, nested, covered):
    - per[name] = {"calls", "s", "self_s"}; s counts only spans with no
      ancestor of the same name, self_s is the duration minus the time the
      direct children cover (calls are sequential, so children never overlap);
    - nested[(ancestor, name)] = calls of name made under that ancestor;
    - covered[(op kind, key)] = seconds inside ops of that kind covered by
      the outermost spans of key, which is a span name, a module group such
      as "linalg+core", or "op" for the operations themselves.
    """
    per = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    child_time = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    above = {}
    nested = Counter()
    covered = Counter()
    for sid, name, start, end, parent, op in spans:
        anc = frozenset() if parent is None else above[parent] | {spans[parent][1]}
        above[sid] = anc
        dur = end - start
        entry = per[name]
        entry["calls"] += 1
        entry["self_s"] += dur - child_time[sid]
        kind = None if op is None else spans[op][1][len(OP_PREFIX):]
        if name.startswith(OP_PREFIX):
            covered[(kind, "op")] += dur
            continue
        if name not in anc:
            entry["s"] += dur
            covered[(kind, name)] += dur
        for ancestor in ("solvers.augmented_newton", "pencil.continue_branch"):
            if ancestor in anc:
                nested[(ancestor, name)] += 1
        mods = {_module(a) for a in anc}
        for group in GROUPS:
            if _module(name) in group and not mods.intersection(group):
                covered[(kind, "+".join(group))] += dur
    return dict(per), nested, covered
