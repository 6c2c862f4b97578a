"""mepnl benchmark: seeded solve workloads, timed end to end, every result checked.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload newton-small-pencil --seed 1 \\
        --seconds 20 --trace 0

--workload all runs every workload, each in its own process. With --trace 0
the run measures end-to-end metrics with tracing off; with --trace 1 it
alternates untraced and traced sessions on the inputs of session 0 and
reports per-layer metrics from the traced ones. A run does a fixed amount of
work, sized from --seconds by each workload's nominal times, so one seed
always gives the same operations and the same failures. An untraced run
also times a fixed reference computation around every set-up and operation,
and its gated timings are given at the reference's nominal speed. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report. The run also
writes its environment, metrics and (traced) spans to benchmarks/out/.

BLAS and OpenMP thread counts are pinned to one thread before numpy loads,
and recorded with nproc in every output. A CLI user gets nproc threads by
default, but on a two-vCPU virtual machine a second BLAS thread made the same
work take up to 2.5 times longer from one run to the next (rationale.json
has the numbers), which no run length could average out.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SHARED_SETUPS = 2
# nominal time of one Reference call on the measuring machine
REFERENCE_S = 0.02
WORKLOAD_NAMES = ("newton-small-pencil", "dense-large-lu", "helmholtz-sparse",
                  "oracle-dense")


def pin_threads():
    """Pin the thread pools to BLAS_THREADS; returns nproc for the record."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def import_program():
    """Import mepnl from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "mepnl" / "__init__.py").is_file():
        sys.exit(f"benchmark: no mepnl sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import mepnl

    if Path(mepnl.__file__).resolve().parent != src / "mepnl":
        sys.exit(f"benchmark: imported mepnl from {mepnl.__file__}, not {src}")


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


class Reference:
    """A fixed computation that does not touch mepnl, made of the kinds of
    work the solvers do: a loop of interpreted Python, a dense LU and a small
    complex generalized eigensolve (QZ).

    The measuring machine (2 vCPUs of a shared host) runs the same work up to
    1.9 times slower for stretches of seconds to minutes, and everything
    slows together: over a 150 s probe the logs of windowed times of such a
    loop, an LU and an order-200 generalized eigensolve correlated by
    0.91-0.94. Timed around every set-up and operation, the reference samples
    the machine's speed when the work runs; the ratio of the two sums of
    times then cancels most of the drift (rationale.json has the numbers).
    """

    LOOPS = 100_000
    LU_ORDER = 400
    QZ_ORDER = 60

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.lu = rng.standard_normal((self.LU_ORDER, self.LU_ORDER))
        a, b, c, d = rng.standard_normal((4, self.QZ_ORDER, self.QZ_ORDER))
        self.qz = (a + 1j * b, c + 1j * d)

    def __call__(self):
        import scipy.linalg

        t0 = time.perf_counter()
        total = 0
        for i in range(self.LOOPS):
            total += i % 7
        scipy.linalg.lu_factor(self.lu)
        scipy.linalg.eig(*self.qz)
        return time.perf_counter() - t0


def timed(fn, reference=None):
    """(result, seconds, reference seconds or None) of one call of fn. The
    reference seconds are the mean of a Reference call just before and one
    just after, so a long call is bracketed by two samples of the speed."""
    before = reference() if reference else None
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        seconds = time.perf_counter() - t0
        ref_s = (before + reference()) / 2 if reference else None
    return result, seconds, ref_s


class Session:
    """What one session's operations produced: times, checks, counters."""

    def __init__(self, tracer=None, reference=None):
        self.tracer = tracer
        self.reference = reference
        self.times = []      # (kind, seconds, reference seconds or None)
        self.pending = []    # (kind, result, check)
        self.failures = []   # (kind, reasons)
        self.attempted = 0
        self.views = []      # NepViews the solves made, until the session ends
        self.counts = Counter()

    def op(self, kind, fn, check):
        """Run and time one operation; its check runs later, untimed. An
        operation that raises counts as failed and has no time."""
        self.attempted += 1
        run = (lambda: self.tracer.run_op(kind, fn)) if self.tracer else fn
        try:
            result, seconds, ref_s = timed(run, self.reference)
        except Exception as exc:  # a failed solve is counted, not fatal
            self.failures.append((kind, [f"raised:{type(exc).__name__}"]))
            return None
        self.times.append((kind, seconds, ref_s))
        self.pending.append((kind, result, check))
        return result

    def run_checks(self):
        for kind, result, check in self.pending:
            reasons = check(result)
            if reasons:
                self.failures.append((kind, reasons))
        self.pending = []


def run_session(workload, seed, index, tracer=None, inputs=None, reference=None):
    """Run one session, traced when a tracer is given, on the given inputs or
    on a fresh set-up; then check its results untraced.

    Returns (set-up (seconds, reference seconds) or None, session s, Session).
    """
    sess = Session(tracer, reference)
    setup = None
    if tracer:
        tracer.install()
    try:
        if inputs is None:
            def make():
                return workload.setup(seed, index)

            run = (lambda: tracer.run_op("setup", make)) if tracer else make
            inputs, *setup = timed(run, reference)
        t1 = time.perf_counter()
        workload.session(inputs, seed, index, sess)
        session_s = time.perf_counter() - t1
    finally:
        if tracer:
            tracer.uninstall()
    del inputs
    # keep the views' public counters, not their cached factorizations
    sess.counts["nep.cache_hits"] += sum(v.cache_hits for v in sess.views)
    sess.counts["nep.cache_lookups"] += sum(v.cache_hits + v.cache_misses for v in sess.views)
    sess.views = []
    sess.run_checks()
    gc.collect()
    return setup, session_s, sess


def session_count(workload, seconds):
    """Sessions in an untraced run of about `seconds` on the measuring
    machine, from the workload's nominal times. The count depends on nothing
    measured, so a seed repeats its operations and its failures exactly."""
    if workload.shared_inputs:
        seconds -= SHARED_SETUPS * workload.setup_s
    return max(1, round(seconds / workload.session_s))


def measure(workload, seed, seconds):
    """Closed loop of a fixed number of sessions, the reference timed around
    every set-up and operation. Each session sets up new inputs, unless the
    workload's inputs are shared: then the run sets them up SHARED_SETUPS
    times first and every session uses the last.

    Returns (set-ups as (seconds, reference seconds), session times, Sessions).
    """
    reference = Reference()
    reference()  # untimed: loads what the reference needs
    setups, sessions, results = [], [], []
    shared = None
    if workload.shared_inputs:
        for _ in range(SHARED_SETUPS):
            shared = None
            gc.collect()
            shared, *setup = timed(lambda: workload.setup(seed, 0), reference)
            setups.append(setup)
    for index in range(session_count(workload, seconds)):
        setup, session_s, sess = run_session(workload, seed, index, inputs=shared,
                                             reference=reference)
        if setup is not None:
            setups.append(setup)
        sessions.append(session_s)
        results.append(sess)
    return setups, sessions, results


def measure_traced(workload, seed, seconds):
    """Untraced and traced sessions on session 0's inputs, in a fixed number
    of pairs, after one discarded untraced session that lets lazy set-up
    finish, so the tracing overhead is not mixed with it. Every session sets
    up its inputs, so set-up is traced too."""
    from tracing import Tracer

    per_session = workload.session_s + (workload.setup_s if workload.shared_inputs else 0.0)
    untraced, traced, results = [], [], []
    tracer = Tracer()
    run_session(workload, seed, 0)
    for _ in range(max(1, round(seconds / per_session / 2) - 1)):
        untraced.append(run_session(workload, seed, 0)[1])
        _, session_s, sess = run_session(workload, seed, 0, tracer)
        traced.append(session_s)
        results.append(sess)
    return untraced, traced, results, tracer


def known_failures(name):
    """(operation, reason) pairs that rationale.json records as findings on a
    workload. A failed operation whose reasons are all recorded counts as
    failed but does not make the run incorrect; any other failure does."""
    rationale = json.loads((HERE / "rationale.json").read_text())
    return {(f["op"], reason)
            for f in rationale["workloads"][name]["known_findings"]
            for reason in f["reasons"]}


def tally(name, results):
    known = known_failures(name)
    attempted = sum(s.attempted for s in results)
    failures = [f for s in results for f in s.failures]
    unknown = [(kind, reasons) for kind, reasons in failures
               if not all((kind, r) in known for r in reasons)]
    return attempted, failures, unknown


def at_reference_speed(pairs):
    """Sum of times over the sum of their reference times, times REFERENCE_S:
    the mean time at the machine speed where a Reference call takes
    REFERENCE_S."""
    return REFERENCE_S * sum(t for t, _ in pairs) / sum(r for _, r in pairs)


def end_to_end(workload, setups, sessions, results):
    """The gated end-to-end metrics, and the figures that are only printed.

    Only metrics that every workload has are gated. setup_s and op_s.norm
    are the mean set-up and the mean headline operation at the reference's
    nominal speed (at_reference_speed), so that the machine's drift cancels;
    the plain wall times are printed, not gated (rationale.json says why).
    """
    ops = [(kind, t, r) for s in results for kind, t, r in s.times]
    head = [(t, r) for kind, t, r in ops if kind == workload.headline]
    metrics = {
        "setup_s": (at_reference_speed(setups), "s"),
        "op_s.norm": (at_reference_speed(head), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    printed = {"session_s": ("median", statistics.median(sessions), len(sessions)),
               "setup_s.wall": ("mean", statistics.mean(t for t, _ in setups), len(setups)),
               "op_s.wall": ("mean", statistics.mean(t for t, _ in head), len(head)),
               "reference_s": ("mean", statistics.mean(r for _, _, r in ops), len(ops))}
    for kind in sorted({kind for kind, _, _ in ops}):
        times = [t for k, t, _ in ops if k == kind]
        key = "tabulate_s" if kind == "tabulate" else f"{kind}_s.p50"
        printed[key] = ("median", statistics.median(times), len(times))
    return metrics, printed


def per_layer(untraced, traced, results, tracer):
    """Per-layer metrics per traced session, with the base of each ratio."""
    from tracing import ITERATIVE, span_names, summarize

    k = len(results)
    per, nested, covered = summarize(tracer.spans)
    metrics, bases = {}, {}
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    for name in span_names():
        entry = per.get(name, empty)
        metrics[f"{name}.calls"] = (entry["calls"] / k, "count")
        if name in ITERATIVE:
            metrics[f"{name}.iters"] = (tracer.counts[f"{name}.iters"] / k, "count")
        metrics[f"{name}.s"] = (entry["s"] / k, "s")
        metrics[f"{name}.self_s"] = (entry["self_s"] / k, "s")

    def ratio(key, num, den, base_name):
        metrics[key] = (num / den if den else 0.0, "ratio")
        bases[key] = f"{den / k:g} {base_name} per session"

    steps = tracer.counts["solvers.augmented_newton.iters"]
    newton = "solvers.augmented_newton"
    ratio("pencil.qz_per_iter", nested[(newton, "pencil.eigenpairs_at")], steps, "Newton iterations")
    ratio("pencil.jacobian_per_iter", nested[(newton, "pencil.jacobian")], steps, "Newton iterations")
    ratio("linalg.lu_per_iter", nested[(newton, "linalg.Factorization")], steps, "Newton iterations")
    ratio("core.eval_a_per_iter", nested[(newton, "core.TwoParProblem.eval_a")], steps, "Newton iterations")
    ratio("pencil.qz_per_step", nested[("pencil.continue_branch", "pencil.eigenpairs_at")],
          per.get("pencil.continue_branch", empty)["calls"], "continue_branch calls")
    counts = Counter()
    for s in results:
        counts.update(s.counts)
    ratio("nep.cache_hit_ratio", counts["nep.cache_hits"], counts["nep.cache_lookups"],
          "NepView.factorization lookups")
    ratio("delta.kept_ratio", counts["delta.kept"], counts["delta.order"], "n*m")
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    bases["trace.overhead_frac"] = f"{len(traced)} traced / {len(untraced)} untraced sessions"
    attempted = sum(s.attempted for s in results)
    failed = sum(len(s.failures) for s in results)
    ratio("fail_frac", failed, attempted, "operations")

    # share of each operation kind's time that each layer covers, and of all
    # solver operations together (everything but set-up)
    kinds = sorted(kind for kind, key in covered if key == "op" and kind != "setup")
    shares = {}
    for label, group in [(kind, [kind]) for kind in kinds] + [("all solves", kinds)]:
        total = sum(covered[(kind, "op")] for kind in group)
        keys = sorted({key for kind, key in covered if kind in group and key != "op"})
        shares[label] = {key: sum(covered[(kind, key)] for kind in group) / total
                         for key in keys}
    shares["setup_over_session"] = covered[("setup", "op")] / k / statistics.median(traced)
    return metrics, bases, shares


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args):
    nproc = pin_threads()
    import_program()
    import workloads

    env = environment(nproc)
    workload = workloads.WORKLOADS[args.workload]
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if args.trace:
        untraced, traced, results, tracer = measure_traced(workload, args.seed, args.seconds)
        metrics, bases, shares = per_layer(untraced, traced, results, tracer)
        print(f"# per-layer metrics per traced session ({len(traced)} traced sessions)")
        for key, (value, unit) in metrics.items():
            base = f"   base: {bases[key]}" if key in bases else ""
            print(f"  {key:42s} {_fmt(value):>14s} {unit}{base}")
        print("# covered share of each operation kind's time")
        for kind, table in shares.items():
            if isinstance(table, float):
                print(f"  {kind}: {table:.3f}")
                continue
            row = ", ".join(f"{key} {v:.3f}" for key, v in table.items() if "." not in key)
            print(f"  {kind}: {row}")
        record.update(bases=bases, shares=shares,
                      spans=tracer.spans, span_fields=["id", "name", "start", "end", "parent", "op"])
    else:
        setups, sessions, results = measure(workload, args.seed, args.seconds)
        metrics, printed = end_to_end(workload, setups, sessions, results)
        print(f"# end-to-end metrics ({len(sessions)} sessions, {len(setups)} set-ups)")
        for key, (value, unit) in metrics.items():
            print(f"  {key:16s} {_fmt(value):>14s} {unit}")
        print("# printed only, not gated")
        for key, (stat, value, count) in printed.items():
            print(f"  {key:16s} {_fmt(value):>14s} s   ({stat} of {count})")
        record.update(printed=printed, setups=setups, sessions=sessions,
                      ops=[t for sess in results for t in sess.times])
    attempted, failures, unknown = tally(workload.name, results)
    if not args.trace:
        print(f"  {'fail_frac':16s} {_fmt(len(failures) / attempted):>14s}   "
              f"({len(failures)} of {attempted} operations)")
    for kind, reasons in failures:
        tag = "FAIL" if (kind, reasons) in unknown else "known finding"
        print(f"# {tag}: {kind}: {', '.join(reasons)}")
    record.update(failures=failures, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=str) + "\n")
    return {
        "correct": not unknown,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"benchmark: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
