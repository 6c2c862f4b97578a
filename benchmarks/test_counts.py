"""Self-test of the benchmark: count metrics repeat exactly.

Two traced runs with the same seed must report identical counts (calls,
iterations, per-iterate and per-step ratios, the oracle's kept ratio and
the failure fraction), since a later change may cite them as evidence.
Run from the root of a checkout:

    python3 -m pytest benchmarks/test_counts.py
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
COUNT_SUFFIXES = (".calls", ".iters", "_per_iter", "_per_step", "kept_ratio",
                  "cache_hit_ratio", "fail_frac")


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", ["newton-small-pencil", "dense-large-lu",
                                      "helmholtz-sparse", "oracle-dense"])
def test_counts_repeat(workload):
    first = traced_counts(workload, 3)
    assert first
    assert traced_counts(workload, 3) == first
