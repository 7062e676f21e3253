"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 rbbench/selftest.py
    python3 -m pytest -q rbbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
a corrupted answer is counted as failed, and that without the library the
benchmark exits non-zero and prints no result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".rbbench_work", "selftest")
WORKLOADS = ("ex1_pipeline", "ex2_pipeline", "online_queries")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _cli(workload, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _assert_emitted(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(declared)
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, name
        assert math.isfinite(metrics[name]["value"]), name


def test_end_to_end_metrics_emitted():
    declared = _declared("end_to_end")
    for workload in WORKLOADS:
        result = _cli(workload, 0)
        _assert_emitted(result, declared)
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_emitted():
    declared = _declared("per_layer")
    for workload in WORKLOADS:
        _assert_emitted(_cli(workload, 1), declared)


def _corrupted_run(workload, module, attr):
    """Run ``workload`` in-process with ``module.attr`` returning answers
    off by one part in a thousand."""
    import importlib
    import workloads

    mod = importlib.import_module(module)
    orig = getattr(mod, attr)
    setattr(mod, attr, lambda *a, **k: orig(*a, **k) * (1.0 + 1e-3))
    try:
        return workloads.run_workload(
            workload, 3, 0.5, os.path.join(SCRATCH, workload), size="tiny")
    finally:
        setattr(mod, attr, orig)


def test_corrupted_answer_is_counted():
    # Galerkin coefficients of the evaluation: the accuracy gate must fail
    run = _corrupted_run("ex1_pipeline", "rb_operon.pipeline",
                         "solve_reduced_batch")
    assert run.failed >= 1 and run.failed / run.attempted > 0
    assert any(not ok for _, ok, _ in run.checks)
    # Galerkin coefficients of every online answer
    run = _corrupted_run("online_queries", "rb_operon.pipeline",
                         "solve_reduced")
    assert run.query_attempted > 0
    assert run.failed == run.attempted


def test_no_library_no_result():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
         "--workload", "online_queries", "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True,
        timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
