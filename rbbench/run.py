"""Benchmark of the rb_operon offline pipeline and online query path.

    python3 rbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  ex1_pipeline    example 1 at its pinned mesh: offline with POD, rb and pod
                  branch training, evaluation, online budget audit, queries
  ex2_pipeline    example 2 at n=40: data modes, greedy trunk, rb branch,
                  evaluation, queries
  online_queries  three coarse greedy-only directories, one closed-loop
                  query stream per example
  all             each of the above in a fresh process, then a summary

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The line before it, ``detail {...}``, records the environment, the stage
times, every check, the output hashes and the audit figures.  Artifacts and
the span file go to ``.rbbench_work/`` at the root of the checkout.

The library is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("ex1_pipeline", "ex2_pipeline", "online_queries")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def run_one(args):
    import spans
    import workloads

    workdir = os.path.join(ROOT, ".rbbench_work",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 workdir, size=args.size,
                                 trace=bool(args.trace))
    if args.trace:
        values = spans.layer_metrics(run.tracer, run.audit,
                                     run.info["trace_overhead_frac"])
        units = spans.metric_units()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in workloads.end_to_end(run).items()}
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(args.seed),
        "stages_s": {k + "_s": v for k, v in run.stage_s.items()},
        "queries": {f"ex{ex}": q for ex, q in run.queries.items()},
        "checks": run.checks,
        "failed_frac": run.failed / run.attempted,
        "hashes": run.hashes,
        "audit": run.audit,
        "info": run.info,
    }
    # the artifact directories are large and rebuilt on every run
    for entry in os.listdir(workdir):
        if os.path.isdir(os.path.join(workdir, entry)):
            shutil.rmtree(os.path.join(workdir, entry))
    if args.trace:
        detail["open_stages"] = spans.open_stages(run.tracer)
        run.tracer.dump(os.path.join(workdir, "spans.json"))
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1,
                  default=float)
    print("detail " + json.dumps(detail, default=float))
    print(json.dumps(result))
    return 0


# stage figures of the detail line, as the summary prints them
_SUMMARY = (("setup_s", "s"), ("offline_s", "s"), ("train_s", "s"),
            ("eval_s", "s"), ("audit_s", "s"), ("peak_rss_mb", "MB"))


def run_all(args):
    """Each workload in a fresh process; prints the per-workload figures."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--size", args.size]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        detail = json.loads(lines[-2][len("detail "):])
        result = json.loads(lines[-1])
        figures = dict(detail["stages_s"])
        figures["setup_s"] = detail["info"]["setup_s"]
        figures["peak_rss_mb"] = detail["info"]["peak_rss_mb"]
        for key, unit in _SUMMARY:
            if key in figures:
                rows.append((name, key, figures[key], unit))
        for ex, q in sorted(detail["queries"].items()):
            if name == "online_queries":
                rows.append((name, f"query_{ex}_p50_us", q["p50_us"], "us"))
                rows.append((name, f"query_{ex}_p99_us", q["raw_p99_us"], "us"))
        rows.append((name, "failed_frac", detail["failed_frac"], "1"))
        for key, m in result["metrics"].items():
            rows.append((name, "metric " + key, m["value"], m["unit"]))
    for name, key, value, unit in rows:
        print(f"{name:16s} {key:24s} {value:14.6g} {unit}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="wall time of the query streams (half of it "
                             "on a pipeline workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every stage in seconds (self-test)")
    args = parser.parse_args(argv)

    # one BLAS thread, fixed before numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rb_operon", "__init__.py")):
        print(f"rb_operon not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
