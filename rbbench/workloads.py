"""The three benchmark workloads and the checks on their answers.

``ex1_pipeline`` and ``ex2_pipeline`` run the batch stages of
``run_bench`` (offline, branch training, evaluation, and for example 1 the
online budget audit) at pinned sizes, and serve online queries from the
directory they build in a short window after each stage.
``online_queries`` builds three coarse greedy-only directories and serves
one closed-loop query stream per example.

Every stage is called through the ``rb_operon`` library API.  Each answer
the benchmark can judge is checked; a check or query that fails counts once
in ``failed``.
"""

import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from rb_operon.artifacts import ArtifactDir, load_surrogate
from rb_operon.datamodes import reduced_rhs_case2_batch
from rb_operon.pipeline import (load_online_bundle, online_budget_audit,
                                online_query, run_eval, run_offline,
                                run_train, theta_batch)
from rb_operon.reduction import solve_reduced_batch

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

# Sizes of the pinned runs, chosen so that the three workloads, run 22 times
# each, fit in under an hour on a 2-core machine.  Training runs a fixed
# number of epochs with early stopping disabled, so every run does the same
# amount of work.  At so few epochs the branch rel-L2 depends strongly on the
# seed (means 0.02 to 0.28 on example 1, about 0.2 on example 2), so its
# bounds only catch a branch that learned nothing (rel-L2 near 1).  Example 1
# bounds the 95th percentile, not the mean: its load scales with k1, and a
# test parameter with k1 near zero makes any absolute branch error a huge
# relative one (seed 406 draws |k1| = 1e-6 and means of 11 and 15).
FULL = {
    "ex1_pipeline": {
        "example": 1, "pod": True, "audit": True, "epochs": 40,
        "overrides": {"n_pool": 750, "n_train": 600, "n_val": 150,
                      "n_test": 300},
        "galerkin_rel_l2": 1e-5, "galerkin_rel_residual": 1e-12,
        "branch_rel_l2": {"rb_deeponet": ("p95", 0.5),
                          "pod_deeponet": ("p95", 0.5)},
        "n_params": 198915,
    },
    "ex2_pipeline": {
        "example": 2, "pod": False, "audit": False, "epochs": 15,
        "overrides": {"n": 40, "n_pool": 1200, "sweep_subset": 500,
                      "greedy_fixed_n": 100, "n_train": 960, "n_val": 240,
                      "n_test": 300},
        "galerkin_rel_l2": 1e-2,
        "branch_rel_l2": {"rb_deeponet": ("mean", 0.5)},
        "ranks": {"greedy_n": 100, "r_f": 128, "r_g": 16},
    },
    # query cost does not depend on the mesh, so the meshes stay coarse;
    # example 2 keeps its pinned reduced dimension N = 209
    "online_queries": {
        "dirs": {1: {"h": 1.0 / 12.0},
                 2: {"n": 24, "n_pool": 400, "sweep_subset": 400,
                     "greedy_fixed_n": 209},
                 3: {"h": 1.0 / 12.0, "eim_train": 64}},
    },
}

# Self-test sizes: every stage and layer runs, in seconds.  The branch
# bounds only require a finite answer, since two epochs fit nothing.
TINY = {
    "ex1_pipeline": dict(FULL["ex1_pipeline"], epochs=2, overrides={
        "h": 1.0 / 12.0, "n_pool": 24, "n_train": 16, "n_val": 8,
        "n_test": 8}, branch_rel_l2={"rb_deeponet": ("p95", 1e3),
                                      "pod_deeponet": ("p95", 1e3)}),
    "ex2_pipeline": dict(FULL["ex2_pipeline"], epochs=2, overrides={
        "n": 10, "n_pool": 24, "sweep_subset": 24, "greedy_fixed_n": 8,
        "r_f_max": 6, "r_g_max": 3, "n_train": 16, "n_val": 8,
        "n_test": 8}, branch_rel_l2={"rb_deeponet": ("mean", 1e3)},
        galerkin_rel_l2=1e3, ranks={"greedy_n": 8, "r_f": 6, "r_g": 3}),
    "online_queries": {
        "dirs": {1: {"h": 1.0 / 12.0, "n_pool": 24},
                 2: {"n": 8, "n_pool": 24, "sweep_subset": 24,
                     "greedy_fixed_n": 8, "r_f_max": 6, "r_g_max": 3},
                 3: {"h": 1.0 / 12.0, "n_pool": 24, "eim_q": 8,
                     "eim_train": 48, "greedy_fixed_n": 3}},
    },
}

SIZES = {"full": FULL, "tiny": TINY}

SETUP_REPEATS = 3
# Distinct query inputs per example, replayed in rounds, few enough that every
# input runs dozens of times in a few seconds.
QUERY_INPUTS = {1: 128, 2: 64, 3: 64}
WARMUP = 30            # untimed queries per stream before timing starts
SLICE_S = 0.25         # longest closed-loop slice per stream and unit weight
MIN_ROUNDS = 4         # turns every stream gets, however short the run
STREAM_WEIGHT = {1: 1, 2: 3, 3: 1}   # share of query time per example
OVERHEAD_BLOCKS = 4    # traced/untraced block pairs for the query overhead
GAL_RTOL = 1e-9
THETA_RTOL = 1e-10


class Run:
    """Timings, checks and outputs gathered while one workload runs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.stage_s = {}
        self.checks = []          # [name, ok, value]
        self.queries = {}         # example -> stream summary
        self.query_attempted = 0
        self.query_failed = 0
        self.hashes = {}
        self.audit = None
        self.streams = []
        self.info = {}

    @contextlib.contextmanager
    def stage(self, name):
        """Time one stage; with a tracer it is also the span ``stage.<name>``."""
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span("stage." + name):
                    yield
        finally:
            self.stage_s[name] = (self.stage_s.get(name, 0.0)
                                  + time.perf_counter() - t0)

    def check(self, name, ok, value=None):
        self.checks.append([name, bool(ok), value])

    @property
    def attempted(self):
        return len(self.checks) + self.query_attempted

    @property
    def failed(self):
        return sum(1 for c in self.checks if not c[1]) + self.query_failed


def measure_setup(dirs=()):
    """Median start-up time of a fresh process that imports the library and,
    given artifact directories, loads their online bundles and answers one
    query each."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), *dirs]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times), times


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _dims_digest(manifest):
    dims = {k: manifest[k] for k in sorted(manifest) if k.startswith("dims_")}
    text = json.dumps(dims, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------- queries

class QueryInputs:
    """Seeded query inputs for one example: parameters plus, for example 2,
    the source and boundary mode coordinates."""

    def __init__(self, manifest, bundle, seed):
        ex = int(manifest["example"])
        rng = np.random.default_rng([seed, ex])
        pr = np.asarray(manifest["param_ranges"], dtype=float)
        n = QUERY_INPUTS[ex]
        self.k = rng.uniform(pr[:, 0], pr[:, 1], size=(n, len(pr)))
        if ex == 2:
            r_f = bundle.blocks.f_s.shape[0]
            r_g = bundle.blocks.g_p.shape[1]
            self.a = rng.standard_normal((n, r_f))
            self.b = rng.standard_normal((n, r_g))
        else:
            self.a = self.b = None

    def args(self, i):
        if self.a is None:
            return (self.k[i],)
        return (self.k[i], self.a[i], self.b[i])


class Stream:
    """One example's closed-loop caller: next query after the last answer."""

    def __init__(self, example, bundle, inputs, surrogate=None):
        self.example = example
        self.bundle = bundle
        self.inputs = inputs
        self.surrogate = surrogate
        self.next = 0
        self.latency = []
        self.index = []
        self.c_net = []
        self.c_gal = []
        self.res = []
        self.raised = 0

    def one(self, tracer=None, timed=True):
        i = self.next % len(self.inputs.k)
        self.next += 1
        args = self.inputs.args(i)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = online_query(self.bundle, *args)
            else:
                with tracer.span(f"query.ex{self.example}"):
                    out = online_query(self.bundle, *args)
        except Exception:  # a query that raises is a failed answer
            if timed:
                self.raised += 1
            return
        dt = time.perf_counter() - t0
        if timed:
            self.latency.append(dt)
            self.index.append(i)
            self.c_net.append(out[0])
            self.c_gal.append(out[1])
            self.res.append(out[2])

    def failed(self):
        """Timed queries whose answer is non-finite or disagrees with the
        batched reduced solve at the same theta and right-hand side."""
        if not self.index:
            return self.raised
        idx = np.asarray(self.index)
        uniq, inv = np.unique(idx, return_inverse=True)
        ks = self.inputs.k[uniq]
        bundle = self.bundle
        theta = theta_batch(self.example, ks, self.surrogate)
        if self.example == 2:
            f_rb = reduced_rhs_case2_batch(bundle.blocks, theta,
                                           self.inputs.a[uniq],
                                           self.inputs.b[uniq])
        else:
            f_rb = ks[:, 1:2] * bundle.online.f_blocks[0]
        # small chunks keep the reference solve out of the peak RSS
        ref = solve_reduced_batch(bundle.online.a_blocks, theta, f_rb,
                                  chunk=16)
        good_theta = np.ones(len(uniq), dtype=bool)
        if self.example == 3:
            pivot = np.vstack([bundle.theta_fn(k) for k in ks])
            err = np.linalg.norm(pivot - theta, axis=1)
            good_theta = err <= THETA_RTOL * np.linalg.norm(theta, axis=1)
        c_gal = np.vstack(self.c_gal)
        gal_err = np.linalg.norm(c_gal - ref[inv], axis=1)
        ok = gal_err <= GAL_RTOL * np.linalg.norm(ref[inv], axis=1)
        ok &= good_theta[inv]
        ok &= np.all(np.isfinite(c_gal), axis=1)
        ok &= np.all(np.isfinite(np.vstack(self.c_net)), axis=1)
        ok &= np.isfinite(np.asarray(self.res))
        return self.raised + int(np.count_nonzero(~ok))

    def summary(self):
        """Latency figures of the timed queries, in microseconds.

        ``p50_us`` and ``p90_us`` are taken over the inputs, each at its
        fastest run: the machine's speed drifts by 20 % over fractions of a
        second, and the best of an input's runs is what stays steady from run
        to run.  The ``raw_*`` figures are taken over every timed query, slow
        runs included.  Only ``p50_us`` is gated.
        """
        lat = np.asarray(self.latency) * 1e6
        if not lat.size:
            return {"n": 0}
        best = np.full(len(self.inputs.k), np.inf)
        np.minimum.at(best, np.asarray(self.index), lat)
        best = best[np.isfinite(best)]
        return {"n": int(lat.size), "inputs": int(best.size),
                "rounds": lat.size / len(self.inputs.k),
                "p50_us": float(np.median(best)),
                "p90_us": float(np.percentile(best, 90)),
                "raw_p50_us": float(np.median(lat)),
                "raw_p99_us": float(np.percentile(lat, 99))}


def serve(run, streams, seconds):
    """Closed-loop query streams sharing ``seconds`` of wall time.

    The streams take turns in short slices, weighted per example, so each
    one samples the whole window.  One caller, one query in flight.
    """
    tracer = run.tracer
    saved = {}
    if tracer is not None:
        for s in streams:
            saved[s] = s.bundle.theta_fn
            s.bundle.theta_fn = tracer.wrap("query.theta", s.bundle.theta_fn)
    try:
        for s in streams:
            for _ in range(WARMUP):
                s.one(timed=False)
        weight = sum(STREAM_WEIGHT[s.example] for s in streams)
        rounds = max(MIN_ROUNDS, math.ceil(seconds / (SLICE_S * weight)))
        unit = seconds / (rounds * weight)
        with run.stage("query"):
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                for s in streams:
                    end = min(time.perf_counter()
                              + unit * STREAM_WEIGHT[s.example], deadline)
                    s.one(tracer)
                    while time.perf_counter() < end:
                        s.one(tracer)
    finally:
        for s, fn in saved.items():
            s.bundle.theta_fn = fn


def finish(run, streams):
    """Summarize and check the streams once all their windows are served."""
    run.streams.extend(streams)
    for s in streams:
        run.queries[s.example] = s.summary()
        run.query_attempted += len(s.latency) + s.raised
        run.query_failed += s.failed()


# ------------------------------------------------------------- workloads

def _pipeline(run, cfg, seed, seconds, workdir):
    ex = cfg["example"]
    out = os.path.join(workdir, "art")
    train_cfg = {"epochs": cfg["epochs"], "early_stop": 10 ** 9}
    with run.stage("offline"):
        run_offline(ex, out, seed=seed, pod=cfg["pod"],
                    overrides=cfg["overrides"])

    # The query stream serves half of ``seconds`` in short windows after
    # every stage: slow spells of the machine last seconds, and windows far
    # apart let each input's best run escape them.  Before training the
    # bundle carries an untrained branch of the same shape, which costs the
    # same per query.
    adir = ArtifactDir(out)
    bundle = load_online_bundle(adir)
    stream = Stream(ex, bundle, QueryInputs(adir.read_manifest(), bundle,
                                            seed))
    window_s = seconds / 2 / (4 if cfg["audit"] else 3)
    serve(run, [stream], window_s)
    with run.stage("train"):
        run_train(out, "rb", seed=seed + 1, config=train_cfg)
        if cfg["pod"]:
            run_train(out, "pod", seed=seed + 1, config=train_cfg)
    stream.bundle = load_online_bundle(adir)
    serve(run, [stream], window_s)
    with run.stage("eval"):
        report = run_eval(out, seed=seed + 2, plots=True)
    serve(run, [stream], window_s)
    if cfg["audit"]:
        with run.stage("audit"):
            run.audit = online_budget_audit(out)
        serve(run, [stream], window_s)
    finish(run, [stream])
    run.info["ready_s"] = sum(v for k, v in run.stage_s.items()
                              if k != "query")

    manifest = adir.read_manifest()
    s = report.summary()
    gal = s["rb_galerkin"]
    run.check("rb_galerkin rel_l2 mean", gal["rel_l2"]["mean"]
              <= cfg["galerkin_rel_l2"], gal["rel_l2"]["mean"])
    if "galerkin_rel_residual" in cfg:
        run.check("rb_galerkin rel_residual mean", gal["rel_residual"]["mean"]
                  <= cfg["galerkin_rel_residual"], gal["rel_residual"]["mean"])
    for method, (stat, bound) in cfg["branch_rel_l2"].items():
        value = s[method]["rel_l2"][stat]
        run.check(f"{method} rel_l2 {stat}", value <= bound, value)
    if "n_params" in cfg:
        value = manifest["train_rb"]["n_params"]
        run.check("branch parameter count", value == cfg["n_params"], value)
    if "ranks" in cfg:
        got = {"greedy_n": manifest["dims_trunk"]["greedy_n"],
               "r_f": manifest["dims_modes"]["r_f"],
               "r_g": manifest["dims_modes"]["r_g"]}
        for key, want in cfg["ranks"].items():
            run.check(f"rank {key}", got[key] == want, got[key])
    if run.audit is not None:
        run.check("audit reduced_shapes_equal",
                  run.audit["reduced_shapes_equal"])
        run.check("audit alloc_within_slack", run.audit["alloc_within_slack"])
    run.hashes = {"report.json": _sha256(adir.file("report.json")),
                  "greedy_trace.json": _sha256(adir.file("greedy_trace.json")),
                  "manifest dims_*": _dims_digest(manifest)}



def _online(run, cfg, seed, seconds, workdir):
    dirs = {}
    with run.stage("offline"):
        for ex, overrides in cfg["dirs"].items():
            dirs[ex] = os.path.join(workdir, f"online_ex{ex}")
            run_offline(ex, dirs[ex], seed=seed, pod=False,
                        overrides=overrides)
    t0 = time.perf_counter()
    adirs = {ex: ArtifactDir(d) for ex, d in dirs.items()}
    bundles = {ex: load_online_bundle(a) for ex, a in adirs.items()}
    run.info["ready_s"] = run.stage_s["offline"] + time.perf_counter() - t0
    streams = []
    run.info["reduced_dims"] = {}
    for ex, adir in adirs.items():
        manifest = adir.read_manifest()
        run.info["reduced_dims"][f"ex{ex}"] = manifest["dims_trunk"]["greedy_n"]
        surrogate = load_surrogate(adir) if ex == 3 else None
        streams.append(Stream(ex, bundles[ex],
                              QueryInputs(manifest, bundles[ex], seed),
                              surrogate))
    serve(run, streams, seconds)
    finish(run, streams)
    return sorted(dirs.values())


def _trace_overhead(run, name, seed, seconds, workdir):
    """Traced minus untraced time over untraced time, for the stage with
    the finest spans that can be repeated: the query streams, in alternating
    traced and untraced blocks so both see the same machine, or the
    evaluation of a pipeline, run again untraced."""
    if name != "online_queries":
        traced = run.stage_s["eval"]
        t0 = time.perf_counter()
        run_eval(os.path.join(workdir, "art"), seed=seed + 2, plots=True)
        untraced = time.perf_counter() - t0
        return (traced - untraced) / untraced
    lat = {True: [], False: []}
    for block in range(2 * OVERHEAD_BLOCKS):
        traced = block % 2 == 0
        tracer = Tracer().install() if traced else None
        again = [Stream(s.example, s.bundle, s.inputs, s.surrogate)
                 for s in run.streams]
        try:
            serve(Run(tracer), again, seconds / (2 * OVERHEAD_BLOCKS))
        finally:
            if tracer is not None:
                tracer.uninstall()
        lat[traced] += [t for s in again for t in s.latency]
    return statistics.median(lat[True]) / statistics.median(lat[False]) - 1.0


def run_workload(name, seed, seconds, workdir, size="full", trace=False):
    """Run one workload in ``workdir``; returns the filled-in ``Run``.

    With ``trace`` the library layers are patched for the measured part
    and ``run.tracer`` holds the spans; set-up time is then not measured.
    """
    cfg = SIZES[size][name]
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = Tracer().install() if trace else None
    run = Run(tracer)
    try:
        if name == "online_queries":
            dirs = _online(run, cfg, seed, seconds, workdir)
        else:
            _pipeline(run, cfg, seed, seconds, workdir)
            dirs = ()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if trace:
        run.info["trace_overhead_frac"] = _trace_overhead(
            run, name, seed, seconds, workdir)
    else:
        run.info["setup_s"], run.info["setup_runs_s"] = measure_setup(dirs)
    run.info["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return run


def end_to_end(run):
    """The end-to-end metrics of one untraced run."""
    for ex, q in run.queries.items():
        if not q["n"]:
            raise RuntimeError(f"no online query of example {ex} succeeded")
    p50 = [q["p50_us"] for q in run.queries.values()]
    return {
        "setup_s": (run.info["setup_s"], "s"),
        "ready_s": (run.info["ready_s"], "s"),
        "query_p50_us": (statistics.geometric_mean(p50), "us"),
        "peak_rss_mb": (run.info["peak_rss_mb"], "MB"),
    }
