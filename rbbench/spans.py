"""Span tracing of the rb_operon layers from outside the package.

The package imports its callees by name (``from .assembly import
interior_factor``), so a function has to be replaced in every module
namespace that holds it, not only where it is defined.  ``Tracer.install``
does that by identity: each target object is swapped wherever an
``rb_operon`` module global refers to it.  Methods are replaced on their
class.  Spans (name, start, end, parent) stay in memory until ``dump``.

``layer_metrics`` turns the spans of one run into the per-layer metrics
named in ``BENCHMARK.json``.
"""

import contextlib
import functools
import importlib
import json
import math
import os
import time
from collections import defaultdict

MODULES = ("mesh", "assembly", "examples", "datamodes", "geomap",
           "reduction", "branchnet", "metrics", "artifacts", "pipeline")

# (span name, module, attribute): module-level functions, patched at every
# lookup site.
FUNCTIONS = (
    ("mesh.build", "examples", "build_mesh"),
    ("assembly.interior_factor", "assembly", "interior_factor"),
    ("assembly.truth_solve", "assembly", "truth_solve"),
    ("assembly.aggregated_load", "assembly", "aggregated_load"),
    ("assembly.assemble_load", "assembly", "assemble_load_volume"),
    ("assembly.assemble_load", "assembly", "assemble_load_boundary"),
    ("examples.example2_load", "examples", "example2_load"),
    ("examples.build_problem", "examples", "build_problem"),
    ("datamodes.source_greedy", "datamodes", "source_greedy"),
    ("datamodes.boundary_greedy", "datamodes", "boundary_greedy"),
    ("datamodes.case2_blocks", "datamodes", "case2_blocks"),
    ("datamodes.encode", "datamodes", "encode_source"),
    ("datamodes.encode", "datamodes", "encode_boundary"),
    ("datamodes.reduced_rhs_case2", "datamodes", "reduced_rhs_case2"),
    ("geomap.eim_build", "geomap", "eim_build"),
    ("geomap.assemble_eim_terms", "geomap", "assemble_eim_terms"),
    ("reduction.greedy_build", "reduction", "greedy_build"),
    ("reduction.solve_reduced_batch", "reduction", "solve_reduced_batch"),
    ("reduction.pod_build", "reduction", "pod_build"),
    ("reduction.solve_reduced", "reduction", "solve_reduced"),
    ("branchnet.train", "branchnet", "train"),
    ("branchnet.adamw_step", "branchnet", "adamw_step"),
    ("metrics.sample_metrics", "metrics", "sample_metrics"),
    ("artifacts.save_array", "artifacts", "save_array"),
    ("artifacts.load_array", "artifacts", "load_array"),
    # called from inside the audit stage
    ("pipeline.run_offline", "pipeline", "run_offline"),
    ("pipeline.load_online_bundle", "pipeline", "load_online_bundle"),
    ("pipeline.online_query", "pipeline", "online_query"),
)

# (span name, module, class, method)
METHODS = (
    ("assembly.star_solve", "assembly", "ParametricModel", "star_solve"),
    ("branchnet.forward", "branchnet", "MLP", "forward"),
    ("branchnet.backward", "branchnet", "MLP", "backward"),
    ("branchnet.batch_loss", "branchnet", "ResidualData", "batch_loss"),
    ("branchnet.batch_loss", "branchnet", "SupervisedData", "batch_loss"),
)

STAGES = ("offline", "train", "eval", "audit", "query")
EXAMPLES = (1, 2, 3)
QUERY_PARTS = ("branch", "theta", "rhs", "solve", "self")


def _fill_nnz(args, result):
    return {"fill_nnz": float(result.L.nnz + result.U.nnz)}


def _saved_bytes(args, result):
    return {"bytes": float(os.path.getsize(args[0]))}


def _loaded_bytes(args, result):
    return {"bytes": float(result.nbytes)}


def _greedy_columns(args, result):
    return {"columns": float(result[0].dim)}


HOOKS = {
    "assembly.interior_factor": _fill_nnz,
    "artifacts.save_array": _saved_bytes,
    "artifacts.load_array": _loaded_bytes,
    "reduction.greedy_build": _greedy_columns,
}


class Tracer:
    """In-memory span recorder with module patching."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.values = []          # per-span dict from a result hook, or None
        self._stack = [-1]
        self._undo = []

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(math.nan)
        self.parents.append(self._stack[-1])
        self.values.append(None)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                tracer.values[idx] = hook(args, result)
            return result

        return traced

    def install(self):
        """Patch every traced function and method; ``uninstall`` undoes it."""
        mods = {m: importlib.import_module("rb_operon." + m) for m in MODULES}
        for name, mod, attr in FUNCTIONS:
            orig = getattr(mods[mod], attr)
            wrapped = self.wrap(name, orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapped)
        for name, mod, cls_name, meth in METHODS:
            cls = getattr(mods[mod], cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(name, orig))
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def dump(self, path):
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        spans = [[ids[n], s, e, p] for n, s, e, p in
                 zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w") as fh:
            json.dump({"names": table, "fields": ["name", "start", "end",
                                                  "parent"],
                       "spans": spans}, fh)


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for st in STAGES:
        units[f"stage.{st}.s"] = "s"
        units[f"stage.{st}.unexplained_frac"] = "ratio"
    units["mesh.build.s"] = "s"
    for layer in ("assembly.interior_factor", "assembly.truth_solve",
                  "assembly.star_solve", "assembly.aggregated_load",
                  "examples.example2_load", "reduction.solve_reduced_batch",
                  "metrics.sample_metrics"):
        units[layer + ".calls"] = "count"
        units[layer + ".s"] = "s"
    units["assembly.interior_factor.fill_nnz"] = "count"
    for layer in ("assembly.assemble_load", "examples.build_problem",
                  "datamodes.source_greedy", "datamodes.boundary_greedy",
                  "datamodes.case2_blocks", "datamodes.encode",
                  "geomap.eim_build", "geomap.assemble_eim_terms",
                  "reduction.greedy_build", "reduction.pod_build",
                  "branchnet.train", "branchnet.forward",
                  "branchnet.backward", "branchnet.adamw_step",
                  "branchnet.batch_loss"):
        units[layer + ".s"] = "s"
    units["reduction.greedy_build.self_s"] = "s"
    units["reduction.greedy.columns_per_truth_solve"] = "ratio"
    units["branchnet.steps"] = "count"
    for layer in ("datamodes.reduced_rhs_case2", "reduction.solve_reduced",
                  "branchnet.forward"):
        units[layer + ".us"] = "us"
    for layer in ("artifacts.save_array", "artifacts.load_array"):
        units[layer + ".calls"] = "count"
        units[layer + ".s"] = "s"
        units[layer + ".bytes"] = "B"
    for ex in EXAMPLES:
        for part in QUERY_PARTS:
            units[f"pipeline.online_query.ex{ex}.{part}_us"] = "us"
    units["pipeline.audit.time_ratio"] = "ratio"
    units["pipeline.audit.alloc_gap_bytes"] = "B"
    units["trace_overhead_frac"] = "ratio"
    return units


def _summarize(tr):
    """Per-span durations, child coverage and per-name totals."""
    n = len(tr.names)
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tr.parents[i]
        if p >= 0:
            child[p] += dur[i]
    calls = defaultdict(int)
    total = defaultdict(float)
    for i in range(n):
        calls[tr.names[i]] += 1
        total[tr.names[i]] += dur[i]
    return dur, child, calls, total


def layer_metrics(tr, audit=None, overhead_frac=0.0):
    """Per-layer metrics of one traced run (zero where a layer is unused).

    Stage spans are named ``stage.<name>``; query spans ``query.ex<N>``.
    ``audit`` is the dict ``online_budget_audit`` returned, if it ran.
    """
    dur, child, calls, total = _summarize(tr)
    names = tr.names
    out = {name: 0.0 for name in metric_units()}

    for st in STAGES:
        idx = [i for i, nm in enumerate(names) if nm == f"stage.{st}"]
        busy = float(sum(dur[i] for i in idx))
        out[f"stage.{st}.s"] = busy
        if busy > 0:
            out[f"stage.{st}.unexplained_frac"] = (
                sum(dur[i] - child[i] for i in idx) / busy)

    for key in out:
        layer, _, field = key.rpartition(".")
        if field == "calls":
            out[key] = float(calls.get(layer, 0))
        elif field == "s" and not key.startswith("stage."):
            out[key] = total.get(layer, 0.0)
    out["branchnet.steps"] = float(calls.get("branchnet.adamw_step", 0))

    fills = [v["fill_nnz"] for nm, v in zip(names, tr.values)
             if nm == "assembly.interior_factor"]
    if fills:
        out["assembly.interior_factor.fill_nnz"] = sum(fills) / len(fills)
    for layer in ("artifacts.save_array", "artifacts.load_array"):
        out[layer + ".bytes"] = sum(v["bytes"] for nm, v in
                                    zip(names, tr.values) if nm == layer)

    greedy = [i for i, nm in enumerate(names) if nm == "reduction.greedy_build"]
    out["reduction.greedy_build.self_s"] = sum(dur[i] - child[i] for i in greedy)
    greedy_set = set(greedy)
    solves = sum(1 for i, nm in enumerate(names)
                 if nm == "assembly.interior_factor"
                 and tr.parents[i] in greedy_set)
    if solves:
        cols = sum(tr.values[i]["columns"] for i in greedy)
        out["reduction.greedy.columns_per_truth_solve"] = cols / solves

    # per-query breakdown: children of the benchmark's query.ex<N> spans
    part_of = {"branchnet.forward": "branch", "query.theta": "theta",
               "datamodes.reduced_rhs_case2": "rhs",
               "reduction.solve_reduced": "solve"}
    per_ex = {ex: defaultdict(float) for ex in EXAMPLES}
    n_query = {ex: 0 for ex in EXAMPLES}
    query_ids = {}
    for i, nm in enumerate(names):
        if nm.startswith("query.ex"):
            ex = int(nm[len("query.ex"):])
            query_ids[i] = ex
            n_query[ex] += 1
            per_ex[ex]["self"] += dur[i] - child[i]
    for i, nm in enumerate(names):
        ex = query_ids.get(tr.parents[i])
        if ex is not None and nm in part_of:
            per_ex[ex][part_of[nm]] += dur[i]
    all_q = sum(n_query.values())
    for ex in EXAMPLES:
        if n_query[ex]:
            for part in QUERY_PARTS:
                out[f"pipeline.online_query.ex{ex}.{part}_us"] = (
                    1e6 * per_ex[ex][part] / n_query[ex])
    if all_q:
        out["branchnet.forward.us"] = 1e6 * sum(
            per_ex[ex]["branch"] for ex in EXAMPLES) / all_q
        out["reduction.solve_reduced.us"] = 1e6 * sum(
            per_ex[ex]["solve"] for ex in EXAMPLES) / all_q
    if n_query[2]:
        out["datamodes.reduced_rhs_case2.us"] = 1e6 * per_ex[2]["rhs"] / n_query[2]

    if audit is not None:
        out["pipeline.audit.time_ratio"] = float(audit["time_ratio"])
        out["pipeline.audit.alloc_gap_bytes"] = float(audit["alloc_gap_bytes"])
    out["trace_overhead_frac"] = float(overhead_frac)
    return out


def open_stages(tr, limit=0.10):
    """Stages whose child spans leave more than ``limit`` of the time."""
    dur, child, _, _ = _summarize(tr)
    worst = {}
    for i, nm in enumerate(tr.names):
        if nm.startswith("stage.") and dur[i] > 0:
            worst[nm] = max(worst.get(nm, 0.0), (dur[i] - child[i]) / dur[i])
    return {nm: frac for nm, frac in sorted(worst.items()) if frac > limit}
