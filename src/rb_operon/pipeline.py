"""End-to-end orchestration over artifact directories.

``run_offline`` builds everything that does not depend on a query parameter
(mesh, affine operator family, data modes, trunks, reduced blocks) and
persists it with a manifest.  ``run_train`` fits a branch network against
the persisted reduced systems.  ``run_eval`` draws fresh test parameters,
runs truth solves plus every surrogate, and writes a metrics report.
``online_budget_audit`` times the online path on two mesh resolutions and
checks that its allocations do not grow with the full-order dimension.

What differs between the benchmarks comes from the example's benchmark
object in ``examples``; this module never tests the example number.

Artifacts are deterministic functions of (configuration, seeds): no
timestamps, sorted-key JSON, fixed binary array format.
"""

import time
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import (ArtifactDir, _jsonable, environment, load_net,
                        load_space, save_net, save_space)
from .assembly import full_field, interior_factor
from .branchnet import (MLP, ResidualData, Standardizer, SupervisedData,
                        TrainConfig, train)
from .examples import (BENCHMARKS, HIDDEN_SIZES, ExampleSpec, build_problem,
                       example_spec, load_problem, open_benchmark,
                       sample_parameters)
from .mesh import min_angle_deg, write_mesh_text
from .metrics import (MethodMetrics, MetricsReport, metric_context,
                      reduced_dual_norm, sample_metrics)
from .reduction import (OnlineRB, greedy_build, pod_build, reduced_cholesky,
                        reduced_operator, solve_reduced, solve_reduced_batch)
from .svgplot import line_plot, mesh_heatmap

FOOTNOTE = ("rows are limited to the methods implemented here; "
            "external baselines are omitted.")

_SIZE_KEYS = ("n_pool", "n_train", "n_val", "n_test")
_TRUNK_KEYS = ("pod_fixed_n", "greedy_tol", "greedy_fixed_n")
_MESH_KEYS = ("h", "n")   # not r0: example 3's radial map shares the mesh's
_DATA_KEYS = ("mode_tol", "r_f_max", "r_g_max", "sweep_subset",
              "eim_q", "eim_train")
# each reduced rank a manifest records, (section, key), and the knob that
# caps it: the audit's finer run pins every one the base run recorded
_PINS = (("dims_trunk", "greedy_n", "greedy_fixed_n"),
         ("dims_modes", "r_f", "r_f_max"),
         ("dims_modes", "r_g", "r_g_max"),
         ("dims_eim", "q", "eim_q"))
_TIMING_ROUNDS, _ALLOC_REPS = 7, 15   # audit: timed rounds, traced queries


def _positive_int(key, val):
    """An integer knob's value: an int or an integral float, at least 1."""
    integral = (isinstance(val, int)
                or isinstance(val, float) and val.is_integer())
    if isinstance(val, bool) or not integral or val < 1:
        raise ValueError(f"{key} must be a positive integer, got {val!r}")
    return int(val)


def apply_overrides(spec, overrides):
    """Return a copy of ``spec`` with named constants replaced.

    Accepted keys: pool/train/val/test sizes, trunk tolerances and fixed
    dimensions, mesh recipe knobs present in the recipe, and data-family
    knobs present for the example.  Anything else, and an integer knob that
    is not a positive integer, raises ValueError.
    """
    if not overrides:
        return spec
    kwargs = {}
    recipe = dict(spec.mesh_recipe)
    trunk = dict(spec.trunk)
    data = {k: (dict(v) if isinstance(v, dict) else v)
            for k, v in spec.data.items()}
    for key, val in overrides.items():
        if key in _SIZE_KEYS:
            kwargs[key] = _positive_int(key, val)
        elif key in _TRUNK_KEYS:
            trunk[key] = None if val is None else (
                _positive_int(key, val) if key.endswith("_fixed_n")
                else float(val))
        elif key in _MESH_KEYS:
            if key not in recipe:
                raise ValueError(f"mesh recipe has no knob {key!r}")
            recipe[key] = (_positive_int(key, val) if key == "n"
                           else float(val))
        elif key in _DATA_KEYS:
            if key not in data:
                raise ValueError(f"example has no data knob {key!r}")
            data[key] = (_positive_int(key, val)
                         if isinstance(data[key], int) else float(val))
        else:
            raise ValueError(f"unknown override {key!r}")
    return replace(spec, mesh_recipe=recipe, trunk=trunk, data=data, **kwargs)


def spec_from_manifest(manifest):
    """Rebuild the pinned configuration recorded by ``run_offline``."""
    return ExampleSpec(
        example=int(manifest["example"]),
        param_ranges=tuple(tuple(r) for r in manifest["param_ranges"]),
        k_star=tuple(manifest["k_star"]),
        mesh_recipe=manifest["mesh_recipe"],
        trunk=manifest["trunk"],
        data=manifest["data"],
        **{k: int(manifest["sizes"][k]) for k in _SIZE_KEYS},
    )


def theta_batch(example, ks, surrogate=None):
    """Operator weights theta_a for a batch of parameter rows."""
    bench = BENCHMARKS[example](example_spec(example), surrogate)
    return bench.theta(np.atleast_2d(np.asarray(ks, dtype=float)))


def _pool_snapshots(model, ks, terms, weights):
    """Truth solve of every pool row, on its load ``terms @ weights[i]``."""
    out = np.empty((model.n_free, len(ks)))
    for i, k in enumerate(ks):
        out[:, i] = interior_factor(model, k).solve(terms @ weights[i])
    return out


def run_offline(example, outdir, seed=0, pod=True, overrides=None):
    """Build and persist the parameter-independent half of one benchmark.

    Writes mesh, sampled pools, data modes (example 2), EIM surrogate
    (example 3), greedy trunk with its certification trace, optional POD
    trunk with its Gram and supervised targets, and a manifest of every
    constant, of the library versions and BLAS thread settings, and of the
    full-order factorizations and right-hand sides solved.
    """
    spec = apply_overrides(example_spec(example), overrides)
    # the builders would reject these only after the steps before them
    if spec.trunk.get("greedy_fixed_n") is None:
        raise ValueError("the greedy needs its maximal dimension "
                         "greedy_fixed_n")
    adir = ArtifactDir(outdir)
    rng = np.random.default_rng(seed)
    problem = build_problem(spec)
    model, bench = problem.model, problem.bench
    write_mesh_text(problem.mesh, adir.file("mesh.txt"))

    manifest = {
        "example": spec.example,
        "seed": seed,
        "param_ranges": [list(r) for r in spec.param_ranges],
        "k_star": list(spec.k_star),
        "mesh_recipe": spec.mesh_recipe,
        "trunk": spec.trunk,
        "data": spec.data,
        "sizes": {k: getattr(spec, k) for k in _SIZE_KEYS},
        "hidden_sizes": list(HIDDEN_SIZES),
        "environment": environment(),
        "alpha_lb": problem.alpha_lb,
        "mesh": {
            "n_nodes": problem.mesh.n_nodes,
            "n_triangles": problem.mesh.n_triangles,
            "n_free": model.n_free,
            "n_dirichlet": len(model.dirichlet),
            "min_angle_deg": min_angle_deg(problem.mesh),
        },
    }
    if problem.mesh.relaxation is not None:
        manifest["mesh"]["relaxation"] = problem.mesh.relaxation

    ks, terms, weights, n_greedy = bench.offline_data(problem, adir, rng,
                                                      manifest)
    space_g, gtrace = greedy_build(
        model, ks[:n_greedy], terms, weights[:n_greedy],
        tol=spec.trunk.get("greedy_tol"),
        fixed_n=spec.trunk.get("greedy_fixed_n"),
        alpha_lb=problem.alpha_lb)

    save_space(adir, "greedy", space_g)
    adir.save_json("greedy_trace", {
        "selected": gtrace.selected,
        "params": gtrace.params,
        "max_estimator": gtrace.max_estimator,
        "basis_size": gtrace.basis_size,
        "stop_reason": gtrace.stop_reason,
        "rechecks": gtrace.rechecks,
    })
    manifest["dims_trunk"] = {"greedy_n": space_g.dim}
    line_plot(adir.file("greedy_decay.svg"),
              [("max estimator", gtrace.basis_size, gtrace.max_estimator)],
              title=f"example {spec.example}: greedy certification",
              xlabel="basis size", ylabel="max estimator", logy=True)

    if pod:
        snaps = _pool_snapshots(model, ks, terms, weights)
        space_p = pod_build(model, snaps, terms,
                            spec.trunk.get("pod_fixed_n"))
        save_space(adir, "pod", space_p)
        psi = space_p.psi
        adir.save_array("pod_gram", psi.T @ (model.a_star_II @ psi))
        a_snaps = model.a_star_II @ snaps
        adir.save_array("pod_targets", (psi.T @ a_snaps).T)
        adir.save_array("pod_squares", np.einsum("ij,ij->j", snaps, a_snaps))
        manifest["dims_trunk"]["pod_n"] = space_p.dim

    manifest["full_order"] = model.band.counts()
    adir.write_manifest(manifest)
    return adir


def run_train(outdir, method="rb", seed=1, config=None):
    """Fit the branch network for one surrogate and persist it.

    method "rb": greedy trunk, label-free residual loss on the reduced
    variational system.  method "pod": POD trunk, supervised loss on the
    pool snapshots' trunk coordinates.
    """
    if method not in ("rb", "pod"):
        raise ValueError(f"unknown training method {method!r}")
    adir = ArtifactDir(outdir)
    manifest = adir.read_manifest()
    spec = spec_from_manifest(manifest)
    prefix = "greedy" if method == "rb" else "pod"
    if not adir.has(prefix + "_psi.arr"):
        raise ValueError(f"no {prefix} trunk in {outdir}; run the offline "
                         "stage first")
    space = load_space(adir, prefix)
    bench = open_benchmark(spec, adir)

    cfg = TrainConfig(**{"seed": seed, **(config or {})})

    if method == "rb":
        ks, a, b = bench.train_rows(adir, seed)
        theta = bench.theta(ks)
        f_rb = bench.rhs(space, bench.rhs_blocks(space), theta, ks, a, b)
        c_n = solve_reduced_batch(space.a_blocks, theta, f_rb)

        def subset(sl):
            return ResidualData(features=feats[sl], theta=theta[sl],
                                a_blocks=space.a_blocks, c_n=c_n[sl])
    else:
        ks, a, b = bench.pool_rows(adir)
        gram = adir.load_array("pod_gram")
        targets = adir.load_array("pod_targets")
        squares = adir.load_array("pod_squares")

        def subset(sl):
            return SupervisedData(features=feats[sl], gram=gram,
                                  targets=targets[sl], squares=squares[sl])

    feats = bench.features(ks, a, b)
    n_total = len(feats)
    n_tr = min(spec.n_train, n_total)
    n_va = min(spec.n_val, n_total - n_tr)
    if n_va <= 0:
        raise ValueError("no validation samples left after the train split")
    data_tr = subset(slice(0, n_tr))
    data_va = subset(slice(n_tr, n_tr + n_va))

    net = MLP([feats.shape[1], *HIDDEN_SIZES, space.dim], seed=seed)
    net, std, hist = train(net, data_tr, data_va, cfg)
    save_net(adir, method, net, std, hist)
    epochs = np.arange(1, len(hist.train_loss) + 1)
    line_plot(adir.file(f"{method}_loss.svg"),
              [("train", epochs, hist.train_loss),
               ("validation", epochs, hist.val_loss)],
              title=f"{method} branch training", xlabel="epoch",
              ylabel="loss", logy=True)
    adir.update_manifest(**{f"train_{method}": {
        "seed": seed,
        "n_train": n_tr,
        "n_val": n_va,
        "epochs_run": len(hist.train_loss),
        "best_epoch": hist.best_epoch,
        "stopped_epoch": hist.stopped_epoch,
        "stop_reason": hist.stop_reason,
        "n_params": net.n_params,
        "config": cfg.record(),
    }})
    return net, std, hist


def run_eval(outdir, n_test=None, seed=2, methods=None, plots=False):
    """Fresh-sample comparison of every available surrogate.

    Reports relative L2, relative reference-energy and reduced-residual
    measures per method (mean and 95th percentile), written as report.json
    and an aligned report.txt next to the artifacts.
    """
    adir = ArtifactDir(outdir)
    manifest = adir.read_manifest()
    spec = spec_from_manifest(manifest)
    problem = load_problem(spec, adir)
    model, bench, mesh = problem.model, problem.bench, problem.mesh

    spaces = {"greedy": load_space(adir, "greedy")}
    if adir.has("pod_psi.arr"):
        spaces["pod"] = load_space(adir, "pod")
    nets = {m: load_net(adir, m)[:2] for m in ("rb", "pod")
            if adir.has(m + "_net.json")}

    available = ["rb_galerkin"]
    if "rb" in nets:
        available.append("rb_deeponet")
    if "pod" in nets and "pod" in spaces:
        available.append("pod_deeponet")
    methods = list(methods) if methods else available
    unknown = set(methods) - {"rb_galerkin", "rb_deeponet", "pod_deeponet"}
    if unknown:
        raise ValueError(f"unknown evaluation methods {sorted(unknown)}")
    missing = set(methods) - set(available)
    if missing:
        raise ValueError(f"methods {sorted(missing)} lack trained artifacts")

    trunk_of = {"rb_galerkin": "greedy", "rb_deeponet": "greedy",
                "pod_deeponet": "pod"}
    used = {trunk_of[m] for m in methods}
    spaces = {name: spaces[name] for name in used}

    n_test = int(n_test or spec.n_test)
    rng = np.random.default_rng(seed)
    ks = sample_parameters(spec, n_test, rng)
    u_ref, lift, g_b, a, b = bench.eval_data(problem, adir, ks, rng)
    theta = bench.theta(ks)
    f_rb = {name: bench.rhs(spaces[name], bench.rhs_blocks(spaces[name]),
                            theta, ks, a, b) for name in spaces}

    contexts = {name: metric_context(model, spaces[name], problem.m_ii)
                for name in spaces}
    coeffs = {}
    for method in methods:
        trunk = trunk_of[method]
        if method == "rb_galerkin":
            coeffs[method] = solve_reduced_batch(spaces[trunk].a_blocks,
                                                 theta, f_rb[trunk])
        else:
            net, std = nets["rb" if method == "rb_deeponet" else "pod"]
            coeffs[method] = net.forward(bench.features(ks, a, b), std)

    triples = {m: [] for m in methods}
    for i in range(n_test):
        a_rb = {name: reduced_operator(spaces[name].a_blocks, theta[i])
                for name in spaces}
        for method in methods:
            trunk = trunk_of[method]
            c = coeffs[method][i]
            u_pred = spaces[trunk].psi @ c + lift[i]
            triples[method].append(sample_metrics(
                contexts[trunk], u_ref[i], u_pred, a_rb[trunk],
                f_rb[trunk][i], c))

    report = MetricsReport(
        methods={m: MethodMetrics.from_triples(triples[m]) for m in methods},
        n_samples=n_test,
        seed=seed,
        footnote=FOOTNOTE,
        extras={
            "example": spec.example,
            "dims": manifest.get("dims_trunk", {}),
            "modes": manifest.get("dims_modes", {}),
            "eim": manifest.get("dims_eim", {}),
            "alpha_lb": manifest.get("alpha_lb"),
        },
    )
    adir.save_json("report", report.to_json_dict())
    adir.save_text("report.txt", report.format_table() + "\n")

    if plots:
        # full_field treats its first argument as the homogeneous part
        truth_nodes = full_field(model, u_ref[0] - lift[0], g_b[0])
        mesh_heatmap(adir.file("field_truth.svg"), mesh, truth_nodes,
                     title="truth, first test parameter")
        best = methods[-1]
        c0 = coeffs[best][0]
        pred_hom = spaces[trunk_of[best]].psi @ c0
        mesh_heatmap(adir.file("field_pred.svg"), mesh,
                     full_field(model, pred_hom, g_b[0]),
                     title=f"{best} prediction")
        err = np.abs(pred_hom + lift[0] - u_ref[0])
        mesh_heatmap(adir.file("field_error.svg"), mesh,
                     full_field(model, err), title=f"{best} absolute error")
    return report


@dataclass
class OnlineBundle:
    """Reduced-size state of the online path; never holds a trunk matrix."""

    example: int
    online: OnlineRB
    chol_star: np.ndarray
    net: object
    std: object
    theta_fn: object           # the benchmark's theta
    bench: object
    blocks: object = None      # modal blocks split from f_blocks (example 2)
    n_free: int = 0

    def arrays(self):
        out = [self.online.a_blocks, self.online.f_blocks, self.chol_star,
               self.std.mean, self.std.std]
        out += self.net.parameters()
        if self.blocks is not None:
            out += [self.blocks.f_s, self.blocks.g_p]
        return out

    def shapes(self):
        return sorted(tuple(int(d) for d in a.shape) for a in self.arrays())

    def max_dim(self):
        return max(max(s) for s in self.shapes() if s)


def load_online_bundle(adir):
    """Online-path state from a finished offline directory.

    Loads only reduced-size arrays (the trunk stays on disk); when no
    trained branch exists an untrained one of the right shape stands in,
    which is enough for budget measurements.
    """
    manifest = adir.read_manifest()
    bench = open_benchmark(spec_from_manifest(manifest), adir)
    a_blocks = adir.load_array("greedy_a_blocks")
    f_blocks = adir.load_array("greedy_f_blocks")
    online = OnlineRB(a_blocks=a_blocks, f_blocks=f_blocks)
    k_star = np.asarray(manifest["k_star"], dtype=float)
    chol_star = reduced_cholesky(
        reduced_operator(a_blocks, bench.theta(k_star)), "k_star")
    if adir.has("rb_net.json"):
        net, std, _ = load_net(adir, "rb")
    else:
        d_in = bench.feature_width()
        net = MLP([d_in, *HIDDEN_SIZES, a_blocks.shape[1]], seed=0)
        std = Standardizer(mean=np.zeros(d_in), std=np.ones(d_in))
    return OnlineBundle(example=bench.spec.example, online=online,
                        chol_star=chol_star, net=net, std=std,
                        theta_fn=bench.theta, bench=bench,
                        blocks=bench.rhs_blocks(online),
                        n_free=int(manifest["mesh"]["n_free"]))


def online_query(bundle, k, a=None, b=None):
    """One certified online prediction: branch, Galerkin, residual norm.

    Returns the branch coefficients c_net, the Galerkin coefficients c_gal
    of the reduced system A_N(k) c = f_N(k), and the dual norm of the
    branch's reduced residual f_N - A_N c_net in the A_N(k*)^-1 norm.
    A_N(k) = sum_p theta_p A_p is one matrix-vector product of theta with
    the flattened blocks (``reduced_operator``), and the Galerkin solve is
    the checked Cholesky kernel of ``solve_reduced``: a reduced operator
    that is not SPD raises NotCoerciveError.  Every array touched has
    reduced size.
    """
    bench = bundle.bench
    c_net = bundle.net.forward(bench.features(k, a, b)[None, :],
                               bundle.std)[0]
    theta = bundle.theta_fn(k)
    a_rb = reduced_operator(bundle.online.a_blocks, theta)
    f_rb = bench.rhs(bundle.online, bundle.blocks, theta, k, a, b)
    c_gal = solve_reduced(a_rb, f_rb)
    res = reduced_dual_norm(bundle.chol_star, f_rb - a_rb @ c_net)
    return c_net, c_gal, res


def _time_queries(bundles, queries):
    """Per bundle, the best per-query seconds over the rounds and every
    round's seconds.  The bundles take turns within each round, so a slow
    spell of the machine reaches all of them alike."""
    times = [[] for _ in bundles]
    for _ in range(_TIMING_ROUNDS):
        for bundle, rounds in zip(bundles, times):
            t0 = time.perf_counter()
            for q in queries:
                online_query(bundle, *q)
            rounds.append(time.perf_counter() - t0)
    return [(min(rounds) / len(queries), rounds) for rounds in times]


def _alloc_peak(bundle, queries):
    """Median per-query transient allocation (bytes above the pre-call line)."""
    tracemalloc.start()
    online_query(bundle, *queries[0])
    peaks = []
    for q in queries[1:_ALLOC_REPS + 1]:
        cur0 = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        online_query(bundle, *q)
        _, peak = tracemalloc.get_traced_memory()
        peaks.append(peak - cur0)
    tracemalloc.stop()
    return float(np.median(peaks))


def _doubled_recipe(recipe):
    if recipe["kind"] == "inclusion":
        return {"h": recipe["h"] / np.sqrt(2.0)}
    return {"n": int(round(recipe["n"] * np.sqrt(2.0)))}


def online_budget_audit(outdir, doubled_dir=None, n_queries=200, seed=7):
    """Prove the online path is independent of the full-order dimension.

    Builds a second offline directory on a mesh with roughly twice the
    nodes but identical reduced dimensions, then compares the per-query
    wall time and the per-query transient allocation between the two.  The
    finer run takes the base manifest's sizes, trunk and data knobs, each
    recorded reduced rank pinned by the knob that caps it (``_PINS``).  An
    existing doubled directory is reused only if its manifest records the
    sizes, trunk, data knobs, mesh and seed this audit asks for; otherwise
    the default ``DIR_x2`` is rebuilt, and a ``doubled_dir`` given by the
    caller raises ValueError.  All results land in audit.json next to the
    base artifacts.
    """
    adir = ArtifactDir(outdir)
    manifest = adir.read_manifest()
    base = load_online_bundle(adir)
    given = doubled_dir is not None
    example = int(manifest["example"])
    overrides = {**manifest["sizes"], **manifest["trunk"]}
    overrides.update((k, v) for k, v in manifest["data"].items()
                     if k in _DATA_KEYS)
    overrides.update(_doubled_recipe(manifest["mesh_recipe"]))
    # no tolerance may stop a pinned build short of its recorded rank
    overrides["greedy_tol"] = None
    if "mode_tol" in manifest["data"]:
        overrides["mode_tol"] = 0.0
    for section, key, knob in _PINS:
        if section in manifest:
            overrides[knob] = manifest[section][key]
    spec = apply_overrides(example_spec(example), overrides)
    want = _jsonable({"sizes": {k: getattr(spec, k) for k in _SIZE_KEYS},
                      "trunk": spec.trunk, "data": spec.data,
                      "mesh_recipe": spec.mesh_recipe,
                      "seed": manifest["seed"]})
    if doubled_dir is None:
        doubled_dir = adir.path.rstrip("/\\") + "_x2"
    d_adir = ArtifactDir(doubled_dir)
    stale = list(want)      # all of it, when nothing was built yet
    if d_adir.has("manifest.json"):
        got = d_adir.read_manifest()
        stale = [k for k in want if got.get(k) != want[k]]
        if stale and given:
            raise ValueError(f"{doubled_dir} was not built for this audit; "
                             f"it differs in {', '.join(stale)}")
    if stale:
        run_offline(example, doubled_dir, seed=int(manifest["seed"]),
                    pod=False, overrides=overrides)

    doubled = load_online_bundle(d_adir)
    queries = base.bench.draw_queries(n_queries, np.random.default_rng(seed))

    shapes_equal = base.shapes() == doubled.shapes()
    (t_base, rounds_base), (t_doubled, rounds_doubled) = _time_queries(
        (base, doubled), queries)
    alloc_base = _alloc_peak(base, queries)
    alloc_doubled = _alloc_peak(doubled, queries)
    slack = max(4096.0, 0.02 * alloc_base)

    result = {
        "n_free": {"base": base.n_free, "doubled": doubled.n_free},
        "n_free_ratio": doubled.n_free / base.n_free,
        "reduced_shapes_equal": shapes_equal,
        "max_array_dim": {"base": base.max_dim(), "doubled": doubled.max_dim()},
        "per_query_seconds": {"base": t_base, "doubled": t_doubled},
        "time_ratio": t_doubled / t_base,
        "per_round_seconds": {"base": rounds_base, "doubled": rounds_doubled},
        "timing_rounds": len(rounds_base),
        "alloc_peak_bytes": {"base": alloc_base, "doubled": alloc_doubled},
        "alloc_gap_bytes": abs(alloc_doubled - alloc_base),
        "alloc_within_slack": bool(abs(alloc_doubled - alloc_base) <= slack),
        "n_queries": n_queries,
        "seed": seed,
    }
    adir.save_json("audit", result)
    return result


def _gate(fails, name, value, bound):
    if not value <= bound:
        fails.append(f"{name}: {value:.3e} exceeds {bound:.3e}")


def bench_gates(example, report, manifest, audit):
    """The pinned pass/fail bounds for one benchmark report."""
    s = report.summary()
    bench = BENCHMARKS[example]
    fails = []
    for method, measure, stat, bound in bench.gates:
        if method in s:
            _gate(fails, f"{method} {measure} {stat}",
                  s[method][measure][stat], bound)
    for label, section, key, nominal in bench.nominal_dims:
        value = manifest[section][key]
        if abs(value - nominal) > 0.30 * nominal:
            fails.append(f"{label} {value} outside 30% of {nominal}")
    counted = manifest.get("train_rb", {}).get("n_params")
    if bench.n_params and counted not in (None, bench.n_params):
        fails.append(f"branch parameter count {counted} != {bench.n_params}")
    if not audit["reduced_shapes_equal"]:
        fails.append("online arrays changed shape under mesh refinement")
    if not audit["alloc_within_slack"]:
        fails.append("online allocation grew under mesh refinement")
    _gate(fails, "online time change", abs(audit["time_ratio"] - 1.0), 0.2)
    return fails


def run_bench(example, outdir, seed=0, check=False, pod=None,
              train_config=None, overrides=None):
    """Offline + training + evaluation + online budget audit for one
    benchmark, with gates.

    Returns (report, fails); ``fails`` is non-empty when ``check`` is set
    and a pinned bound is violated.
    """
    if pod is None:
        pod = BENCHMARKS[example].pod
    adir = run_offline(example, outdir, seed=seed, pod=pod,
                       overrides=overrides)
    run_train(outdir, "rb", seed=seed + 1, config=train_config)
    if pod:
        run_train(outdir, "pod", seed=seed + 1, config=train_config)
    report = run_eval(outdir, seed=seed + 2, plots=True)
    audit = online_budget_audit(outdir)
    fails = []
    if check:
        fails = bench_gates(example, report, adir.read_manifest(), audit)
        adir.update_manifest(bench_check={"passed": not fails,
                                          "failures": fails})
    return report, fails
