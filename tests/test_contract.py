"""The names the benchmark harness under ``rbbench/`` reaches into.

The harness imports library functions by name, patches the traced layers
by (module, attribute), reads fields of the online bundle and reads the
fill of the band factor ``interior_factor`` returns; a change in the
package breaks it only when it runs.  These checks read the harness's own
tables and imports and never modify them.
"""

import ast
import dataclasses
import importlib
import importlib.util
import os
import re

import numpy as np

import rb_operon

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RBBENCH = os.path.join(ROOT, "rbbench")


def _spans():
    spec = importlib.util.spec_from_file_location(
        "rbbench_spans", os.path.join(RBBENCH, "spans.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_public_names_resolve():
    for name in rb_operon.__all__:
        getattr(rb_operon, name)


def test_exports_are_referenced():
    # an export whose only mentions are its definition and its _EXPORTS
    # entry has no caller in the package or the harness; tests do not count
    lines = []
    for top in ("src", "rbbench"):
        for dirpath, _, fnames in os.walk(os.path.join(ROOT, top)):
            for fname in fnames:
                if fname.endswith(".py"):
                    with open(os.path.join(dirpath, fname)) as fh:
                        lines += fh.read().splitlines()
    unused = []
    for name in rb_operon._EXPORTS:
        own = re.compile(rf'^\s*((def|class) {name}\b|"{name}":)')
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(ln) and not own.match(ln) for ln in lines):
            unused.append(name)
    assert unused == []


def test_traced_layers_resolve():
    spans = _spans()
    for _, mod, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module("rb_operon." + mod),
                                attr))
    for _, mod, cls, meth in spans.METHODS:
        owner = getattr(importlib.import_module("rb_operon." + mod), cls)
        assert meth in owner.__dict__


def test_harness_imports_resolve():
    names = []
    for fname in sorted(os.listdir(RBBENCH)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(RBBENCH, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("rb_operon")):
                names += [(node.module, a.name) for a in node.names]
    assert ("rb_operon.pipeline", "theta_batch") in names
    for module, name in names:
        getattr(importlib.import_module(module), name)


def test_fill_hook_reads_interior_factor(tiny_problem1):
    from rb_operon.assembly import interior_factor

    model = tiny_problem1.model
    fac = interior_factor(model, model.k_star)
    hook = _spans().HOOKS["assembly.interior_factor"]
    out = hook((model, model.k_star), fac)
    assert out["fill_nnz"] > 0


def test_traced_layers_count_what_they_measure(tiny_problem1, rng):
    # the harness's layer numbers rest on these spans: one per AdamW step
    # of a training run, one per band factor of the pool snapshots
    from rb_operon import pipeline
    from rb_operon.branchnet import (_BATCH, MLP, ResidualData, TrainConfig,
                                     train)

    model = tiny_problem1.model
    ks = np.column_stack([rng.uniform(0.1, 10.0, 5), rng.uniform(-1, 1, 5)])
    terms = rng.standard_normal((model.n_free, 2))
    n, width = 100, 3

    def data(rows):
        return ResidualData(features=rng.standard_normal((rows, 2)),
                            theta=rng.uniform(0.5, 1.5, (rows, 2)),
                            a_blocks=np.stack([np.eye(width)] * 2),
                            c_n=rng.standard_normal((rows, width)))

    tracer = _spans().Tracer().install()
    try:
        before = model.band.factorizations
        pipeline._pool_snapshots(model, ks, terms, rng.standard_normal((5, 2)))
        factors = model.band.factorizations - before
        history = train(MLP([2, 8, width], seed=0), data(n), data(20),
                        TrainConfig(epochs=2, early_stop=5))[2]
    finally:
        tracer.uninstall()
    calls = {name: tracer.names.count(name) for name in set(tracer.names)}
    assert calls["assembly.interior_factor"] == factors == len(ks)
    assert history.stopped_epoch == 1
    assert calls["branchnet.adamw_step"] == 2 * -(-n // _BATCH)


def _modules_using(name):
    """Package modules that import ``name`` or reach it as an attribute."""
    pkg = os.path.join(ROOT, "src", "rb_operon")
    users = set()
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if ((isinstance(node, ast.ImportFrom)
                 and any(a.name == name for a in node.names))
                    or (isinstance(node, ast.Attribute)
                        and node.attr == name)):
                users.add(fname)
    return users


def test_no_module_imports_splu():
    # every full-order factorization goes through the model's band layout
    assert _modules_using("splu") == set()


def test_no_module_calls_numpy_cholesky():
    # every reduced factorization goes through the checked dpotrf kernel
    assert _modules_using("cholesky") == set()


def test_online_bundle_fields():
    from rb_operon.pipeline import OnlineBundle

    fields = {f.name for f in dataclasses.fields(OnlineBundle)}
    assert {"example", "online", "blocks", "theta_fn"} <= fields


def test_example2_bundle_blocks_serve_the_harness(tiny2_dir):
    # QueryInputs and setup_probe.py size example 2's query inputs (a, b)
    # from the bundle's blocks, and Stream.failed holds every answer to the
    # batched reduced load of those blocks at theta_batch's weights
    from rb_operon.artifacts import ArtifactDir
    from rb_operon.datamodes import reduced_rhs_case2_batch
    from rb_operon.pipeline import load_online_bundle, theta_batch

    adir = ArtifactDir(tiny2_dir)
    bundle = load_online_bundle(adir)
    modes = adir.read_manifest()["dims_modes"]
    assert bundle.blocks.f_s.shape[0] == modes["r_f"]
    assert bundle.blocks.g_p.shape[1] == modes["r_g"]
    rng = np.random.default_rng(4)
    ks, a, b = (np.array(col) for col in
                zip(*bundle.bench.draw_queries(8, rng)))
    theta = theta_batch(2, ks)
    batch = reduced_rhs_case2_batch(bundle.blocks, theta, a, b)
    for i in range(len(ks)):
        row = bundle.bench.rhs(bundle.online, bundle.blocks, theta[i], ks[i],
                               a[i], b[i])
        assert (np.abs(row - batch[i]).max()
                <= 1e-14 * np.abs(batch[i]).max())


def test_harness_settings_are_accepted(monkeypatch):
    # every override dict of the workload size tables is accepted for its
    # example, and every training key the harness passes is a TrainConfig
    # field, so deleting an option cannot break the benchmark at run time
    from rb_operon.branchnet import TrainConfig
    from rb_operon.examples import example_spec
    from rb_operon.pipeline import apply_overrides

    monkeypatch.syspath_prepend(RBBENCH)
    spec = importlib.util.spec_from_file_location(
        "rbbench_workloads", os.path.join(RBBENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    checked = 0
    for table in (workloads.FULL, workloads.TINY):
        for cfg in table.values():
            runs = ([(cfg["example"], cfg["overrides"])] if "example" in cfg
                    else list(cfg["dirs"].items()))
            for example, overrides in runs:
                apply_overrides(example_spec(example), overrides)
                checked += 1
    assert checked == 10

    with open(os.path.join(RBBENCH, "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    keys = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "train_cfg"
                        for t in node.targets)):
            keys |= {k.value for k in node.value.keys}
    assert keys == {"epochs", "early_stop"}
    assert keys <= {f.name for f in dataclasses.fields(TrainConfig)}


def test_modules_read_every_name_they_import():
    # a name a module imports but never reads is either dead or imported
    # for another module's sake, which should import it from its home
    pkg = os.path.join(ROOT, "src", "rb_operon")
    unread = []
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read())
        imported = {(a.asname or a.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unread += [f"{fname}: {name}" for name in sorted(imported - read)]
    assert unread == []
