"""The names the benchmark harness under ``rbbench/`` reaches into.

The harness imports library functions by name, patches the traced layers
by (module, attribute) and reads fields of the online bundle; a rename in
the package breaks it only when it runs.  These checks read the harness's
own tables and imports and never modify them.
"""

import ast
import dataclasses
import importlib
import importlib.util
import os

import rb_operon

RBBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "rbbench")


def _spans():
    spec = importlib.util.spec_from_file_location(
        "rbbench_spans", os.path.join(RBBENCH, "spans.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_public_names_resolve():
    for name in rb_operon.__all__:
        getattr(rb_operon, name)


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


def test_online_bundle_fields():
    from rb_operon.pipeline import OnlineBundle

    fields = {f.name for f in dataclasses.fields(OnlineBundle)}
    assert {"example", "online", "blocks", "theta_fn"} <= fields
