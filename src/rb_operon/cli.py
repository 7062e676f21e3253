"""Command-line driver.

One offline command, ``rb-build``, builds the mesh, the operator family, the
data modes or EIM surrogate and the trunks; ``train``, ``eval`` and
``audit`` work on the directory it writes, and ``bench`` runs them all.
Problem construction itself lives in the benchmark objects ``Example1`` to
``Example3`` of ``rb_operon.examples``.

Thread capping must happen before the first numpy import, so every handler
imports the heavy modules lazily after the environment is adjusted.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure,
4 benchmark gate violation.
"""

import argparse
import dataclasses
import json
import os
import sys

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _cap_threads():
    cap = os.environ.get("RB_OPERON_THREADS")
    if not cap:
        return
    if not cap.isdigit() or int(cap) < 1:
        raise ValueError(f"RB_OPERON_THREADS must be a positive integer, "
                         f"got {cap!r}")
    for var in _BLAS_VARS:
        os.environ.setdefault(var, cap)


def _parse_value(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    return text


def _load_config(args):
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        cfg.update(loaded)
    for item in args.set or []:
        key, sep, val = item.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"expected KEY=VALUE, got {item!r}")
        cfg[key.strip()] = _parse_value(val.strip())
    return cfg


def _cmd_rb_build(args):
    from .pipeline import run_offline

    adir = run_offline(args.example, args.out, seed=args.seed,
                       pod=not args.no_pod, overrides=_load_config(args))
    manifest = adir.read_manifest()
    dims = manifest["dims_trunk"]
    line = f"greedy trunk: {dims['greedy_n']} columns"
    if "pod_n" in dims:
        line += f", pod trunk: {dims['pod_n']} columns"
    print(line)
    print(f"artifacts in {adir.path}")
    return 0


def _cmd_train(args):
    from .pipeline import run_train

    _, _, hist = run_train(args.out, method=args.method, seed=args.seed,
                           config=_load_config(args) or None)
    print(f"trained {args.method} branch: {len(hist.train_loss)} epochs, "
          f"best validation loss {min(hist.val_loss):.3e} at epoch "
          f"{hist.best_epoch + 1}")
    return 0


def _cmd_eval(args):
    from .pipeline import run_eval

    methods = args.methods.split(",") if args.methods else None
    report = run_eval(args.out, n_test=args.n_test, seed=args.seed,
                      methods=methods, plots=args.plots)
    print(report.format_table())
    return 0


def _cmd_audit(args):
    from .pipeline import online_budget_audit

    result = online_budget_audit(args.out, doubled_dir=args.doubled,
                                 n_queries=args.queries, seed=args.seed)
    print(f"free nodes: {result['n_free']['base']} -> "
          f"{result['n_free']['doubled']} "
          f"(x{result['n_free_ratio']:.2f})")
    print(f"per-query time: {result['per_query_seconds']['base'] * 1e6:.1f} us"
          f" -> {result['per_query_seconds']['doubled'] * 1e6:.1f} us "
          f"(ratio {result['time_ratio']:.3f})")
    print(f"per-query transient allocation: "
          f"{result['alloc_peak_bytes']['base']:.0f} B -> "
          f"{result['alloc_peak_bytes']['doubled']:.0f} B")
    print(f"reduced shapes equal: {result['reduced_shapes_equal']}, "
          f"allocation within slack: {result['alloc_within_slack']}")
    return 0


def _cmd_bench(args):
    from .branchnet import TrainConfig
    from .pipeline import run_bench

    cfg = _load_config(args)
    pod = cfg.pop("pod", None)
    # the seed comes from --seed, not from the config file
    train_keys = {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"}
    train_cfg = {k: cfg.pop(k) for k in list(cfg) if k in train_keys}
    report, fails = run_bench(args.example, args.out, seed=args.seed,
                              check=args.check, pod=pod,
                              train_config=train_cfg or None,
                              overrides=cfg or None)
    print(report.format_table())
    if args.check:
        if fails:
            for line in fails:
                print(f"FAIL {line}", file=sys.stderr)
            return 4
        print("all benchmark gates passed")
    return 0


def _add_common(sub, name, handler, helptext, example=True, seed=0):
    p = sub.add_parser(name, help=helptext)
    if example:
        p.add_argument("--example", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(handler=handler)
    return p


def _add_config(p):
    """The configuration flags, for the commands that read them."""
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one configuration entry")
    p.add_argument("--config", help="JSON file of configuration entries")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rb-operon",
        description="certified reduced-basis operator learning for "
                    "parametric elliptic problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_common(sub, "rb-build", _cmd_rb_build,
                    "run the full offline stage (trunks, blocks, manifest)")
    p.add_argument("--no-pod", action="store_true",
                   help="skip the snapshot-based trunk")
    _add_config(p)

    p = _add_common(sub, "train", _cmd_train,
                    "fit a branch network on persisted reduced systems",
                    example=False, seed=1)
    p.add_argument("--method", choices=("rb", "pod"), default="rb")
    _add_config(p)

    p = _add_common(sub, "eval", _cmd_eval,
                    "evaluate all trained surrogates on fresh samples",
                    example=False, seed=2)
    p.add_argument("--n-test", type=int, default=None)
    p.add_argument("--methods", help="comma-separated subset to evaluate")
    p.add_argument("--plots", action="store_true",
                   help="write field heatmaps for the first test case")

    p = _add_common(sub, "audit", _cmd_audit,
                    "check the online path against mesh refinement",
                    example=False, seed=7)
    p.add_argument("--doubled", help="existing refined artifact directory")
    p.add_argument("--queries", type=int, default=200)

    p = _add_common(sub, "bench", _cmd_bench,
                    "offline + train + eval with pinned quality gates")
    p.add_argument("--check", action="store_true",
                   help="exit 4 when a quality gate fails")
    _add_config(p)
    return parser


def _classify(exc):
    import numpy as np

    from .errors import (MapDegenerateError, NotCoerciveError,
                         StagnationError, TrainingDivergedError)

    numerical = (NotCoerciveError, MapDegenerateError, StagnationError,
                 TrainingDivergedError, np.linalg.LinAlgError)
    if isinstance(exc, numerical):
        return 3
    if isinstance(exc, (ValueError, TypeError, KeyError, OSError)):
        return 2
    return None


def main(argv=None):
    try:
        _cap_threads()
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except Exception as exc:
        code = _classify(exc)
        if code is None:
            raise
        kind = "numerical failure" if code == 3 else "invalid configuration"
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
