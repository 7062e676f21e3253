import dataclasses
import json
import os
import shutil
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rb_operon.artifacts import (ArtifactDir, load_boundary_modes,
                                 load_source_modes, load_space,
                                 load_surrogate)
from rb_operon.branchnet import MLP
from rb_operon.datamodes import encoded_load_terms
from rb_operon.errors import NotCoerciveError
from rb_operon.examples import (BENCHMARKS, HIDDEN_SIZES,
                                NOMINAL_PARAM_COUNTS, build_problem,
                                example_spec, load_problem, open_benchmark)
from rb_operon.geomap import eim_coefficients
from rb_operon.mesh import square_with_inclusion_mesh
from rb_operon.metrics import (MethodMetrics, MetricContext, MetricsReport,
                               metric_context, percentile_95, sample_metrics)
from rb_operon.pipeline import (FOOTNOTE, apply_overrides, bench_gates,
                                load_online_bundle, online_budget_audit,
                                online_query, run_bench, run_eval,
                                run_offline, run_train, spec_from_manifest,
                                theta_batch)
from rb_operon.reduction import solve_reduced_batch
from rb_operon.svgplot import line_plot, mesh_heatmap


def test_apply_overrides_coercion_and_rejection():
    spec = example_spec(1)
    out = apply_overrides(spec, {"n_pool": 12.0, "h": 0.1, "pod_fixed_n": 2,
                                 "greedy_tol": 1e-3})
    assert out.n_pool == 12 and isinstance(out.n_pool, int)
    assert out.mesh_recipe["h"] == 0.1
    assert out.trunk["pod_fixed_n"] == 2
    assert out.trunk["greedy_tol"] == 1e-3
    assert apply_overrides(spec, None) is spec
    # original untouched
    assert spec.n_pool == 2100 and spec.mesh_recipe["h"] == 1.0 / 43.0
    with pytest.raises(ValueError):
        apply_overrides(spec, {"voxels": 3})
    with pytest.raises(ValueError):
        apply_overrides(spec, {"n": 12})        # not an inclusion-mesh knob
    with pytest.raises(ValueError):
        apply_overrides(spec, {"eim_q": 4})     # no tensor surrogate here
    out = apply_overrides(spec, {"greedy_fixed_n": None})
    assert out.trunk["greedy_fixed_n"] is None


def test_overrides_reject_the_inclusion_radius():
    # the mesh's ring and example 3's radial map share one r0, so moving the
    # mesh's alone would split the pullback from the region tags; nor is
    # the POD tolerance a knob
    for example in (1, 3):
        with pytest.raises(ValueError, match="unknown override 'r0'"):
            apply_overrides(example_spec(example), {"r0": 0.25})
    with pytest.raises(ValueError, match="unknown override 'pod_tol'"):
        apply_overrides(example_spec(1), {"pod_tol": 1e-6})


@pytest.mark.parametrize("example", [1, 2, 3])
def test_audit_builds_the_finer_directory_from_the_base_run(example, request,
                                                           tmp_path,
                                                           monkeypatch):
    # the doubled directory is configured from the base manifest alone, so
    # only the mesh differs and the reduced arrays keep their shapes: each
    # recorded reduced rank is pinned by the knob that caps it, the greedy
    # runs without a tolerance and the mode greedies with tolerance 0
    base = str(tmp_path / "base")
    shutil.copytree(request.getfixturevalue(f"tiny{example}_dir"), base)
    audit = online_budget_audit(base, n_queries=20)
    assert audit["reduced_shapes_equal"] is True
    assert audit["alloc_within_slack"] is True
    assert audit["n_free_ratio"] > 1.5
    man = ArtifactDir(base).read_manifest()
    doubled = ArtifactDir(base + "_x2").read_manifest()
    for key in ("sizes", "seed", "param_ranges", "k_star", "hidden_sizes"):
        assert doubled[key] == man[key], key
    dims = {k for k in man if k.startswith("dims_")}
    assert dims == {k for k in doubled if k.startswith("dims_")}
    for key in dims:    # the doubled run builds no POD trunk
        assert doubled[key] == {k: v for k, v in man[key].items()
                                if k != "pod_n"}, key
    n_rb = man["dims_trunk"]["greedy_n"]
    assert doubled["trunk"] == {**man["trunk"], "greedy_tol": None,
                                "greedy_fixed_n": n_rb}
    data = dict(man["data"])
    for knob, section, rank in (("r_f_max", "dims_modes", "r_f"),
                                ("r_g_max", "dims_modes", "r_g"),
                                ("eim_q", "dims_eim", "q")):
        if knob in data:
            data[knob] = man[section][rank]
    if "mode_tol" in data:
        data["mode_tol"] = 0.0
    assert doubled["data"] == data

    # a second audit finds the doubled directory up to date
    def no_rebuild(*args, **kwargs):
        raise AssertionError("a matching doubled directory was rebuilt")

    monkeypatch.setattr("rb_operon.pipeline.run_offline", no_rebuild)
    assert online_budget_audit(base, n_queries=10)["reduced_shapes_equal"]


def test_audit_pins_the_eim_rank(tmp_path):
    # an EIM that stops below its cap, here at its four training radii, is
    # rebuilt on the finer mesh with the rank it reached as its cap
    from conftest import TINY3

    base = str(tmp_path / "base")
    run_offline(3, base, seed=0, pod=False,
                overrides=dict(TINY3, eim_train=4, eim_q=8))
    assert ArtifactDir(base).read_manifest()["dims_eim"]["q"] == 4
    assert online_budget_audit(base, n_queries=10)["reduced_shapes_equal"]
    doubled = ArtifactDir(base + "_x2").read_manifest()
    assert doubled["data"]["eim_q"] == doubled["dims_eim"]["q"] == 4


def test_audit_rebuilds_a_doubled_directory_of_another_base_run(tmp_path):
    # a base rebuilt with other sizes and N is audited against a doubled
    # directory built anew, not against the one left by the first build
    from conftest import TINY1

    base = str(tmp_path / "base")
    run_offline(1, base, seed=0, pod=False, overrides=TINY1)
    online_budget_audit(base, n_queries=10)
    run_offline(1, base, seed=0, pod=False,
                overrides=dict(TINY1, n_pool=40, greedy_fixed_n=3))
    audit = online_budget_audit(base, n_queries=10)
    assert audit["reduced_shapes_equal"] is True
    doubled = ArtifactDir(base + "_x2").read_manifest()
    assert doubled["sizes"]["n_pool"] == 40
    assert doubled["dims_trunk"]["greedy_n"] == 3


def test_audit_rejects_a_given_doubled_directory_of_another_run(tmp_path,
                                                                tiny1_dir):
    # a doubled directory named by the caller is never rebuilt: one built
    # for other settings raises, naming what differs
    from conftest import TINY1

    base = str(tmp_path / "base")
    shutil.copytree(tiny1_dir, base)
    other = str(tmp_path / "other")
    run_offline(1, other, seed=1, pod=False,
                overrides=dict(TINY1, h=TINY1["h"] / np.sqrt(2.0),
                               greedy_tol=None))
    with pytest.raises(ValueError, match="differs in seed$"):
        online_budget_audit(base, doubled_dir=other, n_queries=10)


def test_manifest_records_the_environment(tiny1_dir, monkeypatch,
                                          tmp_path):
    # the library versions and BLAS thread settings the bytes depend on,
    # null where a variable is unset; no timing
    import scipy

    env = ArtifactDir(tiny1_dir).read_manifest()["environment"]
    assert env["numpy"] == np.__version__
    assert env["scipy"] == scipy.__version__
    assert set(env) == {"numpy", "scipy", "OMP_NUM_THREADS",
                        "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    from conftest import TINY1

    out = run_offline(1, str(tmp_path / "env"), seed=0, pod=False,
                      overrides=dict(TINY1, greedy_fixed_n=1))
    env = out.read_manifest()["environment"]
    assert env["OMP_NUM_THREADS"] == "3"
    assert env["MKL_NUM_THREADS"] is None


def test_spec_from_manifest_roundtrip(tiny1_dir):
    from conftest import TINY1

    man = ArtifactDir(tiny1_dir).read_manifest()
    spec = spec_from_manifest(man)
    want = apply_overrides(example_spec(1), TINY1)
    assert spec.example == 1
    assert spec.param_ranges == want.param_ranges
    assert spec.k_star == want.k_star
    assert spec.mesh_recipe == want.mesh_recipe
    assert spec.trunk == want.trunk
    assert (spec.n_pool, spec.n_train, spec.n_val, spec.n_test) == \
        (want.n_pool, want.n_train, want.n_val, want.n_test)


def test_manifest_records_mesh_relaxation(tiny1_dir, tiny2_dir):
    from conftest import TINY1

    relax = ArtifactDir(tiny1_dir).read_manifest()["mesh"]["relaxation"]
    r0 = example_spec(1).mesh_recipe["r0"]
    assert relax == square_with_inclusion_mesh(r0, TINY1["h"]).relaxation
    assert set(relax) == {"iterations", "triangulations", "flips",
                          "stop_reason"}
    assert relax["stop_reason"] in ("step_tol", "max_iters")
    # the structured mesh of example 2 is not relaxed
    assert "relaxation" not in ArtifactDir(tiny2_dir).read_manifest()["mesh"]


def test_manifest_records_full_order_counts(tiny1_dir, tiny2_dir):
    # the reference factor, one truth per greedy column and, with POD, one
    # per pool snapshot; example 2 also factors its diffusion block for its
    # coercivity bound.  Every factor solves at least one right-hand side
    for path, pod, extra in ((tiny1_dir, True, 0), (tiny2_dir, False, 1)):
        manifest = ArtifactDir(path).read_manifest()
        counts = manifest["full_order"]
        want = 1 + extra + manifest["dims_trunk"]["greedy_n"]
        if pod:
            want += manifest["sizes"]["n_pool"]
        assert counts["factorizations"] == want
        assert counts["solves"] >= (counts["factorizations"]
                                    + manifest["mesh"]["n_dirichlet"])


@pytest.mark.parametrize("example", [1, 2])
def test_affine_greedy_solves_do_not_grow_with_pool(example, tmp_path,
                                                     monkeypatch):
    # the greedy runs on its affine load terms, example 2's the encoded
    # ones: a larger pool adds no reference solve to the build, where one
    # per pool load would add 72
    import conftest
    from rb_operon import pipeline

    build = pipeline.greedy_build
    solves = []

    def counting(model, *args, **kwargs):
        before = model.band.solves
        out = build(model, *args, **kwargs)
        solves.append(model.band.solves - before)
        return out

    monkeypatch.setattr(pipeline, "greedy_build", counting)
    for n_pool in (24, 96):
        overrides = {**getattr(conftest, f"TINY{example}"), "n_pool": n_pool}
        if example == 2:
            overrides["sweep_subset"] = n_pool
        run_offline(example, str(tmp_path / str(n_pool)), seed=0, pod=False,
                    overrides=overrides)
    assert solves[0] == solves[1]


def test_example2_greedy_trains_on_leading_pool_rows(tmp_path):
    # sweep_subset names the greedy's training set, the first draws of the
    # pool: the greedy sweeps and picks from those alone, while the data
    # modes, the persisted pool and the branch rows keep every draw
    from conftest import TINY2

    adir = run_offline(2, str(tmp_path / "ex2"), seed=0, pod=False,
                       overrides={**TINY2, "sweep_subset": 10})
    prov = load_space(adir, "greedy").provenance
    trace = adir.load_json("greedy_trace")
    assert prov["pool_size"] == 10
    assert prov["selected"] == trace["selected"]
    assert len(trace["selected"]) == TINY2["greedy_fixed_n"]
    assert max(trace["selected"]) < 10
    for name in ("pool_params", "pool_a", "pool_b"):
        assert len(adir.load_array(name)) == TINY2["n_pool"] == 24


@pytest.mark.parametrize("example, pod", [(1, True), (2, False), (2, True),
                                          (3, True)])
def test_every_persisted_array_has_a_reader(example, pod, tmp_path,
                                            monkeypatch):
    # training, evaluation and the online bundle load every array the
    # offline stage writes.  Examples 1 and 3 build their POD trunk, since
    # only POD training reads pool_params there; example 2's POD trunk is
    # built from truths of its encoded loads
    import conftest
    from rb_operon import artifacts

    out = str(tmp_path / f"ex{example}")
    adir = run_offline(example, out, seed=0, pod=pod,
                       overrides=getattr(conftest, f"TINY{example}"))
    if example == 2:
        # one set of load blocks per trunk: each trunk's f_blocks project
        # the encoded load terms of the persisted modes, and no second
        # projection is written
        man = adir.read_manifest()
        model = load_problem(spec_from_manifest(man), adir).model
        terms = encoded_load_terms(model, load_boundary_modes(adir),
                                   load_source_modes(adir))
        r_f, r_g = man["dims_modes"]["r_f"], man["dims_modes"]["r_g"]
        for trunk in ("greedy", "pod") if pod else ("greedy",):
            f_blocks = adir.load_array(trunk + "_f_blocks")
            assert f_blocks.shape == (r_f + model.affine_II.n_terms * r_g,
                                      man["dims_trunk"][trunk + "_n"])
            assert np.array_equal(
                f_blocks, terms.T @ adir.load_array(trunk + "_psi"))
        assert [n for n in os.listdir(out) if n.startswith("case2_")] == []
    loaded = set()
    load = artifacts.load_array

    def recording(path):
        loaded.add(os.path.basename(path))
        return load(path)

    monkeypatch.setattr(artifacts, "load_array", recording)
    config = {"epochs": 1, "early_stop": 10 ** 9}
    for method in ("rb", "pod") if pod else ("rb",):
        run_train(out, method, seed=1, config=config)
    run_eval(out, seed=2)
    bundle = load_online_bundle(adir)
    written = {name for name in os.listdir(out) if name.endswith(".arr")}
    assert written - loaded == set()
    if example == 2:
        # the modal blocks are the split of the greedy trunk's f_blocks
        proj = adir.load_array("greedy_f_blocks")
        assert np.array_equal(bundle.blocks.f_s, proj[:r_f])
        assert np.array_equal(
            bundle.blocks.g_p,
            -proj[r_f:].reshape(model.affine_II.n_terms, r_g, -1))


def test_theta_batch_values(tiny_problem3, rng):
    ks1 = np.array([[2.0, -0.5], [0.3, 0.9]])
    assert np.allclose(theta_batch(1, ks1), [[2.0, 1.0], [0.3, 1.0]])
    ks2 = rng.uniform(0.1, 1.0, size=(4, 3))
    assert np.array_equal(theta_batch(2, ks2), ks2)
    lo, hi = np.array(tiny_problem3.bench.spec.param_ranges).T
    ks3 = rng.uniform(lo, hi, size=(3, 3))
    th = theta_batch(3, ks3, tiny_problem3.bench.eim)
    for row, k in zip(th, ks3):
        assert np.allclose(row, tiny_problem3.model.theta_a(k))


def test_percentile_nearest_rank():
    assert percentile_95(np.arange(1.0, 101.0)) == 95.0
    assert percentile_95([3.0, 1.0, 2.0]) == 3.0
    assert percentile_95(np.arange(1.0, 11.0)) == 10.0
    with pytest.raises(ValueError):
        percentile_95([])


def test_sample_metrics_identity_weights(rng):
    n = 4
    ctx = MetricContext(m_ii=np.eye(6), a_ii_star=2.0 * np.eye(6),
                        chol_star_rb=np.eye(n))
    u_ref = rng.standard_normal(6)
    u_pred = u_ref + 0.1
    a_rb = np.eye(n)
    c = rng.standard_normal(n)
    f_rb = rng.standard_normal(n)
    l2, en, res = sample_metrics(ctx, u_ref, u_pred, a_rb, f_rb, c)
    d = np.linalg.norm(u_pred - u_ref) / np.linalg.norm(u_ref)
    assert np.isclose(l2, d)
    assert np.isclose(en, d)           # identical up to the matching weights
    assert np.isclose(res, np.linalg.norm(f_rb - c) / np.linalg.norm(f_rb))


def _fake_report(gal, don=None, pod=None, n=20):
    methods = {"rb_galerkin": MethodMetrics.from_triples([gal] * n)}
    if don is not None:
        methods["rb_deeponet"] = MethodMetrics.from_triples([don] * n)
    if pod is not None:
        methods["pod_deeponet"] = MethodMetrics.from_triples([pod] * n)
    return MetricsReport(methods=methods, n_samples=n, seed=2,
                         footnote=FOOTNOTE)


def test_format_table_contains_rows_and_footnote():
    rep = _fake_report((1e-6, 1e-6, 1e-13), (1e-2, 1e-2, 1e-3))
    txt = rep.format_table()
    assert "rb_galerkin" in txt and "rb_deeponet" in txt
    assert "note: " + FOOTNOTE.split("\n")[0][:20] in txt
    js = rep.to_json_dict()
    assert js["summary"]["rb_galerkin"]["rel_l2"]["mean"] == pytest.approx(1e-6)
    assert len(js["per_sample"]["rb_deeponet"]["rel_l2"]) == 20


GOOD_MAN1 = {"train_rb": {"n_params": NOMINAL_PARAM_COUNTS[1]}}
GOOD_AUDIT = {"reduced_shapes_equal": True, "alloc_within_slack": True,
              "time_ratio": 1.0}


def test_bench_gates_example1():
    rep = _fake_report((1e-6, 1e-6, 1e-13), (1e-2, 1e-2, 1e-3),
                       (1.5e-2, 1e-2, 1e-3))
    assert bench_gates(1, rep, GOOD_MAN1, GOOD_AUDIT) == []
    rep = _fake_report((2e-5, 1e-6, 1e-13))
    fails = bench_gates(1, rep, GOOD_MAN1, GOOD_AUDIT)
    assert len(fails) == 1 and "rb_galerkin rel_l2" in fails[0]
    rep = _fake_report((1e-6, 1e-6, 1e-13), (3e-2, 1e-2, 1e-3))
    fails = bench_gates(1, rep, {"train_rb": {"n_params": 12345}},
                        GOOD_AUDIT)
    assert any("parameter count" in f for f in fails)
    assert any("rb_deeponet rel_l2 mean" in f for f in fails)


def test_bench_gates_example2_dims():
    rep = _fake_report((5e-3, 5e-3, 1e-6), (3e-2, 3e-2, 1e-3))
    man = {"dims_trunk": {"greedy_n": 209},
           "dims_modes": {"r_f": 128, "r_g": 16}}
    assert bench_gates(2, rep, man, GOOD_AUDIT) == []
    man = {"dims_trunk": {"greedy_n": 150},
           "dims_modes": {"r_f": 160, "r_g": 20}}
    assert bench_gates(2, rep, man, GOOD_AUDIT) == []   # all still inside 30%
    man = {"dims_trunk": {"greedy_n": 300},
           "dims_modes": {"r_f": 128, "r_g": 16}}
    fails = bench_gates(2, rep, man, GOOD_AUDIT)
    assert len(fails) == 1 and "trunk dimension" in fails[0]


def test_bench_gates_audit_two_sided():
    rep = _fake_report((1e-6, 1e-6, 1e-13))
    audit = dict(GOOD_AUDIT, time_ratio=1.15)
    assert bench_gates(1, rep, GOOD_MAN1, audit) == []
    for ratio in (1.25, 0.75):
        bad = dict(audit, time_ratio=ratio)
        fails = bench_gates(1, rep, GOOD_MAN1, bad)
        assert any("online time change" in f for f in fails)
    bad = dict(audit, reduced_shapes_equal=False)
    assert any("shape" in f for f in bench_gates(1, rep, GOOD_MAN1, bad))
    bad = dict(audit, alloc_within_slack=False)
    assert any("allocation" in f for f in bench_gates(1, rep, GOOD_MAN1, bad))


@pytest.mark.parametrize("example", [1, 2, 3])
def test_run_bench_audits_every_example(example, tmp_path):
    # every benchmark runs the online budget audit; the POD trunk is built
    # where the example has it
    import conftest

    out = str(tmp_path / "bench")
    _, fails = run_bench(example, out, seed=0, check=True,
                         train_config={"epochs": 2, "early_stop": 5},
                         overrides=getattr(conftest, f"TINY{example}"))
    adir = ArtifactDir(out)
    assert adir.has("audit.json")
    assert adir.read_manifest()["bench_check"] == {"passed": not fails,
                                                   "failures": fails}
    assert adir.has("pod_psi.arr") == (example != 2)


def test_nominal_parameter_counts_match_architectures():
    sizes = {1: (2, 3), 2: (147, 209), 3: (3, 5)}
    for ex, (d_in, d_out) in sizes.items():
        net = MLP([d_in, *HIDDEN_SIZES, d_out], seed=0)
        assert net.n_params == NOMINAL_PARAM_COUNTS[ex]


@pytest.mark.parametrize("example", [1, 2, 3])
def test_online_query_matches_reduced_solve(example, request, rng):
    adir = ArtifactDir(request.getfixturevalue(f"tiny{example}_dir"))
    man = adir.read_manifest()
    bundle = load_online_bundle(adir)
    space = load_space(adir, "greedy")

    # theta and the reduced load written out from the paper's definitions
    def theta(k):
        if example == 1:
            return np.array([k[0], 1.0])
        if example == 2:
            return k
        alpha = eim_coefficients(load_surrogate(adir), k[2])
        return np.concatenate([alpha, k[0] * alpha])

    a_star_rb = np.tensordot(theta(np.array(man["k_star"])), space.a_blocks,
                             axes=1)
    lo, hi = np.array(man["param_ranges"]).T
    for k in rng.uniform(lo, hi, size=(5, len(lo))):
        if example == 2:
            blocks = bundle.blocks
            a = rng.standard_normal(blocks.f_s.shape[0])
            b = rng.standard_normal(blocks.g_p.shape[1])
            args = (k, a, b)
            lift = np.einsum("p,pgn,g->n", theta(k), blocks.g_p, b)
            f_rb = a @ blocks.f_s - lift
        else:
            args = (k,)
            f_rb = k[1] * space.f_blocks[0]
        assert np.allclose(bundle.theta_fn(k), theta(k), rtol=1e-12)
        c_net, c_gal, res = online_query(bundle, *args)
        a_rb = np.tensordot(theta(k), space.a_blocks, axes=1)
        want = np.linalg.solve(a_rb, f_rb)
        assert np.allclose(c_gal, want, rtol=1e-10, atol=1e-12)
        # certified residual equals the dual norm computed densely
        r = f_rb - a_rb @ c_net
        want_res = np.sqrt(r @ np.linalg.solve(a_star_rb, r))
        assert np.isclose(res, want_res, rtol=1e-9)


def _query_args(bundle, k, rng):
    if bundle.blocks is None:
        return (k, None, None)
    return (k, rng.standard_normal(bundle.blocks.f_s.shape[0]),
            rng.standard_normal(bundle.blocks.g_p.shape[1]))


@pytest.mark.parametrize("example", [1, 2, 3])
def test_online_query_galerkin_is_batch_kernel_bitwise(example, request, rng):
    adir = ArtifactDir(request.getfixturevalue(f"tiny{example}_dir"))
    bundle = load_online_bundle(adir)
    lo, hi = np.array(adir.read_manifest()["param_ranges"]).T
    for k in rng.uniform(lo, hi, size=(4, len(lo))):
        args = _query_args(bundle, k, rng)
        _, c_gal, _ = online_query(bundle, *args)
        theta = bundle.theta_fn(k)
        f_rb = bundle.bench.rhs(bundle.online, bundle.blocks, theta, *args)
        ref = solve_reduced_batch(bundle.online.a_blocks, theta[None, :],
                                  f_rb[None, :])[0]
        assert np.array_equal(c_gal, ref)


@pytest.mark.parametrize("example", [1, 2, 3])
def test_online_query_rejects_negative_weights(example, request, rng):
    adir = ArtifactDir(request.getfixturevalue(f"tiny{example}_dir"))
    bundle = load_online_bundle(adir)
    flipped = dataclasses.replace(
        bundle, theta_fn=lambda k: -bundle.theta_fn(k))
    k = np.array(adir.read_manifest()["k_star"])
    online_query(bundle, *_query_args(bundle, k, rng))
    with pytest.raises(NotCoerciveError, match="not SPD"):
        online_query(flipped, *_query_args(bundle, k, rng))


def test_reference_factor_rejects_indefinite_operator(tiny1_dir, tmp_path,
                                                      tiny_problem1):
    # a reduced A_N(k*) that is not SPD fails when the online bundle and
    # the eval metrics factor it, not when a residual is measured later
    space = load_space(ArtifactDir(tiny1_dir), "greedy")
    flipped = dataclasses.replace(space, a_blocks=-space.a_blocks)
    with pytest.raises(NotCoerciveError, match="sample k_star "):
        metric_context(tiny_problem1.model, flipped, tiny_problem1.m_ii)
    copy = ArtifactDir(shutil.copytree(tiny1_dir, str(tmp_path / "neg")))
    copy.save_array("greedy_a_blocks", flipped.a_blocks)
    with pytest.raises(NotCoerciveError, match="sample k_star "):
        load_online_bundle(copy)


def _bench_of(outdir):
    adir = ArtifactDir(outdir)
    man = adir.read_manifest()
    return open_benchmark(spec_from_manifest(man), adir), man


@pytest.mark.parametrize("example", [1, 2, 3])
def test_load_problem_matches_built(example, request, rng):
    adir = ArtifactDir(request.getfixturevalue(f"tiny{example}_dir"))
    man = adir.read_manifest()
    spec = spec_from_manifest(man)
    built = build_problem(spec)
    loaded = load_problem(spec, adir)
    assert loaded.alpha_lb == man["alpha_lb"] == built.alpha_lb
    assert np.array_equal(loaded.model.free, built.model.free)
    assert np.array_equal(loaded.model.dirichlet, built.model.dirichlet)
    for mine, theirs in ((loaded.model.affine_II, built.model.affine_II),
                         (loaded.model.affine_IB, built.model.affine_IB)):
        assert np.array_equal(mine.data, theirs.data)
        assert np.array_equal(mine.template.indices, theirs.template.indices)
        assert np.array_equal(mine.template.indptr, theirs.template.indptr)
    # example 3 opens the EIM pivots alone, the problem the full surrogate
    bench = open_benchmark(spec, adir)
    assert type(bench) is BENCHMARKS[example]
    lo, hi = np.array(spec.param_ranges).T
    for k in rng.uniform(lo, hi, size=(5, len(lo))):
        assert np.allclose(bench.theta(k), built.model.theta_a(k),
                           rtol=1e-12, atol=1e-12)


def test_draw_queries_deterministic(tiny1_dir):
    bench, man = _bench_of(tiny1_dir)
    q1 = bench.draw_queries(6, np.random.default_rng(7))
    q2 = bench.draw_queries(6, np.random.default_rng(7))
    q3 = bench.draw_queries(6, np.random.default_rng(8))
    assert all(b is None and g is None for _, b, g in q1)
    assert np.array_equal(np.array([k for k, _, _ in q1]),
                          np.array([k for k, _, _ in q2]))
    assert not np.array_equal(np.array([k for k, _, _ in q1]),
                              np.array([k for k, _, _ in q3]))
    lo, hi = np.array(man["param_ranges"]).T
    for k, _, _ in q1:
        assert np.all(k >= lo) and np.all(k <= hi)


def test_example2_query_widths_follow_mode_ranks(tiny2_dir):
    bench, man = _bench_of(tiny2_dir)
    r_f, r_g = man["dims_modes"]["r_f"], man["dims_modes"]["r_g"]
    # k first, then the source and then the boundary coordinates
    rng = np.random.default_rng(7)
    lo, hi = np.array(man["param_ranges"]).T
    ks = rng.uniform(lo, hi, size=(6, len(lo)))
    a = rng.standard_normal((6, r_f))
    b = rng.standard_normal((6, r_g))
    queries = bench.draw_queries(6, np.random.default_rng(7))
    for i, (k, ai, bi) in enumerate(queries):
        assert np.array_equal(k, ks[i])
        assert np.array_equal(ai, a[i]) and np.array_equal(bi, b[i])
    # without a trained branch the stand-in net takes the full feature row
    assert not ArtifactDir(tiny2_dir).has("rb_net.json")
    bundle = load_online_bundle(ArtifactDir(tiny2_dir))
    assert bundle.net.sizes[0] == len(lo) + r_f + r_g
    feats = bench.features(*queries[0])[None, :]
    assert bundle.net.forward(feats, bundle.std).shape \
        == (1, man["dims_trunk"]["greedy_n"])


def test_run_eval_galerkin_only(tiny1_dir):
    rep = run_eval(tiny1_dir, n_test=6, seed=2, methods=["rb_galerkin"])
    assert rep.n_samples == 6
    assert set(rep.methods) == {"rb_galerkin"}
    vals = rep.methods["rb_galerkin"].rel_l2
    assert vals.shape == (6,) and np.all(np.isfinite(vals))
    # artifacts land next to the trunks
    saved = json.load(open(os.path.join(tiny1_dir, "report.json")))
    assert saved["n_samples"] == 6
    txt = open(os.path.join(tiny1_dir, "report.txt")).read()
    assert "rb_galerkin" in txt and "note:" in txt


def test_run_train_supervised_branch(tiny1_dir):
    net, std, hist = run_train(tiny1_dir, method="pod", seed=1,
                               config={"epochs": 2, "early_stop": 5})
    assert len(hist.train_loss) == 2
    adir = ArtifactDir(tiny1_dir)
    assert adir.has("pod_params.arr") and adir.has("pod_net.json")
    man = adir.read_manifest()
    assert man["train_pod"]["n_params"] == net.n_params
    assert man["train_pod"]["stopped_epoch"] == hist.stopped_epoch == 1
    assert man["train_pod"]["stop_reason"] == hist.stop_reason == "epochs"
    assert "loss" not in man["train_pod"]["config"]
    history = adir.load_json("pod_net")["history"]
    assert history["stop_reason"] == "epochs"
    assert history["stopped_epoch"] == 1


def test_svg_outputs_are_well_formed(tmp_path, tiny_problem1):
    line = str(tmp_path / "line.svg")
    xs = np.arange(1, 8, dtype=float)
    line_plot(line, [("decay", xs, 10.0 ** -xs)], title="t",
              xlabel="n", ylabel="e", logy=True)
    root = ET.parse(line).getroot()
    assert root.tag.endswith("svg")

    heat = str(tmp_path / "heat.svg")
    mesh = tiny_problem1.mesh
    mesh_heatmap(heat, mesh, np.sin(mesh.nodes[:, 0] * 3.0), title="f")
    root = ET.parse(heat).getroot()
    assert root.tag.endswith("svg")
    assert len(list(root.iter())) > mesh.n_triangles    # one polygon per cell


@pytest.mark.parametrize("example", [1, 2])
def test_mesh_heatmap_points_match_per_triangle_formatting(
        tmp_path, example, tiny_problem1, tiny_problem2):
    # every node is formatted once now; each polygon must read exactly as
    # when its three corners were formatted per triangle
    from rb_operon.svgplot import _fmt

    mesh = {1: tiny_problem1, 2: tiny_problem2}[example].mesh
    path = tmp_path / "heat.svg"
    mesh_heatmap(str(path), mesh, np.sin(mesh.nodes[:, 0] * 3.0), title="f")
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    scale = 400 / max(hi - lo)

    def pt(p):
        x = 30 + (p[0] - lo[0]) * scale
        y = 34 + (hi[1] - p[1]) * scale
        return f"{_fmt(x)},{_fmt(y)}"

    want = [" ".join(pt(mesh.nodes[i]) for i in tri) for tri in mesh.triangles]
    got = [line.split('points="')[1].split('"')[0]
           for line in path.read_text().splitlines()
           if line.startswith("<polygon")]
    assert got == want
