import json
import os

import numpy as np
import pytest

from rb_operon.artifacts import (ArtifactDir, load_array, load_boundary_modes,
                                 load_net, load_source_modes, load_space,
                                 load_surrogate, save_array,
                                 save_boundary_modes, save_net,
                                 save_source_modes, save_space, save_surrogate)
from rb_operon.branchnet import MLP, Standardizer, TrainHistory
from rb_operon.datamodes import BoundaryModes, SourceModes
from rb_operon.geomap import EimSurrogate, RadialMap
from rb_operon.reduction import RBSpace


def test_array_roundtrip_float(tmp_path, rng):
    arr = rng.standard_normal((4, 7))
    p = tmp_path / "a.arr"
    save_array(p, arr)
    back = load_array(p)
    assert back.dtype == np.dtype("<f8")
    assert np.array_equal(back, arr)
    with open(p, "rb") as fh:
        assert fh.readline() == b"array f64 4 7\n"


def test_array_roundtrip_int_and_bool(tmp_path):
    p = tmp_path / "a.arr"
    save_array(p, np.array([1, -2, 3], dtype=np.int32))
    back = load_array(p)
    assert back.dtype == np.dtype("<i8")
    assert back.tolist() == [1, -2, 3]
    save_array(p, np.array([True, False]))
    assert load_array(p).tolist() == [1, 0]


def test_array_bytes_deterministic(tmp_path, rng):
    arr = rng.standard_normal((3, 3))
    p1, p2 = tmp_path / "x1.arr", tmp_path / "x2.arr"
    save_array(p1, arr)
    save_array(p2, arr.copy())
    assert p1.read_bytes() == p2.read_bytes()


def test_array_rejects_bad_input(tmp_path):
    with pytest.raises(TypeError):
        save_array(tmp_path / "bad.arr", np.array(["a", "b"]))
    p = tmp_path / "corrupt.arr"
    p.write_bytes(b"matrix f64 2\n" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_array(p)


def test_manifest_sorted_and_deterministic(tmp_path):
    d1 = ArtifactDir(tmp_path / "one")
    d2 = ArtifactDir(tmp_path / "two")
    d1.write_manifest({"b": 2, "a": {"z": 1, "y": [1, 2]}})
    d2.write_manifest({"a": {"y": [1, 2], "z": 1}, "b": 2})
    b1 = (tmp_path / "one" / "manifest.json").read_bytes()
    assert b1 == (tmp_path / "two" / "manifest.json").read_bytes()
    assert d1.read_manifest() == {"a": {"y": [1, 2], "z": 1}, "b": 2}


def test_manifest_update_and_numpy_coercion(tmp_path):
    adir = ArtifactDir(tmp_path / "run")
    adir.write_manifest({"seed": np.int64(3), "tol": np.float64(0.5)})
    adir.update_manifest(dims=np.array([2, 3]))
    man = adir.read_manifest()
    assert man == {"seed": 3, "tol": 0.5, "dims": [2, 3]}
    # plain json must be able to re-read it
    with open(adir.file("manifest.json")) as fh:
        assert json.load(fh) == man


def test_space_roundtrip(tmp_path, rng):
    adir = ArtifactDir(tmp_path / "run")
    space = RBSpace(
        psi=rng.standard_normal((12, 3)),
        a_blocks=rng.standard_normal((2, 3, 3)),
        f_blocks=rng.standard_normal((1, 3)),
        provenance={"method": "greedy", "tol": 1e-6,
                    "spectrum": np.array([1.0, 0.1])},
    )
    save_space(adir, "trunk", space)
    back = load_space(adir, "trunk")
    for name in ("psi", "a_blocks", "f_blocks"):
        assert np.array_equal(getattr(back, name), getattr(space, name))
    assert back.provenance["method"] == "greedy"
    assert back.provenance["spectrum"] == [1.0, 0.1]


def test_space_roundtrip_without_mass(tmp_path, rng):
    adir = ArtifactDir(tmp_path / "run")
    space = RBSpace(psi=rng.standard_normal((5, 2)),
                    a_blocks=rng.standard_normal((1, 2, 2)),
                    f_blocks=rng.standard_normal((1, 2)),
                    provenance={})
    save_space(adir, "t", space)
    # three arrays and the meta; no reduced mass block is written
    assert sorted(os.listdir(adir.path)) == [
        "t_a_blocks.arr", "t_f_blocks.arr", "t_meta.json", "t_psi.arr"]
    assert load_space(adir, "t").provenance == {}


def test_net_roundtrip(tmp_path, rng):
    adir = ArtifactDir(tmp_path / "run")
    net = MLP([3, 8, 2], seed=9)
    std = Standardizer.fit(rng.standard_normal((20, 3)))
    hist = TrainHistory(train_loss=[1.0, 0.5], val_loss=[1.1, 0.6],
                        lr=[1e-3, 1e-3], best_epoch=1, stopped_epoch=-1)
    save_net(adir, "branch", net, std, hist)
    net2, std2, hist2 = load_net(adir, "branch")
    x = rng.standard_normal((6, 3))
    assert np.array_equal(net2.forward(x, std2), net.forward(x, std))
    assert np.array_equal(std2.mean, std.mean)
    assert np.array_equal(std2.std, std.std)
    assert hist2["best_epoch"] == 1
    assert hist2["val_loss"] == [1.1, 0.6]


def test_net_parameters_are_views_of_flat(tmp_path, rng):
    net = MLP([3, 8, 5, 2], seed=9)
    assert net.flat.ndim == 1 and net.flat.size == net.n_params
    for p in net.weights + net.biases:
        assert np.shares_memory(p, net.flat)
    # weights first, then biases, each layer in order
    assert np.array_equal(net.flat, np.concatenate(
        [p.ravel() for p in net.parameters()]))
    net.flat += rng.standard_normal(net.flat.size)
    net.biases[1][2] = 7.0
    assert net.flat[net.n_weights + 8 + 2] == 7.0
    save_net(ArtifactDir(tmp_path / "run"), "branch", net,
             Standardizer.fit(rng.standard_normal((20, 3))), TrainHistory())
    stored = load_array(tmp_path / "run" / "branch_params.arr")
    assert np.array_equal(stored, net.flat)


def test_net_load_rejects_size_mismatch(tmp_path, rng):
    adir = ArtifactDir(tmp_path / "run")
    net = MLP([3, 8, 2], seed=9)
    std = Standardizer.fit(rng.standard_normal((20, 3)))
    save_net(adir, "branch", net, std, TrainHistory())
    meta = adir.load_json("branch_net")
    meta["sizes"] = [3, 4, 2]
    adir.save_json("branch_net", meta)
    with pytest.raises(ValueError):
        load_net(adir, "branch")


def test_modes_roundtrip(tmp_path, rng):
    adir = ArtifactDir(tmp_path / "run")
    bm = BoundaryModes(eta=rng.standard_normal((6, 2)),
                       trace=np.array([1.0, 0.1]),
                       selected=np.array([4, 1], dtype=np.int64))
    save_boundary_modes(adir, bm)
    back = load_boundary_modes(adir)
    assert np.array_equal(back.eta, bm.eta)
    assert np.array_equal(back.trace, bm.trace)
    assert np.array_equal(back.selected, bm.selected)

    sm = SourceModes(w=rng.standard_normal((10, 3)),
                     trace=np.array([2.0, 0.5, 0.01]),
                     selected=np.array([0, 5, 2], dtype=np.int64))
    save_source_modes(adir, sm)
    back = load_source_modes(adir)
    assert np.array_equal(back.w, sm.w)
    assert np.array_equal(back.selected, sm.selected)


def test_surrogate_roundtrip(tmp_path, rng):
    adir = ArtifactDir(tmp_path / "run")
    rm = RadialMap(r_minus=0.03, r0=0.2, r_plus=0.6, r_min=0.05, r_max=0.45)
    sur = EimSurrogate(radial_map=rm,
                       points=rng.standard_normal((9, 2)),
                       basis=rng.standard_normal((27, 4)),
                       pivots=np.array([3, 11, 0, 26], dtype=np.int64),
                       tri_mat=np.tril(rng.standard_normal((4, 4))),
                       selected=np.array([0.1, 0.2, 0.3, 0.4]),
                       trace=np.array([4.0, 2.0, 1.0, 0.5]))
    save_surrogate(adir, sur)
    back = load_surrogate(adir)
    assert back.radial_map == rm
    for name in ("points", "basis", "pivots", "tri_mat", "selected", "trace"):
        assert np.array_equal(getattr(back, name), getattr(sur, name))
