"""Artifact-directory persistence: JSON manifest plus raw binary arrays.

Every run writes into one directory.  Arrays are self-describing files with
a single ASCII header line ``array <dtype> <d0> <d1> ...`` followed by the
raw little-endian C-order bytes, so the same (seed, config) pair always
produces the same bytes.  The manifest is sorted-key JSON and records every
tolerance, seed and dimension that shaped the run.
"""

import dataclasses
import json
import os
import numpy as np

_DTYPES = {"f64": "<f8", "i64": "<i8"}
_CODES = {np.dtype("<f8"): "f64", np.dtype("<i8"): "i64"}
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    """What a run's bytes depend on besides (configuration, seed): the numpy
    and scipy versions, and the BLAS thread settings (None where unset)."""
    import scipy    # loaded already by every numerical module
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            **{var: os.environ.get(var) for var in _THREAD_VARS}}


def save_array(path, arr):
    arr = np.asarray(arr)
    if arr.dtype.kind == "f":
        arr = arr.astype("<f8")
    elif arr.dtype.kind in "iub":
        arr = arr.astype("<i8")
    else:
        raise TypeError(f"unsupported array dtype {arr.dtype}")
    code = _CODES[arr.dtype]
    dims = " ".join(str(d) for d in arr.shape)
    with open(path, "wb") as fh:
        fh.write(f"array {code} {dims}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(arr).tobytes())


def load_array(path):
    with open(path, "rb") as fh:
        head = fh.readline().decode("ascii").split()
        if head[0] != "array" or head[1] not in _DTYPES:
            raise ValueError(f"bad array header in {path}")
        shape = tuple(int(d) for d in head[2:])
        data = fh.read()
    return np.frombuffer(data, dtype=_DTYPES[head[1]]).reshape(shape).copy()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


class ArtifactDir:
    """Named-slot accessor over one run directory."""

    def __init__(self, path):
        self.path = str(path)
        os.makedirs(self.path, exist_ok=True)

    def file(self, name):
        return os.path.join(self.path, name)

    def has(self, name):
        return os.path.exists(self.file(name))

    def save_array(self, name, arr):
        save_array(self.file(name + ".arr"), arr)

    def load_array(self, name):
        return load_array(self.file(name + ".arr"))

    def save_json(self, name, obj):
        text = json.dumps(_jsonable(obj), sort_keys=True, indent=2)
        with open(self.file(name + ".json"), "w") as fh:
            fh.write(text + "\n")

    def load_json(self, name):
        with open(self.file(name + ".json")) as fh:
            return json.load(fh)

    def save_text(self, name, text):
        with open(self.file(name), "w") as fh:
            fh.write(text)

    def write_manifest(self, manifest):
        self.save_json("manifest", manifest)

    def read_manifest(self):
        return self.load_json("manifest")

    def update_manifest(self, **entries):
        manifest = self.read_manifest() if self.has("manifest.json") else {}
        manifest.update(_jsonable(entries))
        self.write_manifest(manifest)
        return manifest


def save_space(adir, prefix, space):
    """Persist an RBSpace under ``<prefix>_*`` slots."""
    adir.save_array(prefix + "_psi", space.psi)
    adir.save_array(prefix + "_a_blocks", space.a_blocks)
    adir.save_array(prefix + "_f_blocks", space.f_blocks)
    adir.save_json(prefix + "_meta", {"provenance": space.provenance})


def load_space(adir, prefix):
    from .reduction import RBSpace

    meta = adir.load_json(prefix + "_meta")
    return RBSpace(
        psi=adir.load_array(prefix + "_psi"),
        a_blocks=adir.load_array(prefix + "_a_blocks"),
        f_blocks=adir.load_array(prefix + "_f_blocks"),
        provenance=meta["provenance"],
    )


def save_net(adir, prefix, net, standardizer, history):
    """Persist branch weights as one flat vector plus layer sizes, and the
    training history."""
    adir.save_array(prefix + "_params", net.flat)
    adir.save_array(prefix + "_feat_mean", standardizer.mean)
    adir.save_array(prefix + "_feat_std", standardizer.std)
    adir.save_json(prefix + "_net", {"sizes": net.sizes,
                                     "history": dataclasses.asdict(history)})


def load_net(adir, prefix):
    from .branchnet import MLP, Standardizer

    meta = adir.load_json(prefix + "_net")
    net = MLP(meta["sizes"], seed=0)
    flat = adir.load_array(prefix + "_params")
    if flat.shape != net.flat.shape:
        raise ValueError("stored parameter vector does not match architecture")
    net.flat[...] = flat
    std = Standardizer(mean=adir.load_array(prefix + "_feat_mean"),
                       std=adir.load_array(prefix + "_feat_std"))
    return net, std, meta["history"]


def save_boundary_modes(adir, modes):
    adir.save_array("bmodes_eta", modes.eta)
    adir.save_json("bmodes_meta", {"trace": modes.trace, "selected": modes.selected})


def load_boundary_modes(adir):
    from .datamodes import BoundaryModes

    meta = adir.load_json("bmodes_meta")
    return BoundaryModes(eta=adir.load_array("bmodes_eta"),
                         trace=np.asarray(meta["trace"], dtype=float),
                         selected=np.asarray(meta["selected"], dtype=np.int64))


def save_source_modes(adir, modes):
    adir.save_array("smodes_w", modes.w)
    adir.save_json("smodes_meta", {"trace": modes.trace, "selected": modes.selected})


def load_source_modes(adir):
    from .datamodes import SourceModes

    meta = adir.load_json("smodes_meta")
    return SourceModes(w=adir.load_array("smodes_w"),
                       trace=np.asarray(meta["trace"], dtype=float),
                       selected=np.asarray(meta["selected"], dtype=np.int64))


def save_surrogate(adir, surrogate):
    rm = surrogate.radial_map
    adir.save_array("eim_points", surrogate.points)
    adir.save_array("eim_basis", surrogate.basis)
    adir.save_array("eim_pivots", np.asarray(surrogate.pivots, dtype=np.int64))
    adir.save_array("eim_tri_mat", surrogate.tri_mat)
    adir.save_json("eim_meta", {
        "selected": surrogate.selected,
        "trace": surrogate.trace,
        "radial_map": {"r_minus": rm.r_minus, "r0": rm.r0, "r_plus": rm.r_plus,
                       "r_min": rm.r_min, "r_max": rm.r_max},
    })


def load_surrogate(adir):
    from .geomap import EimSurrogate, RadialMap

    meta = adir.load_json("eim_meta")
    rm = RadialMap(**meta["radial_map"])
    return EimSurrogate(
        radial_map=rm,
        points=adir.load_array("eim_points"),
        basis=adir.load_array("eim_basis"),
        pivots=adir.load_array("eim_pivots"),
        tri_mat=adir.load_array("eim_tri_mat"),
        selected=np.asarray(meta["selected"], dtype=float),
        trace=np.asarray(meta["trace"], dtype=float),
    )
