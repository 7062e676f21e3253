"""Certified reduced-basis operator learning for parametric elliptic PDEs.

Offline: a P1 finite element truth solver, greedy and snapshot-based trunk
construction with a certified residual estimator, modal compression of
load/boundary data, and interpolation of non-affine coefficient tensors.
Online: a branch network trained without labels against the reduced
variational residual, next to the plain reduced Galerkin solve.

Attribute access is lazy so the command-line driver can cap BLAS thread
counts before numpy is first imported.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # meshes
    "TriMesh": ".mesh",
    "unit_square_mesh": ".mesh",
    "square_with_inclusion_mesh": ".mesh",
    "dirichlet_nodes": ".mesh",
    "read_mesh_text": ".mesh",
    "write_mesh_text": ".mesh",
    "min_angle_deg": ".mesh",
    # assembly and the parametric operator family
    "assemble_stiffness": ".assembly",
    "assemble_mass": ".assembly",
    "assemble_boundary_mass": ".assembly",
    "assemble_load_volume": ".assembly",
    "assemble_load_boundary": ".assembly",
    "load_quadrature": ".assembly",
    "ParametricModel": ".assembly",
    "truth_solve": ".assembly",
    "aggregated_load": ".assembly",
    "discrete_lifting": ".assembly",
    "full_field": ".assembly",
    # reduced spaces
    "RBSpace": ".reduction",
    "OnlineRB": ".reduction",
    "greedy_build": ".reduction",
    "pod_build": ".reduction",
    "solve_reduced_batch": ".reduction",
    "coercivity_lower_bound": ".reduction",
    "v_orthonormalize": ".reduction",
    # geometry map and tensor interpolation
    "RadialMap": ".geomap",
    "EimSurrogate": ".geomap",
    "eim_build": ".geomap",
    "eim_coefficients": ".geomap",
    # data-family compression
    "BoundaryModes": ".datamodes",
    "SourceModes": ".datamodes",
    "boundary_greedy": ".datamodes",
    "source_greedy": ".datamodes",
    "encode_boundary": ".datamodes",
    "encode_source": ".datamodes",
    "case2_blocks": ".datamodes",
    "reduced_rhs_case2": ".datamodes",
    # branch networks
    "MLP": ".branchnet",
    "Standardizer": ".branchnet",
    "TrainConfig": ".branchnet",
    "ResidualData": ".branchnet",
    "SupervisedData": ".branchnet",
    "train": ".branchnet",
    "supervised_loss": ".branchnet",
    # benchmarks
    "ExampleSpec": ".examples",
    "example_spec": ".examples",
    "build_mesh": ".examples",
    "build_problem": ".examples",
    "ManufacturedSolution": ".examples",
    # metrics and reports
    "MetricsReport": ".metrics",
    "sample_metrics": ".metrics",
    "percentile_95": ".metrics",
    # artifacts
    "ArtifactDir": ".artifacts",
    "save_array": ".artifacts",
    "load_array": ".artifacts",
    # orchestration
    "run_offline": ".pipeline",
    "run_train": ".pipeline",
    "run_eval": ".pipeline",
    "run_bench": ".pipeline",
    "online_budget_audit": ".pipeline",
    "load_online_bundle": ".pipeline",
    "online_query": ".pipeline",
}

__all__ = sorted(_EXPORTS) + ["errors", "__version__"]


def __getattr__(name):
    if name == "errors":
        return import_module(".errors", __name__)
    if name in _EXPORTS:
        module = import_module(_EXPORTS[name], __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
