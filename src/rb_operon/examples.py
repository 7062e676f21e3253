"""Benchmark problem definitions: domains, geometry, data families.

Three parametric elliptic problems exercise the toolkit end to end:

1. diffusion with a circular inclusion on (-1/2,1/2)^2, Dirichlet top,
   flux load on the base; parameters (contrast k1, flux k2).
2. reaction-diffusion with a Robin edge on the unit square; the operator
   parameters (kappa0, alpha0, beta0) ride along independently sampled
   manufactured data, so loads and Dirichlet traces vary freely.
3. the inclusion problem with a parameterized inclusion radius, pulled back
   to the reference mesh by a radial map and compressed with EIM.

All that differs per example lives in the benchmark objects ``Example1`` to
``Example3`` below, problem construction included: the Dirichlet sides,
affine terms and coercivity bound on a mesh, and the state read back from
an artifact directory; theta(k), which takes one parameter row or a stack
of rows and serves the truth model, the greedy sweep, the batched stages
and the online query alike; the load, held once as load terms and
``load_weights(k, a, b)`` with the same rows-in, rows-out contract (the
model holds none; every reduced load is ``load_weights @ f_blocks``);
branch features; sample pools and truth solves; run defaults and gates.
"""

import numpy as np
from dataclasses import dataclass, field
from functools import cached_property
from scipy.sparse.linalg import LinearOperator, eigsh

from .artifacts import (load_boundary_modes, load_source_modes,
                        load_surrogate, save_boundary_modes,
                        save_source_modes, save_surrogate)
from .assembly import (ParametricModel, aggregated_load, assemble_stiffness,
                       assemble_mass, assemble_boundary_mass,
                       assemble_load_boundary, load_quadrature, truth_solve)
from .datamodes import (boundary_greedy, case2_blocks, encode_boundary,
                        encode_source, encoded_load_terms,
                        encoded_load_weights, source_greedy)
from .geomap import (EimPivots, RadialMap, assemble_eim_terms, eim_build,
                     eim_coefficients)
from .mesh import (unit_square_mesh, square_with_inclusion_mesh,
                   dirichlet_nodes, read_mesh_text)
from .reduction import coercivity_lower_bound
from .svgplot import line_plot

HIDDEN_SIZES = (256, 256, 256, 256)

# branch shape is fixed; only the input/output widths vary per benchmark
NOMINAL_PARAM_COUNTS = {1: 198915, 2: 288977, 3: 199685}

# grid of the pullback tensor floor: radial positions, inclusion radii
_FLOOR_RHO = 2000
_FLOOR_RADII = 101


@dataclass(frozen=True)
class ExampleSpec:
    """Pinned constants of one benchmark: domain, recipe, tolerances, sizes."""

    example: int
    param_ranges: tuple        # ((lo, hi), ...) per parameter coordinate
    k_star: tuple
    mesh_recipe: dict
    # pod_fixed_n (absent: POD's energy criterion), and the greedy's required
    # cap greedy_fixed_n with an optional greedy_tol that stops it earlier
    trunk: dict
    data: dict = field(default_factory=dict)
    n_pool: int = 2000         # POD snapshots, greedy training set, data rows
    n_train: int = 2000
    n_val: int = 200
    n_test: int = 1000

    def __post_init__(self):
        if self.example not in (1, 2, 3):
            raise ValueError("example id must be 1, 2 or 3")
        pr = np.asarray(self.param_ranges, dtype=float)
        if pr.ndim != 2 or pr.shape[1] != 2 or np.any(pr[:, 1] <= pr[:, 0]):
            raise ValueError("parameter ranges must be nonempty intervals")
        ks = np.asarray(self.k_star, dtype=float)
        if ks.shape != (pr.shape[0],) or np.any(ks < pr[:, 0]) or np.any(ks > pr[:, 1]):
            raise ValueError("reference parameter outside the domain")

    @property
    def n_params(self):
        return len(self.param_ranges)


def example_spec(example):
    """The three pinned benchmark configurations."""
    if example == 1:
        return ExampleSpec(
            example=1,
            param_ranges=((0.1, 10.0), (-1.0, 1.0)),
            k_star=(1.0, 1.0),
            mesh_recipe={"kind": "inclusion", "r0": 0.2, "h": 1.0 / 43.0},
            trunk={"pod_fixed_n": 3, "greedy_fixed_n": 3},
            n_pool=2100,
            n_train=2000,
            n_val=200,
        )
    if example == 2:
        return ExampleSpec(
            example=2,
            param_ranges=((0.5, 2.0), (0.0, 2.0), (0.0, 10.0)),
            k_star=(1.2, 0.6, 1.0),
            mesh_recipe={"kind": "unit_square", "n": 64},
            # target ranks cap the certified greedy; the configured
            # tolerances stay active and the reached indicator is recorded
            # in each greedy trace
            trunk={"greedy_tol": 1e-7, "greedy_fixed_n": 209},
            data={
                # (a1, a2, a3, a4, xc, yc, sigma)
                "xi_ranges": ((-1.0, 1.0), (-1.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                              (0.2, 0.8), (0.2, 0.8), (0.05, 0.2)),
                "mode_tol": 1e-7,
                "r_f_max": 128,
                "r_g_max": 16,
                # the greedy's training set: the first sweep_subset pool draws
                "sweep_subset": 3000,
            },
            n_pool=10000,
            n_train=8000,
            n_val=2000,
        )
    if example == 3:
        return ExampleSpec(
            example=3,
            param_ranges=((0.1, 10.0), (-1.0, 1.0), (0.05, 0.45)),
            k_star=(1.0, 1.0, 0.2),
            mesh_recipe={"kind": "inclusion", "r0": 0.2, "h": 1.0 / 43.0},
            trunk={"pod_fixed_n": 5, "greedy_fixed_n": 5},
            data={
                "radial": {"r_minus": 0.03, "r0": 0.2, "r_plus": 0.6,
                           "r_min": 0.05, "r_max": 0.45},
                "eim_q": 15,
                "eim_train": 256,
            },
            n_pool=4000,
            n_train=2000,
            n_val=200,
        )
    raise ValueError("example id must be 1, 2 or 3")


def build_mesh(spec):
    recipe = spec.mesh_recipe
    if recipe["kind"] == "inclusion":
        return square_with_inclusion_mesh(r0=recipe["r0"], h=recipe["h"])
    if recipe["kind"] == "unit_square":
        return unit_square_mesh(recipe["n"])
    raise ValueError(f"unknown mesh recipe {recipe['kind']!r}")


def _uniform_box(rng, ranges, n):
    r = np.asarray(ranges, dtype=float)
    return rng.uniform(r[:, 0], r[:, 1], size=(n, r.shape[0]))


def sample_parameters(spec, n, rng):
    """i.i.d. uniform draws from the parameter box."""
    return _uniform_box(rng, spec.param_ranges, n)


def sample_xi(spec, n, rng):
    """Data-family draws (the manufactured-solution knobs)."""
    if "xi_ranges" not in spec.data:
        raise ValueError("this example has no independent data family")
    return _uniform_box(rng, spec.data["xi_ranges"], n)


class ManufacturedSolution:
    """Closed-form scalar field: two sine products, a Gaussian bump and a
    cos*sinh term, with hand-differentiated gradient and Laplacian.

    Batched over xi: built from a stack of m rows (a1, a2, a3, a4, xc, yc,
    sigma).  At n points, ``value`` and ``laplacian`` return (n, m) and
    ``grad`` returns (n, m, 2).  The xi-independent sine, cosine and sinh
    factors are computed once per call, for all rows together.
    """

    def __init__(self, xi):
        xi = np.asarray(xi, dtype=float)
        if xi.ndim != 2 or xi.shape[1] != 7:
            raise ValueError("xi must be a stack of rows of 7 values")
        if np.any(xi[:, 6] <= 0):
            raise ValueError("sigma must be positive")
        self.rows = xi

    def _parts(self, x):
        """Point factors, then per (point, row): the offsets dx, dy, their
        squared length r2, sigma^2 and a3 times the bump."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rows = self.rows
        dx = x[:, 0, None] - rows[:, 4]
        dy = x[:, 1, None] - rows[:, 5]
        r2 = dx * dx + dy * dy
        s2 = rows[:, 6] ** 2
        bump = rows[:, 2] * np.exp(-r2 / (2.0 * s2))
        return (np.pi * x[:, 0], np.pi * x[:, 1], x[:, 1] - 0.5,
                dx, dy, r2, s2, bump)

    def _sum(self, smooth, rest):
        """Point factors weighted by (a1, a2, a4) per row, plus ``rest``."""
        return np.column_stack(smooth) @ self.rows[:, [0, 1, 3]].T + rest

    def value(self, x):
        px, py, y5, _, _, _, _, bump = self._parts(x)
        sy = np.sin(py)
        return self._sum((np.sin(px) * sy, np.sin(2 * px) * sy,
                          np.cos(px) * np.sinh(y5)), bump)

    def grad(self, x):
        px, py, y5, dx, dy, _, s2, bump = self._parts(x)
        pi = np.pi
        sx, cx, sy, cy = np.sin(px), np.cos(px), np.sin(py), np.cos(py)
        gx = self._sum((pi * cx * sy, 2 * pi * np.cos(2 * px) * sy,
                        -pi * sx * np.sinh(y5)), -dx / s2 * bump)
        gy = self._sum((pi * sx * cy, pi * np.sin(2 * px) * cy,
                        cx * np.cosh(y5)), -dy / s2 * bump)
        return np.stack([gx, gy], axis=-1)

    def laplacian(self, x):
        px, py, y5, _, _, r2, s2, bump = self._parts(x)
        pi2 = np.pi ** 2
        sy = np.sin(py)
        return self._sum((-2 * pi2 * np.sin(px) * sy,
                          -5 * pi2 * np.sin(2 * px) * sy,
                          (1.0 - pi2) * np.cos(px) * np.sinh(y5)),
                         bump * (r2 / s2 ** 2 - 2.0 / s2))


@dataclass
class Problem:
    """Assembled benchmark: the parametric model plus metric weights."""

    mesh: object
    model: object
    alpha_lb: float
    bench: object             # the example's benchmark object

    @cached_property
    def m_ii(self):
        """Interior mass matrix, the weight of the L2 error measures."""
        free = self.model.free
        return assemble_mass(self.mesh)[free][:, free].tocsr()


def _diffusion_floor(model):
    """Smallest generalized eigenvalue of K v = lam A_star v, K the diffusion
    block, by shift-invert about 0 through the model's band factor of K."""
    kii = model.affine_II.term(0)
    fac = model.band.factor(kii, "diffusion block")
    op_inv = LinearOperator(kii.shape, matvec=fac.solve, dtype=float)
    # a fixed start vector keeps ARPACK, and so alpha_lb, deterministic
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, kii.shape[0])
    lam = eigsh(kii, k=1, M=model.a_star_II, sigma=0.0, which="LM", v0=v0,
                OPinv=op_inv, return_eigenvectors=False)
    return float(lam[0])


def _radial_tensor_floor(rm):
    """Min eigenvalue of the pullback tensor over radius and position."""
    rho = np.linspace(1e-6, np.sqrt(2.0) / 2.0, _FLOOR_RHO)
    best = np.inf
    for r in np.linspace(rm.r_min, rm.r_max, _FLOOR_RADII):
        s, ds = rm.mapped_radius(rho, r)
        phi = s / rho
        lam = np.minimum(phi / ds, ds / phi)
        best = min(best, float(lam.min()))
    return best


def _box_corners(ranges):
    r = np.asarray(ranges, dtype=float)
    grids = np.meshgrid(*[r[i] for i in range(r.shape[0])], indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def build_problem(spec, mesh=None, bench=None):
    """Mesh, boundary split, affine operator family and coercivity bound;
    ``bench`` is a fresh benchmark object when None (example 3's builds its
    surrogate on the mesh)."""
    if mesh is None:
        mesh = build_mesh(spec)
    if bench is None:
        bench = BENCHMARKS[spec.example](spec, None)
    model, alpha_lb = bench.build(mesh)
    return Problem(mesh=mesh, model=model, alpha_lb=alpha_lb, bench=bench)


def load_problem(spec, adir):
    """The problem a finished offline stage in ``adir`` was built on."""
    return build_problem(
        spec, mesh=read_mesh_text(adir.file("mesh.txt")),
        bench=BENCHMARKS[spec.example].reopen(spec, adir))


def example2_load(problem, ks, ms, maps):
    """Exact-data loads (volume + flux + Robin) and Dirichlet traces of a
    chunk of draws: ``ks`` stacks the operator parameters, ``ms`` the
    matching manufactured solutions, and ``maps`` holds the volume,
    ``bottom`` and ``right`` quadrature maps of ``load_quadrature``.
    Returns (loads on free nodes, traces), one column per draw."""
    k0, al, be = np.asarray(ks, dtype=float).T
    (vol, q_vol), (bottom, q_bottom), (right, q_right) = maps
    vec = q_vol @ (k0 * (-ms.laplacian(vol)) + al * ms.value(vol))
    # outward normal is (0,-1) on the bottom edge and (1,0) on the right
    vec += q_bottom @ (-k0 * ms.grad(bottom)[..., 1])
    vec += q_right @ (k0 * ms.grad(right)[..., 0] + be * ms.value(right))
    g_b = ms.value(problem.mesh.nodes[problem.model.dirichlet])
    return vec[problem.model.free], g_b


def example3_direct_operator(problem, k3):
    """Full-order stiffness blocks with the exact pullback tensor at k3."""
    mesh = problem.mesh
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    g = problem.bench.eim.radial_map.jacobian_tensor(cent, k3)
    a0 = assemble_stiffness(mesh, region=0, coefficient=g)
    a1 = assemble_stiffness(mesh, region=1, coefficient=g)
    return a0, a1


def example3_direct_solve(problem, k):
    """Truth solve against the exactly assembled (non-affine) operator."""
    a0, a1 = example3_direct_operator(problem, float(k[2]))
    a = (float(k[0]) * a0 + a1).tocsr()
    free = problem.model.free
    fac = problem.model.band.factor(a[free][:, free],
                                    "exact pullback interior operator")
    bench = problem.bench
    return fac.solve(bench.load_terms @ bench.load_weights(k, None, None))


# draws whose quadrature-point values are held at once
_LOAD_CHUNK = 32


def _data_loads(problem, ks, xis):
    """Loads and Dirichlet traces of data draws (columns).

    The quadrature maps are built once; the draws are then loaded in chunks
    of ``_LOAD_CHUNK``, so no array spans quadrature points times all draws.
    """
    model, mesh = problem.model, problem.mesh
    maps = [load_quadrature(mesh, seg) for seg in (None, "bottom", "right")]
    f_data = np.empty((model.n_free, len(ks)))
    g_data = np.empty((len(model.dirichlet), len(ks)))
    for lo in range(0, len(ks), _LOAD_CHUNK):
        sl = slice(lo, lo + _LOAD_CHUNK)
        f_data[:, sl], g_data[:, sl] = example2_load(
            problem, ks[sl], ManufacturedSolution(xis[sl]), maps)
    return f_data, g_data


class Example1:
    """Inclusion diffusion: load k2 F_base, branch features k.  Methods take
    one parameter row ``k`` or stacked rows, and the modal data coordinates
    (a, b) that only example 2 has (None elsewhere)."""

    pod = True                # run_bench default
    # (method, measure, statistic, bound); rows of absent methods are skipped
    gates = (("rb_galerkin", "rel_l2", "mean", 1e-5),
             ("rb_galerkin", "rel_residual", "mean", 1e-12),
             ("rb_deeponet", "rel_l2", "mean", 2e-2),
             ("rb_deeponet", "rel_l2", "p95", 5e-2),
             ("pod_deeponet", "rel_l2", "mean", 2e-2))
    # (label, manifest section, key, nominal), each gated to within 30 %
    nominal_dims = ()
    n_params = NOMINAL_PARAM_COUNTS[1]    # branch parameter count, if pinned

    def __init__(self, spec, eim, ranks=()):
        self.spec = spec
        self.eim = eim        # example 3: EimSurrogate or its EimPivots
        self.ranks = ranks    # example 2: (r_f, r_g), mode coordinates in features
        self.load_terms = None    # examples 1 and 3: F_base[free], set by build

    @classmethod
    def open(cls, spec, adir):
        """The benchmark with the mesh-free state it reads from ``adir``."""
        return cls(spec, None)

    @classmethod
    def reopen(cls, spec, adir):
        """The benchmark ``load_problem`` rebuilds the problem with: what
        ``open`` reads, but example 3's full surrogate for its pivots."""
        return cls.open(spec, adir)

    def build(self, mesh):
        """Affine operator family on ``mesh`` and its coercivity bound
        (Dirichlet top); sets the load term, the unit flux on the base."""
        bd = dirichlet_nodes(mesh, ["top"])
        free = np.setdiff1d(np.arange(mesh.n_nodes), bd)
        f_base = assemble_load_boundary(mesh, "base", lambda x: np.ones(len(x)))
        self.load_terms = f_base[free, None]
        a_terms, a_star = self.operator_terms(mesh)
        model = ParametricModel(mesh, free, bd, self.theta, a_terms,
                                self.spec.k_star, a_star=a_star)
        return model, self.coercivity(model)

    def operator_terms(self, mesh):
        """Affine stiffness terms and the reference operator (None: the
        terms weighted at k_star)."""
        return [assemble_stiffness(mesh, region=r) for r in (0, 1)], None

    def coercivity(self, model):
        """alpha_lb: the smallest bound over the parameter box's corners."""
        return coercivity_lower_bound(
            model, samples=_box_corners(self.spec.param_ranges))

    def theta(self, k):
        """Operator weights theta_a(k): (Q_a,) for one parameter row (p,),
        (n, Q_a) for a stack of rows (n, p)."""
        k = np.asarray(k, dtype=float)
        if k.ndim == 1:
            return np.array([k[0], 1.0])
        out = np.ones((len(k), 2))
        out[:, 0] = k[:, 0]
        return out

    def load_weights(self, k, a, b):
        """Weights of ``load_terms``, (k2,): (1,) for one parameter row,
        (n, 1) for a stack of rows."""
        return np.asarray(k, dtype=float)[..., 1, None]

    def features(self, k, a, b):
        return np.asarray(k, dtype=float)

    def feature_width(self):
        return self.spec.n_params + sum(self.ranks)

    def draw_queries(self, n, rng):
        """n seeded online query inputs (k, a, b)."""
        return [(k, None, None) for k in sample_parameters(self.spec, n, rng)]

    def rhs_blocks(self, space):
        """The online bundle's ``blocks`` (example 2's modal blocks), read
        only by the ``rbbench/`` harness: ``QueryInputs``, ``setup_probe.py``
        and ``Stream.failed``.  ROADMAP direction 1 deletes them."""
        return None

    def offline_data(self, problem, adir, rng, manifest):
        """Persist the pool and the example's own offline data; returns
        (params, load terms, their weights per pool row, the number of
        leading pool rows the greedy trains on).

        The pool's loads are the benchmark's own: ``load_terms`` weighted
        by ``load_weights`` of each pool row.
        """
        ks = sample_parameters(self.spec, self.spec.n_pool, rng)
        adir.save_array("pool_params", ks)
        return ks, self.load_terms, self.load_weights(ks, None, None), len(ks)

    def pool_rows(self, adir):
        """(k, a, b) of the persisted pool."""
        return adir.load_array("pool_params"), None, None

    def train_rows(self, adir, seed):
        """(k, a, b) the residual-trained branch sees: fresh draws."""
        n = self.spec.n_train + self.spec.n_val
        rng = np.random.default_rng(seed)
        return sample_parameters(self.spec, n, rng), None, None

    def eval_data(self, problem, adir, ks, rng):
        """Truth, lifting and Dirichlet trace per test row, plus (a, b)."""
        u_ref = np.vstack([self.truth(problem, k) for k in ks])
        g_b = np.zeros((len(ks), len(problem.model.dirichlet)))
        return u_ref, np.zeros_like(u_ref), g_b, None, None

    def truth(self, problem, k):
        return truth_solve(problem.model, k,
                           self.load_terms @ self.load_weights(k, None, None))


class Example3(Example1):
    """Example 1 with the inclusion radius k3: EIM weights, exact truth."""

    gates = (("rb_galerkin", "rel_l2", "mean", 5e-3),
             ("rb_deeponet", "rel_l2", "mean", 8e-2))
    n_params = NOMINAL_PARAM_COUNTS[3]

    @classmethod
    def open(cls, spec, adir):
        pivots = adir.load_array("eim_pivots")
        eim = EimPivots(RadialMap(**adir.load_json("eim_meta")["radial_map"]),
                        adir.load_array("eim_points")[pivots // 3], pivots % 3,
                        adir.load_array("eim_tri_mat"))
        return cls(spec, eim)

    @classmethod
    def reopen(cls, spec, adir):
        return cls(spec, load_surrogate(adir))

    def operator_terms(self, mesh):
        """EIM terms outside, then inside the inclusion, against the plain
        stiffness; the surrogate is built over the centroids if not given."""
        if self.eim is None:
            rm = RadialMap(**self.spec.data["radial"])
            centroids = mesh.nodes[mesh.triangles].mean(axis=1)
            radii = np.linspace(rm.r_min, rm.r_max, self.spec.data["eim_train"])
            self.eim = eim_build(rm, centroids, radii,
                                 q_max=self.spec.data["eim_q"])
        inside, outside = assemble_eim_terms(mesh, self.eim)
        return list(outside) + list(inside), assemble_stiffness(mesh)

    def coercivity(self, model):
        floor = _radial_tensor_floor(self.eim.radial_map)
        return min(1.0, self.spec.param_ranges[0][0]) * floor * 0.95

    def theta(self, k):
        k = np.asarray(k, dtype=float)
        alpha = eim_coefficients(self.eim, k[..., 2])
        return np.concatenate([alpha, k[..., 0, None] * alpha], axis=-1)

    def offline_data(self, problem, adir, rng, manifest):
        save_surrogate(adir, self.eim)
        manifest["dims_eim"] = {"q": self.eim.rank}
        line_plot(adir.file("eim_decay.svg"),
                  [("sup-norm error", np.arange(1, self.eim.rank + 1),
                    self.eim.trace)],
                  title="tensor interpolation greedy",
                  xlabel="basis size", ylabel="training error", logy=True)
        return super().offline_data(problem, adir, rng, manifest)

    truth = staticmethod(example3_direct_solve)     # exact, not EIM-affine


class Example2(Example1):
    """Reaction-diffusion with independent manufactured data, compressed
    into modes whose coordinates (a, b) join k in features and load."""

    pod = False
    gates = (("rb_galerkin", "rel_l2", "mean", 1e-2),
             ("rb_deeponet", "rel_l2", "mean", 5e-2))
    nominal_dims = (("trunk dimension", "dims_trunk", "greedy_n", 209),
                    ("source rank", "dims_modes", "r_f", 128),
                    ("boundary rank", "dims_modes", "r_g", 16))
    n_params = None           # the input width follows the mode ranks

    @classmethod
    def open(cls, spec, adir):
        modes = adir.read_manifest()["dims_modes"]
        return cls(spec, None, ranks=(modes["r_f"], modes["r_g"]))

    def build(self, mesh):
        """Diffusion, reaction and Robin terms (Dirichlet left and top; the
        data come per draw) and their coercivity bound."""
        bd = dirichlet_nodes(mesh, ["left", "top"])
        free = np.setdiff1d(np.arange(mesh.n_nodes), bd)
        a_terms = [assemble_stiffness(mesh), assemble_mass(mesh),
                   assemble_boundary_mass(mesh, "right")]
        model = ParametricModel(mesh, free, bd, self.theta, a_terms,
                                self.spec.k_star)
        # reaction and Robin weights may vanish, so certify against the
        # diffusion block alone: a(v,v;k) >= kappa0_min * lam_min(K vs A_star).
        return model, self.spec.param_ranges[0][0] * _diffusion_floor(model)

    def theta(self, k):
        return np.asarray(k, dtype=float)

    def load_weights(self, k, a, b):
        """Weights [a, theta_1 b, ..., theta_Q b] of the encoded load, row
        by row as ``encoded_load_weights``."""
        return encoded_load_weights(self.theta(k), a, b)

    def features(self, k, a, b):
        return np.concatenate([k, a, b], axis=-1)

    def draw_queries(self, n, rng):
        ks = sample_parameters(self.spec, n, rng)
        a = rng.standard_normal((n, self.ranks[0]))
        b = rng.standard_normal((n, self.ranks[1]))
        return list(zip(ks, a, b))

    def rhs_blocks(self, space):
        return case2_blocks(space.f_blocks, *self.ranks)

    def offline_data(self, problem, adir, rng, manifest):
        """Also persists the data modes and the pool's coordinates (a, b) in
        them.  The loads are the encoded ones every answer solves: the terms
        ``encoded_load_terms``, the weights [a, theta b] of each pool row.
        The trunks' ``f_blocks`` project these terms.  The greedy trains on
        the first ``sweep_subset`` pool rows."""
        spec, model = self.spec, problem.model
        ks = sample_parameters(spec, spec.n_pool, rng)
        adir.save_array("pool_params", ks)
        xis = sample_xi(spec, spec.n_pool, rng)
        f_data, g_data = _data_loads(problem, ks, xis)
        smodes = source_greedy(model, f_data, tol=spec.data["mode_tol"],
                               r_max=spec.data["r_f_max"], rng=rng)
        bmodes = boundary_greedy(model, g_data, tol=spec.data["mode_tol"],
                                 r_max=spec.data["r_g_max"], rng=rng)
        save_source_modes(adir, smodes)
        save_boundary_modes(adir, bmodes)
        a = encode_source(smodes, f_data).T
        b = encode_boundary(bmodes, model, g_data).T
        adir.save_array("pool_a", a)
        adir.save_array("pool_b", b)
        manifest["dims_modes"] = {"r_f": smodes.rank, "r_g": bmodes.rank}
        return (ks, encoded_load_terms(model, bmodes, smodes),
                self.load_weights(ks, a, b),
                min(int(spec.data["sweep_subset"]), spec.n_pool))

    def pool_rows(self, adir):
        return tuple(adir.load_array(name)
                     for name in ("pool_params", "pool_a", "pool_b"))

    def train_rows(self, adir, seed):
        return self.pool_rows(adir)

    def eval_data(self, problem, adir, ks, rng):
        model = problem.model
        xis = sample_xi(self.spec, len(ks), rng)
        f_data, g_b = _data_loads(problem, ks, xis)
        f_hat = aggregated_load(model, ks, f_data, g_b)
        lift = (model.lift_block @ g_b).T
        u_ref = np.vstack([truth_solve(model, k, f_hat[:, i])
                           for i, k in enumerate(ks)]) + lift
        a = encode_source(load_source_modes(adir), f_data).T
        b = encode_boundary(load_boundary_modes(adir), model, g_b).T
        return u_ref, lift, g_b.T, a, b


BENCHMARKS = {1: Example1, 2: Example2, 3: Example3}


def open_benchmark(spec, adir):
    """The benchmark with the mesh-free state it reads from ``adir``: the
    data-mode ranks of example 2, the EIM pivots of example 3."""
    return BENCHMARKS[spec.example].open(spec, adir)
