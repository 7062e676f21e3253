import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import splu

from rb_operon.assembly import (aggregated_load, assemble_load_boundary,
                                assemble_mass, assemble_stiffness, full_field,
                                interior_factor, truth_solve,
                                triangle_geometry)
from rb_operon.errors import NotCoerciveError
from rb_operon.examples import (_LOAD_CHUNK, Example1, Example2, ExampleSpec,
                                ManufacturedSolution, _box_corners,
                                _data_loads, build_mesh, build_problem,
                                example3_direct_operator,
                                example3_direct_solve, example_spec,
                                sample_parameters, sample_xi)
from rb_operon.pipeline import apply_overrides


# Per-draw reference for the batched data loads: one xi row at a time, loads
# scattered with np.add.at, and the lifting through the operator assembled at
# k.

class ScalarSolution:
    """The manufactured solution of one xi row, evaluated term by term."""

    def __init__(self, xi):
        self.a1, self.a2, self.a3, self.a4, self.xc, self.yc, self.sigma = (
            float(v) for v in xi)

    def _bump(self, x):
        dx = x[:, 0] - self.xc
        dy = x[:, 1] - self.yc
        return dx, dy, np.exp(-(dx * dx + dy * dy) / (2.0 * self.sigma ** 2))

    def value(self, x):
        xx, yy = x[:, 0], x[:, 1]
        pi = np.pi
        _, _, bump = self._bump(x)
        return (self.a1 * np.sin(pi * xx) * np.sin(pi * yy)
                + self.a2 * np.sin(2 * pi * xx) * np.sin(pi * yy)
                + self.a3 * bump
                + self.a4 * np.cos(pi * xx) * np.sinh(yy - 0.5))

    def grad(self, x):
        xx, yy = x[:, 0], x[:, 1]
        pi = np.pi
        dx, dy, bump = self._bump(x)
        s2 = self.sigma ** 2
        gx = (self.a1 * pi * np.cos(pi * xx) * np.sin(pi * yy)
              + self.a2 * 2 * pi * np.cos(2 * pi * xx) * np.sin(pi * yy)
              - self.a3 * dx / s2 * bump
              - self.a4 * pi * np.sin(pi * xx) * np.sinh(yy - 0.5))
        gy = (self.a1 * pi * np.sin(pi * xx) * np.cos(pi * yy)
              + self.a2 * pi * np.sin(2 * pi * xx) * np.cos(pi * yy)
              - self.a3 * dy / s2 * bump
              + self.a4 * np.cos(pi * xx) * np.cosh(yy - 0.5))
        return np.column_stack([gx, gy])

    def laplacian(self, x):
        xx, yy = x[:, 0], x[:, 1]
        pi = np.pi
        dx, dy, bump = self._bump(x)
        s2 = self.sigma ** 2
        rho2 = dx * dx + dy * dy
        return (-2 * pi ** 2 * self.a1 * np.sin(pi * xx) * np.sin(pi * yy)
                - 5 * pi ** 2 * self.a2 * np.sin(2 * pi * xx) * np.sin(pi * yy)
                + self.a3 * bump * (rho2 / s2 ** 2 - 2.0 / s2)
                + self.a4 * (1.0 - pi ** 2) * np.cos(pi * xx) * np.sinh(yy - 0.5))


def scatter_volume_load(mesh, f):
    tris = mesh.triangles
    p = mesh.nodes[tris]
    areas, _ = triangle_geometry(mesh)
    mids = 0.5 * (p[:, [1, 2, 0]] + p[:, [2, 0, 1]])
    fv = np.asarray(f(mids.reshape(-1, 2)), dtype=float).reshape(-1, 3)
    w = areas / 6.0
    local = np.column_stack([w * (fv[:, 1] + fv[:, 2]), w * (fv[:, 2] + fv[:, 0]),
                             w * (fv[:, 0] + fv[:, 1])])
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, tris.ravel(), local.ravel())
    return out


def scatter_boundary_load(mesh, segment, g):
    edges = mesh.boundary_edges[mesh.segment_of(segment)]
    a = mesh.nodes[edges[:, 0]]
    b = mesh.nodes[edges[:, 1]]
    lens = np.linalg.norm(b - a, axis=1)
    s = 1.0 / np.sqrt(3.0)
    out = np.zeros(mesh.n_nodes)
    for sg in (-s, s):
        x = 0.5 * (1.0 - sg) * a + 0.5 * (1.0 + sg) * b
        gv = np.asarray(g(x), dtype=float)
        np.add.at(out, edges[:, 0], 0.5 * lens * 0.5 * (1.0 - sg) * gv)
        np.add.at(out, edges[:, 1], 0.5 * lens * 0.5 * (1.0 + sg) * gv)
    return out


def per_draw_loads(problem, ks, xis):
    model, mesh = problem.model, problem.mesh
    cols = []
    for k, xi in zip(ks, xis):
        k0, al, be = k
        ms = ScalarSolution(xi)
        vec = scatter_volume_load(
            mesh, lambda p: k0 * (-ms.laplacian(p)) + al * ms.value(p))
        vec += scatter_boundary_load(mesh, "bottom",
                                     lambda p: -k0 * ms.grad(p)[:, 1])
        vec += scatter_boundary_load(
            mesh, "right", lambda p: k0 * ms.grad(p)[:, 0] + be * ms.value(p))
        f = vec[model.free]
        g = ms.value(mesh.nodes[model.dirichlet])
        th = model.theta_a(k)
        f_hat = (f - model.affine_II.assemble(th) @ (model.lift_block @ g)
                 - model.affine_IB.assemble(th) @ g)
        cols.append((f, g, f_hat))
    return [np.column_stack(c) for c in zip(*cols)]


def test_spec_pinned_constants():
    s1 = example_spec(1)
    assert s1.param_ranges == ((0.1, 10.0), (-1.0, 1.0))
    assert s1.k_star == (1.0, 1.0)
    assert s1.mesh_recipe == {"kind": "inclusion", "r0": 0.2, "h": 1.0 / 43.0}
    assert (s1.n_pool, s1.n_train, s1.n_val, s1.n_test) == (2100, 2000, 200, 1000)

    s2 = example_spec(2)
    assert s2.mesh_recipe == {"kind": "unit_square", "n": 64}
    assert s2.trunk == {"greedy_tol": 1e-7, "greedy_fixed_n": 209}
    assert len(s2.data["xi_ranges"]) == 7
    assert (s2.n_pool, s2.n_train, s2.n_val) == (10000, 8000, 2000)

    s3 = example_spec(3)
    assert s3.param_ranges[2] == (0.05, 0.45)
    assert s3.data["eim_q"] == 15
    assert s3.n_params == 3

    with pytest.raises(ValueError):
        example_spec(0)


def test_spec_validation():
    ok = dict(example=1, param_ranges=((0.0, 1.0),), k_star=(0.5,),
              mesh_recipe={"kind": "unit_square", "n": 2}, trunk={})
    ExampleSpec(**ok)
    with pytest.raises(ValueError):
        ExampleSpec(**{**ok, "example": 9})
    with pytest.raises(ValueError):
        ExampleSpec(**{**ok, "param_ranges": ((1.0, 0.0),)})
    with pytest.raises(ValueError):
        ExampleSpec(**{**ok, "k_star": (2.0,)})
    with pytest.raises(ValueError):
        ExampleSpec(**{**ok, "k_star": (0.2, 0.3)})


def test_build_mesh_rejects_unknown_recipe():
    stub = types.SimpleNamespace(mesh_recipe={"kind": "hexahedral"})
    with pytest.raises(ValueError):
        build_mesh(stub)


def test_sampling_respects_ranges(rng):
    spec = example_spec(2)
    ks = sample_parameters(spec, 64, rng)
    assert ks.shape == (64, 3)
    lo, hi = np.array(spec.param_ranges).T
    assert np.all(ks >= lo) and np.all(ks <= hi)
    xi = sample_xi(spec, 32, rng)
    assert xi.shape == (32, 7)
    lo, hi = np.array(spec.data["xi_ranges"]).T
    assert np.all(xi >= lo) and np.all(xi <= hi)
    with pytest.raises(ValueError):
        sample_xi(example_spec(1), 4, rng)


def test_box_corners():
    corners = _box_corners(((0.0, 1.0), (2.0, 3.0)))
    want = {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert {tuple(row) for row in corners} == want


def test_manufactured_solution_derivatives(rng):
    xi = np.array([[0.7, -0.4, 0.9, 0.3, 0.45, 0.55, 0.12],
                   [-0.2, 0.8, 0.5, -0.6, 0.3, 0.7, 0.08]])
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    h = 1e-6
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    # a stack of m rows gives (n, m) values and (n, m, 2) gradients
    for ms in (ManufacturedSolution(xi[:1]), ManufacturedSolution(xi)):
        gx = (ms.value(pts + ex) - ms.value(pts - ex)) / (2 * h)
        gy = (ms.value(pts + ey) - ms.value(pts - ey)) / (2 * h)
        g = ms.grad(pts)
        assert g.shape == gx.shape + (2,)
        assert np.allclose(g[..., 0], gx, rtol=1e-6, atol=1e-7)
        assert np.allclose(g[..., 1], gy, rtol=1e-6, atol=1e-7)
        lap_fd = (ms.value(pts + ex) + ms.value(pts - ex)
                  + ms.value(pts + ey) + ms.value(pts - ey)
                  - 4 * ms.value(pts)) / h ** 2
        assert np.allclose(ms.laplacian(pts), lap_fd, rtol=1e-3, atol=1e-3)

    stack = ManufacturedSolution(xi)
    for j, row in enumerate(xi):
        ref = ScalarSolution(row)
        for name in ("value", "grad", "laplacian"):
            want = getattr(ref, name)(pts)
            assert np.allclose(getattr(stack, name)(pts)[:, j], want,
                               rtol=1e-13, atol=1e-13 * np.abs(want).max())

    with pytest.raises(ValueError, match="stack of rows"):
        ManufacturedSolution(xi[0])
    with pytest.raises(ValueError, match="sigma"):
        ManufacturedSolution([[1, 1, 1, 1, 0.5, 0.5, 0.0]])
    with pytest.raises(ValueError):
        ManufacturedSolution(np.vstack([xi, [1, 1, 1, 1, 0.5, 0.5, -0.1]]))


def test_data_loads_match_per_draw_loads(tiny_problem2):
    # not a multiple of the chunk, so the last chunk is a partial one; the
    # batched lifting of the draws matches the per-draw one too
    n = _LOAD_CHUNK + 13
    rng = np.random.default_rng(4)
    ks = sample_parameters(tiny_problem2.bench.spec, n, rng)
    xis = sample_xi(tiny_problem2.bench.spec, n, rng)
    f, g = _data_loads(tiny_problem2, ks, xis)
    batched = (f, g, aggregated_load(tiny_problem2.model, ks, f, g))
    for got, want in zip(batched, per_draw_loads(tiny_problem2, ks, xis)):
        assert got.shape == want.shape == (len(want), n)
        rel = (np.linalg.norm(got - want, axis=0)
               / np.linalg.norm(want, axis=0))
        assert rel.max() <= 1e-13


def test_data_loads_hold_one_chunk(tiny_problem2):
    # above its three outputs, _data_loads may hold one chunk's working set,
    # the same for 32 draws as for 256; stacking the point values of all
    # draws at once would make it eight times larger
    spec = tiny_problem2.bench.spec

    def excess(n):
        rng = np.random.default_rng(6)
        ks = sample_parameters(spec, n, rng)
        xis = sample_xi(spec, n, rng)
        tracemalloc.start()
        try:
            out = _data_loads(tiny_problem2, ks, xis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(a.nbytes for a in out)

    excess(32)                # first-call caches
    assert excess(256) <= 1.5 * excess(32)


def test_example1_boundary_load_keeps_scatter_order(tiny_problem1):
    # the quadrature map sums each node's terms in the order np.add.at did,
    # so example 1's load is bitwise unchanged
    mesh = tiny_problem1.mesh

    def ones(x):
        return np.ones(len(x))

    f_base = assemble_load_boundary(mesh, "base", ones)
    assert f_base.tobytes() == scatter_boundary_load(mesh, "base",
                                                     ones).tobytes()
    terms = tiny_problem1.bench.load_terms
    assert terms.shape == (tiny_problem1.model.n_free, 1)
    assert terms.tobytes() == f_base[tiny_problem1.model.free].tobytes()


@pytest.mark.parametrize("name", ["tiny_problem1", "tiny_problem3"])
def test_load_is_k2_times_base_flux(name, request):
    # examples 1 and 3 hold one load term, F_base[free], weighted by k2:
    # the truth solves exactly k2 F_base[free], and the reduced load is the
    # weights times the trunk's f_blocks, bit for bit, one row or a stack.
    # The full-order products equal k2 F_base[free] in value: a matrix
    # product sums from +0, so a zero entry of the load drops its sign
    prob = request.getfixturevalue(name)
    bench, model = prob.bench, prob.model
    f_base = assemble_load_boundary(prob.mesh, "base",
                                    lambda x: np.ones(len(x)))[model.free]
    ks = sample_parameters(bench.spec, 3, np.random.default_rng(21))
    for k in ks:
        load = bench.load_terms @ bench.load_weights(k, None, None)
        assert np.array_equal(load, k[1] * f_base)
    k = ks[0]
    if bench.spec.example == 1:
        want = truth_solve(model, k, k[1] * f_base)
    else:
        a0, a1 = example3_direct_operator(prob, float(k[2]))
        a = (float(k[0]) * a0 + a1).tocsr()[model.free][:, model.free]
        want = model.band.factor(a, "exact").solve(k[1] * f_base)
    assert np.array_equal(bench.truth(prob, k), want)
    # the reduced load of a row is bitwise its row of the stacked one
    f_blocks = np.random.default_rng(22).standard_normal((1, 5))
    stack = bench.load_weights(ks, None, None) @ f_blocks
    for row, want in zip(ks, stack):
        assert want.tobytes() == (row[1] * f_blocks[0]).tobytes()
        one = bench.load_weights(row, None, None) @ f_blocks
        assert one.tobytes() == want.tobytes()


def _pencil_min(a_ii, a_star_ii):
    return float(sla.eigh(a_ii.toarray(), a_star_ii.toarray(),
                          eigvals_only=True, subset_by_index=[0, 0])[0])


def test_example1_structure_and_coercivity(tiny_problem1, rng):
    prob = tiny_problem1
    model = prob.model
    assert np.allclose(model.theta_a([3.0, -0.2]), [3.0, 1.0])
    assert 0.0 < prob.alpha_lb <= 1.0
    # the bound must hold at the corners (where theta is extremal) and inside
    lo, hi = np.array(prob.bench.spec.param_ranges).T
    for k in list(_box_corners(prob.bench.spec.param_ranges)) + \
            list(rng.uniform(lo, hi, size=(3, 2))):
        lam = _pencil_min(model.assemble_interior(k), model.a_star_II)
        assert lam >= prob.alpha_lb * (1.0 - 1e-9)
    # affine load: one boundary functional weighted by the second parameter
    bench = prob.bench
    f = bench.load_terms @ bench.load_weights([2.0, 0.25], None, None)
    assert np.allclose(f, 0.25 * (bench.load_terms
                                  @ bench.load_weights([9.9, 1.0], None, None)))


def test_example2_manufactured_convergence(tiny_problem2):
    prob8 = tiny_problem2
    spec16 = apply_overrides(example_spec(2), {"n": 16, "n_pool": 16,
                                               "n_train": 24, "n_val": 8,
                                               "n_test": 8})
    prob16 = build_problem(spec16)
    xi = np.array([[0.6, -0.3, 0.8, 0.2, 0.4, 0.6, 0.15]])
    k = np.array([1.2, 0.6, 1.0])
    errs = []
    for prob in (prob8, prob16):
        f, g_b = (c[:, 0] for c in _data_loads(prob, k[None], xi))
        f_hat = aggregated_load(prob.model, k, f, g_b)
        w = truth_solve(prob.model, k, f_hat)
        u_h = full_field(prob.model, w, g_b)
        u = ManufacturedSolution(xi[:1]).value(prob.mesh.nodes)[:, 0]
        mass = assemble_mass(prob.mesh)
        num = (u_h - u) @ mass @ (u_h - u)
        den = u @ mass @ u
        errs.append(np.sqrt(num / den))
    assert errs[0] < 5e-2
    assert errs[0] / errs[1] > 2.0      # roughly O(h^2) in L2


def test_example2_coercivity_bound(tiny_problem2, rng):
    # kappa0_min times the floor of the diffusion block against A_star, which
    # ARPACK finds through the model's band factor
    prob = tiny_problem2
    lo, hi = np.array(prob.bench.spec.param_ranges).T
    floor = _pencil_min(prob.model.affine_II.term(0), prob.model.a_star_II)
    assert np.isclose(prob.alpha_lb, lo[0] * floor, rtol=1e-10, atol=0)
    assert prob.alpha_lb > 0
    for k in rng.uniform(lo, hi, size=(4, 3)):
        lam = _pencil_min(prob.model.assemble_interior(k), prob.model.a_star_II)
        assert lam >= prob.alpha_lb * (1.0 - 1e-9)


def test_example2_alpha_lb_deterministic(tiny_problem2):
    # the spectral floor comes from ARPACK; a random start vector would move
    # alpha_lb, and every artifact that records it, in its last digits
    spec = tiny_problem2.bench.spec
    again = {build_problem(spec).alpha_lb for _ in range(3)}
    assert again == {tiny_problem2.alpha_lb}


def test_example3_identity_radius_recovers_plain_stiffness(tiny_problem3):
    prob = tiny_problem3
    r0 = prob.bench.eim.radial_map.r0
    a0, a1 = example3_direct_operator(prob, r0)
    plain0 = assemble_stiffness(prob.mesh, region=0)
    plain1 = assemble_stiffness(prob.mesh, region=1)
    scale = abs(plain0).max() + abs(plain1).max()
    assert abs(a0 - plain0).max() <= 1e-8 * scale
    assert abs(a1 - plain1).max() <= 1e-8 * scale


def test_example3_theta_structure(tiny_problem3):
    prob = tiny_problem3
    q = prob.bench.eim.rank
    th = prob.model.theta_a(np.array([2.5, 0.1, 0.3]))
    assert th.shape == (2 * q,)
    assert np.allclose(th[q:], 2.5 * th[:q])


@pytest.mark.parametrize("name", ["tiny_problem1", "tiny_problem2",
                                  "tiny_problem3"])
def test_theta_rows_in_rows_out(name, request):
    # one call on a stack of rows gives each row's own weights: exactly for
    # the closed forms, to round-off for the EIM solve of example 3.  The
    # load weights keep the same contract exactly, with example 2's data
    # coordinates (a, b) given row by row alongside k
    prob = request.getfixturevalue(name)
    spec = prob.bench.spec
    ks = sample_parameters(spec, 40, np.random.default_rng(8))
    ks[0] = spec.k_star
    stacked = prob.model.theta_a(ks)
    rows = np.vstack([prob.model.theta_a(k) for k in ks])
    assert stacked.shape == rows.shape == (40, prob.model.affine_II.n_terms)
    if spec.example == 3:
        assert np.all(np.abs(stacked - rows)
                      <= 1e-14 * np.abs(rows).max(axis=1, keepdims=True))
    else:
        assert np.array_equal(stacked, rows)
    a = b = [None] * len(ks)
    width = 1
    if spec.example == 2:
        gen = np.random.default_rng(9)
        a, b = gen.standard_normal((40, 4)), gen.standard_normal((40, 2))
        width = 4 + 2 * prob.model.affine_II.n_terms
    stacked = prob.bench.load_weights(ks, a, b)
    rows = np.vstack([prob.bench.load_weights(k, ai, bi)
                      for k, ai, bi in zip(ks, a, b)])
    assert stacked.shape == rows.shape == (40, width)
    assert np.array_equal(stacked, rows)


def test_example3_eim_model_matches_direct_solve(tiny_problem3, rng):
    prob = tiny_problem3
    lo, hi = np.array(prob.bench.spec.param_ranges).T
    bench = prob.bench
    for k in rng.uniform(lo, hi, size=(3, 3)):
        w_eim = truth_solve(prob.model, k, bench.load_terms
                            @ bench.load_weights(k, None, None))
        w_dir = example3_direct_solve(prob, k)
        rel = np.linalg.norm(w_eim - w_dir) / np.linalg.norm(w_dir)
        assert rel < 1e-2


def test_example3_coercivity_bound(tiny_problem3, rng):
    prob = tiny_problem3
    lo, hi = np.array(prob.bench.spec.param_ranges).T
    assert prob.alpha_lb > 0
    for k in rng.uniform(lo, hi, size=(3, 3)):
        lam = _pencil_min(prob.model.assemble_interior(k), prob.model.a_star_II)
        assert lam >= prob.alpha_lb * (1.0 - 1e-9)


def test_indefinite_interior_operator_rejected(tiny_problem1, tiny_problem3):
    # a negative inclusion contrast k1 makes A_II(k) indefinite but
    # nonsingular, so a plain LU would solve it without complaint
    model = tiny_problem1.model
    k = np.array([-0.5, 0.5])
    assert np.linalg.eigvalsh(model.assemble_interior(k).toarray())[0] < 0
    with pytest.raises(NotCoerciveError):
        interior_factor(model, k)
    with pytest.raises(NotCoerciveError):
        truth_solve(model, k, np.ones(model.n_free))
    with pytest.raises(NotCoerciveError):
        example3_direct_solve(tiny_problem3, np.array([-0.5, 0.5, 0.25]))


def _rel(got, want):
    return (np.linalg.norm(got - want, axis=0)
            / np.linalg.norm(want, axis=0)).max()


@pytest.mark.parametrize("fixture", ["tiny_problem1", "tiny_problem2",
                                     "tiny_problem3"])
def test_full_order_solves_match_plain_splu(fixture, request):
    prob = request.getfixturevalue(fixture)
    rng = np.random.default_rng(12)
    model = prob.model
    lo, hi = np.array(prob.bench.spec.param_ranges).T
    k = rng.uniform(lo, hi)
    f = rng.standard_normal(model.n_free)
    # reference: SuperLU with its default ordering and partial pivoting
    want = splu(model.assemble_interior(k).tocsc()).solve(f)
    assert _rel(interior_factor(model, k).solve(f), want) <= 1e-12
    assert _rel(truth_solve(model, k, f), want) <= 1e-12
    rhs = rng.standard_normal((model.n_free, 5))
    want = splu(model.a_star_II.tocsc()).solve(rhs)
    assert _rel(model.star_solve(rhs), want) <= 1e-12
    if prob.bench.spec.example == 3:
        a0, a1 = example3_direct_operator(prob, k[2])
        a = (k[0] * a0 + a1).tocsr()[model.free][:, model.free]
        want = splu(a.tocsc()).solve(k[1] * prob.bench.load_terms[:, 0])
        assert _rel(example3_direct_solve(prob, k), want) <= 1e-12


def test_problem_interior_mass(tiny_problem1):
    prob = tiny_problem1
    nf = len(prob.model.free)
    assert prob.m_ii.shape == (nf, nf)
    free = prob.model.free
    diff = abs(prob.m_ii - assemble_mass(prob.mesh)[free][:, free])
    assert diff.max() == 0.0


def test_branch_feature_layout():
    # [k; a; b] for one query and row by row for a batch; k alone without data
    k, a, b = np.array([1.0, 2.0]), np.array([3.0]), np.array([4.0, 5.0])
    bench = Example2(example_spec(2), None)
    assert np.array_equal(bench.features(k, a, b), [1.0, 2.0, 3.0, 4.0, 5.0])
    rows = bench.features(np.vstack([k, 2 * k]), np.vstack([a, 2 * a]),
                          np.vstack([b, 2 * b]))
    assert np.array_equal(rows, [[1.0, 2.0, 3.0, 4.0, 5.0],
                                 [2.0, 4.0, 6.0, 8.0, 10.0]])
    affine = Example1(example_spec(1), None)
    assert np.array_equal(affine.features(k, None, None), k)
