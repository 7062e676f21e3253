import types

import numpy as np
import pytest
import scipy.linalg as sla

from rb_operon.assembly import (aggregated_load, assemble_stiffness,
                                full_field, truth_solve)
from rb_operon.examples import (Example1, Example2, ExampleSpec,
                                ManufacturedSolution, _box_corners,
                                build_mesh, build_problem,
                                example2_load, example3_direct_operator,
                                example3_direct_solve, example_spec,
                                sample_parameters, sample_xi)
from rb_operon.pipeline import apply_overrides


def test_spec_pinned_constants():
    s1 = example_spec(1)
    assert s1.param_ranges == ((0.1, 10.0), (-1.0, 1.0))
    assert s1.k_star == (1.0, 1.0)
    assert s1.mesh_recipe == {"kind": "inclusion", "r0": 0.2, "h": 1.0 / 43.0}
    assert (s1.n_pool, s1.n_train, s1.n_val, s1.n_test) == (2100, 2000, 200, 1000)

    s2 = example_spec(2)
    assert s2.mesh_recipe == {"kind": "unit_square", "n": 64}
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
    ms = ManufacturedSolution(0.7, -0.4, 0.9, 0.3, 0.45, 0.55, 0.12)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    h = 1e-6
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    gx = (ms.value(pts + ex) - ms.value(pts - ex)) / (2 * h)
    gy = (ms.value(pts + ey) - ms.value(pts - ey)) / (2 * h)
    g = ms.grad(pts)
    assert np.allclose(g[:, 0], gx, rtol=1e-6, atol=1e-7)
    assert np.allclose(g[:, 1], gy, rtol=1e-6, atol=1e-7)
    lap_fd = (ms.value(pts + ex) + ms.value(pts - ex)
              + ms.value(pts + ey) + ms.value(pts - ey)
              - 4 * ms.value(pts)) / h ** 2
    assert np.allclose(ms.laplacian(pts), lap_fd, rtol=1e-3, atol=1e-3)

    assert ManufacturedSolution.from_xi([1, 0, 0, 0, 0.5, 0.5, 0.1]).a1 == 1.0
    with pytest.raises(ValueError):
        ManufacturedSolution(1, 1, 1, 1, 0.5, 0.5, 0.0)


def _pencil_min(a_ii, a_star_ii):
    return float(sla.eigh(a_ii.toarray(), a_star_ii.toarray(),
                          eigvals_only=True, subset_by_index=[0, 0])[0])


def test_example1_structure_and_coercivity(tiny_problem1, rng):
    prob = tiny_problem1
    model = prob.model
    assert np.allclose(model.theta_a([3.0, -0.2]), [3.0, 1.0])
    assert 0.0 < prob.alpha_lb <= 1.0
    # the bound must hold at the corners (where theta is extremal) and inside
    lo, hi = np.array(prob.spec.param_ranges).T
    for k in list(_box_corners(prob.spec.param_ranges)) + \
            list(rng.uniform(lo, hi, size=(3, 2))):
        lam = _pencil_min(model.assemble_interior(k), model.a_star_II)
        assert lam >= prob.alpha_lb * (1.0 - 1e-9)
    # affine load: one boundary functional weighted by the second parameter
    f = model.load_interior([2.0, 0.25])
    assert np.allclose(f, 0.25 * model.load_interior([9.9, 1.0]))


def test_example2_manufactured_convergence(tiny_problem2):
    prob8 = tiny_problem2
    spec16 = apply_overrides(example_spec(2), {"n": 16, "n_pool": 16,
                                               "n_train": 24, "n_val": 8,
                                               "n_test": 8})
    prob16 = build_problem(spec16)
    ms = ManufacturedSolution(0.6, -0.3, 0.8, 0.2, 0.4, 0.6, 0.15)
    k = np.array([1.2, 0.6, 1.0])
    errs = []
    for prob in (prob8, prob16):
        f_free, g_b = example2_load(prob, k, ms)
        f_hat = aggregated_load(prob.model, k, f_free, g_b)
        w = truth_solve(prob.model, k, f_hat)
        u_h = full_field(prob.model, w, g_b)
        u = ms.value(prob.mesh.nodes)
        num = (u_h - u) @ prob.m_full @ (u_h - u)
        den = u @ prob.m_full @ u
        errs.append(np.sqrt(num / den))
    assert errs[0] < 5e-2
    assert errs[0] / errs[1] > 2.0      # roughly O(h^2) in L2


def test_example2_coercivity_bound(tiny_problem2, rng):
    prob = tiny_problem2
    lo, hi = np.array(prob.spec.param_ranges).T
    assert prob.alpha_lb > 0
    for k in rng.uniform(lo, hi, size=(4, 3)):
        lam = _pencil_min(prob.model.assemble_interior(k), prob.model.a_star_II)
        assert lam >= prob.alpha_lb * (1.0 - 1e-9)


def test_example2_alpha_lb_deterministic(tiny_problem2):
    # the spectral floor comes from ARPACK; a random start vector would move
    # alpha_lb, and every artifact that records it, in its last digits
    again = {build_problem(tiny_problem2.spec).alpha_lb for _ in range(3)}
    assert again == {tiny_problem2.alpha_lb}


def test_example3_identity_radius_recovers_plain_stiffness(tiny_problem3):
    prob = tiny_problem3
    r0 = prob.surrogate.radial_map.r0
    a0, a1 = example3_direct_operator(prob, r0)
    plain0 = assemble_stiffness(prob.mesh, region=0)
    plain1 = assemble_stiffness(prob.mesh, region=1)
    scale = abs(plain0).max() + abs(plain1).max()
    assert abs(a0 - plain0).max() <= 1e-8 * scale
    assert abs(a1 - plain1).max() <= 1e-8 * scale


def test_example3_theta_structure(tiny_problem3):
    prob = tiny_problem3
    q = prob.surrogate.rank
    th = prob.model.theta_a(np.array([2.5, 0.1, 0.3]))
    assert th.shape == (2 * q,)
    assert np.allclose(th[q:], 2.5 * th[:q])


def test_example3_eim_model_matches_direct_solve(tiny_problem3, rng):
    prob = tiny_problem3
    lo, hi = np.array(prob.spec.param_ranges).T
    for k in rng.uniform(lo, hi, size=(3, 3)):
        w_eim = truth_solve(prob.model, k, prob.model.load_interior(k))
        w_dir = example3_direct_solve(prob, k)
        rel = np.linalg.norm(w_eim - w_dir) / np.linalg.norm(w_dir)
        assert rel < 1e-2


def test_example3_coercivity_bound(tiny_problem3, rng):
    prob = tiny_problem3
    lo, hi = np.array(prob.spec.param_ranges).T
    assert prob.alpha_lb > 0
    for k in rng.uniform(lo, hi, size=(3, 3)):
        lam = _pencil_min(prob.model.assemble_interior(k), prob.model.a_star_II)
        assert lam >= prob.alpha_lb * (1.0 - 1e-9)


def test_problem_interior_mass(tiny_problem1):
    prob = tiny_problem1
    nf = len(prob.model.free)
    assert prob.m_ii.shape == (nf, nf)
    diff = abs(prob.m_ii - prob.m_full[prob.model.free][:, prob.model.free])
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
