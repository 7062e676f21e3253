import numpy as np
import pytest

from rb_operon.errors import (CoercivityViolationError, EmptySpaceError,
                              StagnationError)
from rb_operon.assembly import aggregated_load
from rb_operon.examples import (ManufacturedSolution, example2_load,
                                sample_parameters, sample_xi)
from rb_operon.reduction import (_BorderedCholesky, _border_update,
                                 coercivity_lower_bound, estimator,
                                 greedy_build, pod_build, reduce_operators,
                                 solve_reduced, solve_reduced_batch,
                                 v_orthonormalize)


def pool_and_loads(problem, n, seed=5):
    ks = sample_parameters(problem.spec, n, np.random.default_rng(seed))
    f_hat = np.column_stack([problem.model.load_interior(k) for k in ks])
    return ks, f_hat


def test_v_orthonormalize_properties(tiny_problem1, rng):
    model = tiny_problem1.model
    a = model.a_star_II
    v1 = v_orthonormalize(model, None, rng.standard_normal(model.n_free))
    assert np.isclose(v1 @ (a @ v1), 1.0)
    psi = v1[:, None]
    v2 = v_orthonormalize(model, psi, rng.standard_normal(model.n_free))
    assert np.isclose(v2 @ (a @ v2), 1.0)
    assert abs(v1 @ (a @ v2)) < 1e-12
    # a vector already in the span yields no new direction
    assert v_orthonormalize(model, psi, 3.7 * v1) is None
    assert v_orthonormalize(model, None, np.zeros(model.n_free)) is None


def test_reduce_operators_match_dense(tiny_problem1, rng):
    model = tiny_problem1.model
    psi = np.linalg.qr(rng.standard_normal((model.n_free, 3)))[0]
    a_blocks, f_blocks = reduce_operators(model, psi)
    assert a_blocks.shape == (2, 3, 3)
    for p in range(2):
        dense = psi.T @ (model.affine_II.term(p) @ psi)
        assert np.allclose(a_blocks[p], 0.5 * (dense + dense.T))
    assert np.allclose(f_blocks[0], model.f_terms[0][model.free] @ psi)


def test_border_update_equals_full_projection(tiny_problem1, rng):
    model = tiny_problem1.model
    psi = np.linalg.qr(rng.standard_normal((model.n_free, 4)))[0]
    small, _ = reduce_operators(model, psi[:, :3])
    grown = _border_update(model, small, psi)
    full, _ = reduce_operators(model, psi)
    assert np.allclose(grown, full)


def test_solve_reduced_and_batch(rng):
    n, qa, ns = 6, 2, 9
    base = rng.standard_normal((qa, n, n))
    blocks = np.einsum("qij,qkj->qik", base, base) + 3 * np.eye(n)
    theta = rng.uniform(0.5, 2.0, size=(ns, qa))
    f = rng.standard_normal((ns, n))
    out = solve_reduced_batch(blocks, theta, f, chunk=4)
    for s in range(ns):
        a = np.tensordot(theta[s], blocks, axes=1)
        assert np.allclose(out[s], np.linalg.solve(a, f[s]))
        assert np.allclose(solve_reduced(a, f[s]), out[s])
    with pytest.raises(CoercivityViolationError):
        solve_reduced(-np.eye(3), np.ones(3))


def test_bordered_cholesky_matches_batch_solve():
    rng = np.random.default_rng(4)
    n, qa, ns = 12, 3, 7
    base = rng.standard_normal((qa, n, n))
    blocks = np.einsum("qij,qkj->qik", base, base) + np.eye(n)
    theta = rng.uniform(0.5, 2.0, size=(ns, qa))
    f = rng.standard_normal((ns, n))
    chol = _BorderedCholesky(theta)
    for j in range(n):
        chol.border(blocks[:, :j + 1, j], f[:, j])
        want = solve_reduced_batch(blocks[:, :j + 1, :j + 1], theta,
                                   f[:, :j + 1])
        got = chol.solve()
        assert got.shape == (ns, j + 1)
        assert np.all(np.linalg.norm(got - want, axis=1)
                      <= 1e-12 * np.linalg.norm(want, axis=1))
    # a zero diagonal entry next to a nonzero coupling is indefinite
    chol = _BorderedCholesky(theta)
    for j in range(3):
        chol.border(blocks[:, :j + 1, j], f[:, j])
    col = blocks[:, :4, 3].copy()
    col[:, 3] = 0.0
    with pytest.raises(CoercivityViolationError):
        chol.border(col, f[:, 3])


def test_greedy_trace_and_estimator_consistency(tiny_problem1):
    problem = tiny_problem1
    ks, f_hat = pool_and_loads(problem, 20)
    space, trace = greedy_build(problem.model, ks, f_hat_all=f_hat,
                                fixed_n=3, alpha_lb=problem.alpha_lb)
    assert space.dim == 3
    assert len(trace.selected) == len(trace.max_estimator) == len(trace.basis_size)
    assert trace.basis_size == [1, 2, 3]
    assert trace.stop_reason == "size"
    assert all(np.diff(trace.max_estimator) < 0)
    # trunk is orthonormal in the reference inner product
    assert np.allclose(space.gram_ref, np.eye(3), atol=1e-10)
    # the deflated-representer sweep must agree with the direct dual-norm
    # estimator evaluated one sample at a time on the final space
    etas = []
    for i, k in enumerate(ks):
        a_rb = np.tensordot(problem.model.theta_a(k), space.a_blocks, axes=1)
        c = solve_reduced(a_rb, problem.model.theta_f(k) @ space.f_blocks)
        etas.append(estimator(problem.model, space, k, c, f_hat[:, i]))
    assert np.isclose(max(etas), trace.max_estimator[-1], rtol=1e-8)


def test_greedy_tolerance_mode_certifies(tiny_problem1):
    problem = tiny_problem1
    ks, f_hat = pool_and_loads(problem, 20)
    tol = 1e-6
    space, trace = greedy_build(problem.model, ks, f_hat_all=f_hat,
                                tol=tol, alpha_lb=problem.alpha_lb)
    assert trace.max_estimator[-1] <= tol
    assert trace.stop_reason == "tolerance"
    # every pool sample is now certified below the tolerance
    for i, k in enumerate(ks):
        a_rb = np.tensordot(problem.model.theta_a(k), space.a_blocks, axes=1)
        c = solve_reduced(a_rb, problem.model.theta_f(k) @ space.f_blocks)
        assert estimator(problem.model, space, k, c, f_hat[:, i]) <= tol * (1 + 1e-9)


def test_estimator_bounds_energy_error(tiny_problem1):
    # reliability: the certified bound dominates both the reference-norm
    # and the parametric-energy error of the reduced solution
    problem = tiny_problem1
    model = problem.model
    ks, f_hat = pool_and_loads(problem, 16)
    space, _ = greedy_build(model, ks, f_hat_all=f_hat, fixed_n=2,
                            alpha_lb=problem.alpha_lb)
    test_ks = sample_parameters(problem.spec, 25, np.random.default_rng(99))
    for k in test_ks:
        f = model.load_interior(k)
        u = np.linalg.solve(model.assemble_interior(k).toarray(), f)
        a_rb = np.tensordot(model.theta_a(k), space.a_blocks, axes=1)
        c = solve_reduced(a_rb, model.theta_f(k) @ space.f_blocks)
        e = u - space.psi @ c
        eta = estimator(model, space, k, c, f)
        err_star = np.sqrt(e @ (model.a_star_II @ e))
        err_k = np.sqrt(e @ (model.assemble_interior(k) @ e))
        assert err_star <= eta * (1 + 1e-9)
        assert err_k <= eta * (1 + 1e-9)


def test_greedy_subset_certify_and_extend(tiny_problem1):
    problem = tiny_problem1
    ks, f_hat = pool_and_loads(problem, 30)
    tol = 1e-6
    space, trace = greedy_build(problem.model, ks, f_hat_all=f_hat, tol=tol,
                                alpha_lb=problem.alpha_lb,
                                sweep_subset=np.arange(5))
    for i, k in enumerate(ks):
        a_rb = np.tensordot(problem.model.theta_a(k), space.a_blocks, axes=1)
        c = solve_reduced(a_rb, problem.model.theta_f(k) @ space.f_blocks)
        assert estimator(problem.model, space, k, c, f_hat[:, i]) <= tol * (1 + 1e-9)
    # rounds are recorded monotonically
    assert trace.rounds == sorted(trace.rounds)


def test_greedy_data_loads_extend_sweep(tiny_problem2):
    # example 2 draws its loads independently of the operator parameter, so
    # the trunk grows to N >> 3; the subset converges first, and the pool
    # certification pulls violators in, which rebuilds the sweep factors
    problem = tiny_problem2
    model = problem.model
    rng = np.random.default_rng(7)
    ks = sample_parameters(problem.spec, 24, rng)
    xis = sample_xi(problem.spec, 24, rng)
    cols = []
    for k, xi in zip(ks, xis):
        f, g = example2_load(problem, k, ManufacturedSolution.from_xi(xi))
        cols.append(aggregated_load(model, k, f, g))
    f_hat = np.column_stack(cols)
    tol = 0.1
    space, trace = greedy_build(model, ks, f_hat_all=f_hat, tol=tol,
                                alpha_lb=problem.alpha_lb,
                                sweep_subset=np.arange(6))
    assert space.dim >= 12
    assert max(trace.rounds) >= 1
    assert trace.stop_reason == "tolerance"
    for i, k in enumerate(ks):
        a_rb = np.tensordot(model.theta_a(k), space.a_blocks, axes=1)
        c = solve_reduced(a_rb, space.psi.T @ f_hat[:, i])
        assert estimator(model, space, k, c, f_hat[:, i]) <= tol * (1 + 1e-9)


def test_greedy_stagnation_raises(tiny_problem1):
    problem = tiny_problem1
    # identical operator parameter: all pool solutions are parallel, so the
    # second pick is linearly dependent while the inflated estimator stays
    # above tolerance
    ks = np.array([[1.0, 0.5], [1.0, 1.0], [1.0, -0.3]])
    with pytest.raises(StagnationError):
        greedy_build(problem.model, ks, tol=1e-13, alpha_lb=1e-12)
    # without a tolerance the dependent snapshot ends the loop instead
    space, trace = greedy_build(problem.model, ks, fixed_n=3, alpha_lb=1e-12)
    assert space.dim == 1
    assert trace.stop_reason == "dependent_snapshot"


def test_greedy_empty_pool(tiny_problem1):
    with pytest.raises(EmptySpaceError):
        greedy_build(tiny_problem1.model, np.empty((0, 2)), fixed_n=1)
    with pytest.raises(ValueError):
        greedy_build(tiny_problem1.model, np.array([[1.0, 1.0]]))


def test_pod_optimality_identity(tiny_problem1):
    # mean squared projection error in the reference norm equals the
    # truncated eigenvalue tail of the snapshot correlation operator
    problem = tiny_problem1
    model = problem.model
    ks, f_hat = pool_and_loads(problem, 30, seed=11)
    snaps = np.column_stack([
        np.linalg.solve(model.assemble_interior(k).toarray(), f_hat[:, i])
        for i, k in enumerate(ks)])
    space = pod_build(model, snaps, fixed_n=4)
    lam = space.provenance["eigenvalues"]
    a = model.a_star_II
    proj = snaps - space.psi @ (space.psi.T @ (a @ snaps))
    mean_err2 = np.einsum("ij,ij->j", proj, a @ proj).mean()
    tail = lam[4:].sum()
    assert np.isclose(mean_err2, tail, rtol=1e-10, atol=1e-14 * lam[0])
    assert np.allclose(space.gram_ref, np.eye(space.dim), atol=1e-10)
    assert np.all(np.diff(lam) <= 1e-12 * lam[0])


def test_pod_energy_tolerance(tiny_problem1):
    problem = tiny_problem1
    model = problem.model
    ks, f_hat = pool_and_loads(problem, 25, seed=13)
    snaps = np.column_stack([
        np.linalg.solve(model.assemble_interior(k).toarray(), f_hat[:, i])
        for i, k in enumerate(ks)])
    tol = 1e-4
    space = pod_build(model, snaps, tol=tol)
    lam = space.provenance["eigenvalues"]
    total = space.provenance["trace"]
    n = space.dim
    assert 1.0 - lam[:n].sum() / total <= tol * tol
    if n > 1:
        assert 1.0 - lam[:n - 1].sum() / total > tol * tol


def test_pod_sparse_eigensolver_deterministic(tiny_problem1):
    # above dense_limit the spectrum comes from ARPACK, which must not draw a
    # random start vector
    model = tiny_problem1.model
    snaps = np.random.default_rng(3).standard_normal((model.n_free, 30))
    lam = [pod_build(model, snaps, fixed_n=3, dense_limit=10)
           .provenance["eigenvalues"] for _ in range(3)]
    assert np.array_equal(lam[0], lam[1])
    assert np.array_equal(lam[0], lam[2])


def test_pod_rejects_empty(tiny_problem1):
    with pytest.raises(EmptySpaceError):
        pod_build(tiny_problem1.model, np.empty((tiny_problem1.model.n_free, 0)),
                  fixed_n=1)
    with pytest.raises(EmptySpaceError):
        pod_build(tiny_problem1.model,
                  np.zeros((tiny_problem1.model.n_free, 3)), fixed_n=1)


def test_coercivity_lower_bound_modes(tiny_problem1):
    model = tiny_problem1.model      # theta = (k1, 1), reference k = (1, 1)
    samples = np.array([[0.5, 0.0], [4.0, 0.0]])
    assert np.isclose(coercivity_lower_bound(model, samples), 0.5)
    assert np.isclose(coercivity_lower_bound(model, samples, floor=0.9), 0.9)
    assert np.isclose(coercivity_lower_bound(model, fixed=0.7), 0.7)
