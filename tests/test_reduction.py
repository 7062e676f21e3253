import numpy as np
import pytest

from rb_operon import reduction
from rb_operon.errors import (CoercivityViolationError, EmptySpaceError,
                              StagnationError)
from rb_operon.examples import _data_loads, sample_parameters, sample_xi
from rb_operon.reduction import (RBSpace, _BorderedCholesky, _SweepState,
                                 _border_update, coercivity_lower_bound,
                                 estimator, greedy_build, pod_build,
                                 reduce_operators, solve_reduced,
                                 solve_reduced_batch, v_orthonormalize)


def pool_and_loads(problem, n, seed=5):
    ks = sample_parameters(problem.bench.spec, n, np.random.default_rng(seed))
    f_hat = np.column_stack([problem.model.load_interior(k) for k in ks])
    return ks, f_hat


def data_pool_and_loads(problem, n, seed=7):
    """Example 2 pool: operator parameters with independent data loads."""
    rng = np.random.default_rng(seed)
    ks = sample_parameters(problem.bench.spec, n, rng)
    xis = sample_xi(problem.bench.spec, n, rng)
    return ks, _data_loads(problem, ks, xis)[2]


def assert_rechecked(trace):
    # the sweep maximum is recomputed exactly at every basis size
    assert len(trace.rechecks) == len(trace.selected)
    assert min(trace.rechecks) >= 1


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


def test_v_orthonormalize_ignores_buffer_layout(tiny_problem1, rng):
    # the trunk is a view of a wider buffer while it grows; the result must
    # be bitwise that of the same columns held alone, whatever the layout
    model = tiny_problem1.model
    psi = np.linalg.qr(rng.standard_normal((model.n_free, 6)))[0]
    cand = rng.standard_normal(model.n_free)
    wide = np.full((model.n_free, 9), np.nan)
    wide[:, :6] = psi
    rows = np.full((9, model.n_free), np.nan)
    rows[:6] = psi.T
    for n in range(1, 7):
        want = v_orthonormalize(model, np.ascontiguousarray(psi[:, :n]), cand)
        for view in (wide[:, :n], rows[:n].T):
            assert np.array_equal(v_orthonormalize(model, view, cand), want)


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
    qa = model.affine_II.n_terms
    psi = np.linalg.qr(rng.standard_normal((model.n_free, 4)))[0]
    _, f_hat = pool_and_loads(tiny_problem1, 5)
    state = _SweepState(model, f_hat, 4)
    for j in range(4):
        state.enrich(model, psi[:, j])
    # enrich keeps A_p times each column, the one sparse apply per term, and
    # borders the reduced blocks with it in place
    for p in range(qa):
        assert np.array_equal(state._w[p, 3], model.affine_II.term(p) @ psi[:, 3])
    full, _ = reduce_operators(model, psi)
    assert np.allclose(state.a_blocks, full)
    assert np.allclose(state.psi, psi)
    # the border goes into the unused part of a wider buffer and nowhere else
    small, _ = reduce_operators(model, psi[:, :3])
    buf = np.full((qa, 6, 6), np.nan)
    buf[:, :3, :3] = small
    _border_update(buf, psi, state._w[:, 3])
    assert np.allclose(buf[:, :4, :4], full)
    assert np.isnan(buf[:, 4:, :]).all() and np.isnan(buf[:, :, 4:]).all()


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


def test_solve_reduced_batch_names_indefinite_sample(rng):
    n, ns = 5, 9
    base = rng.standard_normal((n, n))
    blocks = np.stack([base @ base.T + np.eye(n), -np.eye(n)])
    theta = np.column_stack([np.ones(ns), np.zeros(ns)])
    theta[6, 1] = 1e3      # B B^T + I - 1e3 I is indefinite, still invertible
    f = rng.standard_normal((ns, n))
    for chunk in (4, 512):
        with pytest.raises(CoercivityViolationError, match="sample 6 "):
            solve_reduced_batch(blocks, theta, f, chunk=chunk)


def test_bordered_cholesky_matches_batch_solve():
    rng = np.random.default_rng(4)
    n, qa, ns = 12, 3, 7
    base = rng.standard_normal((qa, n, n))
    blocks = np.einsum("qij,qkj->qik", base, base) + np.eye(n)
    theta = rng.uniform(0.5, 2.0, size=(ns, qa))
    f = rng.standard_normal((ns, n))
    # n exceeds the initial capacity, so the y buffer grows on the way
    assert n > reduction._CAPACITY
    chol = _BorderedCholesky(theta, n)
    kept = None
    for j in range(n):
        chol.border(blocks[:, :j + 1, j], f[:, j])
        want = solve_reduced_batch(blocks[:, :j + 1, :j + 1], theta,
                                   f[:, :j + 1])
        got = chol.solve()
        assert got.shape == (j + 1, ns)
        assert np.all(np.linalg.norm(got.T - want, axis=1)
                      <= 1e-12 * np.linalg.norm(want, axis=1))
        # a result survives later borders and solves in the reused buffers
        if kept is not None:
            assert np.array_equal(kept[0], kept[1])
        kept = (got, got.copy())
    assert len(chol.y) == n


def test_bordered_cholesky_names_indefinite_sample():
    rng = np.random.default_rng(4)
    n, qa, ns = 6, 3, 7
    base = rng.standard_normal((qa, n, n))
    blocks = np.einsum("qij,qkj->qik", base, base) + np.eye(n)
    # one more affine term, seen only by sample 3, makes its operator
    # indefinite from dimension 5 on while the leading 4x4 block stays SPD
    extra = np.zeros((1, n, n))
    extra[0, 4, 4] = -1e4
    blocks = np.concatenate([blocks, extra])
    theta = np.column_stack([rng.uniform(0.5, 2.0, size=(ns, qa)),
                             np.zeros(ns)])
    theta[3, qa] = 1.0
    f = rng.standard_normal((ns, n))
    chol = _BorderedCholesky(theta, n)
    for j in range(4):
        chol.border(blocks[:, :j + 1, j], f[:, j])
    with pytest.raises(CoercivityViolationError,
                       match="sample 3 is not SPD at dimension 5"):
        chol.border(blocks[:, :5, 4], f[:, 4])


def test_greedy_trace_and_estimator_consistency(tiny_problem1):
    problem = tiny_problem1
    ks, f_hat = pool_and_loads(problem, 20)
    space, trace = greedy_build(problem.model, ks, f_hat_all=f_hat,
                                fixed_n=3, alpha_lb=problem.alpha_lb)
    assert space.dim == 3
    assert len(trace.selected) == len(trace.max_estimator) == len(trace.basis_size)
    assert trace.basis_size == [1, 2, 3]
    assert trace.stop_reason == "size"
    assert_rechecked(trace)
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
    assert_rechecked(trace)
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
    test_ks = sample_parameters(problem.bench.spec, 25,
                                np.random.default_rng(99))
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
    assert_rechecked(trace)


def test_greedy_data_loads_extend_sweep(tiny_problem2):
    # example 2 draws its loads independently of the operator parameter, so
    # the trunk grows to N >> 3; the subset converges first, and the pool
    # certification pulls violators in, which rebuilds the sweep factors
    problem = tiny_problem2
    model = problem.model
    ks, f_hat = data_pool_and_loads(problem, 24)
    tol = 0.1
    space, trace = greedy_build(model, ks, f_hat_all=f_hat, tol=tol,
                                alpha_lb=problem.alpha_lb,
                                sweep_subset=np.arange(6))
    assert space.dim >= 12
    assert max(trace.rounds) >= 1
    assert trace.stop_reason == "tolerance"
    assert_rechecked(trace)
    for i, k in enumerate(ks):
        a_rb = np.tensordot(model.theta_a(k), space.a_blocks, axes=1)
        c = solve_reduced(a_rb, space.psi.T @ f_hat[:, i])
        assert estimator(model, space, k, c, f_hat[:, i]) <= tol * (1 + 1e-9)


def full_order_estimators(model, space, ks, f_hat, n):
    """``estimator`` of every pool sample on the first n trunk columns."""
    sub = RBSpace(psi=space.psi[:, :n], a_blocks=space.a_blocks[:, :n, :n],
                  f_blocks=None, gram_ref=None, alpha_lb=space.alpha_lb)
    etas = []
    for i, k in enumerate(ks):
        a_rb = np.tensordot(model.theta_a(k), sub.a_blocks, axes=1)
        c = solve_reduced(a_rb, sub.psi.T @ f_hat[:, i])
        etas.append(estimator(model, sub, k, c, f_hat[:, i]))
    return np.array(etas)


def test_greedy_selection_matches_full_order_estimator(tiny_problem2):
    # a pool-sized trunk drives every estimator to the round-off floor, where
    # the downdated s^2 is noise; each pick and each recorded maximum must
    # still be those of the full-order estimator
    problem = tiny_problem2
    model = problem.model
    ks, f_hat = data_pool_and_loads(problem, 24)
    space, trace = greedy_build(model, ks, f_hat_all=f_hat, fixed_n=24,
                                alpha_lb=problem.alpha_lb)
    assert space.dim == 24
    assert_rechecked(trace)
    top = trace.max_estimator[0]
    for n in range(1, space.dim + 1):
        etas = full_order_estimators(model, space, ks, f_hat, n)
        if n < space.dim:
            assert trace.selected[n] == int(np.argmax(etas))
        if trace.max_estimator[n - 1] > 1e-10 * top:
            assert np.isclose(trace.max_estimator[n - 1], max(etas),
                              rtol=1e-8, atol=0.0)
    assert trace.max_estimator[-1] <= 1e-10 * top


def test_greedy_buffers_grow_to_reachable_bound(tiny_problem2, monkeypatch):
    # a tolerance-only build starts from small buffers and doubles them as
    # the trunk grows; the picks must not notice, and no buffer may reserve
    # more than the trunk can reach
    problem = tiny_problem2
    model = problem.model
    qa = model.affine_II.n_terms
    ks, f_hat = data_pool_and_loads(problem, 24)
    built = []

    class State(_SweepState):
        def __init__(self, *args):
            super().__init__(*args)
            self.start = (self._psi.shape[0], self._u.shape[0])
            built.append(self)

    class Chol(_BorderedCholesky):
        def __init__(self, *args):
            super().__init__(*args)
            self.start = len(self.y)
            built.append(self)

    grown = []
    reserve = reduction._reserve

    def recording_reserve(buf, used, bound, axes=(0,)):
        out = reserve(buf, used, bound, axes)
        if out is not buf:
            grown.append((buf.shape[axes[0]], out.shape[axes[0]], bound))
        return out

    monkeypatch.setattr(reduction, "_SweepState", State)
    monkeypatch.setattr(reduction, "_BorderedCholesky", Chol)
    monkeypatch.setattr(reduction, "_reserve", recording_reserve)
    space, trace = greedy_build(model, ks, f_hat_all=f_hat, tol=0.4,
                                alpha_lb=problem.alpha_lb)
    assert trace.stop_reason == "tolerance"
    assert space.dim > 2 * reduction._CAPACITY   # outgrown twice
    for n in range(1, space.dim):
        etas = full_order_estimators(model, space, ks, f_hat, n)
        assert trace.selected[n] == int(np.argmax(etas))
        assert np.isclose(trace.max_estimator[n - 1], max(etas), rtol=1e-8)
    bound = min(len(ks), model.n_free)
    # every growth doubles, capped at the bound; the trunk buffers start
    # below it and double twice
    cap = reduction._CAPACITY
    assert all(new == min(2 * old, top) for old, new, top in grown)
    assert (cap, 2 * cap, bound) in grown and (2 * cap, bound, bound) in grown
    state, chol = built
    assert state.bound == chol.bound == bound
    assert state.start == (cap, qa * cap) and chol.start == cap
    assert state._psi.shape[0] <= bound
    assert state._w.shape[1] <= bound
    assert state._f_rb.shape[0] <= bound
    assert max(state._a.shape[1:]) <= bound
    assert state._r.shape[2] <= bound
    assert state._u.shape[0] <= qa * bound
    assert state._p_f.shape[0] <= qa * bound
    assert state._r.shape[1] <= qa * bound
    for buf in (chol.y, chol._tmp):
        assert space.dim <= buf.shape[0] <= bound
    assert state.n == space.dim
    assert np.array_equal(space.psi, state.psi)


def test_sweep_state_downdate_within_slack(tiny_problem2):
    # enrich until U spans the whole space: the downdated s^2 falls to the
    # round-off floor, where it may go negative, but it must stay within the
    # drift slack of the exact recomputation, which is never negative
    problem = tiny_problem2
    model = problem.model
    ks, f_hat = data_pool_and_loads(problem, 24)
    pool = np.arange(f_hat.shape[1])
    state = _SweepState(model, f_hat, 40)
    rng = np.random.default_rng(2)
    for step in range(1, 41):
        v = v_orthonormalize(model, state.psi if state.n else None,
                             rng.standard_normal(model.n_free))
        state.enrich(model, v)
        if step == 12 or state.m == model.n_free:
            down = state.s2.copy()
            state.exact_s2(pool)
            assert np.all(np.abs(down - state.s2) <= state.slack(pool))
            assert np.all(state.s2 >= 0.0)
        if state.m == model.n_free:
            break
    assert step > 12
    assert np.all(down <= 1e-12 * state.s0_sq)


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


def test_pod_sparse_eigensolver_deterministic(tiny_problem1, monkeypatch):
    # above the dense limit the spectrum comes from ARPACK, which must not
    # draw a random start vector
    monkeypatch.setattr(reduction, "_DENSE_LIMIT", 10)
    model = tiny_problem1.model
    snaps = np.random.default_rng(3).standard_normal((model.n_free, 30))
    lam = [pod_build(model, snaps, fixed_n=3).provenance["eigenvalues"]
           for _ in range(3)]
    assert np.array_equal(lam[0], lam[1])
    assert np.array_equal(lam[0], lam[2])


def test_pod_needs_tolerance_or_dimension(tiny_problem1):
    model = tiny_problem1.model
    snaps = np.random.default_rng(3).standard_normal((model.n_free, 4))
    with pytest.raises(ValueError, match="need a tolerance or a fixed"):
        pod_build(model, snaps)


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
