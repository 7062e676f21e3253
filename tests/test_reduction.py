import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from rb_operon import reduction
from rb_operon.assembly import assemble_load_volume
from rb_operon.errors import (EmptySpaceError, NotCoerciveError,
                              StagnationError)
from rb_operon.datamodes import (boundary_greedy, encode_boundary,
                                 encode_source, encoded_load_terms,
                                 encoded_load_weights, source_greedy)
from rb_operon.examples import _data_loads, sample_parameters, sample_xi
from rb_operon.reduction import (RBSpace, _BorderedCholesky, _SweepState,
                                 coercivity_lower_bound, greedy_build,
                                 pod_build, reduce_operators, solve_reduced,
                                 solve_reduced_batch, v_orthonormalize)


def estimator(model, space, k, c, f_hat, alpha_lb):
    """Full-order oracle of the certified bound: the residual's dual norm,
    by one reference solve, over the coercivity bound ``alpha_lb``."""
    theta = np.asarray(model.theta_a(np.asarray(k, dtype=float)), dtype=float)
    rho = np.asarray(f_hat, dtype=float) - model.affine_II.assemble(theta) @ (space.psi @ c)
    z = model.star_solve(rho)
    return float(np.sqrt(max(rho @ z, 0.0)) / alpha_lb)


def load_weights(problem, k):
    """Weights of the benchmark's load terms at one row or a stack of rows."""
    return problem.bench.load_weights(k, None, None)


def affine_pool(problem, n, seed=5):
    """Pool parameters with the benchmark's load terms and their weights."""
    ks = sample_parameters(problem.bench.spec, n, np.random.default_rng(seed))
    return ks, problem.bench.load_terms, load_weights(problem, ks)


def encoded_pool(problem, n, seed=7):
    """Example 2 pool: operator parameters with independent data draws, and
    the encoded load terms and weights of the modes built on those draws."""
    model, spec = problem.model, problem.bench.spec
    rng = np.random.default_rng(seed)
    ks = sample_parameters(spec, n, rng)
    f, g = _data_loads(problem, ks, sample_xi(spec, n, rng))
    smodes = source_greedy(model, f, spec.data["mode_tol"], f.shape[1],
                           np.random.default_rng(0))
    bmodes = boundary_greedy(model, g, spec.data["mode_tol"], g.shape[1],
                             np.random.default_rng(0))
    weights = encoded_load_weights(model.theta_a(ks),
                                   encode_source(smodes, f).T,
                                   encode_boundary(bmodes, model, g).T)
    return ks, encoded_load_terms(model, bmodes, smodes), weights


def load_columns(terms, weights):
    """The pool's loads, one column per sample, each formed as the greedy
    forms its truth's load, so a truth snapshot is the same either way."""
    return np.column_stack([terms @ w for w in weights])


def assert_rechecked(trace, pool_size=None):
    # the sweep maximum is recomputed exactly at every basis size that
    # leaves a pool sample outside the trunk; a pool-sized trunk leaves none
    assert len(trace.rechecks) == len(trace.selected)
    for n, count in zip(trace.basis_size, trace.rechecks):
        assert count == 0 if n == pool_size else count >= 1


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
    terms = tiny_problem1.bench.load_terms
    a_blocks, f_blocks = reduce_operators(model, psi, terms)
    assert a_blocks.shape == (2, 3, 3)
    for p in range(2):
        dense = psi.T @ (model.affine_II.term(p) @ psi)
        assert np.allclose(a_blocks[p], 0.5 * (dense + dense.T))
    # one load term projects to the bits of its own vector product
    assert f_blocks.shape == (1, 3)
    assert np.array_equal(f_blocks[0], terms[:, 0] @ psi)
    # the load blocks are the projection of whatever terms are passed
    terms = rng.standard_normal((model.n_free, 4))
    _, f_blocks = reduce_operators(model, psi, terms)
    assert np.array_equal(f_blocks, terms.T @ psi)


def test_border_update_equals_full_projection(tiny_problem1, rng):
    model = tiny_problem1.model
    qa = model.affine_II.n_terms
    psi = np.linalg.qr(rng.standard_normal((model.n_free, 4)))[0]
    _, terms, weights = affine_pool(tiny_problem1, 5)
    state = _SweepState(model, terms, weights, 4)
    full, _ = reduce_operators(model, psi, terms)
    for j in range(4):
        # enrich keeps A_p times each column, the one sparse apply per term,
        # and returns the new column of every reduced block formed from it
        a_col, _ = state.enrich(model, psi[:, j])
        assert a_col.shape == (qa, j + 1)
        assert np.allclose(a_col, full[:, :j + 1, j])
    for p in range(qa):
        assert np.array_equal(state._w[p, 3], model.affine_II.term(p) @ psi[:, 3])
    assert np.allclose(state.psi, psi)


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
    with pytest.raises(NotCoerciveError):
        solve_reduced(-np.eye(3), np.ones(3))


def test_solve_reduced_batch_names_indefinite_sample(rng):
    n, ns = 5, 9
    base = rng.standard_normal((n, n))
    blocks = np.stack([base @ base.T + np.eye(n), -np.eye(n)])
    theta = np.column_stack([np.ones(ns), np.zeros(ns)])
    theta[6, 1] = 1e3      # B B^T + I - 1e3 I is indefinite, still invertible
    f = rng.standard_normal((ns, n))
    for chunk in (4, 512):
        with pytest.raises(NotCoerciveError, match="sample 6 "):
            solve_reduced_batch(blocks, theta, f, chunk=chunk)
    # a zero operator is semidefinite: the factor's first pivot is zero
    theta[6, 1] = 0.0
    theta[2] = 0.0
    with pytest.raises(NotCoerciveError, match="sample 2 "):
        solve_reduced_batch(blocks, theta, f, chunk=4)


@pytest.mark.parametrize("order", ["C", "F"])
def test_solve_reduced_leaves_operator_unchanged(rng, order):
    n = 7
    base = rng.standard_normal((n, n))
    a = np.array(base @ base.T + n * np.eye(n), order=order)
    f = rng.standard_normal(n)
    a0, f0 = a.copy(), f.copy()
    x = solve_reduced(a, f)
    assert np.array_equal(a, a0) and np.array_equal(f, f0)
    assert np.allclose(a @ x, f, rtol=1e-12)
    ell = reduction.reduced_cholesky(a, 0)
    assert np.array_equal(a, a0)
    assert np.allclose(np.tril(ell) @ np.tril(ell).T, a, rtol=1e-12)


def test_bordered_cholesky_matches_batch_solve():
    rng = np.random.default_rng(4)
    n, qa, ns = 12, 3, 7
    base = rng.standard_normal((qa, n, n))
    blocks = np.einsum("qij,qkj->qik", base, base) + np.eye(n)
    theta = rng.uniform(0.5, 2.0, size=(ns, qa))
    f = rng.standard_normal((ns, n))
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


def test_bordered_cholesky_holds_inverse_factors():
    # three row blocks, the last one cut at the bound: X(k) stays lower
    # triangular with X A_N(k) X^T = I, and an array solve returned is not
    # touched by the borders that follow
    rng = np.random.default_rng(6)
    blk_rows = reduction._BLOCK
    n, qa, ns = 2 * blk_rows + 3, 2, 5
    base = rng.standard_normal((qa, n, n))
    blocks = np.einsum("qij,qkj->qik", base, base) + np.eye(n)
    theta = rng.uniform(0.5, 2.0, size=(ns, qa))
    f = rng.standard_normal((ns, n))
    chol = _BorderedCholesky(theta, n)
    handed = []
    for j in range(n):
        chol.border(blocks[:, :j + 1, j], f[:, j])
        got = chol.solve()
        for old, snap in handed:
            assert np.array_equal(old, snap)
        handed.append((got, got.copy()))
    assert ([blk.shape[:2] for blk in chol.blocks]
            == [(blk_rows, blk_rows), (blk_rows, 2 * blk_rows), (3, n)])
    for s in range(ns):
        x = np.vstack([np.pad(blk[:, :, s], ((0, 0), (0, n - blk.shape[1])))
                       for blk in chol.blocks])
        assert np.array_equal(x, np.tril(x))
        a = np.tensordot(theta[s], blocks, axes=1)
        assert np.allclose(x @ a @ x.T, np.eye(n), atol=1e-10)
        assert np.allclose(a @ got[:, s], f[s], rtol=1e-10, atol=1e-10)


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
    # the retirements move sample 6 into position 0, then sample 3 into
    # position 1: the error names the pool sample, not its position
    for j, gone in enumerate((0, 5, 4, 1)):
        chol.border(blocks[:, :j + 1, j], f[chol.pool[:chol.live], j])
        chol.retire(gone)
    assert list(chol.pool[:chol.live]) == [6, 3, 2]
    with pytest.raises(NotCoerciveError,
                       match="sample 3 is not SPD at dimension 5"):
        chol.border(blocks[:, :5, 4], f[chol.pool[:chol.live], 4])


def test_bordered_cholesky_retires_samples():
    # retirements between borders reorder the live samples, and each block
    # appended after them is only as wide as the samples still live; every
    # survivor's coefficients still solve its own system, found by pool
    # index
    rng = np.random.default_rng(5)
    n, qa, ns = 2 * reduction._BLOCK + 3, 3, 11
    base = rng.standard_normal((qa, n, n))
    blocks = np.einsum("qij,qkj->qik", base, base) + np.eye(n)
    theta = rng.uniform(0.5, 2.0, size=(ns, qa))
    f = rng.standard_normal((ns, n))
    chol = _BorderedCholesky(theta, n)
    gone = [4, 0, 10, 7, 5]
    for j in range(n):
        chol.border(blocks[:, :j + 1, j], f[chol.pool[:chol.live], j])
        if j % 4 == 0:
            chol.retire(gone[j // 4])
        live = chol.pool[:chol.live]
        want = solve_reduced_batch(blocks[:, :j + 1, :j + 1], theta[live],
                                   f[live, :j + 1])
        got = chol.solve()
        assert got.shape == (j + 1, len(live))
        assert np.all(np.linalg.norm(got.T - want, axis=1)
                      <= 1e-12 * np.linalg.norm(want, axis=1))
    assert sorted(chol.pool[:chol.live]) == [1, 2, 3, 6, 8, 9]
    assert [blk.shape[2] for blk in chol.blocks] == [11, 9, 7]


def test_greedy_trace_and_estimator_consistency(tiny_problem1):
    problem = tiny_problem1
    ks, terms, weights = affine_pool(problem, 20)
    f_hat = load_columns(terms, weights)
    space, trace = greedy_build(problem.model, ks, terms, weights,
                                tol=None, fixed_n=3, alpha_lb=problem.alpha_lb)
    assert space.dim == 3
    assert len(trace.selected) == len(trace.max_estimator) == len(trace.basis_size)
    assert trace.basis_size == [1, 2, 3]
    assert trace.stop_reason == "size"
    assert_rechecked(trace)
    assert all(np.diff(trace.max_estimator) < 0)
    # trunk is orthonormal in the reference inner product
    psi = space.psi
    assert np.allclose(psi.T @ (problem.model.a_star_II @ psi), np.eye(3),
                       atol=1e-10)
    # the deflated-representer sweep must agree with the direct dual-norm
    # estimator evaluated one sample at a time on the final space
    etas = []
    for i, k in enumerate(ks):
        a_rb = np.tensordot(problem.model.theta_a(k), space.a_blocks, axes=1)
        c = solve_reduced(a_rb, load_weights(problem, k) @ space.f_blocks)
        etas.append(estimator(problem.model, space, k, c, f_hat[:, i],
                              problem.alpha_lb))
    assert np.isclose(max(etas), trace.max_estimator[-1], rtol=1e-8)


def test_greedy_tolerance_mode_certifies(tiny_problem1):
    problem = tiny_problem1
    ks, terms, weights = affine_pool(problem, 20)
    f_hat = load_columns(terms, weights)
    tol = 1e-6
    space, trace = greedy_build(problem.model, ks, terms, weights,
                                tol=tol, fixed_n=len(ks),
                                alpha_lb=problem.alpha_lb)
    assert trace.max_estimator[-1] <= tol
    assert trace.stop_reason == "tolerance"
    assert_rechecked(trace)
    # every pool sample is now certified below the tolerance
    for i, k in enumerate(ks):
        a_rb = np.tensordot(problem.model.theta_a(k), space.a_blocks, axes=1)
        c = solve_reduced(a_rb, load_weights(problem, k) @ space.f_blocks)
        assert estimator(problem.model, space, k, c, f_hat[:, i],
                         problem.alpha_lb) <= tol * (1 + 1e-9)


def test_estimator_bounds_energy_error(tiny_problem1):
    # reliability: the certified bound dominates both the reference-norm
    # and the parametric-energy error of the reduced solution
    problem = tiny_problem1
    model = problem.model
    ks, terms, weights = affine_pool(problem, 16)
    space, _ = greedy_build(model, ks, terms, weights, tol=None, fixed_n=2,
                            alpha_lb=problem.alpha_lb)
    test_ks = sample_parameters(problem.bench.spec, 25,
                                np.random.default_rng(99))
    for k in test_ks:
        f = problem.bench.load_terms @ load_weights(problem, k)
        u = np.linalg.solve(model.assemble_interior(k).toarray(), f)
        a_rb = np.tensordot(model.theta_a(k), space.a_blocks, axes=1)
        c = solve_reduced(a_rb, load_weights(problem, k) @ space.f_blocks)
        e = u - space.psi @ c
        eta = estimator(model, space, k, c, f, problem.alpha_lb)
        err_star = np.sqrt(e @ (model.a_star_II @ e))
        err_k = np.sqrt(e @ (model.assemble_interior(k) @ e))
        assert err_star <= eta * (1 + 1e-9)
        assert err_k <= eta * (1 + 1e-9)


def test_greedy_data_loads_extend_sweep(tiny_problem2):
    # example 2 draws its loads independently of the operator parameter, so
    # the trunk grows to N >> 3 before a tolerance stop, which certifies
    # every sample of the pool it swept, those left out of the trunk too.
    # The same loads passed one per sample pick, recheck and stop alike
    problem = tiny_problem2
    model = problem.model
    ks, terms, weights = encoded_pool(problem, 24)
    f_hat = load_columns(terms, weights)
    tol = 1.0
    space, trace = greedy_build(model, ks, terms, weights, tol=tol,
                                fixed_n=len(ks), alpha_lb=problem.alpha_lb)
    assert 12 <= space.dim < len(ks)
    assert trace.stop_reason == "tolerance"
    assert_rechecked(trace)
    for i, k in enumerate(ks):
        a_rb = np.tensordot(model.theta_a(k), space.a_blocks, axes=1)
        c = solve_reduced(a_rb, space.psi.T @ f_hat[:, i])
        assert estimator(model, space, k, c, f_hat[:, i],
                         problem.alpha_lb) <= tol * (1 + 1e-9)
    _, columns = greedy_build(model, ks, f_hat, np.eye(len(ks)), tol=tol,
                              fixed_n=len(ks), alpha_lb=problem.alpha_lb)
    for key in ("selected", "rechecks", "stop_reason"):
        assert getattr(columns, key) == getattr(trace, key)


@pytest.fixture
def two_load_problem(tiny_problem1):
    """tiny_problem1 with a second load term: the base flux weighted by k2
    and a unit volume source weighted by k1."""
    model = tiny_problem1.model
    f_vol = assemble_load_volume(model.mesh, lambda x: np.ones(len(x)))
    bench = copy.copy(tiny_problem1.bench)
    bench.load_terms = np.column_stack([bench.load_terms, f_vol[model.free]])
    bench.load_weights = lambda k, a, b: np.asarray(k, dtype=float)[..., ::-1]
    return dataclasses.replace(tiny_problem1, bench=bench)


@pytest.mark.parametrize("name, kwargs", [
    ("two_load_problem", {"fixed_n": 4}),
    ("tiny_problem1", {"fixed_n": 3}),
    ("tiny_problem1", {"tol": 1e-2, "fixed_n": 30}),
    ("tiny_problem3", {"fixed_n": 10}),
    ("tiny_problem3", {"tol": 0.3, "fixed_n": 30}),
])
def test_greedy_affine_loads_match_load_columns(name, kwargs, request):
    # the model's loads as Q_f terms and weights against the same loads as
    # terms, one per sample, with identity weights: the sweep must pick,
    # recheck and stop alike, and build the same trunk bit for bit.  The
    # maxima agree to round-off; these settings keep every one far above
    # the round-off floor, where their last digits would be noise in either
    # form
    problem = request.getfixturevalue(name)
    model = problem.model
    ks, terms, weights = affine_pool(problem, 30)
    kwargs = {"tol": None, **kwargs}
    affine = greedy_build(model, ks, terms, weights,
                          alpha_lb=problem.alpha_lb, **kwargs)
    columns = greedy_build(model, ks, load_columns(terms, weights),
                           np.eye(len(ks)), alpha_lb=problem.alpha_lb,
                           **kwargs)
    (sa, ta), (sc, tc) = affine, columns
    for key in ("selected", "rechecks", "stop_reason"):
        assert getattr(ta, key) == getattr(tc, key)
    assert np.array_equal(sa.psi, sc.psi)
    assert np.array_equal(sa.a_blocks, sc.a_blocks)
    assert np.allclose(ta.max_estimator, tc.max_estimator, rtol=1e-12, atol=0)


def test_sweep_state_terms_match_load_columns(tiny_problem1):
    # two load terms with pool weights against the same loads as terms with
    # identity weights: s^2, its downdate and exact recheck, the P_F rows,
    # the reduced-load rows enrich returns and the residual agree sample by
    # sample, cross terms of the Gram included, and a recheck runs no
    # reference solve
    model = tiny_problem1.model
    rng = np.random.default_rng(4)
    terms = np.column_stack([tiny_problem1.bench.load_terms,
                             rng.standard_normal(model.n_free)])
    weights = rng.standard_normal((12, 2))
    held = _SweepState(model, terms, weights, 6)
    cols = _SweepState(model, terms @ weights.T, np.eye(12), 6)
    pool = np.arange(12)
    assert np.allclose(held.s0_sq, cols.s0_sq, rtol=1e-12, atol=0)
    for _ in range(3):
        v = v_orthonormalize(model, held.psi if held.n else None,
                             rng.standard_normal(model.n_free))
        f_held = held.enrich(model, v)[1]
        f_cols = cols.enrich(model, v)[1]
        assert f_held.shape == (12,)
        assert np.allclose(f_held, f_cols, rtol=1e-12, atol=0)
        assert np.allclose(f_held, (v @ terms) @ weights.T, rtol=1e-12, atol=0)
    assert held.m == cols.m == 6
    assert np.allclose(held.s2, cols.s2, rtol=1e-10, atol=0)
    assert np.allclose(held._p_f[:6], cols._p_f[:6], rtol=1e-12, atol=1e-14)
    solves = model.band.solves
    held.exact_s2(pool)
    cols.exact_s2(pool)
    assert model.band.solves == solves
    assert np.allclose(held.s2, cols.s2, rtol=1e-10, atol=0)
    theta = model.theta_a(sample_parameters(tiny_problem1.bench.spec, 12, rng))
    c = rng.standard_normal((3, 12))
    assert np.allclose(held.residual_sq(theta, pool, c),
                       cols.residual_sq(theta, pool, c), rtol=1e-10)


def test_greedy_affine_loads_hold_no_load_matrix(tiny_problem1):
    # on the model's affine loads the sweep holds a few vectors of the
    # pool's length and Q_f of n_free, never the n_free x n_pool load
    # matrix: at 4096 samples its peak stays under a quarter of that matrix
    problem = tiny_problem1
    model = problem.model
    n = 4096
    ks, terms, weights = affine_pool(problem, n, seed=3)
    greedy_build(model, ks[:8], terms, weights[:8], tol=None, fixed_n=2,
                 alpha_lb=problem.alpha_lb)
    tracemalloc.start()
    try:
        greedy_build(model, ks, terms, weights, tol=None, fixed_n=2,
                     alpha_lb=problem.alpha_lb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.n_free * n * 8 / 4


def full_order_estimators(model, space, ks, f_hat, n, alpha_lb):
    """``estimator`` of every pool sample on the first n trunk columns."""
    sub = RBSpace(psi=space.psi[:, :n], a_blocks=space.a_blocks[:, :n, :n],
                  f_blocks=None)
    etas = []
    for i, k in enumerate(ks):
        a_rb = np.tensordot(model.theta_a(k), sub.a_blocks, axes=1)
        c = solve_reduced(a_rb, sub.psi.T @ f_hat[:, i])
        etas.append(estimator(model, sub, k, c, f_hat[:, i], alpha_lb))
    return np.array(etas)


@pytest.mark.parametrize("name", ["tiny_problem2", "tiny_problem3"])
def test_greedy_selection_matches_full_order_estimator(name, request):
    # a trunk near the pool size drives every estimator to the round-off
    # floor, where the downdated s^2 is noise; each pick and each recorded
    # maximum must still be those of the full-order estimator.  Example 2
    # sweeps its encoded loads, Q_f = r_f + Q_a r_g terms; example 3 has
    # Q_a = 2Q affine terms, the widest residual product of the sweep.  The
    # oracle's own residual loses digits to cancellation on example 3
    problem = request.getfixturevalue(name)
    model = problem.model
    if name == "tiny_problem2":
        ks, terms, weights = encoded_pool(problem, 24)
        rtol = 1e-9
    else:
        ks, terms, weights = affine_pool(problem, 24)
        rtol = 1e-8
    f_hat = load_columns(terms, weights)
    space, trace = greedy_build(model, ks, terms, weights, tol=None,
                                fixed_n=24, alpha_lb=problem.alpha_lb)
    assert space.dim == 24
    assert_rechecked(trace, len(ks))
    top = trace.max_estimator[0]
    for n in range(1, space.dim + 1):
        etas = full_order_estimators(model, space, ks, f_hat, n,
                                     problem.alpha_lb)
        if n < space.dim:
            assert trace.selected[n] == int(np.argmax(etas))
        if trace.max_estimator[n - 1] > 1e-10 * top:
            assert np.isclose(trace.max_estimator[n - 1], max(etas),
                              rtol=rtol, atol=0.0)
    assert trace.max_estimator[-1] <= 1e-10 * top


def test_sweep_state_downdate_within_slack(tiny_problem2):
    # enrich until U spans the whole space: the downdated s^2 falls to the
    # round-off floor, where it may go negative, but it must stay within the
    # drift slack of the exact recomputation, which is never negative, on
    # the encoded load terms and on the same loads one per sample
    problem = tiny_problem2
    model = problem.model
    ks, terms, weights = encoded_pool(problem, 24)
    pool = np.arange(len(ks))
    for loads in ((terms, weights),
                  (load_columns(terms, weights), np.eye(len(ks)))):
        state = _SweepState(model, *loads, 40)
        rng = np.random.default_rng(2)
        for step in range(1, 41):
            v = v_orthonormalize(model, state.psi if state.n else None,
                                 rng.standard_normal(model.n_free))
            state.enrich(model, v)
            if step == 12 or state.m == model.n_free:
                down = state.s2.copy()
                state.exact_s2(pool)
                assert np.all(np.abs(down - state.s2) <= state.slack())
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
    loads = problem.bench.load_terms, load_weights(problem, ks)
    with pytest.raises(StagnationError):
        greedy_build(problem.model, ks, *loads, tol=1e-13, fixed_n=3,
                     alpha_lb=1e-12)
    # without a tolerance the dependent snapshot ends the loop instead
    space, trace = greedy_build(problem.model, ks, *loads, tol=None,
                                fixed_n=3, alpha_lb=1e-12)
    assert space.dim == 1
    assert trace.stop_reason == "dependent_snapshot"


def test_greedy_empty_pool(tiny_problem1, tiny_problem2):
    model = tiny_problem1.model
    terms = tiny_problem1.bench.load_terms
    with pytest.raises(EmptySpaceError):
        greedy_build(model, np.empty((0, 2)), terms, np.empty((0, 1)),
                     tol=None, fixed_n=1, alpha_lb=1.0)
    # every sample needs one weight per load term
    model2 = tiny_problem2.model
    terms2 = np.ones((model2.n_free, 2))
    for weights in (np.ones((2, 2)), np.ones((3, 1)), np.ones(3)):
        with pytest.raises(ValueError, match="load weights"):
            greedy_build(model2, np.ones((3, 3)), terms2, weights, tol=None,
                         fixed_n=1, alpha_lb=1.0)


def test_greedy_needs_maximal_dimension(tiny_problem1, monkeypatch):
    # the cap sizes every buffer of the sweep, so a tolerance alone is not
    # enough to build; it only stops the build before the cap.  A cap above
    # the pool size allocates and stops at the pool size, where the trunk
    # holds every sample: nothing is left to sweep, and the size records a
    # maximum of exactly 0 after no recheck
    model = tiny_problem1.model
    ks, terms, weights = affine_pool(tiny_problem1, 8)
    built = []

    class Chol(_BorderedCholesky):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    class State(_SweepState):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(reduction, "_SweepState", State)
    monkeypatch.setattr(reduction, "_BorderedCholesky", Chol)
    space, trace = greedy_build(model, ks[:4], terms, weights[:4], tol=None,
                                fixed_n=10, alpha_lb=1.0)
    assert space.dim == 4 and trace.stop_reason == "size"
    assert trace.max_estimator[-1] == 0.0 < min(trace.max_estimator[:-1])
    assert_rechecked(trace, 4)
    state, chol = built
    assert chol.live == 0
    qa = model.affine_II.n_terms
    assert state._psi.shape[0] == state._a_col.shape[1] == 4
    assert chol.y.shape[0] == 4
    assert state._u.shape[0] == state._r.shape[0] == qa * 4


def test_pod_optimality_identity(tiny_problem1):
    # mean squared projection error in the reference norm equals the
    # truncated eigenvalue tail of the snapshot correlation operator
    problem = tiny_problem1
    model = problem.model
    ks, terms, weights = affine_pool(problem, 30, seed=11)
    f_hat = load_columns(terms, weights)
    snaps = np.column_stack([
        np.linalg.solve(model.assemble_interior(k).toarray(), f_hat[:, i])
        for i, k in enumerate(ks)])
    space = pod_build(model, snaps, terms, 4)
    lam = space.provenance["eigenvalues"]
    a = model.a_star_II
    proj = snaps - space.psi @ (space.psi.T @ (a @ snaps))
    mean_err2 = np.einsum("ij,ij->j", proj, a @ proj).mean()
    tail = lam[4:].sum()
    assert np.isclose(mean_err2, tail, rtol=1e-10, atol=1e-14 * lam[0])
    assert np.allclose(space.psi.T @ (a @ space.psi), np.eye(space.dim),
                       atol=1e-10)
    assert np.all(np.diff(lam) <= 1e-12 * lam[0])


def test_pod_energy_tolerance(tiny_problem1, monkeypatch):
    tol = 1e-4
    monkeypatch.setattr(reduction, "_POD_TOL", tol)
    problem = tiny_problem1
    model = problem.model
    ks, terms, weights = affine_pool(problem, 25, seed=13)
    f_hat = load_columns(terms, weights)
    snaps = np.column_stack([
        np.linalg.solve(model.assemble_interior(k).toarray(), f_hat[:, i])
        for i, k in enumerate(ks)])
    space = pod_build(model, snaps, terms, None)
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
    terms = tiny_problem1.bench.load_terms
    lam = [pod_build(model, snaps, terms, 3).provenance["eigenvalues"]
           for _ in range(3)]
    assert np.array_equal(lam[0], lam[1])
    assert np.array_equal(lam[0], lam[2])


def test_pod_rejects_empty(tiny_problem1):
    model = tiny_problem1.model
    terms = tiny_problem1.bench.load_terms
    with pytest.raises(EmptySpaceError):
        pod_build(model, np.empty((model.n_free, 0)), terms, 1)
    with pytest.raises(EmptySpaceError):
        pod_build(model, np.zeros((model.n_free, 3)), terms, 1)


def test_coercivity_lower_bound_modes(tiny_problem1):
    model = tiny_problem1.model      # theta = (k1, 1), reference k = (1, 1)
    samples = np.array([[0.5, 0.0], [4.0, 0.0]])
    assert np.isclose(coercivity_lower_bound(model, samples), 0.5)
