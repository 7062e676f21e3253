import numpy as np
import pytest

from rb_operon.datamodes import (boundary_greedy, case2_blocks,
                                 encode_boundary, encode_source,
                                 encoded_load_terms, encoded_load_weights,
                                 reduced_rhs_case2, reduced_rhs_case2_batch,
                                 source_greedy)
from rb_operon.errors import EmptySpaceError
from rb_operon.assembly import aggregated_load


def snapshots(problem, n_snap, seed=21):
    rng = np.random.default_rng(seed)
    model = problem.model
    # smooth-ish random snapshots: random nodal data shaped by one solve
    f = rng.standard_normal((model.n_free, n_snap))
    g = rng.standard_normal((len(model.dirichlet), n_snap))
    return model.star_solve(f), g


def test_source_modes_orthonormal_and_nested(tiny_problem2):
    model = tiny_problem2.model
    f, _ = snapshots(tiny_problem2, 12)
    loads = model.a_star_II @ f          # functionals, one per column
    modes = source_greedy(model, loads, r_max=6)
    w = modes.w
    gram = w.T @ (model.a_star_II @ w)
    assert np.allclose(gram, np.eye(modes.rank), atol=1e-10)
    assert np.all(np.diff(modes.trace) <= 1e-12)


def test_source_modes_certify_dual_norm(tiny_problem2):
    # the greedy trace bounds the dual-norm best-approximation error of
    # every training functional; with full rank the fit is exact
    model = tiny_problem2.model
    f, _ = snapshots(tiny_problem2, 7)
    loads = model.a_star_II @ f
    modes = source_greedy(model, loads, r_max=7)
    assert modes.rank == 7
    a = encode_source(modes, loads)
    recon = model.a_star_II @ (modes.w @ a)
    for j in range(7):
        resid = loads[:, j] - recon[:, j]
        dual = np.sqrt(resid @ model.star_solve(resid))
        assert dual < 1e-9 * np.sqrt(loads[:, j] @ model.star_solve(loads[:, j]))


def test_source_modes_tolerance_certifies(tiny_problem2):
    model = tiny_problem2.model
    f, _ = snapshots(tiny_problem2, 15)
    loads = model.a_star_II @ f
    tol = 1e-3
    scale = np.sqrt(max(np.einsum("ij,ij->j", f, loads)))
    modes = source_greedy(model, loads, tol=tol * scale, r_max=15)
    a = encode_source(modes, loads)
    recon = model.a_star_II @ (modes.w @ a)
    for j in range(15):
        resid = loads[:, j] - recon[:, j]
        dual = np.sqrt(max(resid @ model.star_solve(resid), 0.0))
        assert dual <= tol * scale * (1 + 1e-9)


def test_boundary_modes_orthonormal(tiny_problem2):
    model = tiny_problem2.model
    _, g = snapshots(tiny_problem2, 10)
    modes = boundary_greedy(model, g, r_max=5)
    gram = modes.eta.T @ (model.w_gamma @ modes.eta)
    assert np.allclose(gram, np.eye(modes.rank), atol=1e-10)


def test_boundary_modes_full_rank_exact(tiny_problem2):
    model = tiny_problem2.model
    _, g = snapshots(tiny_problem2, 6)
    modes = boundary_greedy(model, g, r_max=6)
    b = encode_boundary(modes, model, g)
    recon = modes.eta @ b
    assert np.allclose(recon, g, atol=1e-9 * np.abs(g).max())


def test_greedy_skips_duplicate_snapshots(tiny_problem2):
    model = tiny_problem2.model
    _, g = snapshots(tiny_problem2, 4)
    doubled = np.column_stack([g, g])
    modes = boundary_greedy(model, doubled, r_max=8)
    assert modes.rank == 4


def test_empty_snapshots_raise(tiny_problem2):
    model = tiny_problem2.model
    with pytest.raises(EmptySpaceError):
        source_greedy(model, np.empty((model.n_free, 0)))
    with pytest.raises(EmptySpaceError):
        boundary_greedy(model, np.zeros((len(model.dirichlet), 3)))


def test_case2_blocks_reproduce_aggregated_load(tiny_problem2, rng):
    # with full-rank modes the modal right-hand side must equal the trunk
    # projection of the aggregated full-order load, for every affine weight
    problem = tiny_problem2
    model = problem.model
    f, g = snapshots(problem, 6)
    loads = model.a_star_II @ f
    smodes = source_greedy(model, loads, r_max=6)
    bmodes = boundary_greedy(model, g, r_max=6)
    psi = np.linalg.qr(rng.standard_normal((model.n_free, 4)))[0]
    blocks = case2_blocks(model, psi, bmodes, smodes)
    assert blocks.dims == (6, 6, 4)
    ks = np.array([1.3, 0.4, 2.0]) + 0.1 * np.arange(3)[:, None]
    f_hat = aggregated_load(model, ks, loads[:, :3], g[:, :3])
    for j, k in enumerate(ks):
        a = encode_source(smodes, loads[:, j])
        b = encode_boundary(bmodes, model, g[:, j])
        f_rb = reduced_rhs_case2(blocks, model.theta_a(k), a, b)
        assert np.allclose(f_rb, psi.T @ f_hat[:, j],
                           atol=1e-9 * np.abs(f_hat).max())


def test_reduced_rhs_batch_matches_loop(tiny_problem2, rng):
    problem = tiny_problem2
    model = problem.model
    f, g = snapshots(problem, 5)
    loads = model.a_star_II @ f
    smodes = source_greedy(model, loads, r_max=5)
    bmodes = boundary_greedy(model, g, r_max=5)
    psi = np.linalg.qr(rng.standard_normal((model.n_free, 3)))[0]
    blocks = case2_blocks(model, psi, bmodes, smodes)
    ns = 8
    theta = rng.uniform(0.5, 2.0, size=(ns, model.affine_II.n_terms))
    a = rng.standard_normal((ns, smodes.rank))
    b = rng.standard_normal((ns, bmodes.rank))
    batch = reduced_rhs_case2_batch(blocks, theta, a, b)
    for s in range(ns):
        row = reduced_rhs_case2(blocks, theta[s], a[s], b[s])
        assert np.abs(row - batch[s]).max() <= 1e-14 * np.abs(batch[s]).max()


def test_encoded_load_projects_to_modal_rhs(tiny_problem2, rng):
    # the encoded load is affine in (a, theta b): its trunk projection is
    # the modal reduced right-hand side of every row of (theta, a, b)
    problem = tiny_problem2
    model = problem.model
    f, g = snapshots(problem, 5)
    loads = model.a_star_II @ f
    smodes = source_greedy(model, loads, r_max=5)
    bmodes = boundary_greedy(model, g, r_max=4)
    psi = np.linalg.qr(rng.standard_normal((model.n_free, 3)))[0]
    ns = 8
    theta = rng.uniform(0.5, 2.0, size=(ns, model.affine_II.n_terms))
    a = rng.standard_normal((ns, smodes.rank))
    b = rng.standard_normal((ns, bmodes.rank))
    terms = encoded_load_terms(model, bmodes, smodes)
    weights = encoded_load_weights(theta, a, b)
    assert terms.shape == (model.n_free,
                           smodes.rank + model.affine_II.n_terms * bmodes.rank)
    assert weights.shape == (ns, terms.shape[1])
    want = reduced_rhs_case2_batch(case2_blocks(model, psi, bmodes, smodes),
                                   theta, a, b)
    got = (psi.T @ (terms @ weights.T)).T
    assert np.all(np.linalg.norm(got - want, axis=1)
                  <= 1e-13 * np.linalg.norm(want, axis=1))
