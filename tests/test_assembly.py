import numpy as np
import pytest
from scipy import sparse
from scipy.linalg.lapack import dpbtrf

from rb_operon.assembly import (AffineSparse, ParametricModel, aggregated_load,
                                assemble_boundary_mass, assemble_load_boundary,
                                assemble_load_volume, assemble_mass,
                                assemble_stiffness, discrete_lifting,
                                full_field, interior_factor,
                                triangle_geometry, truth_solve)
from rb_operon.errors import EmptyMatrixError, NotCoerciveError
from rb_operon.examples import example3_direct_operator
from rb_operon.mesh import (dirichlet_nodes, square_with_inclusion_mesh,
                            unit_square_mesh)


def nodal(mesh, fn):
    return fn(mesh.nodes[:, 0], mesh.nodes[:, 1])


def test_triangle_geometry_partition():
    mesh = unit_square_mesh(5)
    areas, grads = triangle_geometry(mesh)
    assert np.isclose(areas.sum(), 1.0)
    # hat gradients sum to zero on every triangle
    assert np.allclose(grads.sum(axis=1), 0.0)
    # each hat is 1 at its own vertex and 0 at the others, so grad . (edge
    # from vertex j to vertex i) recovers the Kronecker pattern
    p = mesh.nodes[mesh.triangles]
    for i in range(3):
        for j in range(3):
            dots = np.einsum("td,td->t", grads[:, i], p[:, i] - p[:, j])
            assert np.allclose(dots, 0.0 if i == j else 1.0)


def test_stiffness_against_exact_integral():
    # P1 interpolation is exact for affine fields, so u^T A v must equal
    # the hand-computed integral of c grad(u).grad(v)
    mesh = unit_square_mesh(3)
    u = nodal(mesh, lambda x, y: x + 2 * y)
    v = nodal(mesh, lambda x, y: 3 * x - y)
    # integrand: (1,2).(3,-1) = 1 over the unit square, twice that for 2 I
    assert np.isclose(u @ (assemble_stiffness(mesh) @ v), 1.0)
    two = np.tile(2.0 * np.eye(2), (mesh.n_triangles, 1, 1))
    assert np.isclose(u @ (assemble_stiffness(mesh, coefficient=two) @ v), 2.0)


def test_stiffness_tensor_coefficient():
    mesh = unit_square_mesh(4)
    g = np.tile(np.array([[2.0, 1.0], [1.0, 3.0]]), (mesh.n_triangles, 1, 1))
    a = assemble_stiffness(mesh, coefficient=g)
    u = nodal(mesh, lambda x, y: x)
    v = nodal(mesh, lambda x, y: y)
    # grad(u).G.grad(v) = e_x.G.e_y = G[0,1]
    assert np.isclose(u @ (a @ v), 1.0)
    w = nodal(mesh, lambda x, y: x + y)
    assert np.isclose(w @ (a @ w), 2.0 + 1.0 + 1.0 + 3.0)


def test_stiffness_region_tags():
    # the inclusion (tag 0) and the matrix (tag 1) partition the mesh; a
    # whole-mesh tensor field is read on the tagged triangles alone
    mesh = square_with_inclusion_mesh(r0=0.2, h=1.0 / 8.0)
    a_in = assemble_stiffness(mesh, region=0)
    a_out = assemble_stiffness(mesh, region=1)
    assert np.allclose((a_in + a_out - assemble_stiffness(mesh)).toarray(), 0.0)
    g = np.tile(np.eye(2), (mesh.n_triangles, 1, 1))
    g[mesh.triangle_tags == 1] *= 3.0
    assert np.allclose(assemble_stiffness(mesh, region=0, coefficient=g)
                       .toarray(), a_in.toarray())
    assert np.allclose(assemble_stiffness(mesh, region=1, coefficient=g)
                       .toarray(), 3.0 * a_out.toarray())
    with pytest.raises(EmptyMatrixError):
        assemble_stiffness(mesh, region=2)


def test_mass_against_exact_integral():
    mesh = unit_square_mesh(6)
    m = assemble_mass(mesh)
    one = np.ones(mesh.n_nodes)
    x = nodal(mesh, lambda x, y: x)
    y = nodal(mesh, lambda x, y: y)
    # products of two P1 fields are quadratic, which the local matrix
    # integrates exactly
    assert np.isclose(one @ (m @ one), 1.0)
    assert np.isclose(x @ (m @ y), 0.25)
    assert np.isclose(x @ (m @ x), 1.0 / 3.0)


def test_boundary_mass_exact():
    mesh = unit_square_mesh(5)
    mb = assemble_boundary_mass(mesh, "bottom")
    one = np.ones(mesh.n_nodes)
    x = nodal(mesh, lambda x, y: x)
    assert np.isclose(one @ (mb @ one), 1.0)
    assert np.isclose(x @ (mb @ x), 1.0 / 3.0)
    with pytest.raises(ValueError, match="unknown boundary segment"):
        assemble_boundary_mass(mesh, "nope")


def test_volume_load_quadrature_degree():
    # sum_i F_i = int f by partition of unity; the midpoint rule is exact
    # through quadratic f
    mesh = unit_square_mesh(3)
    f = assemble_load_volume(mesh, lambda p: p[:, 0] ** 2)
    assert np.isclose(f.sum(), 1.0 / 3.0)
    f = assemble_load_volume(mesh, lambda p: p[:, 0] * p[:, 1])
    assert np.isclose(f.sum(), 0.25)
    # (n_points, m) values give m loads as columns
    both = assemble_load_volume(
        mesh, lambda p: np.column_stack([p[:, 0] ** 2, p[:, 0] * p[:, 1]]))
    assert both.shape == (mesh.n_nodes, 2)
    assert np.allclose(both.sum(axis=0), [1.0 / 3.0, 0.25])
    assert np.allclose(both[:, 1], f, rtol=1e-15, atol=0.0)


def test_boundary_load_quadrature_degree():
    mesh = unit_square_mesh(4)
    g = assemble_load_boundary(mesh, "bottom", lambda p: p[:, 0] ** 3)
    # two-point Gauss per edge integrates cubics exactly
    assert np.isclose(g.sum(), 0.25)
    both = assemble_load_boundary(
        mesh, "bottom", lambda p: np.column_stack([p[:, 0] ** 3, p[:, 0]]))
    assert np.allclose(both.sum(axis=0), [0.25, 0.5])
    assert np.array_equal(both[:, 0], g)


def test_affine_sparse_matches_explicit_sum(rng):
    n = 30
    mats = []
    for _ in range(3):
        d = sparse.random(n, n, density=0.1, random_state=np.random.RandomState(4))
        mats.append((d + d.T + 2 * sparse.eye(n)).tocsr())
    fam = AffineSparse(mats)
    assert fam.n_terms == 3
    theta = rng.standard_normal(3)
    explicit = theta[0] * mats[0] + theta[1] * mats[1] + theta[2] * mats[2]
    assert np.allclose(fam.assemble(theta).toarray(), explicit.toarray())
    for p in range(3):
        assert np.allclose(fam.term(p).toarray(), mats[p].toarray())


def make_laplace_model(n=8, segments=("left", "top")):
    mesh = unit_square_mesh(n)
    bd = dirichlet_nodes(mesh, list(segments))
    free = np.setdiff1d(np.arange(mesh.n_nodes), bd)
    a = assemble_stiffness(mesh)
    return ParametricModel(mesh, free, bd, lambda k: np.array([k[0]]), [a],
                           (1.0,))


def test_lifting_is_reference_harmonic(rng):
    model = make_laplace_model()
    g = rng.standard_normal(len(model.dirichlet))
    lift = discrete_lifting(model, g)
    # interior rows of A_star = 1.0 A_0 annihilate the lifted field
    resid = (model.a_terms[0] @ lift)[model.free]
    assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(g)
    assert np.allclose(lift[model.dirichlet], g)


def test_schur_boundary_metric_spd(rng):
    model = make_laplace_model()
    w = model.w_gamma
    assert np.allclose(w, w.T)
    for _ in range(3):
        g = rng.standard_normal(w.shape[0])
        assert g @ (w @ g) > 0.0
    # the Schur energy equals the full energy of the lifted field
    g = rng.standard_normal(w.shape[0])
    lift = discrete_lifting(model, g)
    assert np.isclose(g @ (w @ g), lift @ (model.a_terms[0] @ lift))


def test_affine_solve_reproduces_affine_field():
    # -div(grad u) = 0 with affine u: the P1 solution is exact, which
    # exercises elimination, lifting and recombination end to end
    model = make_laplace_model(n=6, segments=("left", "top", "bottom", "right"))
    exact = 1.0 + 2.0 * model.mesh.nodes[:, 0] - 0.7 * model.mesh.nodes[:, 1]
    g = exact[model.dirichlet]
    k = np.array([3.0])
    f_hat = aggregated_load(model, k, np.zeros(model.n_free), g)
    w = truth_solve(model, k, f_hat)
    field = full_field(model, w, g)
    assert np.allclose(field, exact, atol=1e-11)


def test_aggregated_load_matches_dense_algebra(rng):
    model = make_laplace_model(n=5)
    k = np.array([2.5])
    f_free = rng.standard_normal(model.n_free)
    g = rng.standard_normal(len(model.dirichlet))
    out = aggregated_load(model, k, f_free, g)
    a = (k[0] * model.a_terms[0]).toarray()
    lift = discrete_lifting(model, g)
    expect = f_free - (a @ lift)[model.free]
    assert np.allclose(out, expect)
    # a stack of parameter rows takes one column of data per row
    ks = np.array([[2.5], [0.5], [4.0]])
    fs = np.column_stack([f_free, -f_free, 2 * f_free])
    gs = np.column_stack([g, 3 * g, -g])
    batch = aggregated_load(model, ks, fs, gs)
    for j, kj in enumerate(ks):
        assert np.allclose(batch[:, j], aggregated_load(model, kj, fs[:, j],
                                                        gs[:, j]),
                           rtol=1e-14, atol=1e-14 * np.abs(batch).max())


def test_truth_solve_and_factor_agree(rng):
    model = make_laplace_model(n=6)
    k = np.array([1.7])
    f = rng.standard_normal(model.n_free)
    w1 = truth_solve(model, k, f)
    w2 = interior_factor(model, k).solve(f)
    assert np.allclose(w1, w2)
    a = model.assemble_interior(k)
    assert np.linalg.norm(a @ w1 - f) < 1e-10 * np.linalg.norm(f)


def test_negative_definite_reference_rejected():
    mesh = unit_square_mesh(4)
    bd = dirichlet_nodes(mesh, ["left"])
    free = np.setdiff1d(np.arange(mesh.n_nodes), bd)
    a = assemble_stiffness(mesh)
    with pytest.raises(NotCoerciveError):
        ParametricModel(mesh, free, bd, lambda k: np.array([k[0]]), [-a],
                        (1.0,))
    # shifted just past its smallest eigenvalue, the reference operator has
    # one slightly negative direction; the Cholesky test is exact, so a shift
    # just short of it passes and one just past it fails
    lam = np.linalg.eigvalsh(a[free][:, free].toarray())[0]
    eye = sparse.identity(mesh.n_nodes, format="csr")

    def model(c):
        return ParametricModel(mesh, free, bd, lambda k: np.array([1.0]),
                               [a], (1.0,), a_star=a - c * lam * eye)

    model(0.99)
    with pytest.raises(NotCoerciveError):
        model(1.01)


def test_band_factor_reproduces_permuted_operator(tiny_problem1):
    # the sparse L and U the fill metric counts are the real factor
    model = tiny_problem1.model
    a = model.assemble_interior(np.array([2.0, 0.5]))
    fac = model.band.factor(a, "interior operator")
    p = model.band.perm
    diff = abs(fac.L @ fac.U - a[p][:, p])
    assert diff.max() <= 1e-13 * abs(a).max()
    assert fac.L.nnz > 0 and fac.U.nnz == fac.L.nnz


def scatter_factor(band, a):
    """Oracle: band Cholesky storage scattered from the permuted lower
    triangle of ``a`` by 2-D indexing, then ``dpbtrf``."""
    a = sparse.csr_matrix(a, copy=True)
    a.sum_duplicates()
    rows = band.inv[np.repeat(np.arange(band.n), np.diff(a.indptr))]
    cols = band.inv[a.indices]
    lower = rows >= cols
    ab = np.zeros((band.kd + 1, band.n), order="F")
    ab[rows[lower] - cols[lower], cols[lower]] = a.data[lower]
    cb, info = dpbtrf(ab, lower=1)
    assert info == 0
    return cb


@pytest.mark.parametrize("example", [1, 2, 3])
def test_band_slots_match_the_2d_scatter_bitwise(example, request, rng):
    # the pattern's slots, kept by the layout, and the slots found for a
    # matrix off the pattern give the same factor bits as the 2-D scatter
    problem = request.getfixturevalue(f"tiny_problem{example}")
    model = problem.model
    band = model.band
    lo, hi = np.asarray(problem.bench.spec.param_ranges, dtype=float).T
    for k in [model.k_star, *rng.uniform(lo, hi, size=(3, len(lo)))]:
        a = model.assemble_interior(k)
        want = scatter_factor(band, a)
        assert np.array_equal(interior_factor(model, k).cb, want)
        assert np.array_equal(band.factor(a, "interior operator").cb, want)
    off_pattern = [model.a_star_II]
    if example == 2:    # the diffusion block of its coercivity bound
        off_pattern.append(model.affine_II.term(0))
    if example == 3:
        a0, a1 = example3_direct_operator(problem, 0.3)
        off_pattern.append((2.0 * a0 + a1).tocsr()[model.free][:, model.free])
    for a in off_pattern:
        assert np.array_equal(band.factor(a, "operator").cb,
                              scatter_factor(band, a))
    assert np.array_equal(model.star_factor.cb,
                          scatter_factor(band, model.a_star_II))


def test_band_factor_rejects_entry_outside_band(tiny_problem1):
    model = tiny_problem1.model
    band = model.band
    assert band.kd < band.n - 1
    a = model.assemble_interior(model.k_star).tolil()
    # the first and last unknowns of the band order, coupled symmetrically
    i, j = band.perm[0], band.perm[-1]
    a[i, j] = a[j, i] = 1e-3
    with pytest.raises(ValueError, match="outside the band"):
        band.factor(a.tocsr(), "widened operator")


def test_band_solve_shapes_and_counts(tiny_problem1, rng):
    model = tiny_problem1.model
    band = model.band
    before = band.counts()
    fac = interior_factor(model, model.k_star)
    f = rng.standard_normal(model.n_free)
    fs = rng.standard_normal((model.n_free, 3))
    x = fac.solve(f)
    xs = fac.solve(fs)
    assert x.shape == (model.n_free,) and xs.shape == (model.n_free, 3)
    a = model.assemble_interior(model.k_star)
    assert np.linalg.norm(a @ xs - fs) <= 1e-12 * np.linalg.norm(fs)
    assert np.allclose(xs[:, 0], fac.solve(fs[:, 0]),
                       rtol=0, atol=1e-14 * abs(xs).max())
    # wider than one dpbtrs chunk
    wide = rng.standard_normal((model.n_free, 130))
    xw = fac.solve(wide)
    assert np.linalg.norm(a @ xw - wide) <= 1e-12 * np.linalg.norm(wide)
    after = band.counts()
    assert after["factorizations"] == before["factorizations"] + 1
    assert after["solves"] == before["solves"] + 135
