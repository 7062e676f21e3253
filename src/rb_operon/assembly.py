"""P1 finite-element assembly and parametric elliptic models.

All matrices are scipy CSR over the full node set; Dirichlet elimination is
done by index bookkeeping, never by row surgery.  Gradients of P1 hats are
triangle-wise constant, so stiffness integrands of piecewise-constant
coefficients are integrated exactly with one point.

Loads are a fixed quadrature map times point values: ``load_quadrature``
builds, once per mesh or boundary segment, the quadrature points and a
sparse map Q from values at them to nodal loads, so a load (or a block of
loads, one per column) is Q @ f(points).  Volume loads use the
three-midpoint rule (exact through degree 2) and boundary loads two-point
Gauss per edge.

A ParametricModel packages an affine family A(k) = sum_p theta_p(k) A_p with
its Dirichlet/free split, the reference operator A_star, the factorized
interior block, an implicit lifting map and the boundary energy metric.

Every full-order SPD system (reference factor, interior factors, truth
solves, example 3's exact pullback solve) is factored by the model's
``BandLayout``: the interior pattern does not depend on the parameter, so
one reverse Cuthill-McKee ordering per model fixes a band, and each
operator is scattered into LAPACK band storage and factored by band
Cholesky (``dpbtrf``).  Its ``info`` tests positive definiteness exactly;
an operator that fails raises NotCoerciveError.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import EmptyMatrixError, NotCoerciveError
from .mesh import _edge_keys


def _region_mask(mesh, region):
    if region is None:
        return np.ones(mesh.n_triangles, dtype=bool)
    if isinstance(region, (int, np.integer)):
        return mesh.triangle_tags == region
    region = np.asarray(region)
    if region.dtype == bool:
        return region
    return np.isin(mesh.triangle_tags, region)


def triangle_geometry(mesh, mask=None):
    """Per-triangle areas and P1 basis gradients.

    Returns (areas (m,), grads (m, 3, 2)) where grads[t, i] is the constant
    gradient of the hat function of local vertex i on triangle t.
    """
    tris = mesh.triangles if mask is None else mesh.triangles[mask]
    p = mesh.nodes[tris]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    areas = 0.5 * np.abs(det)
    # grad lambda_1 = rot(v2)/det, grad lambda_2 = -rot(v1)/det, lambda_0 = -(1+2)
    g1 = np.column_stack([v2[:, 1], -v2[:, 0]]) / det[:, None]
    g2 = np.column_stack([-v1[:, 1], v1[:, 0]]) / det[:, None]
    g0 = -(g1 + g2)
    return areas, np.stack([g0, g1, g2], axis=1)


def _scatter(mesh, tris, local):
    """Accumulate (t, 3, 3) local matrices into a global CSR."""
    n = mesh.n_nodes
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    mat = sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    out = mat.tocsr()
    out.sum_duplicates()
    return out


def _coefficient_values(mesh, mask, coefficient):
    """Per-triangle scalar or 2x2 tensor values on the selected triangles."""
    m = int(np.count_nonzero(mask))
    if coefficient is None:
        return np.ones(m)
    if callable(coefficient):
        cent = mesh.nodes[mesh.triangles[mask]].mean(axis=1)
        return np.asarray(coefficient(cent), dtype=float)
    coefficient = np.asarray(coefficient, dtype=float)
    if coefficient.ndim == 0:
        return np.full(m, float(coefficient))
    # per-triangle array given over the full mesh
    if coefficient.shape[0] == mesh.n_triangles:
        return coefficient[mask]
    if coefficient.shape[0] == m:
        return coefficient
    raise ValueError("coefficient shape does not match selected triangles")


def assemble_stiffness(mesh, region=None, coefficient=None):
    """Stiffness matrix int c grad(u).grad(v) over the selected subdomain.

    ``coefficient`` may be None (unit), a scalar, a callable of centroid
    coordinates, a per-triangle array, or a per-triangle (m, 2, 2) tensor
    field; tensors are contracted as grad(v).G.grad(u).
    """
    mask = _region_mask(mesh, region)
    if not np.any(mask):
        raise EmptyMatrixError("stiffness region selects no triangles")
    areas, grads = triangle_geometry(mesh, mask)
    c = _coefficient_values(mesh, mask, coefficient)
    if c.ndim == 3:
        local = np.einsum("t,tai,tij,tbj->tab", areas, grads, c, grads)
    else:
        local = np.einsum("t,tai,tbi->tab", areas * c, grads, grads)
    return _scatter(mesh, mesh.triangles[mask], local)


_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass(mesh):
    """Consistent P1 mass matrix over the whole mesh."""
    areas, _ = triangle_geometry(mesh)
    local = areas[:, None, None] * _LOCAL_MASS[None]
    return _scatter(mesh, mesh.triangles, local)


def assemble_boundary_mass(mesh, segment):
    """1D P1 mass on the named boundary segment: (len/6) [[2,1],[1,2]]."""
    sel = mesh.segment_of(segment)
    if not np.any(sel):
        raise EmptyMatrixError(f"no boundary edges on segment {segment!r}")
    edges = mesh.boundary_edges[sel]
    lens = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
    local = (lens / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])[None]
    n = mesh.n_nodes
    rows = np.repeat(edges, 2, axis=1).ravel()
    cols = np.tile(edges, (1, 2)).ravel()
    out = sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    out.sum_duplicates()
    return out


def _csr_in_order(rows, cols, data, shape):
    """CSR matrix that keeps each row's entries in the order given.

    Going through COO would sort every row by column; here a product sums
    each row's terms in the order they were listed.
    """
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sparse.csr_matrix((data[order], cols[order], indptr), shape=shape)


def load_quadrature(mesh, segment=None):
    """Quadrature points of a load integral and the map Q to nodal loads.

    Returns (points (n_points, 2), Q (n_nodes, n_points) CSR) such that
    int f v = Q @ f(points) for every P1 hat v.  With ``segment`` None the
    integral is over the whole mesh by the three-midpoint rule; otherwise
    over the named boundary segment by two-point Gauss per edge.  Each node
    sums its terms triangle by triangle (edge by edge) in mesh order.
    """
    if segment is None:
        tris = mesh.triangles
        areas, _ = triangle_geometry(mesh)
        # side i of the rotated rows joins local vertices i + 1 and i + 2;
        # its midpoint carries basis values (0, 1/2, 1/2), and the two
        # triangles of an inner side share that point
        sides, side_of = np.unique(_edge_keys(tris[:, [1, 2, 0]], mesh.n_nodes),
                                   return_inverse=True)
        ends = mesh.nodes[np.column_stack(np.divmod(sides, mesh.n_nodes))]
        points = 0.5 * (ends[:, 0] + ends[:, 1])
        # local vertex i collects area/6 times f at the midpoints i+1, i+2
        rows = np.repeat(tris.ravel(), 2)
        cols = side_of.reshape(3, -1).T[:, [1, 2, 2, 0, 0, 1]].ravel()
        data = np.repeat(areas / 6.0, 6)
    else:
        sel = mesh.segment_of(segment)
        if not np.any(sel):
            raise EmptyMatrixError(f"no boundary edges on segment {segment!r}")
        edges = mesh.boundary_edges[sel]
        a = mesh.nodes[edges[:, 0]]
        b = mesh.nodes[edges[:, 1]]
        lens = np.linalg.norm(b - a, axis=1)
        s = 1.0 / np.sqrt(3.0)
        idx = np.arange(len(edges))
        points, rows, cols, data = [], [], [], []
        for i, sg in enumerate((-s, s)):
            points.append(0.5 * (1.0 - sg) * a + 0.5 * (1.0 + sg) * b)
            rows += [edges[:, 0], edges[:, 1]]
            cols += [idx + i * len(edges)] * 2
            data += [0.5 * lens * 0.5 * (1.0 - sg), 0.5 * lens * 0.5 * (1.0 + sg)]
        points, rows, cols, data = (np.concatenate(v)
                                    for v in (points, rows, cols, data))
    return points, _csr_in_order(rows, cols, data, (mesh.n_nodes, len(points)))


def assemble_load_volume(mesh, f):
    """Load vector int f v using the three-midpoint rule (degree-2 exact).

    ``f`` maps (n_points, 2) coordinates to (n_points,) values, or to
    (n_points, m) for m loads at once, returned as columns.
    """
    points, q = load_quadrature(mesh)
    return q @ np.asarray(f(points), dtype=float)


def assemble_load_boundary(mesh, segment, g):
    """Load vector int g v over a named segment, two-point Gauss per edge.

    ``g`` returns (n_points,) or (n_points, m) values, as for volume loads.
    """
    points, q = load_quadrature(mesh, segment)
    return q @ np.asarray(g(points), dtype=float)


class AffineSparse:
    """Family sum_p theta_p A_p over a shared sparsity pattern.

    Stores one data row per term aligned to a common CSR template so that
    assembling at a parameter costs a single matvec on nnz-sized arrays.
    """

    def __init__(self, mats):
        if not mats:
            raise ValueError("need at least one term")
        shape = mats[0].shape
        ncols = shape[1]
        coos = [m.tocoo() for m in mats]
        keys = np.concatenate(
            [c.row.astype(np.int64) * ncols + c.col.astype(np.int64) for c in coos])
        uniq, inv = np.unique(keys, return_inverse=True)
        data = np.zeros((len(mats), uniq.size))
        off = 0
        for t, c in enumerate(coos):
            np.add.at(data[t], inv[off:off + c.nnz], c.data)
            off += c.nnz
        rows = (uniq // ncols).astype(np.int32)
        cols = (uniq % ncols).astype(np.int32)
        # unique keys are already row-major sorted, matching CSR data order
        self.template = sparse.csr_matrix(
            (np.zeros(uniq.size), (rows, cols)), shape=shape)
        self.data = data
        self.shape = shape

    @property
    def n_terms(self):
        return self.data.shape[0]

    def term(self, p):
        out = self.template.copy()
        out.data = self.data[p].copy()
        return out

    def assemble(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = self.template.copy()
        out.data = theta @ self.data
        return out


class BandLayout:
    """Reverse Cuthill-McKee band of one symmetric sparsity pattern.

    ``perm`` orders the unknowns so that every entry of the pattern lies
    within ``kd`` of the diagonal (``inv`` undoes it).  The layout counts
    the factorizations and the right-hand sides solved through it.
    """

    def __init__(self, pattern):
        self.n = pattern.shape[0]
        self.perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        self.inv = np.empty_like(self.perm)
        self.inv[self.perm] = np.arange(self.n, dtype=self.perm.dtype)
        coo = pattern.tocoo()
        offsets = np.abs(self.inv[coo.row] - self.inv[coo.col])
        self.kd = int(offsets.max(initial=0))
        self.factorizations = 0
        self.solves = 0

    def counts(self):
        return {"factorizations": self.factorizations, "solves": self.solves}

    def factor(self, a, what):
        """Band Cholesky factor of the symmetric ``a``; NotCoerciveError
        unless it is positive definite.

        The lower triangle of P a P^T is scattered into LAPACK lower band
        storage; an entry outside the band raises ValueError.
        """
        a = sparse.csr_matrix(a, copy=True)
        a.sum_duplicates()
        rows = self.inv[np.repeat(np.arange(self.n), np.diff(a.indptr))]
        cols = self.inv[a.indices]
        lower = rows >= cols
        rows, cols = rows[lower], cols[lower]
        if np.any(rows - cols > self.kd):
            raise ValueError(f"{what} has entries outside the band of "
                             f"half-width {self.kd}")
        ab = np.zeros((self.kd + 1, self.n), order="F")
        ab[rows - cols, cols] = a.data[lower]
        cb, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:
            raise NotCoerciveError(f"{what} is not positive definite")
        self.factorizations += 1
        return BandFactor(self, cb)


# columns per dpbtrs call: the permuted copies of one chunk are all that a
# solve holds besides its result
_SOLVE_CHUNK = 64


class BandFactor:
    """Band Cholesky factor L L^T = P a P^T from ``BandLayout.factor``."""

    def __init__(self, layout, cb):
        self.layout = layout
        self.cb = cb
        self._l = None

    def solve(self, b):
        """Solve a x = b for one vector or an (n, m) column stack."""
        b = np.asarray(b, dtype=float)
        lay = self.layout
        cols = b.reshape(lay.n, -1)
        out = np.empty_like(cols)
        for lo in range(0, cols.shape[1], _SOLVE_CHUNK):
            pb = np.asfortranarray(cols[lay.perm, lo:lo + _SOLVE_CHUNK])
            x, info = dpbtrs(self.cb, pb, lower=1, overwrite_b=1)
            if info != 0:
                raise ValueError(f"dpbtrs rejected argument {-info}")
            out[:, lo:lo + _SOLVE_CHUNK] = x[lay.inv]
        lay.solves += cols.shape[1]
        return out.reshape(b.shape)

    @property
    def L(self):
        """Lower factor of P a P^T as a sparse matrix (its exact zeros
        outside the envelope left out)."""
        if self._l is None:
            n = self.layout.n
            # column j of the band storage is column j of L from its diagonal
            cols = self.cb.T
            rows = np.arange(n)[:, None] + np.arange(cols.shape[1])
            keep = (cols != 0.0) & (rows < n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(keep.sum(axis=1), out=indptr[1:])
            self._l = sparse.csc_matrix((cols[keep], rows[keep], indptr),
                                        shape=(n, n))
        return self._l

    @property
    def U(self):
        return self.L.T


@dataclass
class ParametricModel:
    """Affine parametric operator with Dirichlet bookkeeping.

    a_terms hold the full-node-set matrices A_p; theta_a maps parameters to
    their weights, rows in, rows out: one parameter row (p,) gives (Q_a,),
    and a stack of rows (n, p) gives (n, Q_a) in one call, the same values
    row by row, so a sweep over a sample pool weighs it whole.  Optional
    affine load terms (theta_f, f_terms) cover right-hand sides that share
    the parameterization; theta_f keeps the same contract, (p,) to (Q_f,)
    and (n, p) to (n, Q_f).  k_star fixes the reference operator A_star
    used for lifting, the boundary metric and every norm downstream.
    """

    mesh: object
    free: np.ndarray
    dirichlet: np.ndarray
    theta_a: object
    a_terms: list
    k_star: np.ndarray
    theta_f: object = None
    f_terms: list = field(default_factory=list)
    a_star_override: object = None

    def __post_init__(self):
        n = self.mesh.n_nodes
        if len(self.free) + len(self.dirichlet) != n:
            raise ValueError("free/dirichlet split does not cover the node set")
        self.affine_II = AffineSparse(
            [m[self.free][:, self.free].tocsr() for m in self.a_terms])
        self.affine_IB = AffineSparse(
            [m[self.free][:, self.dirichlet].tocsr() for m in self.a_terms])
        if self.a_star_override is not None:
            a_star = self.a_star_override.tocsr()
        else:
            a_star = self.assemble_full(self.k_star)
        self.a_star = a_star
        self.a_star_II = a_star[self.free][:, self.free].tocsr()
        self.a_star_IB = a_star[self.free][:, self.dirichlet].tocsr()
        self.a_star_BB = a_star[self.dirichlet][:, self.dirichlet].toarray()
        self.band = BandLayout(self.affine_II.template)
        self.star_factor = self.band.factor(self.a_star_II, "reference operator")
        if len(self.dirichlet):
            x = self.star_factor.solve(self.a_star_IB.toarray())
            self.lift_block = -x
            self.w_gamma = self.a_star_BB - self.a_star_IB.T @ x
        else:
            self.lift_block = np.zeros((len(self.free), 0))
            self.w_gamma = np.zeros((0, 0))

    @property
    def n_free(self):
        return len(self.free)

    def assemble_full(self, k):
        th = np.asarray(self.theta_a(np.asarray(k, dtype=float)), dtype=float)
        out = th[0] * self.a_terms[0]
        for p in range(1, len(self.a_terms)):
            out = out + th[p] * self.a_terms[p]
        return out.tocsr()

    def assemble_interior(self, k):
        return self.affine_II.assemble(self.theta_a(np.asarray(k, dtype=float)))

    def load_interior(self, k):
        """Affine right-hand side restricted to free nodes (no lifting)."""
        th = np.asarray(self.theta_f(np.asarray(k, dtype=float)), dtype=float)
        out = th[0] * self.f_terms[0]
        for q in range(1, len(self.f_terms)):
            out = out + th[q] * self.f_terms[q]
        return out[self.free]

    def star_solve(self, rhs):
        """Solve A_star_II x = rhs for one vector or a column stack."""
        return self.star_factor.solve(np.asarray(rhs, dtype=float))


def build_model(mesh, free, dirichlet, theta_a, a_terms, k_star,
                theta_f=None, f_terms=(), a_star=None):
    """Assemble-once constructor for :class:`ParametricModel`."""
    return ParametricModel(
        mesh=mesh,
        free=np.asarray(free, dtype=np.int64),
        dirichlet=np.asarray(dirichlet, dtype=np.int64),
        theta_a=theta_a,
        a_terms=list(a_terms),
        k_star=np.asarray(k_star, dtype=float),
        theta_f=theta_f,
        f_terms=list(f_terms),
        a_star_override=a_star,
    )


def discrete_lifting(model, g_b):
    """Reference-harmonic extension of Dirichlet data to all nodes."""
    g_b = np.asarray(g_b, dtype=float)
    if g_b.shape[0] != len(model.dirichlet):
        raise ValueError("Dirichlet data length mismatch")
    out = np.zeros(model.mesh.n_nodes)
    out[model.free] = model.lift_block @ g_b
    out[model.dirichlet] = g_b
    return out


def aggregated_load(model, k, f_free, g_b):
    """Right-hand side on free nodes after lifting the Dirichlet data.

    ``f_free`` is the assembled load vector (volume plus natural-boundary
    contributions) restricted to free nodes; ``g_b`` holds nodal Dirichlet
    values.  For a batch, ``k`` stacks one parameter row per column of
    ``f_free`` and ``g_b``.  The lifting correction is applied term by term,
    sum_p theta_p(k) (A_p,II lift_block g + A_p,IB g), without assembling
    A(k).
    """
    out = np.array(f_free, dtype=float)
    g_b = np.asarray(g_b, dtype=float)
    th = model.theta_a(np.atleast_2d(np.asarray(k, dtype=float)))
    lifted = model.lift_block @ g_b
    for p in range(model.affine_II.n_terms):
        out -= th[:, p] * (model.affine_II.term(p) @ lifted
                           + model.affine_IB.term(p) @ g_b)
    return out


def truth_solve(model, k, f_hat):
    """Free-node solution of A_II(k) w = f_hat, checked SPD and by residual."""
    a = model.assemble_interior(k)
    fac = model.band.factor(a, "interior operator")
    f_hat = np.asarray(f_hat, dtype=float)
    w = fac.solve(f_hat)
    ref = np.linalg.norm(f_hat)
    if ref > 0 and np.linalg.norm(a @ w - f_hat) > 1e-8 * ref:
        raise NotCoerciveError("direct solve residual too large")
    return w


def interior_factor(model, k):
    """Reusable band Cholesky factor of A_II(k), checked SPD."""
    return model.band.factor(model.assemble_interior(k), "interior operator")


def full_field(model, w_free, g_b=None):
    """Recombine free coefficients and Dirichlet data into a nodal field."""
    out = np.zeros(model.mesh.n_nodes)
    out[model.free] = w_free
    if g_b is not None and len(model.dirichlet):
        out += discrete_lifting(model, np.asarray(g_b, dtype=float))
    return out
