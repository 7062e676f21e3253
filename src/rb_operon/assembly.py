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
It holds no load: each benchmark keeps its own load terms and weights.

Every full-order SPD system (reference factor, interior factors, truth
solves, example 3's exact pullback solve) is factored by the model's
``BandLayout``: the interior pattern does not depend on the parameter, so
one reverse Cuthill-McKee ordering per model fixes a band, and each
operator is scattered into LAPACK band storage and factored by band
Cholesky (``dpbtrf``).  The slots of the interior pattern in that storage
are found once per model, so an interior factor is one scatter and the
LAPACK call.  Its ``info`` tests positive definiteness exactly;
an operator that fails raises NotCoerciveError.
"""

import numpy as np
from dataclasses import dataclass
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import EmptyMatrixError, NotCoerciveError
from .mesh import _edge_keys


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


def assemble_stiffness(mesh, region=None, coefficient=None):
    """Stiffness matrix int c grad(u).grad(v) over the whole mesh or the
    triangles tagged ``region``.

    ``coefficient`` is None (unit) or a whole-mesh (n_triangles, 2, 2)
    tensor field, contracted as grad(v).G.grad(u).
    """
    mask = (np.ones(mesh.n_triangles, dtype=bool) if region is None
            else mesh.triangle_tags == region)
    if not np.any(mask):
        raise EmptyMatrixError("stiffness region selects no triangles")
    areas, grads = triangle_geometry(mesh, mask)
    if coefficient is None:
        local = np.einsum("t,tai,tbi->tab", areas, grads, grads)
    else:
        local = np.einsum("t,tai,tij,tbj->tab", areas, grads,
                          coefficient[mask], grads)
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
    within ``kd`` of the diagonal (``inv`` undoes it).  The pattern's band
    slots are found once, so a factor of values on the pattern costs one
    scatter and ``dpbtrf``.  The layout counts the factorizations and the
    right-hand sides solved through it.
    """

    def __init__(self, pattern):
        self.n = pattern.shape[0]
        self.perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        self.inv = np.empty_like(self.perm)
        self.inv[self.perm] = np.arange(self.n, dtype=self.perm.dtype)
        coo = pattern.tocoo()
        offsets = np.abs(self.inv[coo.row] - self.inv[coo.col])
        self.kd = int(offsets.max(initial=0))
        self._pattern_slots = self._slots(pattern, "pattern")
        self.factorizations = 0
        self.solves = 0

    def counts(self):
        return {"factorizations": self.factorizations, "solves": self.solves}

    def _slots(self, a, what):
        """Where the CSR ``a``'s entries go in LAPACK lower band storage.

        Returns (lower, flat): the positions in ``a.data`` of the lower
        triangle of P a P^T, and their flat indices in the Fortran-ordered
        (kd + 1, n) band.  An entry outside the band raises ValueError.
        """
        rows = self.inv[np.repeat(np.arange(self.n), np.diff(a.indptr))]
        cols = self.inv[a.indices]
        lower = np.flatnonzero(rows >= cols)
        rows, cols = rows[lower], cols[lower]
        if np.any(rows - cols > self.kd):
            raise ValueError(f"{what} has entries outside the band of "
                             f"half-width {self.kd}")
        return lower, rows - cols + (self.kd + 1) * cols

    def factor(self, a, what):
        """Band Cholesky factor of the symmetric sparse ``a``, whatever its
        pattern; NotCoerciveError unless it is positive definite."""
        a = sparse.csr_matrix(a, copy=True)
        a.sum_duplicates()
        return self._factor(a.data, self._slots(a, what), what)

    def factor_pattern(self, values, what):
        """``factor`` of the matrix with CSR data ``values`` on the layout's
        pattern."""
        return self._factor(values, self._pattern_slots, what)

    def _factor(self, values, slots, what):
        lower, flat = slots
        ab = np.zeros((self.kd + 1) * self.n)
        ab[flat] = values[lower]
        cb, info = dpbtrf(ab.reshape((self.kd + 1, self.n), order="F"),
                          lower=1, overwrite_ab=1)
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
    row by row, so a sweep over a sample pool weighs it whole.  k_star fixes
    the reference operator A_star used for lifting, the boundary metric and
    every norm downstream; ``a_star`` replaces it where it is not A(k_star).
    """

    mesh: object
    free: np.ndarray
    dirichlet: np.ndarray
    theta_a: object
    a_terms: list
    k_star: np.ndarray
    a_star: object = None

    def __post_init__(self):
        self.free = np.asarray(self.free, dtype=np.int64)
        self.dirichlet = np.asarray(self.dirichlet, dtype=np.int64)
        self.a_terms = list(self.a_terms)
        self.k_star = np.asarray(self.k_star, dtype=float)
        free, bd = self.free, self.dirichlet
        if len(free) + len(bd) != self.mesh.n_nodes:
            raise ValueError("free/dirichlet split does not cover the node set")
        self.affine_II = AffineSparse([m[free][:, free].tocsr()
                                       for m in self.a_terms])
        self.affine_IB = AffineSparse([m[free][:, bd].tocsr()
                                       for m in self.a_terms])
        a_star = self.a_star
        if a_star is None:
            th = np.asarray(self.theta_a(self.k_star), dtype=float)
            a_star = sum((t * m for t, m in zip(th[1:], self.a_terms[1:])),
                         th[0] * self.a_terms[0])
        a_star = a_star.tocsr()
        self.a_star_II = a_star[free][:, free].tocsr()
        a_star_ib = a_star[free][:, bd].tocsr()
        self.band = BandLayout(self.affine_II.template)
        self.star_factor = self.band.factor(self.a_star_II, "reference operator")
        if len(bd):
            x = self.star_factor.solve(a_star_ib.toarray())
            self.lift_block = -x
            self.w_gamma = a_star[bd][:, bd].toarray() - a_star_ib.T @ x
        else:
            self.lift_block = np.zeros((len(free), 0))
            self.w_gamma = np.zeros((0, 0))

    @property
    def n_free(self):
        return len(self.free)

    def assemble_interior(self, k):
        return self.affine_II.assemble(self.theta_a(np.asarray(k, dtype=float)))

    def star_solve(self, rhs):
        """Solve A_star_II x = rhs for one vector or a column stack."""
        return self.star_factor.solve(np.asarray(rhs, dtype=float))


def discrete_lifting(model, g_b):
    """Reference-harmonic extension of Dirichlet data to all nodes."""
    g_b = np.asarray(g_b, dtype=float)
    if g_b.shape[0] != len(model.dirichlet):
        raise ValueError("Dirichlet data length mismatch")
    out = np.zeros(model.mesh.n_nodes)
    out[model.free] = model.lift_block @ g_b
    out[model.dirichlet] = g_b
    return out


def lifting_terms(model, g_b):
    """A_p,II lift_block g + A_p,IB g for each affine term p in turn: what
    the Dirichlet data ``g_b`` (one trace per column) put on the free nodes
    through term p, with the sign of the operator."""
    lifted = model.lift_block @ g_b
    for p in range(model.affine_II.n_terms):
        yield (model.affine_II.term(p) @ lifted
               + model.affine_IB.term(p) @ g_b)


def aggregated_load(model, k, f_free, g_b):
    """Right-hand side on free nodes after lifting the Dirichlet data.

    ``f_free`` is the assembled load vector (volume plus natural-boundary
    contributions) restricted to free nodes; ``g_b`` holds nodal Dirichlet
    values.  For a batch, ``k`` stacks one parameter row per column of
    ``f_free`` and ``g_b``.  The lifting correction is applied term by term,
    sum_p theta_p(k) ``lifting_terms``, without assembling A(k).
    """
    out = np.array(f_free, dtype=float)
    g_b = np.asarray(g_b, dtype=float)
    th = model.theta_a(np.atleast_2d(np.asarray(k, dtype=float)))
    for p, lift in enumerate(lifting_terms(model, g_b)):
        out -= th[:, p] * lift
    return out


def truth_solve(model, k, f_hat):
    """Free-node solution of A_II(k) w = f_hat, checked SPD and by residual."""
    a = model.assemble_interior(k)
    fac = model.band.factor_pattern(a.data, "interior operator")
    f_hat = np.asarray(f_hat, dtype=float)
    w = fac.solve(f_hat)
    ref = np.linalg.norm(f_hat)
    if ref > 0 and np.linalg.norm(a @ w - f_hat) > 1e-8 * ref:
        raise NotCoerciveError("direct solve residual too large")
    return w


def interior_factor(model, k):
    """Reusable band Cholesky factor of A_II(k), checked SPD."""
    theta = model.theta_a(np.asarray(k, dtype=float))
    return model.band.factor_pattern(theta @ model.affine_II.data,
                                     "interior operator")


def full_field(model, w_free, g_b=None):
    """Recombine free coefficients and Dirichlet data into a nodal field."""
    out = np.zeros(model.mesh.n_nodes)
    out[model.free] = w_free
    if g_b is not None and len(model.dirichlet):
        out += discrete_lifting(model, np.asarray(g_b, dtype=float))
    return out
