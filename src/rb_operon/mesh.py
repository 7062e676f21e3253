"""Conforming triangular meshes with boundary-segment and subdomain tags.

Two generators are provided: a structured unit-square triangulation and an
unstructured mesh of the square (-0.5, 0.5)^2 with a circular inclusion whose
boundary is resolved exactly by mesh edges.  The inclusion mesh is produced by
a force-equilibrium relaxation (truss analogy) over a Delaunay triangulation,
with the circle ring, the outer boundary and the corners held fixed.

The relaxation calls ``Delaunay`` once, on the seed points, and repairs its
triangulation as the points move.  After each move, a Lawson certificate
checks the last triangulation against the moved points: every point a vertex,
the hull vertices unmoved, every triangle counterclockwise and every interior
edge strictly locally Delaunay, each test with a margin far above its
floating-point round-off.  Edges whose in-circle test fails by more than the
margin are flipped (Lawson 1977), an independent set per round, and the
certificate runs again.  A triangulation that passes is the unique Delaunay
triangulation of the moved points, which is what ``Delaunay`` would return,
so its edges are reused.  ``Delaunay`` runs again only when flips cannot be
certified: a moved hull vertex, a point that is not a vertex, a triangle
that is not counterclockwise by the margin, an edge within the margin of
cocircular, or a repair that needs more than a few rounds.  The mesh is
therefore the same as with a triangulation on every iteration.

Boundary edges carry free-form segment names ("base", "top", ...).  Nodes at
a junction between a Dirichlet segment and a Neumann/Robin segment belong to
the non-Dirichlet side: a node counts as Dirichlet only when every boundary
edge incident to it is Dirichlet-tagged.  This open-segment convention fixes
the constrained-node counts that the rest of the toolkit relies on.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay


@dataclass(frozen=True)
class TriMesh:
    """Immutable P1 triangle mesh.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array
    triangles : (n_tri, 3) int array, counterclockwise vertex indices
    triangle_tags : (n_tri,) int array, subdomain label per triangle
    boundary_edges : (n_bnd, 2) int array, endpoint indices
    edge_segments : (n_bnd,) int array, index into ``segment_names``
    segment_names : tuple of str
    relaxation : dict or None
        How a relaxed mesh was made: ``iterations``, ``triangulations`` (the
        ``Delaunay`` calls inside the loop), ``flips`` (the edge flips that
        repaired the triangulation in between) and ``stop_reason``
        (``"step_tol"`` or ``"max_iters"``).  Not compared and not written to
        mesh text.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    triangle_tags: np.ndarray
    boundary_edges: np.ndarray
    edge_segments: np.ndarray
    segment_names: tuple
    relaxation: dict = field(default=None, compare=False)

    def __post_init__(self):
        for arr in (self.nodes, self.triangles, self.triangle_tags,
                    self.boundary_edges, self.edge_segments):
            arr.setflags(write=False)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    def segment_of(self, name):
        """Boolean mask over boundary edges belonging to segment ``name``."""
        if name not in self.segment_names:
            raise ValueError(f"unknown boundary segment {name!r}; "
                             f"mesh has {list(self.segment_names)}")
        idx = self.segment_names.index(name)
        return self.edge_segments == idx

    def edge_names(self):
        """Per-edge segment name array (object dtype)."""
        names = np.array(self.segment_names, dtype=object)
        return names[self.edge_segments]


def min_angle_deg(mesh):
    """Smallest interior angle over all triangles, in degrees."""
    p = mesh.nodes[mesh.triangles]
    angles = []
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cosang = np.einsum("ij,ij->i", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(np.min(angles))


def _edge_keys(polygons, n):
    """Key ``lo * n + hi`` (int64) of every side of the polygons in the rows.

    Side j of a row joins columns j and j + 1 (cyclically); sides are listed
    column by column, so triangle sides come as the rows of ``vstack([t[:,
    [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])``.  The keys sort in the
    lexicographic order of their (lo, hi) pairs, so a 1-D ``np.unique`` does
    the work of ``np.unique(pairs, axis=0)``; ``np.divmod(keys, n)`` decodes
    them.
    """
    t = np.asarray(polygons, dtype=np.int64)
    a = t.T.ravel()
    b = np.roll(t, -1, axis=1).T.ravel()
    return np.minimum(a, b) * n + np.maximum(a, b)


def dirichlet_nodes(mesh, dirichlet_segments):
    """Nodes constrained by the Dirichlet segments.

    A node qualifies only if every boundary edge touching it lies on a
    Dirichlet segment, so segment endpoints shared with Neumann/Robin
    segments stay free.
    """
    dir_idx = {mesh.segment_names.index(s) for s in dirichlet_segments}
    n = mesh.n_nodes
    touch = np.zeros(n, dtype=np.int64)
    touch_dir = np.zeros(n, dtype=np.int64)
    on_dir = np.isin(mesh.edge_segments, sorted(dir_idx))
    for col in range(2):
        np.add.at(touch, mesh.boundary_edges[:, col], 1)
        np.add.at(touch_dir, mesh.boundary_edges[on_dir][:, col], 1)
    mask = (touch > 0) & (touch_dir == touch)
    return np.flatnonzero(mask)


def _orient_ccw(nodes, triangles):
    p = nodes[triangles]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    flip = det < 0
    triangles = triangles.copy()
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return triangles


def _boundary_edges_of(triangles, n):
    """Edges incident to exactly one triangle, sorted pairs in side order."""
    key = _edge_keys(triangles, n)
    _, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
    return np.column_stack(np.divmod(key[counts[inv] == 1], n))


# Relative margin of the certificate's sign tests.  Shewchuk's (1997)
# a-priori round-off bounds are about 3.3e-16 (orientation) and 1.1e-15
# (in-circle) times the permanent, so a pass cannot be a rounding artefact.
_LAWSON_MARGIN = 1e-12
_FLIP_ROUNDS = 8    # flip rounds of one repair before Delaunay runs instead


def _orient2d(p, t):
    """Twice the signed area of each triangle row of ``t``, and its permanent."""
    x, y = np.ascontiguousarray(p.T)
    x, y = x[t], y[t]
    left = (x[:, 0] - x[:, 2]) * (y[:, 1] - y[:, 2])
    right = (y[:, 0] - y[:, 2]) * (x[:, 1] - x[:, 2])
    return left - right, np.abs(left) + np.abs(right)


def _incircle(p, quads):
    """In-circle determinant of each column (a, b, c, d) of ``quads``,
    positive when d lies inside the circle through the counterclockwise
    (a, b, c), and its permanent."""
    x, y = np.ascontiguousarray(p.T)
    x, y = x[quads], y[quads]
    rx, ry = x[:3] - x[3], y[:3] - y[3]
    lift = rx * rx + ry * ry
    det = np.zeros(quads.shape[1])
    perm = np.zeros(quads.shape[1])
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        left, right = rx[j] * ry[k], rx[k] * ry[j]
        det += lift[i] * (left - right)
        perm += lift[i] * (np.abs(left) + np.abs(right))
    return det, perm


class _LawsonCertificate:
    """A triangulation of moving points, kept Delaunay by Lawson's flips.

    A triangulation of the convex hull whose interior edges are all locally
    Delaunay is a Delaunay triangulation (Lawson 1977).  If every edge passes
    the in-circle test strictly, each circumcircle is empty of all other
    points, so it is the only one.  ``check`` asks for that with a margin and
    for the conditions that keep the triangles a triangulation of the hull:
    every point a vertex, the hull vertices where they were, and every
    triangle counterclockwise.  ``repair`` flips the edges that fail the
    in-circle test strictly until all pass.

    ``triangles`` (counterclockwise) and ``neighbors`` (``neighbors[i, j]``
    is the triangle across the side facing ``triangles[i, j]``, -1 on the
    hull) are flipped in place; ``keys`` is the sorted ``_edge_keys`` of
    every edge, as ``np.unique`` returns them.
    """

    def __init__(self, pts, triangles, neighbors):
        n = len(pts)
        self.n = n
        self.triangles = triangles
        self.neighbors = neighbors
        self.all_vertices = bool(np.all(np.bincount(triangles.ravel(), minlength=n)))
        # Side j of triangle i runs t[i, j+1] -> t[i, j+2] and faces t[i, j].
        i, j = np.nonzero(neighbors < 0)
        self.hull = np.unique([triangles[i, (j + 1) % 3], triangles[i, (j + 2) % 3]])
        self.hull_xy = pts[self.hull]
        self.keys = np.unique(_edge_keys(triangles, n))
        self._list_sides()

    @classmethod
    def of(cls, tri):
        """The certificate of a ``scipy.spatial.Delaunay`` triangulation."""
        s = tri.simplices.astype(np.int64)
        nb = tri.neighbors.astype(np.int64)
        flip = _orient2d(tri.points, s)[0] < 0
        s[flip] = s[flip][:, [0, 2, 1]]
        nb[flip] = nb[flip][:, [0, 2, 1]]
        return cls(tri.points, s, nb)

    def _list_sides(self):
        """Each interior side once, from the lower-numbered triangle i: its
        position j, the triangle k across and the position m of i in k, and
        as a column of ``quads`` its ends a, b, then c of i and d of k."""
        t, nb = self.triangles, self.neighbors
        i, j = np.nonzero(nb > np.arange(len(t))[:, None])
        k = nb[i, j]
        across = nb[k]
        m = (across[:, 1] == i) + 2 * (across[:, 2] == i)
        self.sides = (i, j, k, m)
        self.quads = np.stack([t[i, (j + 1) % 3], t[i, (j + 2) % 3], t[i, j], t[k, m]])

    def check(self, pts):
        """Indices into ``sides`` of the interior sides that are strictly
        not locally Delaunay at ``pts``: an empty array when the
        triangulation is certified, and None when flips cannot certify it
        (a point not a vertex, a moved hull vertex, a triangle not
        counterclockwise by the margin, or an edge within the margin of
        cocircular)."""
        if not self.all_vertices or not np.array_equal(pts[self.hull], self.hull_xy):
            return None
        det, perm = _orient2d(pts, self.triangles)
        if not np.all(det > _LAWSON_MARGIN * perm):
            return None
        det, perm = _incircle(pts, self.quads)
        margin = _LAWSON_MARGIN * perm
        flip = det > margin
        if not np.all(flip | (det < -margin)):
            return None
        return np.flatnonzero(flip)

    def flip(self, sides):
        """Flip the listed sides that share no triangle with an earlier one.

        The side a-b of triangles (c, a, b) and (d, b, a) becomes c-d of
        (c, a, d) and (d, b, c); returns the number of flips.
        """
        t, nb, n = self.triangles, self.neighbors, self.n
        taken = set()
        old, new = [], []
        for i, j, k, m in zip(*(x[sides].tolist() for x in self.sides)):
            if i in taken or k in taken:
                continue
            taken.update((i, k))
            j1, j2, m1 = (j + 1) % 3, (j + 2) % 3, (m + 1) % 3
            c, a, b, d = t[i, j], t[i, j1], t[i, j2], t[k, m]
            across_bc, across_ad = nb[i, j1], nb[k, m1]
            t[i, j2], nb[i, j], nb[i, j1] = d, across_ad, k
            t[k, (m + 2) % 3], nb[k, m], nb[k, m1] = c, across_bc, i
            if across_ad >= 0:
                nb[across_ad, nb[across_ad] == k] = i
            if across_bc >= 0:
                nb[across_bc, nb[across_bc] == i] = k
            old.append(min(a, b) * n + max(a, b))
            new.append(min(c, d) * n + max(c, d))
        keys = np.delete(self.keys, np.searchsorted(self.keys, old))
        new = np.sort(np.array(new, dtype=np.int64))
        self.keys = np.insert(keys, np.searchsorted(keys, new), new)
        self._list_sides()
        return len(new)

    def repair(self, pts):
        """Flip rounds until ``check`` certifies the triangulation at ``pts``.

        Returns (certified, flips).  Not certified means ``check`` declined
        or ``_FLIP_ROUNDS`` rounds did not suffice; only a retriangulation
        can then give the Delaunay triangulation.
        """
        flips = 0
        bad = self.check(pts)
        for _ in range(_FLIP_ROUNDS):
            if bad is None or bad.size == 0:
                break
            flips += self.flip(bad)
            bad = self.check(pts)
        return bad is not None and bad.size == 0, flips


_MAX_ITERS = 120    # relaxation iteration cap of the inclusion mesh


def _relax(pts, movable, h, r0, ring_spacing, max_iters):
    """Move ``pts[movable]`` in place under repulsive edge forces.

    The edges are those of the Delaunay triangulation of the points at the
    start of each iteration.  The last triangulation is repaired by edge
    flips (``_LawsonCertificate.repair``); ``Delaunay`` runs only on the
    seed points and when a repair is not certified.  Returns the relaxation
    record stored on :class:`TriMesh`.
    """
    n = len(pts)
    target = 1.18 * h
    cert = None
    triangulations = flips = 0
    stop_reason = "max_iters"
    iterations = 0
    while iterations < max_iters:
        iterations += 1
        certified, made = (False, 0) if cert is None else cert.repair(pts)
        flips += made
        if not certified:
            cert = _LawsonCertificate.of(Delaunay(pts))
            triangulations += 1
        if made or not certified:
            e0, e1 = np.divmod(cert.keys, n)
            ends = np.concatenate([e0, e1])
        vec = pts[e0] - pts[e1]
        length = np.linalg.norm(vec, axis=1)
        # Repulsion only: edges shorter than target push their endpoints apart.
        f = np.maximum(target - length, 0.0) / np.maximum(length, 1e-12)
        fv = vec * f[:, None]
        # One bincount per coordinate adds the terms in np.add.at's order.
        w = np.concatenate([fv, -fv])
        force = np.column_stack([np.bincount(ends, weights=w[:, c], minlength=n)
                                 for c in range(2)])
        step = 0.2 * force[movable]
        pts[movable] += step

        # Keep movable nodes off the pinned circle and inside the square.
        q = pts[movable]
        rho = np.linalg.norm(q, axis=1)
        close = np.abs(rho - r0) < 0.6 * ring_spacing
        if np.any(close):
            sign = np.where(rho[close] >= r0, 1.0, -1.0)
            scale = (r0 + sign * 0.6 * ring_spacing) / np.maximum(rho[close], 1e-12)
            q[close] *= scale[:, None]
        np.clip(q, -0.5 + 0.5 * h, 0.5 - 0.5 * h, out=q)
        pts[movable] = q
        if np.max(np.linalg.norm(step, axis=1)) < 2e-3 * h:
            stop_reason = "step_tol"
            break
    return {"iterations": iterations, "triangulations": triangulations,
            "flips": flips, "stop_reason": stop_reason}


def unit_square_mesh(n):
    """Structured triangulation of (0,1)^2 with n cells per side.

    Each cell is split along the lower-left to upper-right diagonal,
    giving (n+1)^2 nodes and 2 n^2 triangles.  Boundary segments are
    named left, right, bottom, top.
    """
    if n < 2:
        raise ValueError("need at least 2 cells per side")
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    def nid(ix, iy):
        return iy * (n + 1) + ix

    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ix = ix.ravel()
    iy = iy.ravel()
    a = nid(ix, iy)
    b = nid(ix + 1, iy)
    c = nid(ix + 1, iy + 1)
    d = nid(ix, iy + 1)
    tris = np.vstack([np.column_stack([a, b, c]), np.column_stack([a, c, d])])

    seg_names = ("bottom", "right", "top", "left")
    edges = []
    segs = []
    r = np.arange(n)
    edges.append(np.column_stack([nid(r, 0), nid(r + 1, 0)]))
    segs.append(np.full(n, 0))
    edges.append(np.column_stack([nid(n, r), nid(n, r + 1)]))
    segs.append(np.full(n, 1))
    edges.append(np.column_stack([nid(r, n), nid(r + 1, n)]))
    segs.append(np.full(n, 2))
    edges.append(np.column_stack([nid(0, r), nid(0, r + 1)]))
    segs.append(np.full(n, 3))

    return TriMesh(
        nodes=nodes,
        triangles=tris.astype(np.int64),
        triangle_tags=np.zeros(len(tris), dtype=np.int64),
        boundary_edges=np.vstack(edges).astype(np.int64),
        edge_segments=np.concatenate(segs).astype(np.int64),
        segment_names=seg_names,
    )


def _hex_lattice(h, margin):
    """Hexagonal lattice of spacing ``h``, ``margin`` inside the square."""
    lo, hi = -0.5, 0.5
    dy = h * np.sqrt(3.0) / 2.0
    rows = int(np.floor((hi - lo - 2 * margin) / dy)) + 1
    pts = []
    for j in range(rows):
        y = lo + margin + j * dy
        off = 0.5 * h if j % 2 else 0.0
        x = np.arange(lo + margin + off, hi - margin + 1e-12, h)
        pts.append(np.column_stack([x, np.full(x.size, y)]))
    return np.vstack(pts)


def square_with_inclusion_mesh(r0, h):
    """Unstructured mesh of (-0.5,0.5)^2 conforming to the circle |x| = r0.

    Nodes are seeded on a hexagonal lattice, the circle ring and the outer
    boundary are pinned, and interior nodes relax under repulsive edge
    forces until the spacing is near-uniform.  Triangles inside the circle
    get tag 0, the rest tag 1.  Boundary segments are named base (y=-0.5),
    top (y=0.5) and side (x=+-0.5).
    """
    if not 0.0 < r0 < 0.5:
        raise ValueError("inclusion radius must lie in (0, 0.5)")
    if h <= 0:
        raise ValueError("target edge length must be positive")

    # Fixed skeleton: square boundary nodes and the exact circle ring.
    n_side = max(4, int(round(1.0 / h)))
    side = np.linspace(-0.5, 0.5, n_side + 1)
    bottom = np.column_stack([side[:-1], np.full(n_side, -0.5)])
    right = np.column_stack([np.full(n_side, 0.5), side[:-1]])
    top = np.column_stack([side[1:][::-1], np.full(n_side, 0.5)])
    left = np.column_stack([np.full(n_side, -0.5), side[1:][::-1]])
    square = np.vstack([bottom, right, top, left])

    n_ring = max(8, int(round(2.0 * np.pi * r0 / h)))
    ang = 2.0 * np.pi * np.arange(n_ring) / n_ring
    ring = r0 * np.column_stack([np.cos(ang), np.sin(ang)])
    ring_spacing = 2.0 * r0 * np.sin(np.pi / n_ring)

    fixed = np.vstack([square, ring])
    n_fixed = len(fixed)
    n_square = len(square)

    interior = _hex_lattice(h, margin=0.75 * h)
    rad = np.linalg.norm(interior, axis=1)
    interior = interior[np.abs(rad - r0) > 0.65 * ring_spacing]

    pts = np.vstack([fixed, interior])
    n_total = len(pts)
    movable = np.arange(n_fixed, n_total)
    relaxation = _relax(pts, movable, h, r0, ring_spacing, _MAX_ITERS)

    tri = Delaunay(pts)
    triangles = _orient_ccw(pts, tri.simplices.astype(np.int64))
    if not np.all(np.abs(_orient2d(pts, triangles)[0]) > 2e-14):
        raise RuntimeError("degenerate triangle produced by relaxation")

    # The circle must be covered by edges between consecutive ring nodes.
    ring_nodes = n_square + np.arange(n_ring)
    if not np.all(np.isin(_edge_keys(ring_nodes[None, :], n_total),
                          _edge_keys(triangles, n_total))):
        raise RuntimeError("circle ring not conforming; adjust h")

    centroids = pts[triangles].mean(axis=1)
    tags = (np.linalg.norm(centroids, axis=1) > r0).astype(np.int64)
    # No triangle may straddle the ring.
    vr = np.linalg.norm(pts, axis=1)[triangles]
    if np.any(np.any(vr < r0 - 1e-9, axis=1) & np.any(vr > r0 + 1e-9, axis=1)):
        raise RuntimeError("triangle crosses the inclusion boundary")

    bnd = _boundary_edges_of(triangles, n_total)
    mids = 0.5 * (pts[bnd[:, 0]] + pts[bnd[:, 1]])
    seg_names = ("base", "top", "side")
    segs = np.full(len(bnd), -1, dtype=np.int64)
    segs[np.abs(mids[:, 1] + 0.5) < 1e-9] = 0
    segs[np.abs(mids[:, 1] - 0.5) < 1e-9] = 1
    segs[np.abs(np.abs(mids[:, 0]) - 0.5) < 1e-9] = 2
    if np.any(segs < 0):
        raise RuntimeError("boundary edge off the square perimeter")

    return TriMesh(
        nodes=pts,
        triangles=triangles,
        triangle_tags=tags,
        boundary_edges=bnd,
        edge_segments=segs,
        segment_names=seg_names,
        relaxation=relaxation,
    )


def write_mesh_text(mesh, path):
    """Write the plain-text mesh format.

    Header ``nodes <N> triangles <T> edges <E>``, then one node per line
    ``x y``, one triangle per line ``i j k tag``, one boundary edge per
    line ``i j segname``.
    """
    with open(path, "w") as fh:
        fh.write(f"nodes {mesh.n_nodes} triangles {mesh.n_triangles} "
                 f"edges {len(mesh.boundary_edges)}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for (i, j, k), tag in zip(mesh.triangles, mesh.triangle_tags):
            fh.write(f"{i} {j} {k} {tag}\n")
        names = mesh.edge_names()
        for (i, j), name in zip(mesh.boundary_edges, names):
            fh.write(f"{i} {j} {name}\n")


def read_mesh_text(path):
    """Read the plain-text mesh format written by :func:`write_mesh_text`."""
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 6 or head[0] != "nodes" or head[2] != "triangles" or head[4] != "edges":
            raise ValueError("bad mesh header")
        n_nodes, n_tri, n_edge = int(head[1]), int(head[3]), int(head[5])
        nodes = np.empty((n_nodes, 2))
        for i in range(n_nodes):
            parts = fh.readline().split()
            nodes[i] = float(parts[0]), float(parts[1])
        tris = np.empty((n_tri, 3), dtype=np.int64)
        tags = np.empty(n_tri, dtype=np.int64)
        for i in range(n_tri):
            a, b, c, t = fh.readline().split()
            tris[i] = int(a), int(b), int(c)
            tags[i] = int(t)
        edges = np.empty((n_edge, 2), dtype=np.int64)
        seg_names = []
        segs = np.empty(n_edge, dtype=np.int64)
        for i in range(n_edge):
            a, b, name = fh.readline().split()
            edges[i] = int(a), int(b)
            if name not in seg_names:
                seg_names.append(name)
            segs[i] = seg_names.index(name)
    return TriMesh(
        nodes=nodes,
        triangles=tris,
        triangle_tags=tags,
        boundary_edges=edges,
        edge_segments=segs,
        segment_names=tuple(seg_names),
    )
