"""Conforming triangular meshes with boundary-segment and subdomain tags.

Two generators are provided: a structured unit-square triangulation and an
unstructured mesh of the square (-0.5, 0.5)^2 with a circular inclusion whose
boundary is resolved exactly by mesh edges.  The inclusion mesh is produced by
a force-equilibrium relaxation (truss analogy) over a Delaunay triangulation,
with the circle ring, the outer boundary and the corners held fixed.

Boundary edges carry free-form segment names ("base", "top", ...).  Nodes at
a junction between a Dirichlet segment and a Neumann/Robin segment belong to
the non-Dirichlet side: a node counts as Dirichlet only when every boundary
edge incident to it is Dirichlet-tagged.  This open-segment convention fixes
the constrained-node counts that the rest of the toolkit relies on.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay

from .errors import TaggingIncompleteError


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
    """

    nodes: np.ndarray
    triangles: np.ndarray
    triangle_tags: np.ndarray
    boundary_edges: np.ndarray
    edge_segments: np.ndarray
    segment_names: tuple

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


def signed_areas(mesh):
    p = mesh.nodes[mesh.triangles]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    return 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])


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


def all_edges(mesh):
    """Unique undirected edges of the triangulation, sorted pairs."""
    t = mesh.triangles
    e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    e.sort(axis=1)
    return np.unique(e, axis=0)


def boundary_node_indices(mesh):
    return np.unique(mesh.boundary_edges)


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


def _boundary_edges_of(triangles):
    """Edges incident to exactly one triangle."""
    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    key = np.sort(e, axis=1)
    _, inv, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
    return np.sort(e[counts[inv] == 1], axis=1)


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


def _hex_lattice(h, lo=-0.5, hi=0.5, margin=0.0):
    dy = h * np.sqrt(3.0) / 2.0
    rows = int(np.floor((hi - lo - 2 * margin) / dy)) + 1
    pts = []
    for j in range(rows):
        y = lo + margin + j * dy
        off = 0.5 * h if j % 2 else 0.0
        x = np.arange(lo + margin + off, hi - margin + 1e-12, h)
        pts.append(np.column_stack([x, np.full(x.size, y)]))
    return np.vstack(pts)


def square_with_inclusion_mesh(r0=0.2, h=1.0 / 43.0, max_iters=120):
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
    target = 1.18 * h

    for _ in range(max_iters):
        tri = Delaunay(pts)
        simplices = tri.simplices
        e = np.vstack([simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [2, 0]]])
        e.sort(axis=1)
        e = np.unique(e, axis=0)
        vec = pts[e[:, 0]] - pts[e[:, 1]]
        length = np.linalg.norm(vec, axis=1)
        # Repulsion only: edges shorter than target push their endpoints apart.
        f = np.maximum(target - length, 0.0) / np.maximum(length, 1e-12)
        fv = vec * f[:, None]
        force = np.zeros_like(pts)
        np.add.at(force, e[:, 0], fv)
        np.add.at(force, e[:, 1], -fv)
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
            break

    tri = Delaunay(pts)
    triangles = _orient_ccw(pts, tri.simplices.astype(np.int64))
    areas_ok = np.all(np.abs(signed_areas(TriMesh(
        pts, triangles, np.zeros(len(triangles), dtype=np.int64),
        np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64), ()))) > 1e-14)
    if not areas_ok:
        raise RuntimeError("degenerate triangle produced by relaxation")

    # The circle must be covered by edges between consecutive ring nodes.
    edge_set = {tuple(pair) for pair in all_edges(TriMesh(
        pts, triangles, np.zeros(len(triangles), dtype=np.int64),
        np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64), ()))}
    for j in range(n_ring):
        a = n_square + j
        b = n_square + (j + 1) % n_ring
        if (min(a, b), max(a, b)) not in edge_set:
            raise RuntimeError("circle ring not conforming; adjust h")

    centroids = pts[triangles].mean(axis=1)
    tags = (np.linalg.norm(centroids, axis=1) > r0).astype(np.int64)
    # No triangle may straddle the ring.
    vr = np.linalg.norm(pts, axis=1)[triangles]
    if np.any(np.any(vr < r0 - 1e-9, axis=1) & np.any(vr > r0 + 1e-9, axis=1)):
        raise RuntimeError("triangle crosses the inclusion boundary")

    bnd = _boundary_edges_of(triangles)
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
    )


def tag_boundary(mesh, rules):
    """Re-tag boundary edges by midpoint predicates.

    ``rules`` is an ordered sequence of (segment_name, predicate) pairs where
    the predicate takes edge midpoints of shape (m, 2) and returns a boolean
    mask.  The first matching rule wins.  Every edge must match some rule.
    """
    mids = 0.5 * (mesh.nodes[mesh.boundary_edges[:, 0]]
                  + mesh.nodes[mesh.boundary_edges[:, 1]])
    names = tuple(name for name, _ in rules)
    segs = np.full(len(mesh.boundary_edges), -1, dtype=np.int64)
    for i, (_, pred) in enumerate(rules):
        mask = np.asarray(pred(mids), dtype=bool)
        segs[(segs < 0) & mask] = i
    if np.any(segs < 0):
        bad = mids[segs < 0][0]
        raise TaggingIncompleteError(f"boundary edge at {bad} matched no rule")
    return TriMesh(
        nodes=mesh.nodes,
        triangles=mesh.triangles,
        triangle_tags=mesh.triangle_tags,
        boundary_edges=mesh.boundary_edges,
        edge_segments=segs,
        segment_names=names,
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
