import numpy as np
import pytest
from scipy.spatial import Delaunay

from rb_operon import mesh as mesh_mod
from rb_operon.mesh import (_LawsonCertificate, _edge_keys, _hex_lattice,
                            _orient2d, dirichlet_nodes, min_angle_deg,
                            read_mesh_text, square_with_inclusion_mesh,
                            unit_square_mesh, write_mesh_text)


def signed_areas(mesh):
    p = mesh.nodes[mesh.triangles]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    return 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])


def all_edges(mesh):
    """Unique undirected edges of the triangulation, sorted pairs."""
    n = mesh.n_nodes
    return np.column_stack(np.divmod(np.unique(_edge_keys(mesh.triangles, n)), n))


def boundary_node_indices(mesh):
    return np.unique(mesh.boundary_edges)


def test_unit_square_counts():
    m = unit_square_mesh(4)
    assert m.n_nodes == 25
    assert m.n_triangles == 32
    assert len(m.boundary_edges) == 16
    # Euler characteristic of a disk-like triangulation: V - E + F = 1
    assert m.n_nodes - len(all_edges(m)) + m.n_triangles == 1


def test_unit_square_geometry():
    m = unit_square_mesh(5)
    areas = signed_areas(m)
    assert np.all(areas > 0)                      # counterclockwise
    assert np.isclose(areas.sum(), 1.0)
    assert np.all((m.nodes >= 0.0) & (m.nodes <= 1.0))
    bn = m.nodes[boundary_node_indices(m)]
    on_edge = (np.isclose(bn, 0.0) | np.isclose(bn, 1.0)).any(axis=1)
    assert on_edge.all()


def test_unit_square_rejects_tiny():
    with pytest.raises(ValueError):
        unit_square_mesh(1)


def test_segment_masks_partition():
    m = unit_square_mesh(6)
    total = sum(int(m.segment_of(s).sum()) for s in m.segment_names)
    assert total == len(m.boundary_edges)
    mids = 0.5 * (m.nodes[m.boundary_edges[:, 0]] + m.nodes[m.boundary_edges[:, 1]])
    assert np.allclose(mids[m.segment_of("bottom")][:, 1], 0.0)
    assert np.allclose(mids[m.segment_of("top")][:, 1], 1.0)
    assert np.allclose(mids[m.segment_of("left")][:, 0], 0.0)
    assert np.allclose(mids[m.segment_of("right")][:, 0], 1.0)


@pytest.mark.parametrize("n,expected", [(4, 7), (64, 127)])
def test_dirichlet_open_segment_rule(n, expected):
    # a node is constrained only when every incident boundary edge is
    # Dirichlet, so junction corners stay free
    m = unit_square_mesh(n)
    bd = dirichlet_nodes(m, ["left", "top"])
    assert len(bd) == expected
    corners = m.nodes[bd]
    assert not np.any(np.isclose(corners[:, 0], 0.0) & np.isclose(corners[:, 1], 0.0))
    assert not np.any(np.isclose(corners[:, 0], 1.0) & np.isclose(corners[:, 1], 1.0))


def test_inclusion_mesh_conforms():
    r0 = 0.2
    m = square_with_inclusion_mesh(r0=r0, h=1.0 / 12.0)
    areas = signed_areas(m)
    assert np.all(areas > 0)
    assert np.isclose(areas.sum(), 1.0)
    assert min_angle_deg(m) > 20.0
    # tags split exactly at the circle: all vertices of tag-0 triangles lie
    # inside (or on) the ring, tag-1 outside (or on)
    vr = np.linalg.norm(m.nodes, axis=1)[m.triangles]
    assert np.all(vr[m.triangle_tags == 0] <= r0 + 1e-9)
    assert np.all(vr[m.triangle_tags == 1] >= r0 - 1e-9)
    assert (m.triangle_tags == 0).sum() > 0
    inc_area = areas[m.triangle_tags == 0].sum()
    assert abs(inc_area - np.pi * r0 ** 2) < 0.15 * np.pi * r0 ** 2
    mids = 0.5 * (m.nodes[m.boundary_edges[:, 0]] + m.nodes[m.boundary_edges[:, 1]])
    assert np.all(np.isclose(np.abs(mids), 0.5).any(axis=1))


def _plain_relax(pts, movable, h, r0, ring_spacing, max_iters):
    """Reference relaxation: a fresh Delaunay triangulation, a 2-D unique of
    the edge pairs and np.add.at force scatters on every iteration."""
    target = 1.18 * h
    stop_reason = "max_iters"
    it = 0
    for it in range(1, max_iters + 1):
        simplices = Delaunay(pts).simplices
        e = np.vstack([simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [2, 0]]])
        e.sort(axis=1)
        e = np.unique(e, axis=0)
        vec = pts[e[:, 0]] - pts[e[:, 1]]
        length = np.linalg.norm(vec, axis=1)
        f = np.maximum(target - length, 0.0) / np.maximum(length, 1e-12)
        fv = vec * f[:, None]
        force = np.zeros_like(pts)
        np.add.at(force, e[:, 0], fv)
        np.add.at(force, e[:, 1], -fv)
        step = 0.2 * force[movable]
        pts[movable] += step
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
    return {"iterations": it, "triangulations": it, "stop_reason": stop_reason}


@pytest.mark.parametrize("h", [1.0 / 12.0, 1.0 / 24.0], ids=["h12", "h24"])
def test_relaxation_matches_plain_loop(h, monkeypatch):
    fast = square_with_inclusion_mesh(r0=0.2, h=h)
    monkeypatch.setattr(mesh_mod, "_relax", _plain_relax)
    plain = square_with_inclusion_mesh(r0=0.2, h=h)
    for name in ("nodes", "triangles", "triangle_tags", "boundary_edges",
                 "edge_segments"):
        a, b = getattr(fast, name), getattr(plain, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    rf, rp = fast.relaxation, plain.relaxation
    assert rf["iterations"] == rp["iterations"]
    assert rf["stop_reason"] == rp["stop_reason"]
    assert rf["triangulations"] == 1
    assert rf["flips"] > 0


def test_relaxation_triangulates_only_seed_and_result(monkeypatch):
    # flips repair every certificate failure at this size, so Delaunay runs
    # on the seed points and once more for the final triangle order
    calls = []

    def counted(pts):
        calls.append(None)
        return Delaunay(pts)

    monkeypatch.setattr(mesh_mod, "Delaunay", counted)
    m = square_with_inclusion_mesh(r0=0.2, h=1.0 / 24.0)
    assert len(calls) == 2
    assert m.relaxation["triangulations"] == 1


def _delaunay_edges(pts):
    return np.unique(_edge_keys(Delaunay(pts).simplices, len(pts)))


def _assert_consistent(cert, pts):
    """The flipped arrays still describe one counterclockwise triangulation:
    neighbours across every side agree, and ``keys`` lists its edges."""
    t, nb = cert.triangles, cert.neighbors
    assert np.all(_orient2d(pts, t)[0] > 0)
    i, j = np.nonzero(nb >= 0)
    k = nb[i, j]
    for end in ((j + 1) % 3, (j + 2) % 3):
        assert np.all((t[k] == t[i, end][:, None]).any(axis=1))
    assert np.all((nb[k] == i[:, None]).any(axis=1))
    assert np.array_equal(cert.keys, np.unique(_edge_keys(t, len(pts))))


def _declined(cert, pts):
    """``check`` sends the triangulation to Delaunay, and ``repair`` flips
    nothing."""
    return cert.check(pts) is None and cert.repair(pts) == (False, 0)


def test_certificate_passes_on_delaunay_of_random_points():
    pts = np.random.default_rng(5).random((300, 2))
    cert = _LawsonCertificate.of(Delaunay(pts))
    assert cert.check(pts).size == 0
    assert np.array_equal(cert.keys, _delaunay_edges(pts))
    # a small move of the interior points keeps the same triangulation
    moved = pts.copy()
    inner = np.setdiff1d(np.arange(len(pts)), cert.hull)
    moved[inner] += 1e-7 * np.random.default_rng(6).standard_normal((len(inner), 2))
    assert cert.check(moved).size == 0
    assert np.array_equal(_delaunay_edges(moved), _delaunay_edges(pts))


def test_certificate_fails_when_vertex_enters_neighbour_circumcircle():
    pts = np.random.default_rng(7).random((300, 2))
    tri = Delaunay(pts)
    cert = _LawsonCertificate.of(tri)
    # the interior vertex closest (relative to the radius) to the
    # circumcircle of a triangle across one of its opposite sides
    best = None
    for t in range(len(tri.simplices)):
        for j in range(3):
            u, v = tri.neighbors[t, j], tri.simplices[t, j]
            if u < 0 or v in cert.hull:
                continue
            a, b, c = pts[tri.simplices[u]]
            m = np.array([b - a, c - a])
            o = a + np.linalg.solve(2 * m, (m * m).sum(axis=1))
            ratio = np.linalg.norm(pts[v] - o) / np.linalg.norm(a - o)
            if best is None or ratio < best[0]:
                best = (ratio, v, o)
    ratio, v, o = best
    assert ratio > 1.0
    moved = pts.copy()
    moved[v] = o + (pts[v] - o) * (1.0 - 1e-3) / ratio
    assert cert.check(moved).size >= 1
    assert not np.array_equal(_delaunay_edges(moved), _delaunay_edges(pts))
    certified, flips = cert.repair(moved)
    assert certified and flips >= 1
    assert np.array_equal(cert.keys, _delaunay_edges(moved))
    _assert_consistent(cert, moved)


def test_certificate_repairs_jittered_lattice_in_rounds():
    # eight edges fail at once; a round flips at most those, so more flips
    # than failures means later rounds flipped edges the first one broke
    rng = np.random.default_rng(8)
    base = _hex_lattice(0.1, margin=0.0)
    pts = base + 0.01 * rng.standard_normal(base.shape)
    inner = np.flatnonzero(np.all(np.abs(pts) < 0.3, axis=1))
    cert = _LawsonCertificate.of(Delaunay(pts))
    moved = pts.copy()
    moved[inner] += 0.02 * rng.standard_normal((len(inner), 2))
    bad = cert.check(moved).size
    certified, flips = cert.repair(moved)
    assert certified and flips > bad > 1
    assert np.array_equal(cert.keys, _delaunay_edges(moved))
    _assert_consistent(cert, moved)


def test_certificate_fails_when_triangle_inverts():
    # v leaves triangle abc across side ab but stays inside its
    # circumcircle: every in-circle test still passes, triangle abv inverts
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 0.3]])
    cert = _LawsonCertificate.of(Delaunay(pts))
    assert cert.check(pts).size == 0
    moved = pts.copy()
    moved[3] = [0.5, -0.1]
    assert _declined(cert, moved)
    assert not np.array_equal(_delaunay_edges(moved), _delaunay_edges(pts))


def test_certificate_fails_on_cocircular_points():
    g = np.arange(4.0)
    pts = np.column_stack([np.repeat(g, 4), np.tile(g, 4)])
    assert _declined(_LawsonCertificate.of(Delaunay(pts)), pts)


def test_certificate_fails_when_a_point_is_not_a_vertex():
    pts = np.random.default_rng(8).random((60, 2))
    pts = np.vstack([pts, pts[10]])               # a duplicate stays out
    tri = Delaunay(pts)
    assert len(tri.coplanar) == 1
    assert _declined(_LawsonCertificate.of(tri), pts)


def test_certificate_fails_when_hull_vertex_moves():
    # hull vertex q moves inside the hull; the old triangles stay valid and
    # locally Delaunay, but the hull gains the triangle a, q, b
    pts = np.array([[0.0, 0.0], [1.0, -0.05], [2.0, 0.0], [1.1, 1.5],
                    [0.9, 0.5]])
    cert = _LawsonCertificate.of(Delaunay(pts))
    assert cert.check(pts).size == 0
    moved = pts.copy()
    moved[1] = [1.0, 0.05]
    assert _declined(cert, moved)
    assert not np.array_equal(_delaunay_edges(moved), _delaunay_edges(pts))


def test_inclusion_mesh_validates_inputs():
    with pytest.raises(ValueError):
        square_with_inclusion_mesh(r0=0.7, h=1.0 / 12.0)
    with pytest.raises(ValueError):
        square_with_inclusion_mesh(r0=0.2, h=-0.1)


def test_mesh_text_roundtrip(tmp_path):
    m = square_with_inclusion_mesh(r0=0.2, h=1.0 / 8.0)
    path = tmp_path / "m.txt"
    write_mesh_text(m, path)
    back = read_mesh_text(path)
    assert np.array_equal(back.nodes, m.nodes)        # repr() round-trips floats
    assert np.array_equal(back.triangles, m.triangles)
    assert np.array_equal(back.triangle_tags, m.triangle_tags)
    assert np.array_equal(back.boundary_edges, m.boundary_edges)
    assert back.edge_names().tolist() == m.edge_names().tolist()
