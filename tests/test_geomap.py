import numpy as np
import pytest

from rb_operon.errors import MapDegenerateError
from rb_operon.examples import example_spec
from rb_operon.geomap import (EimPivots, RadialMap, eim_build,
                              eim_coefficients, tensor_field_per_triangle,
                              tensor_snapshot)

RADIAL = example_spec(3).data["radial"]
RM = RadialMap(**RADIAL)


def eim_reconstruct(surrogate, r):
    """The interpolated flattened tensor field at radius r."""
    return eim_coefficients(surrogate, r) @ surrogate.basis


def phi(rm, rho, r):
    """Oracle: the radial scaling factor s(rho)/rho, 1 at rho = 0."""
    scalar = np.isscalar(rho)
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    s, _ = rm.mapped_radius(rho, r)
    out = np.ones_like(rho)
    pos = rho > 0.0
    out[pos] = s[pos] / rho[pos]
    return float(out[0]) if scalar else out


def map_points(rm, x, r):
    """Oracle: the radial map x -> phi(|x|) x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return x * phi(rm, np.linalg.norm(x, axis=1), r)[:, None]


def jacobian(rm, x, r):
    """Oracle: the analytic Jacobian J = phi I + (phi'/rho) x x^T, (n, 2, 2)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rho = np.linalg.norm(x, axis=1)
    s, ds = rm.mapped_radius(rho, r)
    pos = rho > 0.0
    ph = np.ones_like(rho)
    ph[pos] = s[pos] / rho[pos]
    # phi'/rho = (s' rho - s)/rho^3
    fac = np.zeros_like(rho)
    fac[pos] = (ds[pos] * rho[pos] - s[pos]) / rho[pos] ** 3
    jac = ph[:, None, None] * np.eye(2)
    jac += fac[:, None, None] * np.einsum("ni,nj->nij", x, x)
    return jac


def test_radial_map_validates():
    with pytest.raises(ValueError):
        RadialMap(**dict(RADIAL, r_minus=0.2, r0=0.1))
    with pytest.raises(ValueError):
        RM.mapped_radius(np.array([0.1]), 0.5)   # outside [r_min, r_max]


@pytest.mark.parametrize("r", [0.05, 0.13, 0.2, 0.31, 0.45])
def test_mapped_radius_pins_and_monotone(r):
    rho = np.linspace(0.0, 1.0, 2001)
    s, ds = RM.mapped_radius(rho, r)
    assert np.isclose(np.interp(RM.r0, rho, s), r)
    assert np.isclose(np.interp(RM.r_minus, rho, s), RM.r_minus)
    assert np.isclose(np.interp(RM.r_plus, rho, s), RM.r_plus)
    outside = (rho <= RM.r_minus) | (rho >= RM.r_plus)
    assert np.allclose(s[outside], rho[outside])
    assert np.all(np.diff(s) > 0)               # bijective for admissible r
    assert np.all(ds > 0)


def test_phi_values():
    assert np.isclose(phi(RM, RM.r0, 0.37), 0.37 / RM.r0)
    assert np.isclose(phi(RM, 0.0, 0.1), 1.0)
    assert np.isclose(phi(RM, 0.9, 0.1), 1.0)


def test_map_points_moves_ring():
    ang = np.linspace(0, 2 * np.pi, 7)[:-1]
    ring = RM.r0 * np.column_stack([np.cos(ang), np.sin(ang)])
    mapped = map_points(RM, ring, 0.3)
    assert np.allclose(np.linalg.norm(mapped, axis=1), 0.3)


def test_jacobian_matches_finite_differences(rng):
    r = 0.33
    pts = rng.uniform(-0.45, 0.45, size=(60, 2))
    # keep clear of the piecewise-linear kinks where J jumps
    rho = np.linalg.norm(pts, axis=1)
    keep = np.all(np.abs(rho[:, None] - np.array([RM.r_minus, RM.r0, RM.r_plus]))
                  > 1e-3, axis=1) & (rho > 1e-2)
    pts = pts[keep]
    jac = jacobian(RM, pts, r)
    h = 1e-6
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        fd = (map_points(RM, pts + e, r) - map_points(RM, pts - e, r)) / (2 * h)
        assert np.allclose(jac[:, :, d], fd, rtol=1e-5, atol=1e-7)


def test_tensor_equals_jacobian_algebra(rng):
    r = 0.12
    pts = rng.uniform(-0.45, 0.45, size=(40, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-2]
    g = RM.jacobian_tensor(pts, r)
    jac = jacobian(RM, pts, r)
    det = np.linalg.det(jac)
    assert np.all(det > 0)
    inv = np.linalg.inv(jac)
    expect = det[:, None, None] * np.einsum("nki,nkj->nij", inv, inv)
    assert np.allclose(g, expect, rtol=1e-10)


def test_tensor_identity_at_reference_radius(rng):
    pts = rng.uniform(-0.5, 0.5, size=(50, 2))
    g = RM.jacobian_tensor(pts, RM.r0)
    assert np.allclose(g, np.tile(np.eye(2), (len(pts), 1, 1)), atol=1e-14)


def eim_fixture(n_pts=40, n_train=32, q_max=8):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.45, 0.45, size=(n_pts, 2))
    radii = np.linspace(RM.r_min, RM.r_max, n_train)
    return pts, radii, eim_build(RM, pts, radii, q_max=q_max)


def test_eim_reproduces_selected_snapshots():
    pts, radii, sur = eim_fixture()
    assert sur.rank <= 8
    for r in sur.selected:
        snap = tensor_snapshot(RM, pts, r)
        assert np.allclose(eim_reconstruct(sur, r), snap, atol=1e-11 * np.abs(snap).max())


def test_eim_interpolates_at_pivots(rng):
    pts, radii, sur = eim_fixture()
    for r in rng.uniform(RM.r_min, RM.r_max, size=8):
        snap = tensor_snapshot(RM, pts, r)
        rec = eim_reconstruct(sur, r)
        assert np.allclose(rec[sur.pivots], snap[sur.pivots], rtol=1e-10)


def test_eim_trace_strictly_decreasing():
    pts, radii, sur = eim_fixture(q_max=10)
    assert np.all(np.diff(sur.trace) < 0)


def test_eim_pivot_matrix_unit_lower_triangular():
    _, _, sur = eim_fixture()
    t = sur.tri_mat
    assert np.allclose(np.diag(t), 1.0)
    assert np.allclose(np.triu(t, 1), 0.0)
    # each basis field is normalized at its own pivot and vanishes at the
    # pivots chosen before it
    for q in range(sur.rank):
        assert np.isclose(sur.basis[q, sur.pivots[q]], 1.0)
        assert np.allclose(sur.basis[q, sur.pivots[:q]], 0.0, atol=1e-9)


def test_eim_stops_at_round_off_floor():
    # three training radii span at most three snapshots, so after three
    # fields every training error is round-off: the greedy stops there,
    # well short of q_max, and reproduces each snapshot
    pts = np.random.default_rng(4).uniform(-0.45, 0.45, size=(30, 2))
    radii = np.array([RM.r_min, 0.3, RM.r_max])
    sur = eim_build(RM, pts, radii, q_max=20)
    assert sur.rank <= 3
    assert len(sur.trace) == sur.rank
    for r in radii:
        snap = tensor_snapshot(RM, pts, r)
        assert np.allclose(eim_reconstruct(sur, r), snap, rtol=0,
                           atol=1e-12 * np.abs(snap).max())


def test_pivot_values_match_full_snapshot():
    pts, radii, sur = eim_fixture()
    r = 0.27
    snap = tensor_snapshot(RM, pts, r)
    assert np.allclose(sur.pivot_values(r), snap[sur.pivots])


def test_pivot_values_equal_jacobian_tensor_at_pivots(rng):
    # the closed form at the pivots, for one radius and for a vector of
    # radii, is the pullback tensor itself, entry for entry
    pts, radii, sur = eim_fixture()
    rs = np.concatenate([[RM.r_min, RM.r0, RM.r_max],
                         rng.uniform(RM.r_min, RM.r_max, 20)])
    want = np.array([tensor_snapshot(RM, pts, r)[sur.pivots] for r in rs])
    assert np.array_equal(sur.pivot_values(rs), want)
    for r, row in zip(rs, want):
        got = sur.pivot_values(r)
        assert got.shape == (sur.rank,)
        assert np.array_equal(got, row)
    alpha = eim_coefficients(sur, rs)
    assert alpha.shape == (len(rs), sur.rank)
    for r, row in zip(rs, alpha):
        assert np.allclose(eim_coefficients(sur, r), row, rtol=1e-14,
                           atol=1e-14 * np.abs(row).max())


def test_pivot_values_cover_every_piece_and_the_origin():
    # one pivot on each piece of s(rho), the origin included, against the
    # tensor at the same points
    pts = np.array([[0.0, 0.0], [0.01, 0.02], [0.1, -0.05], [-0.15, 0.1],
                    [0.3, 0.2], [0.0, -0.5], [0.45, 0.45]])
    comps = np.array([0, 1, 2, 0, 1, 2, 1])
    piv = EimPivots(RM, pts, comps, np.eye(len(pts)))
    rs = np.array([0.07, 0.2, 0.41])
    g = np.array([RM.jacobian_tensor(pts, r) for r in rs])
    a = np.array([0, 0, 1])[comps]
    b = np.array([0, 1, 1])[comps]
    want = g[:, np.arange(len(pts)), a, b]
    assert np.array_equal(piv.pivot_values(rs), want)
    assert np.array_equal(eim_coefficients(piv, rs), want)


def test_pivot_values_check_every_radius():
    _, _, sur = eim_fixture()
    inside = np.linspace(RM.r_min, RM.r_max, 5)
    for bad in (RM.r_max + 1e-3, RM.r_min - 1e-3, np.nan):
        radii = np.concatenate([inside[:2], [bad], inside[2:]])
        with pytest.raises(ValueError, match="outside"):
            sur.pivot_values(radii)
        with pytest.raises(ValueError, match="outside"):
            eim_coefficients(sur, radii)
    with pytest.raises(ValueError, match="outside"):
        sur.pivot_values(RM.r_max + 1e-3)


def test_pivot_values_raise_on_degenerate_map():
    # with r_minus = r_min the inner slope (r - r_minus)/(r0 - r_minus)
    # vanishes at r = r_min, so det J = 0 on the inner annulus
    rm = RadialMap(**dict(RADIAL, r_minus=0.05, r_min=0.05))
    pts = np.array([[0.1, 0.0], [0.3, 0.1]])
    piv = EimPivots(rm, pts, np.array([0, 2]), np.eye(2))
    assert np.all(np.isfinite(piv.pivot_values(np.array([0.1, 0.3]))))
    with pytest.raises(MapDegenerateError, match="radius 0.05"):
        piv.pivot_values(np.array([0.1, 0.05, 0.3]))
    with pytest.raises(MapDegenerateError):
        piv.pivot_values(0.05)
    with pytest.raises(MapDegenerateError):
        rm.jacobian_tensor(pts, 0.05)


def test_tensor_field_reshape_symmetry():
    flat = np.arange(12, dtype=float)
    t = tensor_field_per_triangle(flat, 4)
    assert t.shape == (4, 2, 2)
    assert np.allclose(t[:, 0, 1], t[:, 1, 0])
    assert np.allclose(t[1], [[3.0, 4.0], [4.0, 5.0]])
