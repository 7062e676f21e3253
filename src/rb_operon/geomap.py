"""Radius-parameterized radial map and empirical interpolation of its metric.

The map rescales the inclusion circle rho = r0 to radius r while leaving
everything outside r_plus (and inside r_minus) untouched.  It is defined
through a piecewise-linear mapped radius s(rho): identity up to r_minus,
linear from (r_minus, r_minus) to (r0, r), linear from (r0, r) to
(r_plus, r_plus), identity beyond.  Monotone interpolation keeps
s' > 0 for every admissible r, so det J = (s/rho) s' stays positive on the
whole radius range, and phi(rho) = s/rho keeps the defining values
phi(r0) = r/r0 and phi = 1 at r_minus, r_plus and outside.

The pulled-back diffusion tensor G = |det J| J^-T J^-1 is non-affine in r;
a discrete empirical interpolation over (triangle x tensor-component)
samples restores an affine surrogate of rank Q for the online stage.
"""

import numpy as np
from dataclasses import dataclass, field
from functools import cached_property
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtrs

from .errors import MapDegenerateError


@dataclass(frozen=True)
class RadialMap:
    """Radii of the map; example 3's spec pins them."""
    r_minus: float
    r0: float
    r_plus: float
    r_min: float
    r_max: float

    def __post_init__(self):
        if not (0.0 < self.r_minus <= self.r_min < self.r_max < self.r_plus < 1.0):
            raise ValueError("radii must satisfy 0 < r- <= rmin < rmax < r+ < 1")

    def _check(self, r):
        """``r`` as a float array, checked inside [r_min, r_max] entrywise."""
        r = np.asarray(r, dtype=float)
        ok = (r >= self.r_min) & (r <= self.r_max)
        if not ok.all():
            bad = float(r[~ok].flat[0])
            raise ValueError(f"radius {bad} outside [{self.r_min}, {self.r_max}]")
        return r

    def mapped_radius(self, rho, r):
        """s(rho) and its slope s'(rho), vectorized."""
        self._check(r)
        rho = np.asarray(rho, dtype=float)
        sl_in = (r - self.r_minus) / (self.r0 - self.r_minus)
        sl_out = (self.r_plus - r) / (self.r_plus - self.r0)
        conds = [rho < self.r_minus,
                 (rho >= self.r_minus) & (rho < self.r0),
                 (rho >= self.r0) & (rho < self.r_plus)]
        s = np.select(conds,
                      [rho,
                       self.r_minus + (rho - self.r_minus) * sl_in,
                       r + (rho - self.r0) * sl_out],
                      default=rho)
        ds = np.select(conds, [1.0, sl_in, sl_out], default=1.0)
        return s, ds

    def jacobian_tensor(self, x, r):
        """Pulled-back diffusion tensor G = |det J| J^-T J^-1, shape (n, 2, 2).

        J is symmetric with radial eigenvalue s' and tangential eigenvalue
        phi, so G has eigenvalues phi/s' (radial) and s'/phi (tangential).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rho = np.linalg.norm(x, axis=1)
        s, ds = self.mapped_radius(rho, r)
        pos = rho > 0.0
        phi = np.ones_like(rho)
        phi[pos] = s[pos] / rho[pos]
        det = phi * ds
        if np.any(det <= 0.0):
            raise MapDegenerateError(f"det J <= 0 for radius {r}")
        n = len(x)
        out = np.zeros((n, 2, 2))
        lam_t = ds / phi
        out[:, 0, 0] = lam_t
        out[:, 1, 1] = lam_t
        e = np.zeros_like(x)
        e[pos] = x[pos] / rho[pos, None]
        coef = phi / ds - lam_t
        out += coef[:, None, None] * np.einsum("ni,nj->nij", e, e)
        return out


def tensor_snapshot(radial_map, points, r):
    """Flattened (xx, xy, yy) samples of G at the given points."""
    g = radial_map.jacobian_tensor(points, r)
    return np.column_stack([g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]]).ravel()


@dataclass
class EimPivots:
    """What eim_coefficients reads: the map and the pivot data alone."""

    radial_map: RadialMap
    pivot_points: np.ndarray    # (Q, 2) locations of the pivots
    pivot_comps: np.ndarray     # (Q,) tensor component (xx, xy, yy) at each
    tri_mat: np.ndarray         # (Q, Q) unit lower-triangular pivot matrix

    @cached_property
    def _pivot_form(self):
        """Per-pivot constants of G's closed form, fixed by the pivot radii.

        Each pivot sits on one linear piece of s(rho) whatever r is, so
        s' = w_in sl_in + w_out sl_out + w_id and
        phi = (a + b s' + w_out r) / den, with 0/1 weights; an identity
        piece gets a = den = 1, so phi = 1 exactly, as at rho = 0.
        """
        rm = self.radial_map
        x = np.asarray(self.pivot_points, dtype=float)
        rho = np.linalg.norm(x, axis=1)
        inner = (rho >= rm.r_minus) & (rho < rm.r0)
        outer = (rho >= rm.r0) & (rho < rm.r_plus)
        ident = ~(inner | outer)
        pos = rho > 0.0
        e = np.zeros_like(x)
        e[pos] = x[pos] / rho[pos, None]
        # (xx, xy, yy) -> the two unit-vector coordinates of the component
        ia = np.array([0, 0, 1])[self.pivot_comps]
        ib = np.array([0, 1, 1])[self.pivot_comps]
        eprod = e[np.arange(len(x)), ia] * e[np.arange(len(x)), ib]
        a = np.where(inner, rm.r_minus, 0.0) + ident
        b = np.where(inner, rho - rm.r_minus, np.where(outer, rho - rm.r0, 0.0))
        den = np.where(ident, 1.0, rho)
        return (inner.astype(float), outer.astype(float), ident.astype(float),
                a, b, den, (self.pivot_comps != 1).astype(float), eprod)

    def pivot_values(self, r):
        """G components at the pivot locations, (Q,) for one radius and
        (n, Q) for a 1-D array of n radii; O(Q) work per radius.

        G = lam_t I + (phi/s' - lam_t) e e^T with lam_t = s'/phi and e the
        pivot's unit radial vector, evaluated in the operation order of
        ``RadialMap.jacobian_tensor``, so each value equals its entry.
        """
        rm = self.radial_map
        r = rm._check(r)[..., None]
        w_in, w_out, w_id, a, b, den, diag, eprod = self._pivot_form
        sl_in = (r - rm.r_minus) / (rm.r0 - rm.r_minus)
        sl_out = (rm.r_plus - r) / (rm.r_plus - rm.r0)
        ds = w_in * sl_in + w_out * sl_out + w_id
        phi = (a + b * ds + w_out * r) / den
        bad = phi * ds <= 0.0
        if bad.any():
            r_bad = float(np.broadcast_to(r, bad.shape)[bad][0])
            raise MapDegenerateError(f"det J <= 0 for radius {r_bad}")
        lam_t = ds / phi
        return diag * lam_t + (phi / ds - lam_t) * eprod


@dataclass
class EimSurrogate(EimPivots):
    """Greedy interpolation basis for the tensor field over fixed points."""

    points: np.ndarray          # (n_pts, 2) sample locations (centroids)
    basis: np.ndarray           # (Q, 3*n_pts) flattened basis fields
    pivots: np.ndarray          # (Q,) flat indices into the sample vector
    selected: np.ndarray        # (Q,) training radii chosen by the greedy
    trace: np.ndarray           # (Q,) sup-norm training errors before each pick
    pivot_points: np.ndarray = field(init=False)    # from points and pivots
    pivot_comps: np.ndarray = field(init=False)

    def __post_init__(self):
        self.pivot_points = self.points[self.pivots // 3]
        self.pivot_comps = self.pivots % 3

    @property
    def rank(self):
        return self.basis.shape[0]


def eim_build(radial_map, points, radii, q_max):
    """Discrete EIM greedy over snapshots of G on the training radii.

    Returns an EimSurrogate of rank at most q_max; stops early when the
    sup-norm training error reaches the round-off floor.
    """
    radii = np.asarray(radii, dtype=float)
    snaps = np.vstack([tensor_snapshot(radial_map, points, r) for r in radii])
    n_train, d = snaps.shape
    floor = 1e3 * np.finfo(float).eps * np.max(np.abs(snaps))

    sup = np.max(np.abs(snaps), axis=1)
    sel = [int(np.argmax(sup))]
    piv = [int(np.argmax(np.abs(snaps[sel[0]])))]
    basis = [snaps[sel[0]] / snaps[sel[0], piv[0]]]
    trace = [float(sup[sel[0]])]

    while len(basis) < q_max:
        b = np.vstack(basis)
        t = b[:, piv].T          # lower triangular: basis q vanishes at earlier pivots
        alpha = solve_triangular(t, snaps[:, piv].T, lower=True).T
        resid = snaps - alpha @ b
        err = np.max(np.abs(resid), axis=1)
        m = int(np.argmax(err))
        if err[m] <= floor:
            trace.append(float(err[m]))
            break
        sel.append(m)
        p = int(np.argmax(np.abs(resid[m])))
        piv.append(p)
        basis.append(resid[m] / resid[m, p])
        trace.append(float(err[m]))

    b = np.vstack(basis)
    t = np.tril(b[:, piv].T)
    return EimSurrogate(radial_map=radial_map, points=points, basis=b,
                        pivots=np.asarray(piv, dtype=np.int64), tri_mat=t,
                        selected=radii[sel], trace=np.asarray(trace[:len(basis)]))


def eim_coefficients(surrogate, r):
    """Weights alpha(r) from any EimPivots' pivot values, O(Q^2) online:
    (Q,) for one radius, (n, Q) for a 1-D array of n radii, by one
    triangular solve with a right-hand side per radius."""
    rhs = surrogate.pivot_values(r)
    # the transposes are Fortran-ordered views, which LAPACK takes as is
    alpha, info = dtrtrs(surrogate.tri_mat.T, rhs.T, lower=0, trans=1)
    if info:
        raise ValueError(f"dtrtrs failed with info={info}")
    return alpha.T


def tensor_field_per_triangle(flat, n_tri):
    """Reshape a flattened (xx, xy, yy) vector into (n_tri, 2, 2) tensors."""
    comp = flat.reshape(n_tri, 3)
    out = np.empty((n_tri, 2, 2))
    out[:, 0, 0] = comp[:, 0]
    out[:, 0, 1] = comp[:, 1]
    out[:, 1, 0] = comp[:, 1]
    out[:, 1, 1] = comp[:, 2]
    return out


def assemble_eim_terms(mesh, surrogate):
    """Full-order stiffness terms for each EIM basis field, split by subdomain.

    Term q assembles grad(v).H_q.grad(u) over the inclusion (tag 0) and the
    matrix (tag 1) separately, so the online weights are alpha_q(r) on tag 1
    and k1*alpha_q(r) on tag 0.
    """
    from .assembly import assemble_stiffness

    n_tri = mesh.n_triangles
    inside, outside = [], []
    for q in range(surrogate.rank):
        h = tensor_field_per_triangle(surrogate.basis[q], n_tri)
        inside.append(assemble_stiffness(mesh, region=0, coefficient=h))
        outside.append(assemble_stiffness(mesh, region=1, coefficient=h))
    return inside, outside
