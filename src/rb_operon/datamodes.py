"""Compression of exogenous data into boundary and source modes.

When loads and Dirichlet traces vary independently of the operator
parameters, the reduced right-hand side cannot be precomputed from a fixed
affine expansion.  Instead, traces are compressed by a greedy in the
boundary energy metric W_Gamma and load functionals by a greedy on their
Riesz representers in the reference inner product.  The resulting coordinate
vectors (a, b) are small, feed the branch network as extra features, and
combine with precomputed blocks into the reduced load at online cost
O(N(r_f + Q_a r_g)).
"""

import numpy as np
from dataclasses import dataclass, field

from .errors import EmptySpaceError


@dataclass
class BoundaryModes:
    """W_Gamma-orthonormal Dirichlet trace modes and their liftings."""

    eta: np.ndarray        # (n_bd, r_g)
    lifted: np.ndarray     # (n_free, r_g) interior lifting of each mode
    trace: np.ndarray      # greedy max-indicator per iteration
    selected: np.ndarray   # snapshot indices chosen (first is the seed)

    @property
    def rank(self):
        return self.eta.shape[1]


@dataclass
class SourceModes:
    """A_star-orthonormal Riesz-representer modes of load functionals."""

    w: np.ndarray          # (n_free, r_f)
    trace: np.ndarray
    selected: np.ndarray

    @property
    def rank(self):
        return self.w.shape[1]


def _metric_greedy(snaps, apply_metric, tol, r_max, rng, solve_col=None):
    """Shared greedy core: argmax of metric-norm projection error.

    ``snaps`` has one snapshot per column.  ``apply_metric`` maps a block of
    columns to metric-weighted columns.  ``solve_col`` optionally converts a
    snapshot column into the element actually spanned (Riesz representer);
    identity by default.  Returns (modes, picked indices, error trace).
    """
    n_dim, n_snap = snaps.shape
    if n_snap == 0:
        raise EmptySpaceError("no snapshots to compress")
    m_snaps = apply_metric(snaps)
    if solve_col is None:
        elems = snaps
        norms2 = np.einsum("ij,ij->j", snaps, m_snaps)
    else:
        elems = solve_col(snaps)
        norms2 = np.einsum("ij,ij->j", elems, snaps)
    if np.max(norms2) <= 0.0:
        raise EmptySpaceError("all snapshots are zero")

    first = int(rng.integers(n_snap))
    if norms2[first] <= 0.0:
        first = int(np.argmax(norms2))
    modes = np.empty((n_dim, 0))
    rows = np.empty((0, n_snap))
    err2 = norms2.copy()
    picked = []
    trace = []
    dead = np.zeros(n_snap, dtype=bool)

    def enrich(idx):
        nonlocal modes, rows, err2
        v = elems[:, idx].copy()
        pre = np.sqrt(max(norms2[idx], 0.0))
        for _ in range(2):
            if modes.shape[1]:
                v -= modes @ (modes.T @ apply_metric(v[:, None])[:, 0])
        nrm = np.sqrt(max(v @ apply_metric(v[:, None])[:, 0], 0.0))
        if nrm < 1e-10 * pre:
            return False
        v /= nrm
        modes = np.column_stack([modes, v])
        if solve_col is None:
            new_row = v @ m_snaps
        else:
            new_row = v @ snaps   # (v, q_n)_star = v^T A_star q_n = v^T F_n
        rows = np.vstack([rows, new_row])
        err2 = np.maximum(err2 - new_row * new_row, 0.0)
        picked.append(int(idx))
        return True

    trace.append(float(np.sqrt(np.max(err2))))
    if not enrich(first):
        raise EmptySpaceError("seed snapshot is zero")

    while modes.shape[1] < min(r_max, n_snap):
        live = np.where(dead, -1.0, err2)
        idx = int(np.argmax(live))
        if live[idx] < 0.0:
            break
        ind = float(np.sqrt(max(err2[idx], 0.0)))
        trace.append(ind)
        if tol is not None and ind <= tol:
            break
        if not enrich(idx):
            dead[idx] = True    # duplicate snapshot: skip and move on
            continue
    return modes, np.asarray(picked, dtype=np.int64), np.asarray(trace)


def boundary_greedy(model, trace_snaps, tol=None, r_max=None, rng=None):
    """Greedy trace compression in the W_Gamma metric, then lift each mode."""
    rng = rng or np.random.default_rng(0)
    trace_snaps = np.asarray(trace_snaps, dtype=float)
    r_max = r_max or trace_snaps.shape[0]
    w = model.w_gamma
    modes, picked, trace = _metric_greedy(
        trace_snaps, lambda b: w @ b, tol, r_max, rng)
    lifted = model.lift_block @ modes
    return BoundaryModes(eta=modes, lifted=lifted, trace=trace, selected=picked)


def source_greedy(model, load_snaps, tol=None, r_max=None, rng=None):
    """Greedy compression of load functionals via their Riesz representers.

    The projection error in the A_star norm of the representer equals the
    dual-norm best-approximation error of the functional, so the stopping
    tolerance certifies the functional approximation directly.
    """
    rng = rng or np.random.default_rng(0)
    load_snaps = np.asarray(load_snaps, dtype=float)
    r_max = r_max or load_snaps.shape[1]
    a_star = model.a_star_II
    modes, picked, trace = _metric_greedy(
        load_snaps, lambda b: a_star @ b, tol, r_max, rng,
        solve_col=lambda b: model.star_solve(b))
    return SourceModes(w=modes, trace=trace, selected=picked)


def encode_boundary(modes, model, g_b):
    """Coordinates b_n = eta_n^T W_Gamma g_B (columns may be batched)."""
    return modes.eta.T @ (model.w_gamma @ np.asarray(g_b, dtype=float))


def encode_source(modes, f_hat):
    """Coordinates a_m = W_m^T F_hat (duality pairing; columns batched)."""
    return modes.w.T @ np.asarray(f_hat, dtype=float)


@dataclass
class Case2Blocks:
    """Precomputed reduced blocks turning (a, b, theta) into F_rb."""

    f_s: np.ndarray        # (r_f, N): rows are F^(s)_{m,rb}
    g_p: np.ndarray        # (Q_a, r_g, N): lifting blocks per affine term

    @property
    def dims(self):
        return self.f_s.shape[0], self.g_p.shape[1], self.f_s.shape[1]


def case2_blocks(model, psi, bmodes, smodes):
    """Assemble the offline blocks of the modal reduced right-hand side.

    F^(s)_{m,rb} projects the Riesz image of source mode m; G^(p)_{n,rb}
    projects the full lifting contribution of boundary mode n through
    affine term p (interior block plus Dirichlet coupling).
    """
    s = model.a_star_II @ smodes.w
    f_s = s.T @ psi
    qa = model.affine_II.n_terms
    g_p = np.empty((qa, bmodes.rank, psi.shape[1]))
    for p in range(qa):
        x = model.affine_II.term(p) @ bmodes.lifted
        x += model.affine_IB.term(p) @ bmodes.eta
        g_p[p] = x.T @ psi
    return Case2Blocks(f_s=f_s, g_p=g_p)


def reduced_rhs_case2(blocks, theta_a, a, b):
    """Online modal right-hand side; touches only reduced-size arrays."""
    theta_a = np.asarray(theta_a, dtype=float)
    out = np.asarray(a, dtype=float) @ blocks.f_s
    lift = np.tensordot(theta_a, blocks.g_p, axes=1)
    return out - np.asarray(b, dtype=float) @ lift


def reduced_rhs_case2_batch(blocks, theta_batch, a_batch, b_batch):
    """Vectorized reduced_rhs_case2 over rows of (theta, a, b)."""
    out = np.asarray(a_batch, dtype=float) @ blocks.f_s
    out -= np.einsum("sp,pgn,sg->sn", np.asarray(theta_batch, dtype=float),
                     blocks.g_p, np.asarray(b_batch, dtype=float))
    return out
