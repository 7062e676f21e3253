"""Compression of exogenous data into boundary and source modes.

When loads and Dirichlet traces vary independently of the operator
parameters, the reduced right-hand side cannot be precomputed from a fixed
affine expansion.  Instead, traces are compressed by a greedy in the
boundary energy metric W_Gamma and load functionals by a greedy on their
Riesz representers in the reference inner product.  The resulting coordinate
vectors (a, b) are small and feed the branch network as extra features.

The load they encode is affine in (a, theta (x) b):

    f_enc(k, a, b) = A_star W a - sum_p theta_p(k) (A_p,II Lambda + A_p,IB eta) b

with W the source modes, eta the boundary modes and Lambda their interior
lifting.  ``encoded_load_terms`` holds its r_f + Q_a r_g terms and
``encoded_load_weights`` the weights [a, theta_1 b, ..., theta_Q b], so the
greedy certifies the system every answer solves.  The trunk's ``f_blocks``
project these terms; ``case2_blocks`` splits them into the blocks that
combine (theta, a, b) into the reduced load at online cost
O(N(r_f + Q_a r_g)).
"""

import numpy as np
from dataclasses import dataclass

from .assembly import lifting_terms
from .errors import EmptySpaceError


@dataclass
class BoundaryModes:
    """W_Gamma-orthonormal Dirichlet trace modes."""

    eta: np.ndarray        # (n_bd, r_g)
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


def _metric_greedy(elems, m_elems, apply_metric, tol, r_max, rng):
    """Shared greedy core: argmax of metric-norm projection error.

    ``elems`` has one element per column, and ``m_elems`` their images
    under the metric, which ``apply_metric`` applies to a block of columns.
    Returns (modes, picked indices, error trace).
    """
    n_dim, n_snap = elems.shape
    if n_snap == 0:
        raise EmptySpaceError("no snapshots to compress")
    norms2 = np.einsum("ij,ij->j", elems, m_elems)
    if np.max(norms2) <= 0.0:
        raise EmptySpaceError("all snapshots are zero")

    first = int(rng.integers(n_snap))
    if norms2[first] <= 0.0:
        first = int(np.argmax(norms2))
    modes = np.empty((n_dim, 0))
    err2 = norms2.copy()
    picked = []
    trace = []
    dead = np.zeros(n_snap, dtype=bool)

    def enrich(idx):
        nonlocal modes, err2
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
        new_row = v @ m_elems      # the metric products (v, q_n)
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


def boundary_greedy(model, trace_snaps, tol, r_max, rng):
    """Greedy trace compression in the W_Gamma metric: the elements are the
    traces g, their metric images W_Gamma g."""
    trace_snaps = np.asarray(trace_snaps, dtype=float)
    w = model.w_gamma
    modes, picked, trace = _metric_greedy(
        trace_snaps, w @ trace_snaps, lambda b: w @ b, tol, r_max, rng)
    return BoundaryModes(eta=modes, trace=trace, selected=picked)


def source_greedy(model, load_snaps, tol, r_max, rng):
    """Greedy compression of load functionals via their Riesz representers.

    The elements are the representers A_star^-1 F, their metric images the
    loads F.  The projection error in the A_star norm of the representer
    equals the dual-norm best-approximation error of the functional, so the
    stopping tolerance certifies the functional approximation directly.
    """
    load_snaps = np.asarray(load_snaps, dtype=float)
    a_star = model.a_star_II
    modes, picked, trace = _metric_greedy(
        model.star_solve(load_snaps), load_snaps, lambda b: a_star @ b, tol,
        r_max, rng)
    return SourceModes(w=modes, trace=trace, selected=picked)


def encode_boundary(modes, model, g_b):
    """Coordinates b_n = eta_n^T W_Gamma g_B (columns may be batched)."""
    return modes.eta.T @ (model.w_gamma @ np.asarray(g_b, dtype=float))


def encode_source(modes, f_hat):
    """Coordinates a_m = W_m^T F_hat (duality pairing; columns batched)."""
    return modes.w.T @ np.asarray(f_hat, dtype=float)


@dataclass
class Case2Blocks:
    """The trunk's ``f_blocks`` split into the reduced blocks turning
    (a, b, theta) into F_rb."""

    f_s: np.ndarray        # (r_f, N): rows are F^(s)_{m,rb}
    g_p: np.ndarray        # (Q_a, r_g, N): lifting blocks per affine term


def encoded_load_terms(model, bmodes, smodes):
    """The encoded load's terms, n_free x (r_f + Q_a r_g): [A_star W | -(A_p,II
    Lambda + A_p,IB eta) for each p], the Riesz images of the source modes,
    then the lifting of the boundary modes through each affine term."""
    cols = [model.a_star_II @ smodes.w]
    cols += [-lift for lift in lifting_terms(model, bmodes.eta)]
    return np.hstack(cols)


def encoded_load_weights(theta, a, b):
    """The encoded load's weights [a, theta_1 b, ..., theta_Q b]: one row
    (r_f + Q_a r_g,) for one row each of (theta, a, b), and a row per row
    for stacks of them."""
    tb = theta[..., :, None] * b[..., None, :]
    return np.concatenate([a, tb.reshape(tb.shape[:-2] + (-1,))], axis=-1)


def case2_blocks(f_blocks, r_f, r_g):
    """Split a trunk's projection of ``encoded_load_terms``, (r_f + Q_a r_g,
    N), into the source rows F^(s)_{m,rb} and the lifting blocks
    G^(p)_{n,rb} per affine term."""
    return Case2Blocks(f_s=f_blocks[:r_f],
                       g_p=-f_blocks[r_f:].reshape(-1, r_g, f_blocks.shape[1]))


def reduced_rhs_case2(blocks, theta_a, a, b):
    """Online modal right-hand side; touches only reduced-size arrays."""
    qa, r_g, n = blocks.g_p.shape
    out = np.asarray(a, dtype=float) @ blocks.f_s
    # sum_p theta_p G_p as one matrix-vector product
    lift = (np.asarray(theta_a, dtype=float)
            @ blocks.g_p.reshape(qa, r_g * n)).reshape(r_g, n)
    return out - np.asarray(b, dtype=float) @ lift


def reduced_rhs_case2_batch(blocks, theta_batch, a_batch, b_batch):
    """Vectorized reduced_rhs_case2 over rows of (theta, a, b)."""
    out = np.asarray(a_batch, dtype=float) @ blocks.f_s
    out -= np.einsum("sp,pgn,sg->sn", np.asarray(theta_batch, dtype=float),
                     blocks.g_p, np.asarray(b_batch, dtype=float))
    return out
