"""Reduced-basis trunk construction and certified online solves.

Two builders produce the trunk: a weak greedy loop driven by the residual
a-posteriori estimator, and the method-of-snapshots POD.  Both return an
RBSpace holding the trunk columns plus every parameter-independent reduced
block, so online assembly and Galerkin solves never touch full-order arrays.

The greedy sweep keeps an auxiliary basis U that is orthonormal in the
reference inner product and spans the Riesz images of all A_p columns of the
trunk.  Writing the residual representer as its U-component plus the fixed
remainder of the load representers gives

    eta(k)^2 * alpha^2 = s(k)^2 + || P_F[:, k] - sum_p theta_p R_p c(k) ||^2

with s(k) the norm of the deflated load representer.  Both pieces are sums
of squares, so the sweep cannot go negative the way the expanded quadratic
form does, and only enrichment costs full-order solves.  The coefficients
c(k) come from per-sample Cholesky factors of A_N(k) that grow by one
border row per accepted trunk column, so the sweep never refactorizes one.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy.linalg import eigh
from scipy.linalg.lapack import dpotrs
from scipy.sparse.linalg import eigsh

from .assembly import interior_factor
from .errors import CoercivityViolationError, EmptySpaceError, StagnationError


@dataclass
class RBSpace:
    """Trunk matrix plus reduced operator blocks and certification data."""

    psi: np.ndarray              # (n_free, N) A_star-orthonormal columns
    a_blocks: np.ndarray         # (Q_a, N, N) reduced stiffness terms
    f_blocks: np.ndarray         # (Q_f, N) reduced affine load terms
    gram_ref: np.ndarray         # psi^T A_star_II psi
    alpha_lb: float
    provenance: dict = field(default_factory=dict)
    mass_rb: np.ndarray = None   # psi^T M_II psi, filled by the harness

    @property
    def dim(self):
        return self.psi.shape[1]


@dataclass
class OnlineRB:
    a_blocks: np.ndarray
    f_blocks: np.ndarray
    alpha_lb: float


@dataclass
class GreedyTrace:
    """Per-iteration greedy diagnostics."""

    selected: list = field(default_factory=list)   # sample indices
    params: list = field(default_factory=list)     # parameter vectors
    max_estimator: list = field(default_factory=list)
    basis_size: list = field(default_factory=list)
    rounds: list = field(default_factory=list)     # sweep-set round ids
    stop_reason: str = None    # "tolerance", "size" or "dependent_snapshot"


def v_orthonormalize(model, psi, candidate, drop_tol=1e-10):
    """Modified Gram-Schmidt (applied twice) in the A_star inner product.

    Returns the unit-norm orthogonal complement of ``candidate`` against the
    columns of ``psi``, or None when the complement is smaller than
    ``drop_tol`` times the candidate norm (linearly dependent snapshot).
    """
    a = model.a_star_II
    v = np.array(candidate, dtype=float)
    pre = np.sqrt(v @ (a @ v))
    if pre == 0.0:
        return None
    ncols = 0 if psi is None else psi.shape[1]
    for _ in range(2):
        if ncols:
            v -= psi[:, :ncols] @ (psi[:, :ncols].T @ (a @ v))
    nrm = np.sqrt(max(v @ (a @ v), 0.0))
    if nrm < drop_tol * pre:
        return None
    return v / nrm


def estimator(model, space, k, c, f_hat):
    """Certified error bound: residual dual norm over the coercivity bound."""
    theta = np.asarray(model.theta_a(np.asarray(k, dtype=float)), dtype=float)
    rho = np.asarray(f_hat, dtype=float) - model.affine_II.assemble(theta) @ (space.psi @ c)
    z = model.star_solve(rho)
    return float(np.sqrt(max(rho @ z, 0.0)) / space.alpha_lb)


def coercivity_lower_bound(model, samples=None, floor=0.0, fixed=None):
    """Parametric coercivity bound for the affine family.

    The default is the min-theta value over the supplied parameter samples,
    min_k min_p theta_p(k)/theta_p(k_star), valid when every affine term is
    positive semidefinite.  ``floor`` clips the result from below (used when
    a theta ratio can degenerate to zero but a spectral bound is available);
    ``fixed`` bypasses the heuristic with a precomputed bound.
    """
    if fixed is not None:
        return float(fixed)
    th_star = np.asarray(model.theta_a(model.k_star), dtype=float)
    best = np.inf
    for k in np.atleast_2d(np.asarray(samples, dtype=float)):
        th = np.asarray(model.theta_a(k), dtype=float)
        best = min(best, float(np.min(th / th_star)))
    return max(best, float(floor))


def reduce_operators(model, psi):
    """Galerkin-project the affine stiffness and load terms onto the trunk."""
    n = psi.shape[1]
    qa = model.affine_II.n_terms
    a_blocks = np.empty((qa, n, n))
    for p in range(qa):
        prod = psi.T @ (model.affine_II.term(p) @ psi)
        a_blocks[p] = 0.5 * (prod + prod.T)
    if model.f_terms:
        f_blocks = np.vstack([f[model.free] @ psi for f in model.f_terms])
    else:
        f_blocks = np.zeros((0, n))
    return a_blocks, f_blocks


def solve_reduced(a_rb, f_rb):
    """Dense Cholesky solve of one reduced system."""
    try:
        ell = np.linalg.cholesky(a_rb)
    except np.linalg.LinAlgError:
        raise CoercivityViolationError("reduced operator is not SPD")
    # the F-ordered transpose is the upper factor LAPACK takes without a copy
    c, info = dpotrs(ell.T, np.asarray(f_rb, dtype=float), lower=0)
    if info:
        raise ValueError(f"dpotrs failed with info={info}")
    return c


def solve_reduced_batch(a_blocks, theta_batch, f_batch, chunk=512):
    """Batched reduced solves: one LAPACK call per chunk of parameters."""
    theta_batch = np.asarray(theta_batch, dtype=float)
    f_batch = np.asarray(f_batch, dtype=float)
    ns, n = f_batch.shape
    qa = a_blocks.shape[0]
    flat = a_blocks.reshape(qa, n * n)
    out = np.empty((ns, n))
    for lo in range(0, ns, chunk):
        hi = min(lo + chunk, ns)
        mats = (theta_batch[lo:hi] @ flat).reshape(hi - lo, n, n)
        out[lo:hi] = np.linalg.solve(mats, f_batch[lo:hi, :, None])[:, :, 0]
        del mats   # freed before the next chunk's stack is built
    return out


class _SweepState:
    """Deflated-representer bookkeeping for the greedy estimator sweep."""

    def __init__(self, model, f_hat_all, refresh_every=16):
        self.model = model
        self.a = model.a_star_II
        self.f_hat = f_hat_all
        ns = f_hat_all.shape[1]
        n_free = f_hat_all.shape[0]
        # Z_perp starts as the load representers and is deflated in place.
        self.z_perp = model.star_solve(f_hat_all)
        self.s2 = np.einsum("ij,ij->j", self.z_perp, f_hat_all)
        self.u = np.empty((n_free, 0))
        self.p_f = np.empty((0, ns))
        self.r_blocks = [np.empty((0, 0)) for _ in range(model.affine_II.n_terms)]
        self.w_psi = [np.empty((n_free, 0)) for _ in range(model.affine_II.n_terms)]
        self.f_rb = np.empty((0, ns))
        self.refresh_every = refresh_every
        self._since_refresh = 0

    @property
    def m(self):
        return self.u.shape[1]

    def _append_u(self, u_new):
        q = self.a @ u_new
        coords = q @ self.z_perp
        self.z_perp -= np.outer(u_new, coords)
        self.s2 -= coords * coords
        self.u = np.column_stack([self.u, u_new])
        self.p_f = np.vstack([self.p_f, u_new @ self.f_hat])
        # one new R_p row against every trunk column seen so far
        for p, w in enumerate(self.w_psi):
            row = u_new @ w
            rb = self.r_blocks[p]
            self.r_blocks[p] = np.vstack([rb, row]) if rb.size else row[None, :]
        self._since_refresh += 1
        if self._since_refresh >= self.refresh_every:
            self.refresh()

    def refresh(self):
        """Recompute s^2 exactly from the stored deflated representers."""
        chunk = 2048
        ns = self.z_perp.shape[1]
        for lo in range(0, ns, chunk):
            hi = min(lo + chunk, ns)
            blk = self.z_perp[:, lo:hi]
            self.s2[lo:hi] = np.einsum("ij,ij->j", blk, self.a @ blk)
        self._since_refresh = 0

    def enrich(self, model, psi_new):
        """Account for one accepted trunk column."""
        qa = model.affine_II.n_terms
        raw = []
        for p in range(qa):
            w_p = model.affine_II.term(p) @ psi_new
            col = self.u.T @ w_p if self.m else np.zeros(0)
            rb = self.r_blocks[p]
            if self.m:
                self.r_blocks[p] = np.column_stack([rb, col]) if rb.size else col[:, None]
            else:
                self.r_blocks[p] = np.empty((0, self.w_psi[p].shape[1] + 1))
            self.w_psi[p] = np.column_stack([self.w_psi[p], w_p])
            d = model.star_solve(w_p)
            raw.append((d, np.sqrt(max(d @ w_p, 0.0))))
        # deflate the Riesz images one by one so they stay mutually orthogonal
        for d, pre in raw:
            for _ in range(2):
                if self.m:
                    d = d - self.u @ (self.u.T @ (self.a @ d))
            nrm2 = d @ (self.a @ d)
            if nrm2 > (1e-13 * max(pre, 1e-300)) ** 2:
                self._append_u(d / np.sqrt(nrm2))
        self.f_rb = np.vstack([self.f_rb, psi_new @ self.f_hat])

    def estimator_sq(self, theta_all, idx, c, alpha_lb):
        """eta^2 over the samples in ``idx`` given their RB coefficients ``c``."""
        theta = theta_all[idx]
        y = np.zeros((self.m, len(idx)))
        for p, rb in enumerate(self.r_blocks):
            if rb.size:
                y += (rb @ c.T) * theta[:, p][None, :]
        y = self.p_f[:, idx] - y
        s2 = np.maximum(self.s2[idx], 0.0)
        return (s2 + np.einsum("ij,ij->j", y, y)) / alpha_lb ** 2


class _BorderedCholesky:
    """Cholesky factors L(k) of A_N(k) for a fixed set of samples.

    Row i of every factor is held as one (n_samples, i + 1) array, together
    with y(k) = L(k)^-1 f_N(k).  Appending a trunk column borders each factor
    by one row in O(N^2) per sample, instead of refactorizing in O(N^3).
    """

    def __init__(self, theta):
        self.theta = theta                       # (n_samples, Q_a)
        self.rows = []
        self.y = np.empty((theta.shape[0], 0))

    def border(self, a_col, f_new):
        """Append one trunk column.

        ``a_col`` (Q_a, n + 1) is the new column of every reduced block and
        ``f_new`` (n_samples,) the new reduced load entry of every sample.
        """
        n = len(self.rows)
        col = self.theta @ a_col
        row = np.empty_like(col)
        # forward substitution L l = col[:, :n], one factor row at a time
        for i, prev in enumerate(self.rows):
            row[:, i] = (col[:, i] - np.einsum("sj,sj->s", prev[:, :i],
                                               row[:, :i])) / prev[:, i]
        d2 = col[:, n] - np.einsum("sj,sj->s", row[:, :n], row[:, :n])
        bad = np.flatnonzero(~(d2 > 0.0))
        if bad.size:
            raise CoercivityViolationError(
                f"reduced operator of sample {bad[0]} is not SPD at "
                f"dimension {n + 1}")
        row[:, n] = np.sqrt(d2)
        self.rows.append(row)
        y_new = (f_new - np.einsum("sj,sj->s", row[:, :n], self.y)) / row[:, n]
        self.y = np.column_stack([self.y, y_new])

    def solve(self):
        """RB coefficients (n_samples, N) by one back substitution."""
        c = self.y.copy()
        for j in range(len(self.rows) - 1, -1, -1):
            row = self.rows[j]
            c[:, j] /= row[:, j]
            c[:, :j] -= row[:, :j] * c[:, j:j + 1]
        return c


def greedy_build(model, samples, f_hat_all=None, tol=None, fixed_n=None,
                 n_max=None, alpha_lb=1.0, sweep_subset=None,
                 refresh_every=16, provenance=None):
    """Weak greedy trunk construction driven by the certified estimator.

    ``samples`` is the training pool (n_s, p); ``f_hat_all`` the matching
    aggregated loads as columns (defaults to the model's affine loads).
    Stopping: ``tol`` on the max estimator, or ``fixed_n`` columns.  With
    ``sweep_subset`` the per-iteration argmax runs on a subset and the full
    pool is certified (and the subset extended) once the subset converges.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    ns = samples.shape[0]
    if ns == 0:
        raise EmptySpaceError("empty greedy training set")
    if tol is None and fixed_n is None:
        raise ValueError("need a tolerance or a fixed dimension")
    if f_hat_all is None:
        cols = [model.load_interior(k) for k in samples]
        f_hat_all = np.column_stack(cols)
    theta_all = np.vstack([model.theta_a(k) for k in samples])
    n_cap = fixed_n if fixed_n is not None else (n_max or min(ns, model.n_free))

    sweep = np.arange(ns) if sweep_subset is None else np.asarray(sweep_subset, dtype=np.int64)
    state = _SweepState(model, f_hat_all, refresh_every=refresh_every)
    trace = GreedyTrace()
    psi = np.empty((model.n_free, 0))
    round_id = 0

    def truth(idx):
        fac = interior_factor(model, samples[idx])
        return fac.solve(f_hat_all[:, idx])

    def factor_sweep():
        chol = _BorderedCholesky(theta_all[sweep])
        for j in range(psi.shape[1]):
            chol.border(a_blocks[:, :j + 1, j], state.f_rb[j, sweep])
        return chol

    # rank-one initial space from the first pool sample
    first = int(sweep[0])
    v = v_orthonormalize(model, None, truth(first))
    if v is None:
        raise EmptySpaceError("initial snapshot is zero")
    psi = v[:, None]
    state.enrich(model, v)
    a_blocks, _ = reduce_operators(model, psi)
    chol = factor_sweep()
    selected = [first]
    trace.selected.append(first)
    trace.params.append(samples[first].copy())
    trace.basis_size.append(1)
    trace.rounds.append(round_id)

    while True:
        state.refresh()
        eta2 = state.estimator_sq(theta_all, sweep, chol.solve(), alpha_lb)
        i_loc = int(np.argmax(eta2))
        eta_max = float(np.sqrt(max(eta2[i_loc], 0.0)))
        if len(trace.max_estimator) < len(trace.selected):
            trace.max_estimator.append(eta_max)
        done_tol = tol is not None and eta_max <= tol
        done_n = psi.shape[1] >= n_cap
        if done_tol or done_n:
            if done_tol and not done_n and sweep_subset is not None and len(sweep) < ns:
                # certify the full pool; pull violators into the sweep set.
                # The sweep factors are dropped first, so they are not held
                # together with the chunked solve; an extension rebuilds them.
                # Small chunks let the solve reuse the factors' freed memory.
                chol = None
                c_all = solve_reduced_batch(a_blocks, theta_all, state.f_rb.T,
                                            chunk=64)
                eta2_all = state.estimator_sq(theta_all, np.arange(ns), c_all,
                                              alpha_lb)
                bad = np.flatnonzero(eta2_all > tol * tol)
                bad = np.setdiff1d(bad, sweep)
                if bad.size:
                    sweep = np.concatenate([sweep, bad])
                    round_id += 1
                    chol = factor_sweep()
                    continue
            trace.stop_reason = "tolerance" if done_tol else "size"
            break
        idx = int(sweep[i_loc])
        w = truth(idx)
        v = v_orthonormalize(model, psi, w)
        if v is None:
            if tol is not None and eta_max > tol:
                raise StagnationError(
                    f"snapshot at sample {idx} rejected with estimator "
                    f"{eta_max:.3e} above tolerance {tol:.3e}")
            trace.stop_reason = "dependent_snapshot"
            break
        psi = np.column_stack([psi, v])
        state.enrich(model, v)
        a_blocks = _border_update(model, a_blocks, psi)
        chol.border(a_blocks[:, :, -1], state.f_rb[-1, sweep])
        selected.append(idx)
        trace.selected.append(idx)
        trace.params.append(samples[idx].copy())
        trace.basis_size.append(psi.shape[1])
        trace.rounds.append(round_id)

    a_blocks, f_blocks = reduce_operators(model, psi)
    gram = psi.T @ (model.a_star_II @ psi)
    prov = dict(provenance or {})
    prov.update(method="greedy", tol=tol, fixed_n=fixed_n,
                selected=list(selected), pool_size=int(ns))
    space = RBSpace(psi=psi, a_blocks=a_blocks, f_blocks=f_blocks,
                    gram_ref=gram, alpha_lb=float(alpha_lb), provenance=prov)
    return space, trace


def _border_update(model, a_blocks, psi):
    """Extend reduced stiffness blocks by the newly appended trunk column."""
    qa, n_old, _ = a_blocks.shape
    n = psi.shape[1]
    out = np.empty((qa, n, n))
    new = psi[:, -1]
    for p in range(qa):
        w = model.affine_II.term(p) @ new
        col = psi.T @ w
        out[p, :n_old, :n_old] = a_blocks[p]
        out[p, :, n - 1] = col
        out[p, n - 1, :] = col
    return out


def pod_build(model, snapshots, tol=None, fixed_n=None, provenance=None,
              dense_limit=2600):
    """Method-of-snapshots POD in the A_star inner product.

    ``snapshots`` holds one solution per column.  The correlation matrix
    G_ij = (w_i, w_j)_star / n_k is diagonalized; modes below the energy
    criterion (tail fraction <= tol^2) are discarded, or exactly ``fixed_n``
    modes are kept.  Returns an RBSpace and stores the spectrum in its
    provenance.
    """
    s = np.asarray(snapshots, dtype=float)
    if s.ndim != 2 or s.shape[1] == 0:
        raise EmptySpaceError("no snapshots given")
    nk = s.shape[1]
    norms = np.einsum("ij,ij->j", s, model.a_star_II @ s)
    if np.max(norms) <= 0.0:
        raise EmptySpaceError("all snapshots are zero")
    gram = s.T @ (model.a_star_II @ s) / nk
    gram = 0.5 * (gram + gram.T)
    total = float(np.trace(gram))
    if nk <= dense_limit:
        lam, vec = eigh(gram)
        lam = lam[::-1]
        vec = vec[:, ::-1]
    else:
        k = min(nk - 1, max(fixed_n or 0, 400))
        # a fixed start vector keeps ARPACK deterministic
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, nk)
        lam, vec = eigsh(gram, k=k, which="LM", v0=v0)
        order = np.argsort(lam)[::-1]
        lam = lam[order]
        vec = vec[:, order]
    lam = np.where(lam > np.max(lam) * 1e-14, lam, 0.0)
    keep = int(np.count_nonzero(lam))
    if fixed_n is not None:
        n = min(fixed_n, keep)
    else:
        csum = np.cumsum(lam[:keep])
        tail = 1.0 - csum / total
        ok = np.flatnonzero(tail <= tol * tol)
        if ok.size == 0:
            n = keep
        else:
            n = int(ok[0]) + 1
    modes = s @ (vec[:, :n] / np.sqrt(nk * lam[:n])[None, :])
    psi = np.empty((s.shape[0], 0))
    for j in range(n):
        v = v_orthonormalize(model, psi if psi.shape[1] else None, modes[:, j])
        if v is None:
            continue
        psi = np.column_stack([psi, v])
    a_blocks, f_blocks = reduce_operators(model, psi)
    gram_ref = psi.T @ (model.a_star_II @ psi)
    prov = dict(provenance or {})
    prov.update(method="pod", tol=tol, fixed_n=fixed_n, n_snapshots=int(nk),
                eigenvalues=lam, trace=total)
    return RBSpace(psi=psi, a_blocks=a_blocks, f_blocks=f_blocks,
                   gram_ref=gram_ref, alpha_lb=1.0, provenance=prov)
