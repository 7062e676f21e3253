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
form does.  s(k)^2 is kept as a downdated difference, the undeflated square
minus the squares of the U coordinates of the load, which are the P_F rows.
That difference is accurate except near the round-off floor, so s(k)^2 is
recomputed exactly only where its drift bound could change the argmax or
the tolerance test; the recheck replaces s(k)^2 alone and keeps the second
piece.

The pool loads are affine: sample i's load is f(k_i) = F w(k_i), with Q_f
terms F and a weight row w(k_i) per sample (Hesthaven, Rozza & Stamm 2016,
ch. 3).  Each benchmark passes its own load terms and its
``load_weights`` of the pool: examples 1 and 3 the base flux weighted by
k2, example 2 the terms of its encoded data load (``datamodes``); the
trunk's ``f_blocks`` are the projection F^T Psi of the same terms.  The
n_free x n_pool load matrix is never formed: each P_F row and each
trunk column's reduced-load row is formed per sample once, as (v^T F) w^T,
when its column is appended, and s(k)^2 = ||Z w(k)||^2 in the reference
norm, with Z = A_star^-1 F.  Z is solved once, so the sweep's reference
solves number Q_f, not one per sample, and it is kept deflated against U,
so a recheck costs no solve.

The greedy is the weak greedy over the pool it is given.  A selected
sample's snapshot lies in the trunk, so its Galerkin solution is exact and
its estimator 0: each iteration sweeps only the samples outside the trunk,
and borders no factor, forms no coefficients and multiplies no residual
block for the others.  The trunk samples are certified with eta = 0, so a
tolerance stop still certifies every pool sample.  A caller that trains on
fewer samples passes fewer.  theta is evaluated once for every pool sample,
in one call.  The second piece is one matrix product: the R_p blocks are
held side by side, (U row, trunk column, term), and multiply the Khatri-Rao
block whose row (j, p) is c_j(k) theta_p(k).  The coefficients c(k) come
from per-sample inverse Cholesky factors X(k) = L(k)^-1 of A_N(k) that grow
by one row per accepted trunk column: l = X col and v = X^T l for the new
column col of A_N(k) give the new row [-v/d, 1/d] of X and the update
c <- c + y_n x_new, so the sweep never refactorizes and never substitutes.
X is held sample-last, in blocks of rows, so each of the two passes is one
einsum per block across the samples outside the trunk.

The build needs its maximal dimension ``fixed_n``; a tolerance stops it
earlier.  Everything else the sweep grows (the trunk, the A_p images of its
columns, U, P_F and the R_p blocks) is appended in place to a buffer
allocated once, at the largest size the trunk can reach: min(fixed_n, pool
size, n_free) columns, and Q_a times that for U.  Of the reduced stiffness
blocks and loads, the factors read only the new column and row, which each
accepted column hands them.  An accepted column therefore copies nothing
that came before it, except in the contiguous copy of the trunk that
``v_orthonormalize`` projects on.

Every reduced system is solved by a checked Cholesky factorization: the
sweep's bordered inverse factors, and one factor-and-solve kernel behind
``solve_reduced`` and ``solve_reduced_batch``.  An operator that is not SPD,
which a loss of coercivity would produce, raises NotCoerciveError naming
its sample instead of yielding coefficients.

The kernel is ``reduced_cholesky``, LAPACK ``dpotrf`` through scipy's
wrapper, followed by ``dpotrs``; ``dpotrf``'s ``info`` is the SPD test.  The
same checked factor serves the reference operator A_N(k*), whose factor
measures reduced residuals online and in the eval metrics.  It is called
directly because numpy's ``cholesky`` wrapper is slow at these sizes: 3.8
against 0.7 us at N = 3, 214 against 145 us at N = 209 (one thread).  The
lower factor is taken: numpy and scipy link different OpenBLAS builds, and
on 300 example 2 operators at N = 100 scipy's lower factor equalled numpy's
bitwise for 297, its upper factor for none.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy.linalg import eigh
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.sparse.linalg import eigsh

from .assembly import interior_factor
from .errors import EmptySpaceError, NotCoerciveError, StagnationError

_DRIFT = 64         # s^2 downdate drift allowance, in units of (m+1)*eps*s0^2
_DENSE_LIMIT = 2600  # POD snapshot counts up to this use the dense eigh
_POD_TOL = 1e-7     # POD energy criterion: kept tail fraction <= _POD_TOL^2
_BLOCK = 8          # inverse-factor rows per block of _BorderedCholesky


@dataclass
class RBSpace:
    """Trunk matrix, its reduced operator blocks and its provenance."""

    psi: np.ndarray              # (n_free, N) A_star-orthonormal columns
    a_blocks: np.ndarray         # (Q_a, N, N) reduced stiffness terms
    f_blocks: np.ndarray         # (Q_f, N) projection of the load terms
                                 # the greedy swept
    provenance: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.psi.shape[1]


@dataclass
class OnlineRB:
    a_blocks: np.ndarray
    f_blocks: np.ndarray


@dataclass
class GreedyTrace:
    """Per-iteration greedy diagnostics."""

    selected: list = field(default_factory=list)   # sample indices
    params: list = field(default_factory=list)     # parameter vectors
    # the pool's maximum per basis size: the maximum over the samples
    # outside the trunk, since a trunk sample's estimator is 0
    max_estimator: list = field(default_factory=list)
    basis_size: list = field(default_factory=list)
    stop_reason: str = None    # "tolerance", "size" or "dependent_snapshot"
    rechecks: list = field(default_factory=list)   # exact s^2 per basis size


def v_orthonormalize(model, psi, candidate):
    """Modified Gram-Schmidt (applied twice) in the A_star inner product.

    Returns the unit-norm orthogonal complement of ``candidate`` against the
    columns of ``psi``, or None when the complement is smaller than 1e-10
    times the candidate norm (linearly dependent snapshot).
    """
    a = model.a_star_II
    v = np.array(candidate, dtype=float)
    pre = np.sqrt(v @ (a @ v))
    if pre == 0.0:
        return None
    if psi is not None and psi.shape[1]:
        # BLAS can sum a few columns viewed in a wider buffer in another
        # order than the same columns held alone; the contiguous copy keeps
        # the result a function of the column values only
        psi = np.ascontiguousarray(psi)
        for _ in range(2):
            v -= psi @ (psi.T @ (a @ v))
    nrm = np.sqrt(max(v @ (a @ v), 0.0))
    if nrm < 1e-10 * pre:
        return None
    return v / nrm


def coercivity_lower_bound(model, samples):
    """Parametric coercivity bound for the affine family.

    The min-theta value over the supplied parameter samples,
    min_k min_p theta_p(k)/theta_p(k_star), valid when every affine term is
    positive semidefinite.
    """
    th_star = np.asarray(model.theta_a(model.k_star), dtype=float)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    th = np.asarray(model.theta_a(samples), dtype=float)
    return max(float(np.min(th / th_star)), 0.0)


def reduce_operators(model, psi, terms):
    """Galerkin-project the affine stiffness terms and the load ``terms``
    (n_free, Q_f), the free-node load terms the trunk was built on, onto the
    trunk."""
    n = psi.shape[1]
    qa = model.affine_II.n_terms
    a_blocks = np.empty((qa, n, n))
    for p in range(qa):
        prod = psi.T @ (model.affine_II.term(p) @ psi)
        a_blocks[p] = 0.5 * (prod + prod.T)
    return a_blocks, terms.T @ psi


def reduced_cholesky(a, sample):
    """Checked lower Cholesky factor of one reduced operator ``a``.

    ``dpotrf`` factors its own Fortran copy, so ``a`` is left as it was.
    The factor is F-ordered; its strict upper triangle still holds entries
    of ``a`` and is never read.  An operator that is not SPD raises
    NotCoerciveError naming ``sample``.
    """
    ell, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise NotCoerciveError(
            f"reduced operator of sample {sample} is not SPD")
    if info < 0:
        raise ValueError(f"dpotrf failed with info={info}")
    return ell


def _cholesky_solve(a, f, sample=0):
    """Solve one SPD reduced system a x = f by Cholesky factor and solve.

    An operator that is not SPD raises NotCoerciveError naming ``sample``.
    """
    x, info = dpotrs(reduced_cholesky(a, sample), f, lower=1)
    if info:
        raise ValueError(f"dpotrs failed with info={info}")
    return x


def solve_reduced(a_rb, f_rb):
    """Dense Cholesky solve of one reduced system."""
    return _cholesky_solve(a_rb, np.asarray(f_rb, dtype=float))


def reduced_operator(a_blocks, theta):
    """A_N = sum_p theta_p A_p, one product of theta with the flattened
    blocks: (N, N) for one theta row (Q_a,), (n, N, N) for a stack (n, Q_a)."""
    qa, n, _ = a_blocks.shape
    theta = np.asarray(theta, dtype=float)
    return (theta @ a_blocks.reshape(qa, n * n)).reshape(theta.shape[:-1] + (n, n))


def solve_reduced_batch(a_blocks, theta_batch, f_batch, chunk=512):
    """Batched reduced solves: one operator stack per chunk of parameters,
    each system solved by the checked Cholesky kernel."""
    theta_batch = np.asarray(theta_batch, dtype=float)
    f_batch = np.asarray(f_batch, dtype=float)
    ns, n = f_batch.shape
    out = np.empty((ns, n))
    for lo in range(0, ns, chunk):
        hi = min(lo + chunk, ns)
        mats = reduced_operator(a_blocks, theta_batch[lo:hi])
        for i in range(lo, hi):
            out[i] = _cholesky_solve(mats[i - lo], f_batch[i], i)
        del mats   # freed before the next chunk's stack is built
    return out


class _SweepState:
    """Trunk, R_p blocks and deflated-load bookkeeping of the greedy sweep.

    The pool loads are held as terms and weights: sample i's load is
    ``terms @ weights[i]``.  The P_F rows are held per sample, each formed
    once, when its U column is appended, as ``(v @ terms) @ weights.T``.

    s^2 of every pool load is the reference-norm square of its representer
    minus the squares of its U coordinates, downdated once per appended U
    column.  The difference loses accuracy only near the round-off floor,
    so ``slack`` bounds its drift and ``exact_s2`` recomputes the samples a
    decision depends on, as the reference-norm square of Z w: the
    representers Z = A_star^-1 terms are kept, deflated against every U
    column as it is appended.  No per-sample representer block is held.

    Every growing array is appended to in place, in a buffer allocated once
    at the reachable bound, ``bound`` trunk columns and Q_a times that for
    U, and laid out so that an append is a contiguous write: psi, A_p psi
    and U are held transposed, one column per buffer row, like the P_F
    rows; the R_p borders go into the unused part of their buffer.
    """

    def __init__(self, model, terms, weights, bound):
        self.a = model.a_star_II
        self.terms = terms
        self.weights = weights
        n_free = terms.shape[0]
        ns = weights.shape[0]
        qa = model.affine_II.n_terms
        self._z = model.star_solve(terms)
        # w G w^T for every weight row w, G the Gram of the representers
        self.s2 = np.einsum("iq,iq->i", weights @ (terms.T @ self._z), weights)
        self.s0_sq = self.s2.copy()
        self.n = 0                                   # trunk columns
        self.m = 0                                   # U columns
        self._psi = np.empty((bound, n_free))        # psi^T
        self._w = np.empty((qa, bound, n_free))      # (A_p psi)^T
        # psi^T A_p psi_new, the new column enrich returns, as a view of
        # rows bound wide: at N = 1 numpy multiplies that view in border
        # without BLAS, and the recorded estimators' last bits follow it
        self._a_col = np.empty((qa, bound))
        self._u = np.empty((qa * bound, n_free))     # U^T
        self._p_f = np.empty((qa * bound, ns))       # U^T f(k)
        # R_p = U^T A_p psi as (U row, trunk column, term), so that the
        # leading (m, n, Q_a) corner of the buffer flattened by rows is
        # [R_1 ... R_Q], columns interleaved term-fastest, as a strided view
        self._r = np.empty((qa * bound, bound, qa))

    @property
    def psi(self):
        return self._psi[:self.n].T

    def slack(self):
        """Bound on the downdate drift of s^2, per sample."""
        return _DRIFT * (self.m + 1) * np.finfo(float).eps * self.s0_sq

    def exact_s2(self, idx):
        """Recompute s^2 of the samples in ``idx`` from the deflated Z."""
        zw = self._z @ self.weights[idx].T
        self.s2[idx] = np.maximum(np.einsum("ij,ij->j", zw, self.a @ zw), 0.0)

    def _append_u(self, u_new):
        m, n = self.m, self.n
        self._u[m] = u_new
        row = np.matmul(u_new @ self.terms, self.weights.T, out=self._p_f[m])
        self.s2 -= row * row
        # one new R_p row against every trunk column seen so far
        for p in range(len(self._w)):
            self._r[m, :n, p] = self._w[p, :n] @ u_new
        self.m = m + 1

    def enrich(self, model, psi_new):
        """Append one accepted trunk column and border the R_p blocks by it.

        Returns the new column psi^T A_p psi_new of every reduced stiffness
        block, (Q_a, n + 1), a view the next call overwrites, and the new
        reduced-load row psi_new^T f(k), one entry per sample.
        """
        n, m0 = self.n, self.m
        self._psi[n] = psi_new
        ut = self._u[:self.m]
        raw = []
        for p in range(len(self._w)):
            w_p = self._w[p, n]
            w_p[:] = model.affine_II.term(p) @ psi_new
            self._r[:self.m, n, p] = ut @ w_p
            d = model.star_solve(w_p)
            raw.append((d, np.sqrt(max(d @ w_p, 0.0))))
        self.n = n + 1
        a_col = self._a_col[:, :n + 1]
        for p, w in enumerate(self._w[:, n]):
            np.matmul(self._psi[:n + 1], w, out=a_col[p])
        # deflate the Riesz images one by one so they stay mutually orthogonal
        for d, pre in raw:
            for _ in range(2):
                if self.m:
                    ut = self._u[:self.m]
                    d = d - ut.T @ (ut @ (self.a @ d))
            nrm2 = d @ (self.a @ d)
            if nrm2 > (1e-13 * max(pre, 1e-300)) ** 2:
                self._append_u(d / np.sqrt(nrm2))
        # and Z against the U columns just appended, as one block, twice;
        # A_star is symmetric, so U^T A_star Z is (A_star U)^T Z, a sparse
        # product with the few new columns, not with the Q_f of Z
        if self.m > m0:
            ut = self._u[m0:self.m]
            aut = (self.a @ ut.T).T
            for _ in range(2):
                self._z -= ut.T @ (aut @ self._z)
        return a_col, (psi_new @ self.terms) @ self.weights.T

    def residual_sq(self, theta_all, idx, c):
        """||P_F w - sum_p theta_p R_p c||^2 over the samples in ``idx``
        given their RB coefficients ``c``, one column (N,) per sample.

        sum_p theta_p R_p c is one product of [R_1 ... R_Q] (columns
        interleaved term-fastest) with the Khatri-Rao block of c and theta,
        row (j, p) of which is c_j theta_p over the samples.
        """
        m, n = self.m, self.n
        qa = self._r.shape[2]
        kr = c[:, None, :] * theta_all[idx].T[None, :, :]
        y = self._p_f[:m, idx]
        r = self._r.reshape(len(self._r), -1)[:m, :n * qa]
        y -= r @ kr.reshape(n * qa, -1)
        return np.einsum("ij,ij->j", y, y)


class _BorderedCholesky:
    """Inverse Cholesky factors X(k) = L(k)^-1 of A_N(k) for the live pool
    samples, and the RB coefficients c(k) = X(k)^T X(k) f_N(k) they give.

    X is lower triangular and held sample-last, in blocks of ``_BLOCK``
    rows: block b is one (rows, width, samples) array of rows
    [b _BLOCK, (b + 1) _BLOCK) of every X(k), zero beyond each row's
    diagonal, and width (b + 1) _BLOCK capped at ``bound``.  Appending a
    trunk column borders each L(k) by the row [l^T, d], with
    L l = col[:n] and d^2 = col[n] - |l|^2 for the new column col of
    A_N(k).  In terms of X that is l = X col[:n] and v = X^T l, one einsum
    pair per block, and the new row [-v/d, 1/d] of X.  Since c = X^T y with
    y = X f_N, the coefficients update in O(N) per sample,
    c <- c + y_n x_new, so no substitution runs at solve time.  y and c are
    row-stacked in (bound, n_samples) buffers allocated once.

    The sample axis is in live order: position s holds pool sample
    ``pool[s]``, and only the leading ``live`` positions are bordered and
    solved.  ``retire`` takes a sample out of that order, as the greedy
    does with each sample whose snapshot enters the trunk, by moving the
    last live sample into its place; a block appended later is allocated
    only ``live`` samples wide.
    """

    def __init__(self, theta, bound):
        ns = theta.shape[0]
        self.theta = np.ascontiguousarray(theta.T)   # (Q_a, n_samples)
        self.bound = bound
        self.n = 0
        self.blocks = []
        self.y = np.empty((bound, ns))
        self.c = np.empty_like(self.y)
        self.pool = np.arange(ns)    # live position -> pool sample
        self.live = ns

    def border(self, a_col, f_new):
        """Append one trunk column.

        ``a_col`` (Q_a, n + 1) is the new column of every reduced block and
        ``f_new`` (live,) the new reduced load entry of every live sample,
        in live order.
        """
        n, live = self.n, self.live
        b, i = divmod(n, _BLOCK)
        if i == 0:
            self.blocks.append(np.zeros(
                (min(_BLOCK, self.bound - n), min(n + _BLOCK, self.bound),
                 live)))
        x_new = self.blocks[b][i, :, :live]   # still zero: v accumulates in it
        # the new column of every A_N(k); l = X col[:n] overwrites its head
        # block by block, last block first, so each block reads only the
        # entries of col its rows reach, none of them yet overwritten
        col = a_col.T @ self.theta[:, :live]
        for j in range(b, -1, -1):
            lo = j * _BLOCK
            rows = self.blocks[j][:n - lo, :n, :live]   # its filled rows
            hi, w = lo + len(rows), rows.shape[1]
            if hi > lo:
                col[lo:hi] = np.einsum("ijs,js->is", rows, col[:w])
                x_new[:w] += np.einsum("ijs,is->js", rows, col[lo:hi])
        ell = col[:n]
        d2 = col[n] - np.einsum("js,js->s", ell, ell)
        bad = np.flatnonzero(~(d2 > 0.0))
        if bad.size:
            raise NotCoerciveError(
                f"reduced operator of sample {self.pool[bad[0]]} is not SPD "
                f"at dimension {n + 1}")
        d = np.sqrt(d2)
        np.divide(1.0, d, out=x_new[n])
        x_new[:n] *= -x_new[n]
        y, c = self.y[:, :live], self.c[:, :live]
        y[n] = (f_new - np.einsum("js,js->s", ell, y[:n])) / d
        c[:n] += y[n] * x_new[:n]
        np.multiply(y[n], x_new[n], out=c[n])
        self.n = n + 1

    def retire(self, sample):
        """Take pool sample ``sample`` out of the live order: the last live
        sample moves into its position, O(N^2) entries of X with it."""
        s = int(np.flatnonzero(self.pool[:self.live] == sample)[0])
        last = self.live - 1
        for blk in self.blocks:
            blk[:, :, s] = blk[:, :, last]
        for arr in (self.y[:self.n], self.c[:self.n], self.theta, self.pool):
            arr[..., s] = arr[..., last]
        self.live = last

    def solve(self):
        """RB coefficients (N, live) in live order, a copy later borders and
        retirements leave alone."""
        return self.c[:self.n, :self.live].copy()


def greedy_build(model, samples, terms, weights, tol, fixed_n, alpha_lb):
    """Weak greedy trunk construction driven by the certified estimator.

    ``samples`` is the training pool (n_s, p); every iteration sweeps the
    samples outside the trunk, and each selected sample, certified with
    eta = 0 from then on, leaves the sweep.  Sample i's load is
    ``terms @ weights[i]``: ``terms`` (n_free, Q_f) are the load terms and
    ``weights`` (n_s, Q_f) their weights, so the sweep's load bookkeeping
    and reference solves grow with Q_f, not with the pool, and each truth
    snapshot solves its sample's load.  Stopping: the build stops at the
    maximal dimension ``fixed_n``, or at as many columns as the pool and
    the space hold; ``tol`` on the pool's max estimator, unless None, stops
    it earlier and then certifies every pool sample, the trunk samples
    included.  A trunk that holds the whole pool records a maximum of 0.
    ``alpha_lb`` is the coercivity bound that scales the estimator.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    ns = samples.shape[0]
    if ns == 0:
        raise EmptySpaceError("empty greedy training set")
    terms = np.asarray(terms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (ns, terms.shape[1]):
        raise ValueError(f"load weights of shape {weights.shape} do not "
                         f"match {ns} samples and {terms.shape[1]} terms")
    theta_all = np.asarray(model.theta_a(samples), dtype=float)
    # each accepted column is a different pool sample's snapshot, A_star-
    # orthogonal to the rest, and the first is taken whatever fixed_n says
    bound = max(1, min(fixed_n, ns, model.n_free))

    state = _SweepState(model, terms, weights, bound)
    chol = _BorderedCholesky(theta_all, bound)
    trace = GreedyTrace()

    def truth(idx):
        return interior_factor(model, samples[idx]).solve(terms @ weights[idx])

    def accept(idx, v):
        a_col, f_row = state.enrich(model, v)
        chol.border(a_col, f_row[chol.pool[:chol.live]])
        # a trunk sample's snapshot is in the trunk: its estimator is 0
        chol.retire(idx)
        trace.selected.append(idx)
        trace.params.append(samples[idx].copy())
        trace.basis_size.append(state.n)

    # rank-one initial space from the first pool sample
    v = v_orthonormalize(model, None, truth(0))
    if v is None:
        raise EmptySpaceError("initial snapshot is zero")
    accept(0, v)

    while True:
        # the samples outside the trunk, in the factors' order: an index
        # array, not a slice, since residual_sq subtracts in place from the
        # P_F rows it reads, and a copy, which retire leaves as it is
        live = chol.pool[:chol.live].copy()
        eta_max, near = 0.0, live     # a pool-sized trunk certifies the pool
        if live.size:
            res2 = state.residual_sq(theta_all, live, chol.solve())
            eta2 = (np.maximum(state.s2[live], 0.0) + res2) / alpha_lb ** 2
            # exact s^2 where the downdate drift could change the argmax
            slack = state.slack()[live] / alpha_lb ** 2
            near = np.flatnonzero(eta2 + slack >= np.max(eta2 - slack))
            state.exact_s2(live[near])
            eta2[near] = (state.s2[live[near]] + res2[near]) / alpha_lb ** 2
            best = int(np.argmax(eta2))
            idx = int(live[best])
            eta_max = float(np.sqrt(max(eta2[best], 0.0)))
        trace.rechecks.append(near.size)
        trace.max_estimator.append(eta_max)
        if tol is not None and eta_max <= tol:
            trace.stop_reason = "tolerance"
            break
        if state.n >= bound:
            trace.stop_reason = "size"
            break
        v = v_orthonormalize(model, state.psi, truth(idx))
        if v is None:
            if tol is not None:
                raise StagnationError(
                    f"snapshot at sample {idx} rejected with estimator "
                    f"{eta_max:.3e} above tolerance {tol:.3e}")
            trace.stop_reason = "dependent_snapshot"
            break
        accept(idx, v)

    psi = np.ascontiguousarray(state.psi)
    a_blocks, f_blocks = reduce_operators(model, psi, terms)
    prov = dict(method="greedy", tol=tol, fixed_n=fixed_n,
                selected=list(trace.selected), pool_size=int(ns))
    return RBSpace(psi=psi, a_blocks=a_blocks, f_blocks=f_blocks,
                   provenance=prov), trace


def pod_build(model, snapshots, terms, fixed_n):
    """Method-of-snapshots POD in the A_star inner product.

    ``snapshots`` holds one solution per column, each the truth of a load
    in the span of ``terms`` (n_free, Q_f), which the space's ``f_blocks``
    project.  The correlation matrix G_ij = (w_i, w_j)_star / n_k is
    diagonalized; ``fixed_n`` modes are kept, or if None, those above the
    energy criterion (tail fraction <= _POD_TOL^2).  Returns an RBSpace and
    stores the spectrum in its provenance.
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
    if nk <= _DENSE_LIMIT:
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
        ok = np.flatnonzero(tail <= _POD_TOL * _POD_TOL)
        if ok.size == 0:
            n = keep
        else:
            n = int(ok[0]) + 1
    modes = s @ (vec[:, :n] / np.sqrt(nk * lam[:n])[None, :])
    psi = np.empty((s.shape[0], n))
    kept = 0
    for j in range(n):
        v = v_orthonormalize(model, psi[:, :kept] if kept else None, modes[:, j])
        if v is None:
            continue
        psi[:, kept] = v
        kept += 1
    psi = psi[:, :kept].copy()
    a_blocks, f_blocks = reduce_operators(model, psi, terms)
    prov = dict(method="pod", tol=_POD_TOL, fixed_n=fixed_n,
                n_snapshots=int(nk), eigenvalues=lam, trace=total)
    return RBSpace(psi=psi, a_blocks=a_blocks, f_blocks=f_blocks,
                   provenance=prov)
