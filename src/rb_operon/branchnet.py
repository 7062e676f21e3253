"""Branch network: a plain-numpy MLP trained on reduced-space losses.

The network maps (standardized) parameter/data features to reduced-basis
coefficients.  The training data class decides the loss.  ``ResidualData``
is label-free: the preconditioned reduced residual r^T A_rb^-1 r, in the
expanded form (c_N - c)^T A_rb (c_N - c) around precomputed Galerkin
coefficients, which needs one product per affine term and no solves per
step.  ``SupervisedData`` holds the exact A_star-energy discrepancy against
truth snapshots, expanded offline, so no full-order vector is touched.

An MLP keeps all its parameters in one flat vector, weights then biases,
with per-layer views into it; the gradient, the AdamW moments, the
best-epoch copy and the saved array share that layout.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy.special import ndtr

from .errors import TrainingDivergedError

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_ADAMW_BLOCK = 16384    # entries per AdamW block: 128 KiB per temporary
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8   # AdamW moment decays and floor
# the training recipe; TrainConfig holds what a run sets
_BATCH, _LR, _WEIGHT_DECAY = 64, 5e-4, 1e-6     # rows per step, AdamW
_PLATEAU_FACTOR, _PLATEAU_PATIENCE, _MIN_LR = 0.5, 20, 1e-7   # lr halving
_IMPROVE_RTOL = 1e-8    # relative validation-loss gain that is progress


def gelu_grad(x, cdf):
    """Derivative Phi(x) + x phi(x) of the exact GELU x Phi(x), given the
    normal CDF ``cdf`` = Phi(x) the forward pass computed."""
    out = x * _INV_SQRT_2PI
    e = -0.5 * x
    e *= x
    out *= np.exp(e, out=e)
    out += cdf
    return out


def xavier_init(shape, rng):
    """Uniform Xavier/Glorot weights on +-sqrt(6/(fan_in+fan_out))."""
    fan_in, fan_out = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x):
        x = np.asarray(x, dtype=float)
        return cls(mean=x.mean(axis=0), std=np.maximum(x.std(axis=0), 1e-12))

    def transform(self, x):
        return (np.asarray(x, dtype=float) - self.mean) / self.std


class MLP:
    """Fully connected net, GELU hidden activations, identity output.

    ``weights`` and ``biases`` are views into the parameter vector ``flat``.
    """

    def __init__(self, sizes, seed=0):
        self.sizes = list(sizes)
        self.n_weights = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
        shapes = list(zip(self.sizes[:-1], self.sizes[1:])) + self.sizes[1:]
        bounds = np.cumsum([0] + [np.prod(s) for s in shapes])
        # (start, stop, shape) in ``flat`` of each weight matrix, then bias
        self._layout = list(zip(bounds[:-1], bounds[1:], shapes))
        self.flat = np.zeros(bounds[-1])
        parts = self.split(self.flat)
        self.weights, self.biases = parts[:len(sizes) - 1], parts[len(sizes) - 1:]
        rng = np.random.default_rng(seed)
        for w in self.weights:
            w[...] = xavier_init(w.shape, rng)

    @property
    def n_params(self):
        return self.flat.size

    def split(self, vec):
        """Per-layer views into ``vec``, laid out like ``flat``: the weight
        matrices, then the biases."""
        return [vec[lo:hi].reshape(s) for lo, hi, s in self._layout]

    def parameters(self):
        return self.weights + self.biases

    def forward(self, x, standardizer, want_cache=False):
        """Output rows for the ``standardizer``-scaled input rows ``x``; with
        ``want_cache`` also the cache ``backward`` reads: every layer's input,
        and every hidden layer's pre-activation z and normal CDF Phi(z)."""
        h = standardizer.transform(x)
        acts = [h]
        pres = []
        cdfs = []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            if i < last:
                cdf = ndtr(z)
                pres.append(z)
                cdfs.append(cdf)
                h = z * cdf      # exact GELU z Phi(z)
                acts.append(h)
            else:
                h = z
        return (h, (acts, pres, cdfs)) if want_cache else h

    def backward(self, cache, dout):
        """Gradient of sum-of-(dout * output) w.r.t. ``flat``."""
        acts, pres, cdfs = cache
        grad = np.empty_like(self.flat)
        parts = self.split(grad)
        nw = len(self.weights)
        g = np.asarray(dout, dtype=float)
        for i in range(nw - 1, -1, -1):
            np.matmul(acts[i].T, g, out=parts[i])
            g.sum(axis=0, out=parts[nw + i])
            if i > 0:
                g = g @ self.weights[i].T
                g *= gelu_grad(pres[i - 1], cdfs[i - 1])
        return grad


def supervised_loss(gram, targets, squares, c):
    """Exact A_star-energy discrepancy ||Psi c - u_h||^2 and its gradient.

    loss_i = c^T G c - 2 c^T t_i + s_i with G = Psi^T A_star_II Psi,
    t = Psi^T A_star_II u_h and s = u_h^T A_star_II u_h precomputed offline.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    n = c.shape[0]
    mc = c @ gram
    loss = float((np.einsum("si,si->", c, mc)
                  - 2.0 * np.einsum("si,si->", c, targets)
                  + np.sum(squares)) / n)
    return loss, 2.0 * (mc - targets) / n


@dataclass
class AdamWState:
    """AdamW moments of a parameter vector, kept scaled: ``m`` is the first
    moment over 1 - beta1 and ``v`` the second over 1 - beta2.  ``scratch``
    holds one block of the step's temporaries."""
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, flat):
        return cls(m=np.zeros_like(flat), v=np.zeros_like(flat),
                   scratch=np.empty(min(flat.size, _ADAMW_BLOCK)))


def adamw_step(state, flat, grad, lr, n_decay):
    """One AdamW update of the vector ``flat`` in place.

    Decoupled decay, applied before the step, shrinks the first ``n_decay``
    entries: the weights of an ``MLP.flat``, not its biases.  With the
    scaled moments m <- beta1 m + g and v <- beta2 v + g^2, the step
    lr m_hat / (sqrt(v_hat) + eps) is m / (c sqrt(v) + eps'), lr, the bias
    corrections and eps folded into the two scalars c and eps'.  The step
    runs block by block, so that its temporaries stay in cache.
    """
    state.t += 1
    scale = (1.0 - _BETA1 ** state.t) / (lr * (1.0 - _BETA1))
    c = scale * np.sqrt((1.0 - _BETA2) / (1.0 - _BETA2 ** state.t))
    eps = scale * _EPS
    flat[:n_decay] *= 1.0 - lr * _WEIGHT_DECAY
    for lo in range(0, flat.size, _ADAMW_BLOCK):
        sl = slice(lo, lo + _ADAMW_BLOCK)
        m, v, g = state.m[sl], state.v[sl], grad[sl]
        s = state.scratch[:g.size]
        m *= _BETA1
        m += g
        v *= _BETA2
        v += np.multiply(g, g, out=s)
        np.sqrt(v, out=s)
        s *= c
        s += eps
        flat[sl] -= np.divide(m, s, out=s)


@dataclass
class TrainConfig:
    """What a run sets; the rest of the recipe is the module constants."""
    epochs: int = 2000
    early_stop: int = 200      # epochs without improvement before stopping
    seed: int = 0

    def record(self):
        """The manifest's record of the recipe a run trained with."""
        return {"epochs": self.epochs, "batch": _BATCH, "lr": _LR,
                "weight_decay": _WEIGHT_DECAY}


@dataclass
class ResidualData:
    """Per-sample reduced systems for label-free training."""

    features: np.ndarray   # (n, d) raw features
    theta: np.ndarray      # (n, Q_a) operator weights
    a_blocks: np.ndarray   # (Q_a, N, N) reduced stiffness terms
    c_n: np.ndarray        # (n, N) Galerkin coefficients (cached offline)

    def __len__(self):
        return self.features.shape[0]

    def batch_loss(self, idx, c):
        """Residual loss around the Galerkin coefficients, and its gradient.

        With e = c_N - c and r = A_rb e = sum_p theta_p A_p e, the loss
        r^T A_rb^-1 r equals e^T r, so neither a factorization nor the
        per-sample operators A_rb are formed.
        """
        e = self.c_n[idx] - c
        theta = self.theta[idx]
        r = theta[:, :1] * (e @ self.a_blocks[0].T)
        for p in range(1, len(self.a_blocks)):
            r += theta[:, p:p + 1] * (e @ self.a_blocks[p].T)
        n = e.shape[0]
        loss = float(np.einsum("si,si->", e, r) / n)
        return loss, -2.0 * r / n


@dataclass
class SupervisedData:
    """Precomputed reduced targets for supervised training in the A_star
    energy norm."""

    features: np.ndarray
    gram: np.ndarray       # (N, N) Psi^T A_star_II Psi
    targets: np.ndarray    # (n, N) Psi^T A_star_II u_h
    squares: np.ndarray    # (n,) u_h^T A_star_II u_h

    def __len__(self):
        return self.features.shape[0]

    def batch_loss(self, idx, c):
        return supervised_loss(self.gram, self.targets[idx], self.squares[idx], c)


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_epoch: int = -1    # last epoch run
    stop_reason: str = "epochs"    # or "early_stop"


def _dataset_loss(net, standardizer, data):
    c = net.forward(data.features, standardizer)
    return data.batch_loss(np.arange(len(data)), c)[0]


def train(net, train_data, val_data, config):
    """Mini-batch AdamW loop with plateau halving and early stopping.

    Returns (net, standardizer, history); the network carries the weights
    of the best validation epoch.
    """
    rng = np.random.default_rng(config.seed)
    standardizer = Standardizer.fit(train_data.features)
    state = AdamWState.init(net.flat)
    history = TrainHistory()
    n = len(train_data)
    lr = _LR
    best_val = np.inf
    best_params = net.flat.copy()
    since_improve = 0
    since_plateau = 0

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, _BATCH):
            idx = order[lo:lo + _BATCH]
            c, cache = net.forward(train_data.features[idx], standardizer,
                                   want_cache=True)
            loss, dldc = train_data.batch_loss(idx, c)
            epoch_loss += loss * len(idx)
            adamw_step(state, net.flat, net.backward(cache, dldc), lr,
                       net.n_weights)
        epoch_loss /= n
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch)
        val = _dataset_loss(net, standardizer, val_data)
        if not np.isfinite(val):
            raise TrainingDivergedError(epoch)
        history.train_loss.append(epoch_loss)
        history.val_loss.append(val)
        history.lr.append(lr)

        if val < best_val * (1.0 - _IMPROVE_RTOL) or epoch == 0:
            best_val = val
            best_params[...] = net.flat
            history.best_epoch = epoch
            since_improve = 0
            since_plateau = 0
        else:
            since_improve += 1
            since_plateau += 1
        if since_plateau >= _PLATEAU_PATIENCE:
            lr = max(lr * _PLATEAU_FACTOR, _MIN_LR)
            since_plateau = 0
        if since_improve >= config.early_stop:
            history.stop_reason = "early_stop"
            break

    history.stopped_epoch = len(history.train_loss) - 1
    net.flat[...] = best_params
    return net, standardizer, history
