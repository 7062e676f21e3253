import dataclasses

import numpy as np
import pytest
from scipy.special import ndtr

from rb_operon import branchnet
from rb_operon.branchnet import (MLP, AdamWState, ResidualData, Standardizer,
                                 SupervisedData, TrainConfig, _dataset_loss,
                                 adamw_step, gelu_grad, supervised_loss,
                                 train)
from rb_operon.errors import TrainingDivergedError

# leaves its input rows as they are
IDENTITY = Standardizer(mean=0.0, std=1.0)


def spd_batch(rng, ns, n):
    base = rng.standard_normal((ns, n, n))
    return np.einsum("sij,skj->sik", base, base) + 2 * np.eye(n)


def residual_loss(a_rb, f_rb, c):
    """Oracle: the factorizing form of the mean preconditioned residual
    r^T A^-1 r, with its c-gradient -2 r / n."""
    n = c.shape[0]
    r = f_rb - np.einsum("sij,sj->si", a_rb, c)
    y = np.linalg.solve(np.linalg.cholesky(a_rb), r[:, :, None])[:, :, 0]
    return float(np.einsum("si,si->", y, y) / n), -2.0 * r / n


def gelu(x):
    """Oracle: the exact GELU x Phi(x)."""
    return x * ndtr(x)


def per_array_backward(net, cache, dout):
    """Oracle: the gradient as one array per weight matrix and bias, with
    the GELU derivative computed afresh from the pre-activations rather
    than from the normal CDFs the cache holds."""
    acts, pres, _ = cache
    gw, gb = [], []
    g = dout
    for i in range(len(net.weights) - 1, -1, -1):
        gw.insert(0, acts[i].T @ g)
        gb.insert(0, g.sum(axis=0))
        if i > 0:
            z = pres[i - 1]
            g = (g @ net.weights[i].T) * gelu_grad(z, ndtr(z))
    return gw + gb


def per_array_adamw(state, params, grads, lr, weight_decay, decay_mask,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """Oracle: AdamW with separate moment arrays per parameter array."""
    state["t"] += 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    m, v = state["m"], state["v"]
    for i, (p, g) in enumerate(zip(params, grads)):
        if weight_decay and decay_mask[i]:
            p *= 1.0 - lr * weight_decay
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
        p -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)


def test_gelu_matches_finite_differences():
    x = np.linspace(-4, 4, 41)
    h = 1e-6
    fd = (gelu(x + h) - gelu(x - h)) / (2 * h)
    assert np.allclose(gelu_grad(x, ndtr(x)), fd, atol=1e-8)
    assert np.isclose(gelu(0.0), 0.0)


def test_standardizer_roundtrip(rng):
    x = rng.standard_normal((50, 4)) * [1, 10, 0.1, 5] + [2, -3, 0, 1]
    st = Standardizer.fit(x)
    z = st.transform(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0)


def test_mlp_forward_matches_manual(rng):
    net = MLP([3, 5, 2], seed=7)
    x = rng.standard_normal((4, 3))
    manual = gelu(x @ net.weights[0] + net.biases[0]) @ net.weights[1] + net.biases[1]
    assert np.allclose(net.forward(x, IDENTITY), manual)
    assert net.n_params == 3 * 5 + 5 + 5 * 2 + 2


def test_mlp_backward_matches_finite_differences(rng):
    # composite check: d/dp of 0.5 ||net(x)||^2 via backward vs central FD
    net = MLP([2, 4, 3], seed=1)
    x = rng.standard_normal((5, 2))
    out, cache = net.forward(x, IDENTITY, want_cache=True)
    grads = net.split(net.backward(cache, out))   # dout = out for this loss
    params = net.parameters()
    h = 1e-6
    for pi in (0, 1, 2, 3):               # both weight matrices and biases
        p = params[pi]
        it = np.nditer(p, flags=["multi_index"])
        for _ in range(min(p.size, 6)):
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = 0.5 * np.sum(net.forward(x, IDENTITY) ** 2)
            p[idx] = orig - h
            lm = 0.5 * np.sum(net.forward(x, IDENTITY) ** 2)
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            assert np.isclose(grads[pi][idx], fd, rtol=1e-5, atol=1e-8)
            it.iternext()


def test_residual_loss_gradient_closed_form(rng):
    ns, n = 6, 4
    a = spd_batch(rng, ns, n)
    f = rng.standard_normal((ns, n))
    c = rng.standard_normal((ns, n))
    loss, grad = residual_loss(a, f, c)
    r = f - np.einsum("sij,sj->si", a, c)
    assert np.allclose(grad, -2.0 * r / ns)
    # loss value against a plain per-sample solve
    direct = np.mean([r[s] @ np.linalg.solve(a[s], r[s]) for s in range(ns)])
    assert np.isclose(loss, direct)


def test_residual_loss_gradient_matches_fd(rng):
    ns, n = 3, 3
    a = spd_batch(rng, ns, n)
    f = rng.standard_normal((ns, n))
    c = rng.standard_normal((ns, n))
    _, grad = residual_loss(a, f, c)
    h = 1e-6
    for s in range(ns):
        for j in range(n):
            cp = c.copy()
            cp[s, j] += h
            lp, _ = residual_loss(a, f, cp)
            cp[s, j] -= 2 * h
            lm, _ = residual_loss(a, f, cp)
            assert np.isclose(grad[s, j], (lp - lm) / (2 * h), rtol=1e-5, atol=1e-8)


def test_residual_loss_expanded_equivalent(rng):
    ns, n, qa = 5, 4, 3
    blocks = spd_batch(rng, qa, n)
    theta = rng.uniform(0.5, 1.5, size=(ns, qa))
    a = np.einsum("sp,pij->sij", theta, blocks)
    c_n = rng.standard_normal((ns, n))
    f = np.einsum("sij,sj->si", a, c_n)   # consistent right-hand side
    c = rng.standard_normal((ns, n))
    data = ResidualData(features=np.zeros((ns, 1)), theta=theta,
                        a_blocks=blocks, c_n=c_n)
    l1, g1 = residual_loss(a, f, c)
    l2, g2 = data.batch_loss(np.arange(ns), c)
    assert np.isclose(l1, l2, rtol=1e-10)
    assert np.allclose(g1, g2, rtol=1e-10)


def test_supervised_loss_matches_dense(rng):
    ns, n, n0 = 4, 3, 20
    psi = np.linalg.qr(rng.standard_normal((n0, n)))[0]
    m_full = np.eye(n0) * 0.5
    m_n = psi.T @ m_full @ psi
    u = rng.standard_normal((n0, ns))
    targets = (psi.T @ (m_full @ u)).T
    squares = np.einsum("is,is->s", u, m_full @ u)
    c = rng.standard_normal((ns, n))
    loss, grad = supervised_loss(m_n, targets, squares, c)
    direct = np.mean([
        (psi @ c[s] - u[:, s]) @ m_full @ (psi @ c[s] - u[:, s])
        for s in range(ns)])
    assert np.isclose(loss, direct)
    h = 1e-7
    cp = c.copy()
    cp[1, 2] += h
    lp, _ = supervised_loss(m_n, targets, squares, cp)
    assert np.isclose(grad[1, 2], (lp - loss) / h, rtol=1e-4)


def test_adamw_matches_scalar_recursion(monkeypatch):
    # one parameter, three steps, hand-rolled reference
    lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
    monkeypatch.setattr(branchnet, "_WEIGHT_DECAY", wd)
    p = np.array([1.0])
    state = AdamWState.init(p)
    grads = [0.3, -0.2, 0.7]
    ref_p, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        adamw_step(state, p, np.array([g]), lr, 1)
        ref_p *= 1.0 - lr * wd
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        ref_p -= lr * mhat / (np.sqrt(vhat) + eps)
        assert np.isclose(p[0], ref_p, rtol=0, atol=1e-12)


def test_adamw_decay_skips_biases(monkeypatch):
    # the first n_decay entries are the weights; the bias behind them is kept
    monkeypatch.setattr(branchnet, "_WEIGHT_DECAY", 0.5)
    p = np.array([1.0, 1.0])
    state = AdamWState.init(p)
    adamw_step(state, p, np.zeros(2), lr=0.1, n_decay=1)
    assert p[0] < 1.0
    assert p[1] == 1.0


def test_adamw_blocks_match_textbook_order(monkeypatch):
    # scaled moments and folded scalars against the textbook per-array
    # AdamW: 200 steps over several blocks, the lr halved part way through
    monkeypatch.setattr(branchnet, "_WEIGHT_DECAY", 0.01)
    rng = np.random.default_rng(7)
    n = 2 * branchnet._ADAMW_BLOCK + 1234
    n_decay = branchnet._ADAMW_BLOCK + 99
    flat = rng.uniform(1.0, 2.0, n)
    ref = [flat[:n_decay].copy(), flat[n_decay:].copy()]
    ref_state = {"t": 0, "m": [np.zeros_like(p) for p in ref],
                 "v": [np.zeros_like(p) for p in ref]}
    state = AdamWState.init(flat)
    scales = np.repeat(rng.uniform(1e-4, 1e2, 40), -(-n // 40))[:n]
    for step in range(200):
        lr = 1e-3 if step < 120 else 5e-4
        grad = scales * rng.standard_normal(n)
        adamw_step(state, flat, grad, lr, n_decay)
        per_array_adamw(ref_state, ref, [grad[:n_decay], grad[n_decay:]],
                        lr, 0.01, [True, False])
    np.testing.assert_allclose(flat, np.concatenate(ref), rtol=1e-12, atol=0)


def test_flat_steps_match_per_array_loop_bitwise(rng, monkeypatch):
    # backward and AdamW on the flat vector against the per-array forms:
    # the AdamW oracle steps each parameter array with its own state, so
    # small AdamW blocks that straddle the weight/bias boundary must give
    # the same bits
    monkeypatch.setattr(branchnet, "_ADAMW_BLOCK", 7)
    monkeypatch.setattr(branchnet, "_WEIGHT_DECAY", 0.1)
    net = MLP([3, 7, 6, 2], seed=3)
    ref = [p.copy() for p in net.parameters()]
    ref_states = [AdamWState.init(p.ravel()) for p in ref]
    n_decay = [p.size for p in net.weights] + [0] * len(net.biases)
    ref_net = MLP([3, 7, 6, 2], seed=3)
    state = AdamWState.init(net.flat)
    for _ in range(4):
        x = rng.standard_normal((5, 3))
        dout = rng.standard_normal((5, 2))
        grad = net.backward(net.forward(x, IDENTITY, want_cache=True)[1],
                            dout)
        for w, b, rw, rb in zip(ref_net.weights, ref_net.biases,
                                ref[:3], ref[3:]):
            w[...], b[...] = rw, rb
        ref_grads = per_array_backward(
            ref_net, ref_net.forward(x, IDENTITY, want_cache=True)[1], dout)
        assert np.array_equal(grad, np.concatenate(
            [g.ravel() for g in ref_grads]))
        adamw_step(state, net.flat, grad, 1e-2, net.n_weights)
        for p, g, st, nd in zip(ref, ref_grads, ref_states, n_decay):
            adamw_step(st, p.ravel(), g.ravel(), 1e-2, nd)
        assert np.array_equal(net.flat,
                              np.concatenate([p.ravel() for p in ref]))


_TOY_RNG = np.random.default_rng(2024)
_TOY_BLOCKS = None
_TOY_MAP = None


def residual_dataset(rng, ns, n=3, d=2, qa=2):
    # one shared operator family and ground-truth map, so that a net fitted
    # on one draw generalizes to another
    global _TOY_BLOCKS, _TOY_MAP
    if _TOY_BLOCKS is None:
        base = _TOY_RNG.standard_normal((qa, n, n))
        _TOY_BLOCKS = np.einsum("qij,qkj->qik", base, base) + 2 * np.eye(n)
        _TOY_MAP = _TOY_RNG.standard_normal((d, n))
    theta = rng.uniform(0.5, 1.5, size=(ns, qa))
    feats = rng.standard_normal((ns, d))
    c_n = 0.3 * feats @ _TOY_MAP
    return ResidualData(features=feats, theta=theta, a_blocks=_TOY_BLOCKS,
                        c_n=c_n)


def test_dataset_loss_is_row_weighted_mean(rng):
    data = residual_dataset(rng, 40)
    net = MLP([2, 8, 3], seed=0)
    st = Standardizer.fit(data.features)
    c = net.forward(data.features, st)
    rows = [data.batch_loss(np.array([i]), c[i:i + 1])[0]
            for i in range(len(data))]
    assert np.isclose(_dataset_loss(net, st, data), np.mean(rows),
                      rtol=1e-12)


def test_train_learns_and_early_stops(rng, monkeypatch):
    monkeypatch.setattr(branchnet, "_BATCH", 16)
    monkeypatch.setattr(branchnet, "_LR", 3e-3)
    data_tr = residual_dataset(rng, 120)
    data_va = residual_dataset(rng, 30)
    net = MLP([2, 16, 3], seed=2)
    cfg = TrainConfig(epochs=400, early_stop=40, seed=0)
    net, st, hist = train(net, data_tr, data_va, cfg)
    first, best = hist.val_loss[0], min(hist.val_loss)
    assert best < 0.05 * first          # the toy map is learnable
    # returned weights are the ones from the recorded best epoch
    assert hist.val_loss[hist.best_epoch] <= best * (1 + 1e-7)
    assert np.isclose(_dataset_loss(net, st, data_va),
                      hist.val_loss[hist.best_epoch], rtol=1e-9)
    assert len(hist.val_loss) == hist.stopped_epoch + 1


def test_train_stop_reason_early_stop(rng, monkeypatch):
    monkeypatch.setattr(branchnet, "_BATCH", 8)
    monkeypatch.setattr(branchnet, "_IMPROVE_RTOL", 0.5)
    data_tr = residual_dataset(rng, 30)
    data_va = residual_dataset(rng, 10)
    net = MLP([2, 4, 3], seed=3)
    # no epoch improves on the first by half, so the third one stops
    cfg = TrainConfig(epochs=50, early_stop=2, seed=1)
    _, _, hist = train(net, data_tr, data_va, cfg)
    assert hist.stop_reason == "early_stop"
    assert hist.stopped_epoch == 2
    assert len(hist.val_loss) == 3


def test_train_stop_reason_epochs(rng, monkeypatch):
    monkeypatch.setattr(branchnet, "_BATCH", 8)
    data_tr = residual_dataset(rng, 30)
    data_va = residual_dataset(rng, 10)
    net = MLP([2, 4, 3], seed=3)
    cfg = TrainConfig(epochs=4, early_stop=1000, seed=1)
    _, _, hist = train(net, data_tr, data_va, cfg)
    assert hist.stop_reason == "epochs"
    assert hist.stopped_epoch == 3
    assert len(hist.val_loss) == 4


def test_train_plateau_halves_lr(rng, monkeypatch):
    for name, value in (("_BATCH", 8), ("_LR", 1e-3), ("_PLATEAU_PATIENCE", 5),
                        ("_IMPROVE_RTOL", 0.5)):
        monkeypatch.setattr(branchnet, name, value)
    data_tr = residual_dataset(rng, 30)
    data_va = residual_dataset(rng, 10)
    net = MLP([2, 4, 3], seed=3)
    cfg = TrainConfig(epochs=100, early_stop=1000, seed=1)
    _, _, hist = train(net, data_tr, data_va, cfg)
    assert min(hist.lr) < 1e-3
    assert min(hist.lr) >= branchnet._MIN_LR


def test_train_diverges_raises(rng, monkeypatch):
    monkeypatch.setattr(branchnet, "_BATCH", 8)
    monkeypatch.setattr(branchnet, "_LR", 1e12)
    data_tr = residual_dataset(rng, 30)
    data_va = residual_dataset(rng, 10)
    net = MLP([2, 4, 3], seed=4)
    cfg = TrainConfig(epochs=50, seed=2)
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
        train(net, data_tr, data_va, cfg)


def test_train_config_fields_are_the_settable_ones():
    # the rest of the recipe is fixed; the manifest still records it
    fields = [f.name for f in dataclasses.fields(TrainConfig)]
    assert fields == ["epochs", "early_stop", "seed"]
    assert TrainConfig(epochs=3).record() == {
        "epochs": 3, "batch": 64, "lr": 5e-4, "weight_decay": 1e-6}
    with pytest.raises(TypeError):
        TrainConfig(lr=1e-3)


def test_forward_helper_standardizes(rng):
    net = MLP([2, 4, 2], seed=5)
    st = Standardizer(mean=np.array([1.0, -1.0]), std=np.array([2.0, 0.5]))
    x = rng.standard_normal((3, 2))
    assert np.array_equal(net.forward(x, st),
                          net.forward(st.transform(x), IDENTITY))


def test_supervised_data_batch_loss(rng):
    n = 3
    targets = rng.standard_normal((5, n))
    squares = np.einsum("sn,sn->s", targets, targets)
    data = SupervisedData(features=rng.standard_normal((5, 2)), gram=np.eye(n),
                          targets=targets, squares=squares)
    # with G = I and squares = |t|^2 the loss is the plain squared distance
    loss, _ = data.batch_loss(np.arange(5), targets)
    assert np.isclose(loss, 0.0, atol=1e-12)
    c = targets + 1.0
    loss, _ = data.batch_loss(np.arange(5), c)
    assert np.isclose(loss, n)
