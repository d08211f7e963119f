"""Quantile network: loss, Adam, training loop, gradients, serialization."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from quantmeu import DenseNet, grad_check
from quantmeu import _kernels as K
from quantmeu.errors import DataError, DomainError, NumericError, ShapeError
from quantmeu.net import (TrainConfig, _adam_update_inplace, load_net,
                          net_from_document, net_to_document, save_net, train)


def toy_net(sizes=(2, 8, 1), seed=0):
    return DenseNet.initialized(sizes, seed=seed)


def _forward(net, x):
    """The net at one input vector: the scalar reference for the batch kernel."""
    return float(net.predict(np.asarray(x, dtype=np.float64)[None, :])[0])


def _pinball_loss(prediction, target, tau):
    """Quantile check loss at one point; minimised in expectation at the tau-quantile."""
    e = target - prediction
    return tau * e if e >= 0.0 else (tau - 1.0) * e


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_initialized_shapes_and_ranges():
    net = toy_net((3, 16, 8, 1), seed=4)
    assert net.input_dim == 3
    assert net.params.size == (3 * 16 + 16) + (16 * 8 + 8) + (8 * 1 + 1)
    for (w, b), fan_in in zip(net.layers(), (3, 16, 8)):
        bound = math.sqrt(6.0 / fan_in)
        assert np.all(np.abs(w) <= bound)
        assert np.all(b == 0.0)


def test_initialized_is_seeded():
    a = toy_net(seed=9)
    b = toy_net(seed=9)
    c = toy_net(seed=10)
    np.testing.assert_array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)


def test_output_layer_must_be_scalar():
    with pytest.raises(ShapeError):
        DenseNet.initialized((2, 4, 3))


def test_params_length_checked():
    with pytest.raises(ShapeError):
        DenseNet(layer_sizes=(2, 4, 1), params=np.zeros(3))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(validation_fraction=1.0)


# ---------------------------------------------------------------------------
# pinball loss
# ---------------------------------------------------------------------------

def test_pinball_loss_values():
    # [TRIVIAL] direct evaluations of e*(tau - 1{e<0})
    assert _pinball_loss(0.0, 2.0, 0.3) == pytest.approx(0.6)
    assert _pinball_loss(2.0, 0.0, 0.3) == pytest.approx(1.4)
    assert _pinball_loss(1.0, 1.0, 0.7) == 0.0


def test_pinball_loss_minimised_at_quantile():
    # [DERIVED] for a finite sample, mean pinball over c is minimised at
    # the empirical tau-quantile
    rng = np.random.default_rng(3)
    y = rng.normal(size=2001)
    tau = 0.25
    cs = np.linspace(-2, 2, 801)
    losses = [np.mean([_pinball_loss(c, t, tau) for t in y]) for c in cs]
    assert cs[int(np.argmin(losses))] == pytest.approx(
        np.quantile(y, tau), abs=0.02)


def test_pinball_loss_rejects_bad_tau():
    net = toy_net()
    X, y = np.zeros((1, 2)), np.zeros(1)
    for tau in (0.0, 1.0, -0.5):
        with pytest.raises(DomainError):
            grad_check(net, X, y, [tau])
        with pytest.raises(DomainError):
            train(net, X, y, [tau])


# ---------------------------------------------------------------------------
# one row against the batch
# ---------------------------------------------------------------------------

def test_forward_matches_predict():
    net = toy_net(seed=1)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 2))
    preds = net.predict(X)
    for i in range(6):
        # single-row and batched BLAS calls may round differently
        assert _forward(net, X[i]) == pytest.approx(preds[i], rel=1e-12)


def test_forward_rejects_wrong_dim():
    with pytest.raises(ShapeError):
        toy_net().predict([[1.0, 2.0, 3.0]])


def test_backward_loss_matches_pointwise():
    net = toy_net(seed=2)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(15, 2))
    y = rng.normal(size=15)
    tau = rng.uniform(0.1, 0.9, size=15)
    loss, grads = K.loss_grad_batch(net.params, net._sizes, net._w_offs,
                                    net._b_offs, X, y, tau)
    manual = np.mean([_pinball_loss(_forward(net, X[i]), y[i], tau[i])
                      for i in range(15)])
    assert loss == pytest.approx(manual, rel=1e-12)
    assert grads.shape == net.params.shape


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_optimizer_step_matches_reference_adam():
    # [DERIVED] textbook bias-corrected Adam iterated with plain numpy
    net = toy_net(seed=3)
    rng = np.random.default_rng(8)
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    p = net.params.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    params = net.params.copy()
    m_acc = np.zeros_like(params)
    v_acc = np.zeros_like(params)
    for t in range(1, 6):
        g = rng.normal(size=p.shape)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        p = p - lr * mh / (np.sqrt(vh) + eps)
        _adam_update_inplace(params, m_acc, v_acc, t, g, lr, b1, b2, eps)
    np.testing.assert_allclose(params, p, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def linear_problem(n=800, seed=0):
    # target quantile is exactly linear in (x, tau): y = 2x + quantile noise
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=n)
    tau = rng.uniform(0.01, 0.99, size=n)
    y = 2.0 * x + rng.normal(scale=0.1, size=n)
    return x.reshape(-1, 1), y, tau


def test_train_learns_conditional_location():
    X, y, tau = linear_problem()
    Xt = np.column_stack([X[:, 0], tau])
    cfg = TrainConfig(max_epochs=60, patience=60, seed=0, batch_size=128)
    net, hist = train(DenseNet.initialized((2, 32, 32, 1), seed=1),
                      Xt, y, tau, cfg)
    grid = np.array([[0.5, 0.5], [-0.5, 0.5]])
    preds = net.predict(grid)
    assert preds[0] == pytest.approx(1.0, abs=0.1)
    assert preds[1] == pytest.approx(-1.0, abs=0.1)
    assert hist.best_epoch >= 0
    assert len(hist.train_loss) == len(hist.val_loss)
    assert hist.val_loss[hist.best_epoch] == min(hist.val_loss)


def test_train_is_deterministic():
    X, y, tau = linear_problem(n=300)
    Xt = np.column_stack([X[:, 0], tau])
    cfg = TrainConfig(max_epochs=10, patience=10, seed=7)
    net1, h1 = train(DenseNet.initialized((2, 8, 1), seed=2), Xt, y, tau, cfg)
    net2, h2 = train(DenseNet.initialized((2, 8, 1), seed=2), Xt, y, tau, cfg)
    np.testing.assert_array_equal(net1.params, net2.params)
    assert h1.train_loss == h2.train_loss


def test_train_early_stopping_respects_patience():
    X, y, tau = linear_problem(n=300)
    Xt = np.column_stack([X[:, 0], tau])
    cfg = TrainConfig(max_epochs=500, patience=3, seed=0)
    net, hist = train(DenseNet.initialized((2, 8, 1), seed=2), Xt, y, tau, cfg)
    assert hist.stopped_epoch < 499
    assert hist.stopped_epoch - hist.best_epoch >= 3


def assert_diverges_at_epoch_0_without_a_warning(n, validation_fraction):
    # at this learning rate the first epoch's validation loss is nan; the
    # overflow on the way is reported only by the error
    X, y, tau = linear_problem(n=n)
    Xt = np.column_stack([X[:, 0], tau])
    cfg = TrainConfig(learning_rate=1e300, max_epochs=5, patience=2,
                      validation_fraction=validation_fraction)
    with warnings.catch_warnings(record=True) as seen, \
            pytest.raises(NumericError, match="epoch 0"):
        warnings.simplefilter("always")
        train(DenseNet.initialized((2, 8, 1), seed=2), Xt, y, tau, cfg)
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


def test_train_divergence_is_numeric_error():
    assert_diverges_at_epoch_0_without_a_warning(300, 0.1)


def test_train_divergence_in_a_split_validation_pass_warns_nothing():
    # one step per epoch, then a 3800-row validation pass that runs as
    # three row blocks: every block overflows under train's error state
    assert_diverges_at_epoch_0_without_a_warning(4000, 0.95)


def test_train_stores_standardization():
    rng = np.random.default_rng(0)
    x = rng.uniform(100, 200, size=400)
    tau = rng.uniform(0.01, 0.99, size=400)
    y = 1000.0 + x + rng.normal(size=400)
    Xt = np.column_stack([x, tau])
    cfg = TrainConfig(max_epochs=40, patience=40, seed=0)
    net, _ = train(DenseNet.initialized((2, 16, 1), seed=3), Xt, y, tau, cfg)
    assert net.x_mean[0] == pytest.approx(150, abs=5)
    assert net.y_mean == pytest.approx(1150, abs=5)
    pred = net.predict(np.array([[150.0, 0.5]]))[0]
    assert pred == pytest.approx(1150.0, abs=10)


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------

def test_grad_check_small_on_smooth_config():
    rng = np.random.default_rng(12)
    net = toy_net((2, 8, 8, 1), seed=5)
    X = rng.normal(size=(9, 2))
    y = rng.normal(size=9)
    tau = rng.uniform(0.1, 0.9, size=9)
    res = grad_check(net, X, y, tau)
    assert res.max_rel_error < 1e-4
    assert 0 <= res.worst_index < net.params.size


def test_grad_check_flags_broken_gradient(monkeypatch):
    # corrupting the analytic gradient must blow the check up
    import quantmeu.net as qnet
    real = qnet._kernels.loss_grad_batch

    def broken(params, sizes, w_offs, b_offs, X, y, tau):
        loss, g = real(params, sizes, w_offs, b_offs, X, y, tau)
        g = g.copy()
        g[0] += 0.5
        return loss, g

    monkeypatch.setattr(qnet._kernels, "loss_grad_batch", broken)
    rng = np.random.default_rng(13)
    net = toy_net(seed=6)
    res = qnet.grad_check(net, rng.normal(size=(6, 2)),
                          rng.normal(size=6),
                          rng.uniform(0.1, 0.9, size=6))
    assert res.max_rel_error > 0.01
    assert res.worst_index == 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_document_roundtrip_exact():
    net = toy_net((3, 8, 4, 1), seed=8)
    doc = net_to_document(net)
    back = net_from_document(doc)
    np.testing.assert_array_equal(back.params, net.params)
    assert back.layer_sizes == net.layer_sizes
    np.testing.assert_array_equal(back.x_mean, net.x_mean)


def test_file_roundtrip_preserves_predictions(tmp_path):
    X, y, tau = linear_problem(n=200)
    Xt = np.column_stack([X[:, 0], tau])
    cfg = TrainConfig(max_epochs=5, patience=5, seed=1)
    net, _ = train(DenseNet.initialized((2, 8, 1), seed=4), Xt, y, tau, cfg)
    path = tmp_path / "net.json"
    save_net(net, path)
    back = load_net(path)
    probe = np.array([[0.3, 0.7], [-0.2, 0.1]])
    np.testing.assert_array_equal(back.predict(probe), net.predict(probe))
    assert back.train_config == net.train_config


def test_from_document_rejects_bad_format():
    doc = net_to_document(toy_net())
    bad = dict(doc)
    bad["format"] = "something-else"
    with pytest.raises(DataError):
        net_from_document(bad)
    bad = dict(doc)
    bad["version"] = 99
    with pytest.raises(DataError):
        net_from_document(bad)


def test_from_document_rejects_shape_mismatch():
    doc = net_to_document(toy_net())
    bad = dict(doc)
    bad["layer_sizes"] = [2, 9, 1]
    with pytest.raises(DataError):
        net_from_document(bad)


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("standardization"),
    lambda doc: doc["standardization"].pop("y_scale"),
    lambda doc: doc["standardization"].update(y_scale=0.0),
    lambda doc: doc["standardization"].update(y_scale=-1.0),
    lambda doc: doc["standardization"].update(x_scale=[0.0, 1.0]),
    lambda doc: doc["standardization"].update(x_mean=[math.nan, 0.0]),
], ids=["no-block", "no-y-scale", "y-scale-0", "y-scale-neg", "x-scale-0", "x-mean-nan"])
def test_from_document_requires_valid_standardization(edit):
    doc = net_to_document(toy_net())
    edit(doc)
    with pytest.raises(DataError):
        net_from_document(doc)
