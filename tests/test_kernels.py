"""Batch kernels: layout, per-sample oracle, and finite-difference gradients.

Oracle: a pure-Python per-unit forward pass and the pinball-loss formula
written out directly, so neither depends on the vectorised kernels.
"""

import numpy as np
import pytest

from quantmeu import _kernels as K


def make_case(seed, sizes, n):
    rng = np.random.default_rng(seed)
    sizes = np.asarray(sizes, dtype=np.int64)
    w_offs, b_offs, n_params = K.layer_offsets(sizes)
    params = rng.normal(size=n_params)
    X = rng.normal(size=(n, int(sizes[0])))
    y = rng.normal(size=n)
    tau = rng.uniform(0.02, 0.98, size=n)
    return sizes, w_offs, b_offs, params, X, y, tau


def manual_forward(sizes, w_offs, b_offs, params, X):
    # [DERIVED] per-sample per-unit loops, no matrix algebra
    out = []
    n_layers = len(sizes) - 1
    for x in X:
        a = list(x)
        for l in range(n_layers):
            din, dout = int(sizes[l]), int(sizes[l + 1])
            nxt = []
            for j in range(dout):
                s = params[b_offs[l] + j]
                for k in range(din):
                    s += params[w_offs[l] + j * din + k] * a[k]
                if l < n_layers - 1 and s < 0.0:
                    s = 0.0
                nxt.append(s)
            a = nxt
        out.append(a[0])
    return np.array(out)


def manual_pinball(pred, y, tau):
    e = y - pred
    return float(np.mean(e * (tau - (e < 0.0))))


def test_layer_offsets_layout():
    sizes = np.array([4, 8, 3, 1], dtype=np.int64)
    w_offs, b_offs, n_params = K.layer_offsets(sizes)
    assert n_params == (4 * 8 + 8) + (8 * 3 + 3) + (3 * 1 + 1)
    # weights of layer l come first, then its bias, then the next layer
    assert w_offs[0] == 0
    assert b_offs[0] == 4 * 8
    assert w_offs[1] == b_offs[0] + 8
    assert b_offs[-1] + 1 == n_params


@pytest.mark.parametrize("sizes", [(2, 5, 1), (3, 16, 8, 1), (1, 4, 4, 4, 1)])
def test_forward_numpy_matches_manual(sizes):
    sz, w_offs, b_offs, params, X, y, tau = make_case(7, sizes, 23)
    got = K.forward_batch(params, sz, w_offs, b_offs, X)
    expected = manual_forward(sz, w_offs, b_offs, params, X)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_loss_numpy_matches_manual():
    sz, w_offs, b_offs, params, X, y, tau = make_case(11, (3, 16, 8, 1), 41)
    loss, _ = K.loss_grad_batch(params, sz, w_offs, b_offs, X, y, tau)
    pred = K.forward_batch(params, sz, w_offs, b_offs, X)
    assert loss == pytest.approx(manual_pinball(pred, y, tau), rel=1e-12)


def test_grad_numpy_matches_finite_differences():
    sz, w_offs, b_offs, params, X, y, tau = make_case(13, (2, 8, 1), 17)
    _, grad = K.loss_grad_batch(params, sz, w_offs, b_offs, X, y, tau)
    eps = 1e-6
    for i in range(0, len(params), 5):
        p = params.copy()
        p[i] += eps
        lp, _ = K.loss_grad_batch(p, sz, w_offs, b_offs, X, y, tau)
        p[i] -= 2 * eps
        lm, _ = K.loss_grad_batch(p, sz, w_offs, b_offs, X, y, tau)
        fd = (lp - lm) / (2 * eps)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_backend_reports_active_path():
    assert K.backend() == "numpy"
