"""Batch forward/backward kernels for the dense ReLU network.

One vectorised numpy implementation. The layer matmuls run through BLAS;
bias, ReLU and the pinball loss are elementwise numpy operations.
Subgradient conventions: ReLU'(0) = 0 and pinball'(0) = tau.

Parameters are stored as one flat float64 vector: for each layer, the
weight matrix in row-major (out, in) order followed by the bias vector.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel backend."""
    return "numpy"


def layer_offsets(layer_sizes):
    """Flat-vector offsets (weights, biases) per layer and the total length."""
    w_offs, b_offs = [], []
    off = 0
    for l in range(len(layer_sizes) - 1):
        w_offs.append(off)
        off += layer_sizes[l + 1] * layer_sizes[l]
        b_offs.append(off)
        off += layer_sizes[l + 1]
    return (np.asarray(w_offs, dtype=np.int64),
            np.asarray(b_offs, dtype=np.int64),
            off)


def _layer_views(params, sizes, w_offs, b_offs):
    for l in range(len(sizes) - 1):
        din, dout = sizes[l], sizes[l + 1]
        w = params[w_offs[l]:w_offs[l] + dout * din].reshape(dout, din)
        b = params[b_offs[l]:b_offs[l] + dout]
        yield w, b


def forward_batch(params, sizes, w_offs, b_offs, X):
    n_layers = len(sizes) - 1
    a = X
    for l, (w, b) in enumerate(_layer_views(params, sizes, w_offs, b_offs)):
        z = a @ w.T + b
        a = np.maximum(z, 0.0) if l < n_layers - 1 else z
    return a[:, 0]


def loss_grad_batch(params, sizes, w_offs, b_offs, X, y, tau):
    n = X.shape[0]
    n_layers = len(sizes) - 1
    layers = list(_layer_views(params, sizes, w_offs, b_offs))

    acts = [X]
    zs = []
    a = X
    for l, (w, b) in enumerate(layers):
        z = a @ w.T + b
        zs.append(z)
        a = np.maximum(z, 0.0) if l < n_layers - 1 else z
        acts.append(a)

    pred = acts[-1][:, 0]
    e = y - pred
    neg = e < 0.0
    loss = float(np.mean(np.where(neg, (tau - 1.0) * e, tau * e)))
    # d(loss)/d(pred); at e == 0 the subgradient convention gives -tau.
    dpred = np.where(neg, 1.0 - tau, -tau) / n

    grad = np.zeros_like(params)
    delta = dpred[:, None]
    for l in range(n_layers - 1, -1, -1):
        w, _ = layers[l]
        gw = delta.T @ acts[l]
        gb = delta.sum(axis=0)
        grad[w_offs[l]:w_offs[l] + gw.size] = gw.ravel()
        grad[b_offs[l]:b_offs[l] + gb.size] = gb
        if l > 0:
            delta = (delta @ w) * (zs[l - 1] > 0.0)
    return loss, grad
