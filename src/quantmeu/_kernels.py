"""Batch forward/backward kernels for the dense ReLU network.

One numpy implementation; the layer matmuls run through BLAS. Each layer
allocates one new array, `a @ w.T`, and takes the bias and ReLU in place;
forward holds at most two layers. Backward masks delta in place, as
ReLU(z) > 0 iff z > 0, and writes each gradient into its view of the flat
vector. Fresh (rows x 64) temporaries cost page faults: 1984 per 4096-row
forward pass with three per layer, 1009 with one. Row chunking and kept
buffers were tried and lost. Subgradients: ReLU'(0) = 0, pinball'(0) = tau.

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


def layer_views(params, sizes, w_offs, b_offs):
    """(weights (out, in), biases) views of each layer into the flat vector."""
    for l in range(len(sizes) - 1):
        din, dout = sizes[l], sizes[l + 1]
        w = params[w_offs[l]:w_offs[l] + dout * din].reshape(dout, din)
        b = params[b_offs[l]:b_offs[l] + dout]
        yield w, b


def _activations(params, sizes, w_offs, b_offs, X):
    """Each layer's output in turn: ReLU on every layer but the last."""
    a = X
    for l, (w, b) in enumerate(layer_views(params, sizes, w_offs, b_offs)):
        a = a @ w.T
        a += b
        if l < len(sizes) - 2:
            np.maximum(a, 0.0, out=a)
        yield a


def forward_batch(params, sizes, w_offs, b_offs, X):
    for a in _activations(params, sizes, w_offs, b_offs, X):
        pass
    return a[:, 0]


def loss_grad_batch(params, sizes, w_offs, b_offs, X, y, tau):
    acts = [X, *_activations(params, sizes, w_offs, b_offs, X)]
    e = y - acts[-1][:, 0]
    neg = e < 0.0
    loss = float(np.mean(np.where(neg, (tau - 1.0) * e, tau * e)))
    # d(loss)/d(pred); at e == 0 the subgradient convention gives -tau.
    dpred = np.where(neg, 1.0 - tau, -tau) / X.shape[0]

    grad = np.empty_like(params)
    layers = list(zip(layer_views(params, sizes, w_offs, b_offs),
                      layer_views(grad, sizes, w_offs, b_offs)))
    delta = dpred[:, None]
    for l in range(len(layers) - 1, -1, -1):
        (w, _), (gw, gb) = layers[l]
        np.matmul(delta.T, acts[l], out=gw)
        np.sum(delta, axis=0, out=gb)
        if l > 0:
            delta = delta @ w
            delta *= acts[l] > 0.0
    return loss, grad
