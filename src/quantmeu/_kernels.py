"""Batch forward/backward kernels for the dense ReLU network.

One numpy implementation; the layer matmuls run through BLAS. Each layer
allocates one new array, `a @ w.T`, and takes the bias and ReLU in place.
Backward masks delta in place, as ReLU(z) > 0 iff z > 0, and writes each
gradient into its view of the flat vector. Subgradients: ReLU'(0) = 0,
pinball'(0) = tau.

Row blocks: `forward_batch` runs its rows as consecutive blocks of
`_BLOCK_ROWS` rows, the last block taking the remainder (1024-2047 rows),
and writes each block's output into one new output vector. It holds at
most two layers of one block at a time, so its memory does not grow with
the row count. Each block starts a multiple of 1024 rows into the pass, and
no block is shorter than 1024 rows unless the whole pass is, so the bytes
equal one whole pass's; a shorter tail block takes another OpenBLAS kernel
path and gives other bytes. `loss_grad_batch` runs whole: its row sums
would change bytes if cut. Both run in the calling thread.

BLAS thread policy: at import, OpenBLAS is set to one thread for the whole
process, through `openblas_set_num_threads_local`; nothing here changes it
again. A threaded OpenBLAS cuts the output layer's matrix-vector product
(from about 7200 rows of 2-64-64-64-1) and some gradient products (1000
and 1025 rows) by its thread count, so their bytes would depend on the
host's cores. Where the symbol is missing nothing is set.

Allocator policy: at import, glibc's mmap threshold is set to 32 MiB and its
trim threshold to 64 MiB for the whole process, the ceilings its own sliding
threshold reaches on 64-bit. By default glibc serves each freed 0.5-2 MB
layer array from mmap, or trims it off the heap top, until it has seen a
larger free, and the next pass faults every page back in: 873-1009 minor
faults per 4096-row forward pass of 2-64-64-64-1 and 133-148 per 256-row
loss and gradient, against 0-4 with the thresholds set (forward 4.4-5.1 ms
-> 2.9-3.0 ms on a 2-vCPU host). Per-layer buffers kept here lost: they
gained less and raised normal-normal peak RSS by 4.9-8.7%. Where mallopt is
missing nothing is set.

Parameters are stored as one flat float64 vector: for each layer, the
weight matrix in row-major (out, in) order followed by the bias vector.
"""

from __future__ import annotations

import ctypes

import numpy as np


def _keep_freed_arrays():
    """Raise glibc's mmap and trim thresholds to their 64-bit ceilings
    (4 MiB per byte of a long, and twice that), so freed layer arrays stay in
    the heap; nothing where the C library has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mmap_max = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
    # M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1 in glibc's malloc.h
    for param, value in ((-3, mmap_max), (-1, 2 * mmap_max)):
        if mallopt(param, value) != 1:
            raise OSError(f"mallopt({param}, {value}) was refused")


def _blas_thread_setter():
    """OpenBLAS's `openblas_set_num_threads_local`, which sets the thread
    count and returns the one it replaces, or None where numpy's BLAS does
    not export it. In a pthreads build of OpenBLAS it sets the process-wide
    count."""
    try:
        from numpy._core import _multiarray_umath
        setter = ctypes.CDLL(_multiarray_umath.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = (ctypes.c_int,), ctypes.c_int
    return setter


_keep_freed_arrays()
_set_blas_threads = _blas_thread_setter()
if _set_blas_threads is not None:
    _set_blas_threads(1)


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


# `forward_batch`'s row block; the last block takes the remainder (see above)
_BLOCK_ROWS = 1024


def forward_batch(params, sizes, w_offs, b_offs, X):
    """Net output per row of X, in one new vector, one row block at a time."""
    n = X.shape[0]
    out = np.empty(n)
    starts = range(0, max(n - _BLOCK_ROWS, 0) + 1, _BLOCK_ROWS)
    for start, stop in zip(starts, [*starts[1:], n]):
        for a in _activations(params, sizes, w_offs, b_offs, X[start:stop]):
            pass
        out[start:stop] = a[:, 0]
    return out


def pinball(e, tau):
    """Mean pinball loss of the residuals e = y - prediction, and each row's
    slope q of that loss in e: tau where e >= 0, tau - 1 where e < 0."""
    q = tau - (e < 0.0)
    return float(np.mean(q * e)), q


def loss_grad_batch(params, sizes, w_offs, b_offs, X, y, tau):
    acts = [X, *_activations(params, sizes, w_offs, b_offs, X)]
    e = y - acts[-1][:, 0]
    loss, q = pinball(e, tau)
    # d(loss)/d(pred); at e == 0 the subgradient convention gives -tau.
    dpred = q / -X.shape[0]

    grad = np.empty_like(params)
    layers = list(zip(layer_views(params, sizes, w_offs, b_offs),
                      layer_views(grad, sizes, w_offs, b_offs)))
    delta = dpred[:, None]
    for l in range(len(layers) - 1, -1, -1):
        (w, _), (gw, gb) = layers[l]
        np.matmul(delta.T, acts[l], out=gw)
        np.sum(delta, axis=0, out=gb)
        if l > 0:
            # the output layer's delta has one column: a product, not a K=1 matmul
            delta = delta * w if l == len(layers) - 1 else delta @ w
            delta *= acts[l] > 0.0
    return loss, grad
