"""Batch forward/backward kernels for the dense ReLU network.

One numpy implementation; the layer matmuls run through BLAS. Each layer
allocates one new array, `a @ w.T`, and takes the bias and ReLU in place;
forward holds at most two layers. Backward masks delta in place, as
ReLU(z) > 0 iff z > 0, and writes each gradient into its view of the flat
vector. Subgradients: ReLU'(0) = 0, pinball'(0) = tau.

Two-thread forward: a batch of `_SPLIT_MIN_ROWS` to `_SPLIT_MAX_ROWS`
rows is cut at a 64-row boundary near its middle, and the hidden layers of
the two halves run at the same time, one on a worker thread started on
first use and one in the caller, with OpenBLAS held to one thread for the
length of the call. numpy's BLAS calls and ufuncs release the interpreter
lock, so the bias adds and ReLUs, which OpenBLAS never threads, run on
both cores too. The output layer then runs on all rows, as the unsplit
pass runs it, and the bytes equal the unsplit pass's. Outside that row
range, for hidden layers of unequal width, where numpy's BLAS does not
export `openblas_set_num_threads_local`, or while the process has another
Python thread than the worker, the unsplit `_forward` runs.
`loss_grad_batch` never splits; training's validation pass, a
`forward_batch`, splits where the validation set is in that row range.

Allocator policy: at import, glibc's mmap threshold is set to 32 MiB and its
trim threshold to 64 MiB for the whole process, the ceilings its own sliding
threshold reaches on 64-bit. By default glibc serves each freed 0.5-2 MB
layer array from mmap, or trims it off the heap top, until it has seen a
larger free, and the next pass faults every page back in: 873-1009 minor
faults per 4096-row forward pass of 2-64-64-64-1 and 133-148 per 256-row
loss and gradient, against 0-4 with the thresholds set (forward 4.4-5.1 ms
-> 2.9-3.0 ms on a 2-vCPU host). Two alternatives lost: per-layer buffers kept here gained
less and raised normal-normal peak RSS by 4.9-8.7%, and row chunks run as
whole passes changed the forward bytes. Where mallopt is missing nothing is set.

Parameters are stored as one flat float64 vector: for each layer, the
weight matrix in row-major (out, in) order followed by the bias vector.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
import time

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


_keep_freed_arrays()


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


def _activations(params, sizes, w_offs, b_offs, X, out=None):
    """Each layer's output in turn: ReLU on every layer but the last. Given
    `out`, two arrays of the hidden layers' common width, only the hidden
    layers run, writing into the two by turns so that the last lands in
    out[0]."""
    layers = layer_views(params, sizes, w_offs, b_offs)
    if out is not None:
        layers = list(layers)[:-1]
    a = X
    for l, (w, b) in enumerate(layers):
        a = np.matmul(a, w.T, out=None if out is None else out[(len(sizes) - 3 - l) % 2])
        a += b
        if l < len(sizes) - 2:
            np.maximum(a, 0.0, out=a)
        yield a


def _forward(params, sizes, w_offs, b_offs, X):
    for a in _activations(params, sizes, w_offs, b_offs, X):
        pass
    return a[:, 0]


def _blas_thread_setter():
    """OpenBLAS's `openblas_set_num_threads_local`, which sets the thread
    count and returns the one it replaces, or None where numpy's BLAS does
    not export it. In a pthreads build of OpenBLAS it sets the process-wide
    count, so one call in the caller covers both halves of a split."""
    try:
        from numpy._core import _multiarray_umath
        setter = ctypes.CDLL(_multiarray_umath.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = (ctypes.c_int,), ctypes.c_int
    return setter


# Row counts where the split pays, from split/unsplit time per call on a
# 2-vCPU host, 2-64-64-64-1 (medians over 6-8 alternating processes): 1024
# rows 1.21, 2048 0.99, 3072 0.95, 4096 0.87, 7100 0.88, 7300 1.40. From
# about 7200 rows on OpenBLAS threads the output layer's matrix-vector
# product, and its pool thread, left spinning, takes a core from the next
# call's halves.
_SPLIT_MIN_ROWS, _SPLIT_MAX_ROWS = 3072, 7168
_SPLIT_ALIGN = 64
# Both sides of a split poll for this long before they block: waking a
# blocked thread is slow on a shared 2-vCPU host, and polling took an
# EU-like loop of 4096-row passes from 0.85-0.94x of the unsplit time to
# 0.77-0.90x. About two EU queries' worth of time.
_POLL_S = 0.005
_set_blas_threads = _blas_thread_setter()
_worker = None


def _drop_worker():
    """A forked child has no copy of the worker thread; start a new one."""
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_worker)


def _next(q):
    """The next item of q: poll for _POLL_S, then block."""
    deadline = time.monotonic() + _POLL_S
    while time.monotonic() < deadline:
        try:
            return q.get_nowait()
        except queue.Empty:
            time.sleep(0)
    return q.get()


def _hidden(*args):
    """The hidden layers of one half: `_activations` with `out`."""
    for _ in _activations(*args):
        pass


def _serve(jobs, results):
    """The worker thread: runs the hidden layers of one half per job and
    answers None or the error they raised."""
    while True:
        job = _next(jobs)
        try:
            _hidden(*job)
            error = None
        except Exception as exc:  # raised again in the caller
            error = exc
        # dropped before the answer, so that the caller frees the split's
        # arrays when it returns and the next split reuses their pages
        del job
        results.put(error)


def forward_batch(params, sizes, w_offs, b_offs, X):
    """Net output per row of X; for a large X, the hidden layers run in two
    row halves at once and the output layer on all rows."""
    global _worker
    n = X.shape[0]
    # The BLAS thread count is process-wide, so no split while any other
    # Python thread than the worker could call BLAS: at one thread its
    # bytes can differ (the output layer from about 7200 rows on).
    if (not _SPLIT_MIN_ROWS <= n <= _SPLIT_MAX_ROWS or _set_blas_threads is None
            or threading.active_count() > 1 + (_worker is not None)
            or len(set(sizes[1:-1])) != 1):
        return _forward(params, sizes, w_offs, b_offs, X)
    if _worker is None:
        _worker = (queue.SimpleQueue(), queue.SimpleQueue())
        threading.Thread(target=_serve, args=_worker, name="quantmeu-forward",
                         daemon=True).start()
    jobs, results = _worker
    hidden = np.empty((n, int(sizes[1])))
    spare = np.empty_like(hidden)
    cut = n // 2 // _SPLIT_ALIGN * _SPLIT_ALIGN
    threads = _set_blas_threads(1)
    try:
        jobs.put((params, sizes, w_offs, b_offs, X[:cut], (hidden[:cut], spare[:cut])))
        try:
            _hidden(params, sizes, w_offs, b_offs, X[cut:], (hidden[cut:], spare[cut:]))
        finally:
            try:
                error = _next(results)
            except BaseException:
                # interrupted while waiting: this job's result would answer
                # the next split, so the worker is dropped, and its thread,
                # still alive, keeps later passes unsplit
                _worker = None
                raise
    finally:
        _set_blas_threads(threads)
    if error is not None:
        raise error
    # The output layer is a matrix-vector product that OpenBLAS threads from
    # about 7200 rows on, and its bytes depend on where its threads cut the
    # rows, so it runs as the unsplit pass runs it.
    w, b = list(layer_views(params, sizes, w_offs, b_offs))[-1]
    a = hidden @ w.T
    a += b
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
