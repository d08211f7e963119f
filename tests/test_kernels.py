"""Batch kernels: layout, per-sample oracle, and finite-difference gradients.

Oracle: a pure-Python per-unit forward pass and the pinball-loss formula
written out directly, so neither depends on the vectorised kernels.
"""

import os
import platform
import subprocess
import sys
import tracemalloc

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
    # every entry of a three-hidden-layer net: the gradient is filled through
    # per-layer views, so an entry left unwritten would hold garbage
    sz, w_offs, b_offs, params, X, y, tau = make_case(13, (2, 8, 8, 8, 1), 17)
    _, grad = K.loss_grad_batch(params, sz, w_offs, b_offs, X, y, tau)
    eps = 1e-6
    for i in range(len(params)):
        p = params.copy()
        p[i] += eps
        lp, _ = K.loss_grad_batch(p, sz, w_offs, b_offs, X, y, tau)
        p[i] -= 2 * eps
        lm, _ = K.loss_grad_batch(p, sz, w_offs, b_offs, X, y, tau)
        fd = (lp - lm) / (2 * eps)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_grad_not_aliased_across_calls():
    sz, w_offs, b_offs, params, X, y, tau = make_case(17, (2, 8, 8, 8, 1), 29)
    kept = params.copy()
    _, grad = K.loss_grad_batch(params, sz, w_offs, b_offs, X, y, tau)
    first = grad.copy()
    _, grad2 = K.loss_grad_batch(params, sz, w_offs, b_offs, X[::-1].copy(), y, tau)
    assert not np.array_equal(grad2, first)
    assert not np.shares_memory(grad, grad2)
    np.testing.assert_array_equal(grad, first)
    np.testing.assert_array_equal(params, kept)


def _peak_arrays(fn, n):
    """Peak traced bytes of one call, in units of one (n, 64) float64 array."""
    fn()  # first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (n * 64 * 8)


def test_kernels_allocate_one_array_per_layer():
    # 2-64-64-64-1 at 4096 rows: the forward pass holds two layers' outputs
    # at a time (2.03); the backward pass keeps the three hidden activations
    # and adds two deltas (5.08). Three temporaries per layer and a kept
    # pre-activation list, as the kernels once had, measured 4.03 and 8.26.
    n = 4096
    sz, w_offs, b_offs, params, X, y, tau = make_case(19, (2, 64, 64, 64, 1), n)
    fwd = _peak_arrays(lambda: K.forward_batch(params, sz, w_offs, b_offs, X), n)
    bwd = _peak_arrays(lambda: K.loss_grad_batch(params, sz, w_offs, b_offs, X, y, tau), n)
    assert fwd <= 2.5
    assert bwd <= 6.0


_FAULTS_PER_CALL = """
import resource
import numpy as np
from quantmeu import _kernels as K
rng = np.random.default_rng(19)
sizes = np.asarray((2, 64, 64, 64, 1), dtype=np.int64)
w_offs, b_offs, n_params = K.layer_offsets(sizes)
params = rng.normal(size=n_params)
X4096, X, y = rng.normal(size=(4096, 2)), rng.normal(size=(256, 2)), rng.normal(size=256)
tau = rng.uniform(0.02, 0.98, size=256)
for fn in (lambda: K.loss_grad_batch(params, sizes, w_offs, b_offs, X, y, tau),
           lambda: K.forward_batch(params, sizes, w_offs, b_offs, X4096)):
    fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        fn()
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator policy")
def test_kernels_reuse_freed_layer_arrays():
    # Under glibc's default thresholds each freed (rows x 64) layer array goes
    # back to the kernel, and the next call faults its pages in again: this
    # script then counts about 148 and 983 per call. A fresh process, since
    # earlier large frees in this one move glibc's sliding thresholds.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(K.__file__)))
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_CALL], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    loss_grad, forward = map(float, out)
    assert loss_grad < 16
    assert forward < 16


def test_backend_reports_active_path():
    assert K.backend() == "numpy"
