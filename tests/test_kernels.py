"""Batch kernels: layout, per-sample oracle, and finite-difference gradients.

Oracle: a pure-Python per-unit forward pass and the pinball-loss formula
written out directly, so neither depends on the vectorised kernels.
"""

import os
import platform
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _peak_bytes(fn):
    """Peak traced bytes of one call."""
    fn()  # first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_allocate_one_array_per_layer():
    # 2-64-64-64-1. The forward pass runs row blocks of 1024-2047 rows and
    # holds two layers' outputs at a time, so beside its output vector it
    # stays near two 2047-row layer arrays at any row count (2.07 of them at
    # 4095 rows, whose last block has 2047, 1.07 at 4096 and 65,536, 1.83 at
    # 10,000; with a second thread running half the rows, 10,000 took 3.84,
    # and a whole unblocked pass held 63.6 at 65,536). The backward
    # pass keeps the three hidden activations and adds two deltas: 5.08
    # arrays of (4096, 64). Three temporaries per layer and a kept
    # pre-activation list, as the kernels once had, measured 4.03 and 8.26
    # arrays of (4096, 64).
    block = 2047 * 64 * 8
    for n in (4095, 4096, 10_000, 65_536):
        sz, w_offs, b_offs, params, X, y, tau = make_case(19, PRODUCTION, n)
        fwd = _peak_bytes(lambda: K.forward_batch(params, sz, w_offs, b_offs, X))
        assert fwd <= 2.25 * block + 8 * n
    sz, w_offs, b_offs, params, X, y, tau = make_case(19, PRODUCTION, 4096)
    bwd = _peak_bytes(lambda: K.loss_grad_batch(params, sz, w_offs, b_offs, X, y, tau))
    assert bwd <= 6.0 * 4096 * 64 * 8


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
    # earlier large frees in this one move glibc's sliding thresholds. With
    # the thresholds set, 100 of 100 fresh runs counted 0 forward faults; a
    # second thread's half-pass, in a second glibc arena, counted 5.55-6.05
    # in 55 of 100.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(K.__file__)))
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_CALL], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    loss_grad, forward = map(float, out)
    assert loss_grad < 16
    assert forward < 2


PRODUCTION = (2, 64, 64, 64, 1)
needs_blas_setter = pytest.mark.skipif(
    K._set_blas_threads is None, reason="numpy's BLAS has no openblas_set_num_threads_local")


def _whole_pass(params, sizes, w_offs, b_offs, X):
    """Net output of one unblocked pass over all rows of X."""
    for a in K._activations(params, sizes, w_offs, b_offs, X):
        pass
    return a[:, 0]


# In the test names below, a split forward pass is `forward_batch` cut into
# row blocks, and an unsplit one is `_whole_pass`.
def _blocks_match_whole_pass(seed, n, sizes=PRODUCTION):
    """forward_batch, split into row blocks, gives one whole pass's bytes."""
    sz, w_offs, b_offs, params, X, y, tau = make_case(seed, sizes, n)
    got = K.forward_batch(params, sz, w_offs, b_offs, X)
    assert got.tobytes() == _whole_pass(params, sz, w_offs, b_offs, X).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30_000),
       sizes=st.sampled_from([PRODUCTION, (2, 32, 64, 16, 1), (3, 64, 64, 64, 1)]))
def test_split_forward_matches_unsplit_bytes(seed, n, sizes):
    _blocks_match_whole_pass(seed, n, sizes)


@pytest.mark.parametrize("n", [511, 512, 513, 1000, 1023, 1024, 1025, 2047, 2048, 2049,
                               3071, 3072, 3073, 3333, 4097, 7168, 7169, 7641, 9220,
                               10_000])
def test_split_forward_matches_unsplit_bytes_at_edges(n):
    # row-block edges, 1-row tails and odd row counts (plain 1024-row blocks
    # with a short last block gave other bytes at 2049 rows among others);
    # at 7641 rows a threaded output layer would give other bytes than one
    # BLAS thread
    _blocks_match_whole_pass(n, n)


_BLAS_THREADS = """
import numpy as np
from quantmeu import _kernels as K
setter = K._blas_thread_setter()
def threads():
    # the setter returns the count it replaces
    current = setter(1)
    setter(current)
    return current
print(threads())
rng = np.random.default_rng(23)
sizes = np.asarray((2, 64, 64, 64, 1), dtype=np.int64)
w_offs, b_offs, n_params = K.layer_offsets(sizes)
K.forward_batch(rng.normal(size=n_params), sizes, w_offs, b_offs, rng.normal(size=(4096, 2)))
print(threads())
"""


@needs_blas_setter
def test_import_holds_blas_to_one_thread():
    # a fresh process with two BLAS threads asked for: importing quantmeu
    # sets one for the whole process, and a forward pass leaves it there
    out = _run_script(_BLAS_THREADS, OPENBLAS_NUM_THREADS="2").split()
    assert out == ["1", "1"]


def test_split_forward_keeps_the_callers_error_state():
    # weights of 1e120 overflow by the third layer: every row block of the
    # pass ignores the overflow where the caller does, and raises where the
    # caller asks for it
    sz, w_offs, b_offs, params, X = make_case(53, PRODUCTION, 4096)[:5]
    params = params * 1e120
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with np.errstate(over="ignore", invalid="ignore"):
            out = K.forward_batch(params, sz, w_offs, b_offs, X)
    assert seen == [] and not np.isfinite(out).any()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        K.forward_batch(params, sz, w_offs, b_offs, X)


def where_loss_grad(params, sizes, w_offs, b_offs, X, y, tau):
    """loss_grad_batch as it was: two np.where expressions for the loss and
    its subgradient, and a K=1 matmul for the output layer's delta."""
    acts = [X, *K._activations(params, sizes, w_offs, b_offs, X)]
    e = y - acts[-1][:, 0]
    loss = float(np.mean(np.where(e < 0.0, (tau - 1.0) * e, tau * e)))
    delta = (np.where(e < 0.0, 1.0 - tau, -tau) / X.shape[0])[:, None]
    grad = np.empty_like(params)
    layers = list(zip(K.layer_views(params, sizes, w_offs, b_offs),
                      K.layer_views(grad, sizes, w_offs, b_offs)))
    for l in range(len(layers) - 1, -1, -1):
        (w, _), (gw, gb) = layers[l]
        np.matmul(delta.T, acts[l], out=gw)
        np.sum(delta, axis=0, out=gb)
        if l > 0:
            delta = delta @ w
            delta *= acts[l] > 0.0
    return loss, grad


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), ties=st.integers(0, 300),
       sizes=st.sampled_from([PRODUCTION, (2, 8, 1), (3, 16, 16, 1)]))
def test_loss_head_matches_where_expressions(seed, n, ties, sizes):
    sz, w_offs, b_offs, params, X, y, tau = make_case(seed, sizes, n)
    # the first `ties` rows get e == 0, where the subgradient is -tau / n
    y[:ties] = K.forward_batch(params, sz, w_offs, b_offs, X)[:ties]
    loss, grad = K.loss_grad_batch(params, sz, w_offs, b_offs, X, y, tau)
    old_loss, old_grad = where_loss_grad(params, sz, w_offs, b_offs, X, y, tau)
    assert np.float64(loss).tobytes() == np.float64(old_loss).tobytes()
    assert grad.tobytes() == old_grad.tobytes()
    # e = -0.0 does not come out of y - prediction; test it on the loss alone
    e = np.where(np.arange(n) % 3 == 0, -0.0, y - X[:, 0])
    assert K.pinball(e, tau)[0] == float(np.mean(np.where(e < 0.0, (tau - 1.0) * e, tau * e)))


@pytest.mark.parametrize("n", [40, 144, 256])
def test_split_forward_leaves_training_gradients_alone(n):
    # training's batch shapes at bench and preset scale: a row-blocked
    # forward pass between two gradient calls must change neither the loss
    # nor the gradient bytes
    sz, w_offs, b_offs, params, X, y, tau = make_case(29, PRODUCTION, n)
    X_big = make_case(31, PRODUCTION, 4096)[4]
    loss, grad = K.loss_grad_batch(params, sz, w_offs, b_offs, X, y, tau)
    K.forward_batch(params, sz, w_offs, b_offs, X_big)
    loss2, grad2 = K.loss_grad_batch(params, sz, w_offs, b_offs, X, y, tau)
    assert loss2 == loss
    assert grad2.tobytes() == grad.tobytes()


_THREADS_AFTER_PASSES = """
import os, threading
import numpy as np
from quantmeu import _kernels as K
rng = np.random.default_rng(37)
sizes = np.asarray((2, 64, 64, 64, 1), dtype=np.int64)
w_offs, b_offs, n_params = K.layer_offsets(sizes)
params = rng.normal(size=n_params)
X = rng.normal(size=(4096, 2))
def threads():
    if os.path.isdir("/proc/self/task"):
        return len(os.listdir("/proc/self/task"))
    return threading.active_count()
before = threads()
for _ in range(100):
    K.forward_batch(params, sizes, w_offs, b_offs, X)
print(threads() - before)
"""


def _run_script(script, **env_vars):
    # a fresh process: the thread count and BLAS setting of this one are unknown
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(K.__file__)),
               **env_vars)
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout.strip()


def test_forward_batch_starts_no_thread():
    # every row block runs in the caller
    assert int(_run_script(_THREADS_AFTER_PASSES)) == 0


_HASH_OUTPUTS = """
import hashlib
import numpy as np
from quantmeu import _kernels as K
rng = np.random.default_rng(0)
sizes = np.asarray((2, 64, 64, 64, 1), dtype=np.int64)
w_offs, b_offs, n_params = K.layer_offsets(sizes)
params = rng.normal(size=n_params)
X, X_grad, y = rng.normal(size=(7641, 2)), rng.normal(size=(1000, 2)), rng.normal(size=1000)
tau = rng.uniform(0.02, 0.98, size=1000)
loss, grad = K.loss_grad_batch(params, sizes, w_offs, b_offs, X_grad, y, tau)
digest = hashlib.sha256(K.forward_batch(params, sizes, w_offs, b_offs, X).tobytes())
digest.update(np.float64(loss).tobytes() + grad.tobytes())
print(digest.hexdigest())
"""


@needs_blas_setter
def test_output_bytes_ignore_the_blas_thread_setting():
    # two OpenBLAS threads once cut the output layer at 7641 rows and the
    # gradient products at 1000 rows by thread, and gave other bytes
    hashes = {_run_script(_HASH_OUTPUTS, OPENBLAS_NUM_THREADS=t) for t in ("1", "2")}
    assert len(hashes) == 1


def test_backend_reports_active_path():
    assert K.backend() == "numpy"
