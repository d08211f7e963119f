"""Batch kernels: layout, per-sample oracle, and finite-difference gradients.

Oracle: a pure-Python per-unit forward pass and the pinball-loss formula
written out directly, so neither depends on the vectorised kernels.
"""

import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

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


PRODUCTION = (2, 64, 64, 64, 1)
needs_split = pytest.mark.skipif(K._set_blas_threads is None,
                                 reason="numpy's BLAS has no openblas_set_num_threads_local")


def _split_matches_unsplit(seed, n):
    # the split also runs above its row range here, where OpenBLAS threads
    # the output layer and the bytes depend on where its threads cut
    sz, w_offs, b_offs, params, X, y, tau = make_case(seed, PRODUCTION, n)
    with mock.patch.object(K, "_SPLIT_MAX_ROWS", 12_000):
        got = K.forward_batch(params, sz, w_offs, b_offs, X)
    assert got.tobytes() == K._forward(params, sz, w_offs, b_offs, X).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12_000))
def test_split_forward_matches_unsplit_bytes(seed, n):
    _split_matches_unsplit(seed, n)


@pytest.mark.parametrize("n", [511, 512, 513, 1000, 1025, 2047, 2048, 2049, 3071, 3072,
                               3073, 3333, 4097, 7168, 7169, 7641, 10_000])
def test_split_forward_matches_unsplit_bytes_at_edges(n):
    # both ends of the split's row range, odd halves and 1-row tails; at
    # 7641 rows one and two BLAS threads differ in the output layer
    _split_matches_unsplit(n, n)


def _blas_threads():
    """The current OpenBLAS thread count, read by setting it and back."""
    current = K._set_blas_threads(1)
    K._set_blas_threads(current)
    return current


@needs_split
def test_split_forward_restores_blas_threads():
    sz, w_offs, b_offs, params, X, y, tau = make_case(23, PRODUCTION, 4096)
    before = _blas_threads()
    with mock.patch.object(K, "_set_blas_threads", wraps=K._set_blas_threads) as setter:
        K.forward_batch(params, sz, w_offs, b_offs, X)
    assert [c.args for c in setter.call_args_list] == [(1,), (before,)]
    assert _blas_threads() == before


@needs_split
def test_no_split_while_another_thread_runs_blas():
    # the BLAS thread count is process-wide, and at 7641 rows one and two
    # BLAS threads give different output bytes, so a split in one thread
    # would change another thread's large pass
    sz, w_offs, b_offs, params, X, y, tau = make_case(0, PRODUCTION, 7641)
    want = K._forward(params, sz, w_offs, b_offs, X).tobytes()
    X_split = make_case(43, PRODUCTION, 4096)[4]
    stop = threading.Event()

    def split_passes():
        while not stop.is_set():
            K.forward_batch(params, sz, w_offs, b_offs, X_split)

    other = threading.Thread(target=split_passes)
    other.start()
    try:
        got = [K._forward(params, sz, w_offs, b_offs, X).tobytes() for _ in range(50)]
    finally:
        stop.set()
        other.join()
    assert all(g == want for g in got)


@pytest.mark.parametrize("n", [40, 144, 256])
def test_split_forward_leaves_training_gradients_alone(n):
    # training's batch shapes at bench and preset scale; gradient bytes
    # depend on the BLAS thread count at some shapes, so a split that left
    # OpenBLAS on one thread would show here
    sz, w_offs, b_offs, params, X, y, tau = make_case(29, PRODUCTION, n)
    X_big = make_case(31, PRODUCTION, 4096)[4]
    loss, grad = K.loss_grad_batch(params, sz, w_offs, b_offs, X, y, tau)
    K.forward_batch(params, sz, w_offs, b_offs, X_big)
    loss2, grad2 = K.loss_grad_batch(params, sz, w_offs, b_offs, X, y, tau)
    assert loss2 == loss
    assert grad2.tobytes() == grad.tobytes()


_SPLIT_SETUP = """
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
"""

_THREADS_AFTER_SPLITS = _SPLIT_SETUP + """
before = threads()
for _ in range(100):
    K.forward_batch(params, sizes, w_offs, b_offs, X)
print(threads() - before)
"""

_FORK_AFTER_SPLIT = _SPLIT_SETUP + """
import select, signal
want = K.forward_batch(params, sizes, w_offs, b_offs, X).tobytes()
read_end, write_end = os.pipe()
pid = os.fork()
if pid == 0:
    got = K.forward_batch(params, sizes, w_offs, b_offs, X).tobytes()
    os.write(write_end, b"same" if got == want else b"diff")
    os._exit(0)
os.close(write_end)
if select.select([read_end], [], [], 60)[0]:
    print(os.read(read_end, 4).decode())
else:
    os.kill(pid, signal.SIGKILL)
    print("hung")
os.waitpid(pid, 0)
"""


def _run_script(script):
    # a fresh process: thread counts and fork state of this one are unknown
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(K.__file__)))
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout.strip()


@needs_split
def test_split_forward_keeps_one_worker_thread():
    assert int(_run_script(_THREADS_AFTER_SPLITS)) <= 1


@needs_split
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_forward_in_forked_child():
    # the child inherits the parent's worker object but not its thread;
    # without the fork hook its first split waits for that thread forever
    assert _run_script(_FORK_AFTER_SPLIT) == "same"


def test_backend_reports_active_path():
    assert K.backend() == "numpy"
