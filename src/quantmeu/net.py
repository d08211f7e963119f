"""Dense feedforward ReLU network trained with the pinball (quantile) loss.

The network maps a real input vector to one scalar and is the function
approximator behind every quantile map in the package. Training uses
mini-batch Adam with early stopping on a held-out validation split, and
standardises inputs and targets internally (the constants travel with the
net, so `forward` always works in the original data scale).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from . import _kernels
from .errors import DataError, DomainError, ShapeError

DEFAULT_HIDDEN = (64, 64, 64)

_SCALE_FLOOR = 1e-12


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 10
    validation_fraction: float = 0.1
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0,1)")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("decay rates must be in (0,1)")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass
class DenseNet:
    """Flat-parameter dense net; ReLU on hidden layers, identity output."""

    layer_sizes: tuple
    params: np.ndarray
    x_mean: np.ndarray = None
    x_scale: np.ndarray = None
    y_mean: float = 0.0
    y_scale: float = 1.0
    scale_fallback: bool = False
    init_seed: Optional[int] = None
    train_config: Optional[dict] = None

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ShapeError("layer_sizes needs at least input and output entries")
        if self.layer_sizes[-1] != 1:
            raise ShapeError("output layer size must be exactly 1")
        if any(s < 1 for s in self.layer_sizes):
            raise ShapeError("layer sizes must be positive")
        self._w_offs, self._b_offs, n_params = _kernels.layer_offsets(self.layer_sizes)
        self._sizes = np.asarray(self.layer_sizes, dtype=np.int64)
        self.params = np.ascontiguousarray(self.params, dtype=np.float64)
        if self.params.shape != (n_params,):
            raise ShapeError(
                f"expected {n_params} parameters for layers {self.layer_sizes}, "
                f"got {self.params.shape}")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("parameters must be finite")
        if self.x_mean is None:
            self.x_mean = np.zeros(self.layer_sizes[0])
        if self.x_scale is None:
            self.x_scale = np.ones(self.layer_sizes[0])
        self.x_mean = np.asarray(self.x_mean, dtype=np.float64)
        self.x_scale = np.asarray(self.x_scale, dtype=np.float64)

    @classmethod
    def initialized(cls, layer_sizes, seed=0):
        """He-style scaled-uniform weights, zero biases, seeded."""
        sizes = tuple(int(s) for s in layer_sizes)
        w_offs, b_offs, n_params = _kernels.layer_offsets(sizes)
        rng = np.random.default_rng(seed)
        params = np.zeros(n_params)
        for l in range(len(sizes) - 1):
            fan_in, fan_out = sizes[l], sizes[l + 1]
            bound = math.sqrt(6.0 / fan_in)
            w = rng.uniform(-bound, bound, size=fan_out * fan_in)
            params[w_offs[l]:w_offs[l] + w.size] = w
        return cls(layer_sizes=sizes, params=params, init_seed=int(seed))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_params(self) -> int:
        return self.params.size

    def weights(self, layer: int) -> np.ndarray:
        din, dout = self.layer_sizes[layer], self.layer_sizes[layer + 1]
        o = self._w_offs[layer]
        return self.params[o:o + dout * din].reshape(dout, din)

    def biases(self, layer: int) -> np.ndarray:
        o = self._b_offs[layer]
        return self.params[o:o + self.layer_sizes[layer + 1]]

    def predict(self, X) -> np.ndarray:
        """Batch evaluation in the original data scale."""
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        if X.shape[1] != self.input_dim:
            raise ShapeError(f"input has {X.shape[1]} columns, net expects {self.input_dim}")
        if not np.all(np.isfinite(X)):
            raise ValueError("inputs must be finite")
        Xs = (X - self.x_mean) / self.x_scale
        raw = _kernels.forward_batch(self.params, self._sizes, self._w_offs,
                                     self._b_offs, np.ascontiguousarray(Xs))
        return raw * self.y_scale + self.y_mean


def forward(net: DenseNet, x) -> float:
    """Scalar evaluation of the net at one input vector."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != net.input_dim:
        raise ShapeError(f"input length {x.shape[0]} != expected {net.input_dim}")
    return float(net.predict(x[None, :])[0])


def pinball_loss(prediction: float, target: float, tau: float) -> float:
    """Quantile check loss; minimised in expectation at the tau-quantile."""
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must be strictly inside (0,1), got {tau}")
    e = target - prediction
    return tau * e if e >= 0.0 else (tau - 1.0) * e


def _check_batch(net, X, y, tau):
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64).reshape(-1)
    tau = np.ascontiguousarray(tau, dtype=np.float64).reshape(-1)
    if X.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if X.shape[0] != y.shape[0] or y.shape[0] != tau.shape[0]:
        raise ShapeError("batch arrays must share the leading dimension")
    if X.shape[1] != net.input_dim:
        raise ShapeError(f"input has {X.shape[1]} columns, net expects {net.input_dim}")
    if np.any(tau <= 0.0) or np.any(tau >= 1.0):
        raise DomainError("all tau must be strictly inside (0,1)")
    return X, y, tau


def backward(net: DenseNet, X, y, tau):
    """Mean pinball loss and its gradient w.r.t. every parameter.

    Operates on the raw network map (standardisation constants are not
    applied); `train` standardises its data before driving this.
    """
    X, y, tau = _check_batch(net, X, y, tau)
    return _kernels.loss_grad_batch(net.params, net._sizes, net._w_offs,
                                    net._b_offs, X, y, tau)


def _adam_update_inplace(params, m, v, t, grads, lr, b1, b2, eps):
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads * grads
    corr = lr * math.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
    params -= corr * m / (np.sqrt(v) + eps * math.sqrt(1.0 - b2 ** t))


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_epoch: int = -1


def _pinball_mean(params, sizes, w_offs, b_offs, X, y, tau):
    pred = _kernels.forward_batch(params, sizes, w_offs, b_offs, X)
    e = y - pred
    return float(np.mean(np.where(e < 0.0, (tau - 1.0) * e, tau * e)))


def train(net: DenseNet, X, y, tau, config: TrainConfig = None):
    """Fit the net by mini-batch Adam on the pinball loss.

    Holds out `validation_fraction` of the rows (seeded split), stops when
    the validation loss has not improved for `patience` epochs, and returns
    a new net carrying the best-validation parameters together with the
    standardisation constants used internally.
    """
    config = config or TrainConfig()
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64).reshape(-1)
    tau = np.ascontiguousarray(tau, dtype=np.float64).reshape(-1)
    if X.shape[0] == 0:
        raise DataError("training data must be nonempty")
    if X.shape[0] != y.shape[0] or y.shape[0] != tau.shape[0]:
        raise ShapeError("X, y and tau must share the leading dimension")
    if X.shape[1] != net.input_dim:
        raise ShapeError(f"input has {X.shape[1]} columns, net expects {net.input_dim}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y)) and np.all(np.isfinite(tau))):
        raise DataError("training data must be finite")
    if np.any(tau <= 0.0) or np.any(tau >= 1.0):
        raise DomainError("all tau must be strictly inside (0,1)")

    x_mean = X.mean(axis=0)
    x_std = X.std(axis=0)
    fallback = bool(np.any(x_std < _SCALE_FLOOR))
    x_scale = np.where(x_std < _SCALE_FLOOR, 1.0, x_std)
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std < _SCALE_FLOOR:
        fallback = True
        y_scale = 1.0
    else:
        y_scale = y_std

    Xs = np.ascontiguousarray((X - x_mean) / x_scale)
    ys = (y - y_mean) / y_scale

    n = X.shape[0]
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_val = int(round(config.validation_fraction * n))
    if n >= 2:
        n_val = min(max(n_val, 1), n - 1)
        val_idx, tr_idx = perm[:n_val], perm[n_val:]
    else:
        val_idx, tr_idx = perm, perm
    Xv = np.ascontiguousarray(Xs[val_idx])
    yv, tv = ys[val_idx], tau[val_idx]
    Xt = np.ascontiguousarray(Xs[tr_idx])
    yt, tt = ys[tr_idx], tau[tr_idx]
    n_train = Xt.shape[0]

    sizes, w_offs, b_offs = net._sizes, net._w_offs, net._b_offs
    params = net.params.copy()
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step = 0

    history = TrainHistory()
    best_val = math.inf
    best_params = params.copy()
    since_best = 0

    for epoch in range(config.max_epochs):
        order = rng.permutation(n_train)
        loss_sum = 0.0
        for start in range(0, n_train, config.batch_size):
            idx = order[start:start + config.batch_size]
            Xb = np.ascontiguousarray(Xt[idx])
            loss, grads = _kernels.loss_grad_batch(params, sizes, w_offs, b_offs,
                                                   Xb, yt[idx], tt[idx])
            step += 1
            _adam_update_inplace(params, m, v, step, grads, config.learning_rate,
                                 config.beta1, config.beta2, config.epsilon)
            loss_sum += loss * idx.size
        val_loss = _pinball_mean(params, sizes, w_offs, b_offs, Xv, yv, tv)
        history.train_loss.append(loss_sum / n_train)
        history.val_loss.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    history.stopped_epoch = len(history.train_loss) - 1

    trained = DenseNet(layer_sizes=net.layer_sizes, params=best_params,
                       x_mean=x_mean, x_scale=x_scale,
                       y_mean=y_mean, y_scale=y_scale,
                       scale_fallback=fallback,
                       init_seed=net.init_seed, train_config=asdict(config))
    return trained, history


@dataclass
class GradCheckResult:
    max_rel_error: float
    worst_index: int


def grad_check(net: DenseNet, X, y, tau, eps: float = 1e-6) -> GradCheckResult:
    """Analytic gradients vs central finite differences over all parameters.

    Near a ReLU or pinball kink the finite difference straddles the
    nondifferentiable point and the reported error can exceed any smooth
    tolerance; the worst parameter index identifies the offender.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if net.params.size == 0:
        return GradCheckResult(0.0, -1)
    X, y, tau = _check_batch(net, X, y, tau)
    _, grads = _kernels.loss_grad_batch(net.params, net._sizes, net._w_offs,
                                        net._b_offs, X, y, tau)
    params = net.params.copy()
    worst = 0.0
    worst_idx = -1
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + eps
        up = _pinball_mean(params, net._sizes, net._w_offs, net._b_offs, X, y, tau)
        params[i] = orig - eps
        down = _pinball_mean(params, net._sizes, net._w_offs, net._b_offs, X, y, tau)
        params[i] = orig
        fd = (up - down) / (2.0 * eps)
        denom = max(abs(fd) + abs(grads[i]), 1e-8)
        rel = abs(fd - grads[i]) / denom
        if rel > worst:
            worst = rel
            worst_idx = i
    return GradCheckResult(worst, worst_idx)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_FORMAT = "quantmeu-net"
_VERSION = 1


def net_to_document(net: DenseNet) -> dict:
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "layer_sizes": list(net.layer_sizes),
        "weights": [net.weights(l).tolist() for l in range(len(net.layer_sizes) - 1)],
        "biases": [net.biases(l).tolist() for l in range(len(net.layer_sizes) - 1)],
        "standardization": {
            "x_mean": net.x_mean.tolist(),
            "x_scale": net.x_scale.tolist(),
            "y_mean": net.y_mean,
            "y_scale": net.y_scale,
            "fallback": net.scale_fallback,
        },
        "seed": net.init_seed,
        "config": net.train_config,
    }


def net_from_document(doc: dict) -> DenseNet:
    if doc.get("format") != _FORMAT:
        raise DataError(f"not a serialized net document: format={doc.get('format')!r}")
    if doc.get("version") != _VERSION:
        raise DataError(f"unsupported net document version {doc.get('version')!r}")
    sizes = tuple(doc["layer_sizes"])
    w_offs, b_offs, n_params = _kernels.layer_offsets(sizes)
    params = np.zeros(n_params)
    for l in range(len(sizes) - 1):
        w = np.asarray(doc["weights"][l], dtype=np.float64)
        b = np.asarray(doc["biases"][l], dtype=np.float64)
        if w.shape != (sizes[l + 1], sizes[l]) or b.shape != (sizes[l + 1],):
            raise DataError(f"layer {l} weight/bias shapes do not match layer_sizes")
        params[w_offs[l]:w_offs[l] + w.size] = w.ravel()
        params[b_offs[l]:b_offs[l] + b.size] = b
    std = doc.get("standardization", {})
    return DenseNet(layer_sizes=sizes, params=params,
                    x_mean=np.asarray(std.get("x_mean", np.zeros(sizes[0]))),
                    x_scale=np.asarray(std.get("x_scale", np.ones(sizes[0]))),
                    y_mean=float(std.get("y_mean", 0.0)),
                    y_scale=float(std.get("y_scale", 1.0)),
                    scale_fallback=bool(std.get("fallback", False)),
                    init_seed=doc.get("seed"),
                    train_config=doc.get("config"))


def save_net(net: DenseNet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(net_to_document(net), fh, indent=1)


def load_net(path) -> DenseNet:
    with open(path, "r", encoding="utf-8") as fh:
        return net_from_document(json.load(fh))
