"""Dense feedforward ReLU network trained with the pinball (quantile) loss.

The network maps a real input vector to one scalar and is the function
approximator behind every quantile map in the package. Training uses
mini-batch Adam with early stopping on a held-out validation split, and
standardises inputs and targets internally (the constants travel with the
net, so `DenseNet.predict` always works in the original data scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from . import _kernels
from .errors import DataError, DomainError, NumericError, QuantmeuError, ShapeError
from .tables import read_json, write_json

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

    def __post_init__(self):
        # key -> (in range, the range); errors name keys as the config does
        ranges = {"learning_rate": (not isinstance(self.learning_rate, bool)
                                    and self.learning_rate > 0, "> 0"),
                  "batch_size": (self.batch_size >= 1, ">= 1"),
                  "max_epochs": (self.max_epochs >= 1, ">= 1"),
                  "patience": (self.patience >= 1, ">= 1"),
                  "validation_fraction": (0.0 < self.validation_fraction < 1.0, "in (0, 1)"),
                  "seed": (0 <= int(self.seed) < 2 ** 64, "in [0, 2**64)")}
        for key, (ok, bound) in ranges.items():
            if not ok:
                raise ValueError(f"train.{key} must be {bound}, got {getattr(self, key)!r}")


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
        if self.x_mean.shape != (self.input_dim,) or self.x_scale.shape != (self.input_dim,):
            raise ShapeError("x_mean and x_scale need one entry per input")
        if not (np.all(np.isfinite(self.x_mean)) and np.isfinite(self.y_mean)):
            raise ValueError("standardization means must be finite")
        if not (np.all(np.isfinite(self.x_scale) & (self.x_scale > 0))
                and np.isfinite(self.y_scale) and self.y_scale > 0):
            raise ValueError("standardization scales must be positive and finite")
        self._layers = tuple(_kernels.layer_views(self.params, self._sizes,
                                                  self._w_offs, self._b_offs))

    @classmethod
    def initialized(cls, layer_sizes, seed=0):
        """He-style scaled-uniform weights, zero biases, seeded."""
        sizes = tuple(int(s) for s in layer_sizes)
        w_offs, b_offs, n_params = _kernels.layer_offsets(sizes)
        rng = np.random.default_rng(seed)
        params = np.zeros(n_params)
        for w, _ in _kernels.layer_views(params, sizes, w_offs, b_offs):
            bound = math.sqrt(6.0 / w.shape[1])
            w[:] = rng.uniform(-bound, bound, size=w.shape)
        return cls(layer_sizes=sizes, params=params, init_seed=int(seed))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    def layers(self) -> tuple:
        """(weights (out, in), biases) views of each layer into `params`,
        made once at construction."""
        return self._layers

    def predict(self, X) -> np.ndarray:
        """Batch evaluation in the original data scale."""
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        if X.shape[1] != self.input_dim:
            raise ShapeError(f"input has {X.shape[1]} columns, net expects {self.input_dim}")
        if not np.all(np.isfinite(X)):
            raise ValueError("inputs must be finite")
        Xs = (X - self.x_mean) / self.x_scale
        raw = _kernels.forward_batch(self.params, self._sizes, self._w_offs,
                                     self._b_offs, Xs)
        return raw * self.y_scale + self.y_mean


def _check_batch(net, X, y, tau):
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64).reshape(-1)
    tau = np.ascontiguousarray(tau, dtype=np.float64).reshape(-1)
    if X.shape[0] == 0:
        raise DataError("batch must be nonempty")
    if X.shape[0] != y.shape[0] or y.shape[0] != tau.shape[0]:
        raise ShapeError("X, y and tau must share the leading dimension")
    if X.shape[1] != net.input_dim:
        raise ShapeError(f"input has {X.shape[1]} columns, net expects {net.input_dim}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y)) and np.all(np.isfinite(tau))):
        raise DataError("X, y and tau must be finite")
    if np.any(tau <= 0.0) or np.any(tau >= 1.0):
        raise DomainError("all tau must be strictly inside (0,1)")
    return X, y, tau


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
    return _kernels.pinball(y - pred, tau)[0]


def train(net: DenseNet, X, y, tau, config: TrainConfig = None):
    """Fit the net by mini-batch Adam on the pinball loss.

    Holds out `validation_fraction` of the rows (seeded split), stops when
    the validation loss has not improved for `patience` epochs, and returns
    a new net carrying the best-validation parameters together with the
    standardisation constants used internally. Raises NumericError at the
    first epoch whose training or validation loss is non-finite.
    """
    config = config or TrainConfig()
    X, y, tau = _check_batch(net, X, y, tau)

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

    n = X.shape[0]
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_val = int(round(config.validation_fraction * n))
    if n >= 2:
        n_val = min(max(n_val, 1), n - 1)
        val_idx, tr_idx = perm[:n_val], perm[n_val:]
    else:
        val_idx, tr_idx = perm, perm

    def split(idx):
        # each split is standardised on its own copy, so no standardised copy
        # of the whole table lives through the epoch loop
        Xi, yi = X[idx], y[idx]
        Xi -= x_mean
        Xi /= x_scale
        yi -= y_mean
        yi /= y_scale
        return Xi, yi, tau[idx]

    Xv, yv, tv = split(val_idx)
    Xt, yt, tt = split(tr_idx)
    del perm, val_idx, tr_idx
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

    # a diverging run overflows on its way to the NumericError below, which
    # reports it; finite steps raise no flag
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs):
            order = rng.permutation(n_train)
            loss_sum = 0.0
            for start in range(0, n_train, config.batch_size):
                idx = order[start:start + config.batch_size]
                loss, grads = _kernels.loss_grad_batch(params, sizes, w_offs, b_offs,
                                                       Xt[idx], yt[idx], tt[idx])
                step += 1
                # Adam's beta1, beta2 and epsilon are fixed at the usual values
                _adam_update_inplace(params, m, v, step, grads, config.learning_rate,
                                     0.9, 0.999, 1e-8)
                loss_sum += loss * idx.size
            val_loss = _pinball_mean(params, sizes, w_offs, b_offs, Xv, yv, tv)
            if not (math.isfinite(loss_sum) and math.isfinite(val_loss)):
                raise NumericError(f"training diverged at epoch {epoch}: training loss "
                                   f"{loss_sum / n_train}, validation loss {val_loss}")
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


def grad_check(net: DenseNet, X, y, tau) -> GradCheckResult:
    """Analytic gradients vs central finite differences (step 1e-6) over all
    parameters.

    Near a ReLU or pinball kink the finite difference straddles the
    nondifferentiable point and the reported error can exceed any smooth
    tolerance; the worst parameter index identifies the offender.
    """
    eps = 1e-6
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
        "weights": [w.tolist() for w, _ in net.layers()],
        "biases": [b.tolist() for _, b in net.layers()],
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
    try:
        sizes = tuple(doc["layer_sizes"])
        w_offs, b_offs, n_params = _kernels.layer_offsets(sizes)
        params = np.zeros(n_params)
        for l, (w, b) in enumerate(_kernels.layer_views(params, sizes, w_offs, b_offs)):
            w_doc = np.asarray(doc["weights"][l], dtype=np.float64)
            b_doc = np.asarray(doc["biases"][l], dtype=np.float64)
            if w_doc.shape != w.shape or b_doc.shape != b.shape:
                raise DataError(f"layer {l} weight/bias shapes do not match layer_sizes")
            w[:] = w_doc
            b[:] = b_doc
        std = doc["standardization"]
        return DenseNet(layer_sizes=sizes, params=params,
                        x_mean=np.asarray(std["x_mean"]),
                        x_scale=np.asarray(std["x_scale"]),
                        y_mean=float(std["y_mean"]),
                        y_scale=float(std["y_scale"]),
                        scale_fallback=bool(std["fallback"]),
                        init_seed=doc.get("seed"),
                        train_config=doc.get("config"))
    except QuantmeuError:
        raise
    except KeyError as exc:
        raise DataError(f"net document lacks key {exc.args[0]!r}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"bad net document value: {exc}") from None


def save_net(net: DenseNet, path) -> None:
    write_json(path, net_to_document(net))


def load_net(path) -> DenseNet:
    return net_from_document(read_json(path, "net file"))
