"""Simulation-to-decision pipeline.

Builds the simulated training table, fits quantile networks for the
posterior and for the utility distribution, evaluates expected utility
as an integral of the quantile function over tau, and maximizes it over
a one-dimensional decision interval. This module alone knows a quantile
net's input layout: the conditioning columns, then tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import net as netmod
from .errors import DataError, DomainError, NumericError, ShapeError, SimulationError
from .models import ModelSpec, RandomSource, UtilitySpec, _interval, simulate_pairs
from .net import DenseNet, TrainConfig
from .tables import TrainingTable, write_csv, write_json

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_BLOCK_UNIFORMS = 2 ** 16   # bounds the memory of one block's forward draws


@dataclass
class QuantileNet:
    """Trained conditional quantile map; tau is the final input coordinate."""

    net: DenseNet
    role: str
    conditioning_dim: int

    def __post_init__(self):
        if self.role not in ("posterior", "utility"):
            raise ValueError(f"unknown role {self.role!r}")
        if self.net.input_dim != self.conditioning_dim + 1:
            raise ShapeError("net input dim must equal conditioning_dim + 1")


def _tau_line(net: DenseNet, cond):
    """The net's restriction to the tau line [0, 1] at one conditioning point.

    Returns the sorted breakpoints T, 0 and 1 included, and the output Q at
    each, in the data scale; Q is linear in tau between neighbouring
    breakpoints. Layer by layer: where a unit's pre-activation strictly
    changes sign between two neighbouring points, the root is inserted and
    its row taken by linear interpolation, which is exact as the layer is
    linear on that piece; then the ReLU is applied. Sotoudeh & Thakur 2019,
    "Computing linear restrictions of neural networks".
    """
    cond = np.asarray(cond, dtype=np.float64).reshape(-1)
    if cond.shape[0] != net.input_dim - 1:
        raise ShapeError(f"conditioning point has length {cond.shape[0]}, "
                         f"expected {net.input_dim - 1}")
    if not np.all(np.isfinite(cond)):
        raise ValueError("inputs must be finite")
    T = np.array([0.0, 1.0])
    A = np.empty((2, net.input_dim))
    A[:, :-1] = cond
    A[:, -1] = T
    A = (A - net.x_mean) / net.x_scale
    layers = net.layers()
    for w, b in layers[:-1]:
        Z = A @ w.T
        Z += b
        pos, neg = Z > 0.0, Z < 0.0
        # point i and unit k of each strict sign change; a flat index, as a
        # 2-D np.nonzero takes several times longer
        i, k = np.divmod(np.flatnonzero((pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:])),
                         Z.shape[1])
        f = Z[i, k] / (Z[i, k] - Z[i + 1, k])
        T = np.concatenate([T, T[i] + f * (T[i + 1] - T[i])])
        Z = np.concatenate([Z, Z[i] + f[:, None] * (Z[i + 1] - Z[i])])
        order = np.argsort(T, kind="stable")
        T, Z = T[order], Z[order]
        A = np.maximum(Z, 0.0, out=Z)
    w, b = layers[-1]
    return T, (A @ w[0] + b[0]) * net.y_scale + net.y_mean


def _read_tau_line(net: DenseNet, cond, taus=None):
    """The net's tau line at cond read exactly: its integral over [0, 1]
    without taus, else its values at taus by interpolation. NumericError if
    the line or the reading is non-finite."""
    # an overflowing tau line is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        T, Q = _tau_line(net, cond)
        if taus is None:
            # each piece's mean value as a convex combination: finite Q cannot overflow
            out = float(np.sum(np.diff(T) * (0.5 * Q[:-1] + 0.5 * Q[1:])))
            finite = math.isfinite(out)
        else:
            out = np.interp(taus, T, Q)
            finite = np.isfinite(out).all()
    if not (finite and np.isfinite(Q).all()):
        raise NumericError("the net's tau line or its reading is non-finite")
    return out


def build_training_table(model: ModelSpec, utility: Optional[UtilitySpec] = None,
                         decisions=None, N: int = 1000,
                         rng: Optional[RandomSource] = None,
                         sorted_pairing: bool = False) -> TrainingTable:
    """Simulate N rows of (theta, summary[, decision, utility], tau).

    Rows are simulated in blocks of at most _BLOCK_UNIFORMS uniforms; then
    the utility is evaluated once on the whole decision and theta columns,
    and each row gets an independent tau ~ U(0,1). With a utility present the
    decision grid is cycled so every decision receives an equal share of
    rows. When sorted_pairing is on, rows sharing a conditioning value
    (the decision when utility is present, otherwise the summary row) have
    their taus re-paired so ranks of tau match ranks of the target.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if utility is not None and decisions is None:
        raise DataError("a decision grid is required when a utility is supplied")
    rng = rng or RandomSource()

    decision = None
    utility_col = None
    if utility is not None:
        grid = np.asarray(decisions, dtype=np.float64).reshape(-1)
        if grid.size == 0:
            raise DataError("decision grid must be nonempty")
        lo, hi = utility.decision_domain
        if np.any(grid < lo) or np.any(grid > hi):
            raise DomainError("decision grid leaves the declared domain")
        decision = grid[np.arange(N) % grid.size]

    theta = np.empty(N)
    summary = None
    block = max(1, _BLOCK_UNIFORMS // model.draws)
    for start in range(0, N, block):
        rows = slice(start, min(start + block, N))
        n = rows.stop - start
        try:
            theta[rows], Y = simulate_pairs(model, n, rng)
        except SimulationError as exc:
            raise SimulationError(exc.args[0], index=start + (exc.index or 0)) from exc
        s = np.asarray(model.summary(Y), dtype=np.float64)
        if s.ndim not in (1, 2) or s.shape[0] != n:
            raise ShapeError(f"summary of {n} rows returned shape {s.shape}")
        if summary is None:
            summary = np.empty((N, s.size // n))
        summary[rows] = s.reshape(n, -1)
    if utility is not None:
        try:
            utility_col = np.asarray(utility.evaluate(decision, theta), dtype=np.float64)
        except Exception as exc:
            raise SimulationError(f"utility evaluation failed: {exc}", index=0) from exc
        if utility_col.shape != (N,):
            raise SimulationError(f"utility returned shape {utility_col.shape}", index=0)
        if not np.all(np.isfinite(utility_col)):
            raise SimulationError("utility is non-finite",
                                  index=int(np.argmin(np.isfinite(utility_col))))
    tau = rng.uniform(N)

    if sorted_pairing:
        if utility is not None:
            keys, target = (decision,), utility_col
        else:
            keys, target = tuple(summary.T), theta
        # in each run of equal keys the k-th smallest target gets the k-th smallest tau
        tau[np.lexsort((target,) + keys)] = tau[np.lexsort((tau,) + keys)]

    provenance = {"model": model.name, "N": int(N), "seed": int(rng.seed),
                  "stream": int(rng.stream), "sorted_pairing": bool(sorted_pairing)}
    return TrainingTable(theta=theta, summary=summary, tau=tau,
                         decision=decision, utility=utility_col,
                         provenance=provenance)


def _train_quantile_net(cond, target, tau, role: str, config: Optional[TrainConfig],
                        hidden):
    X = np.column_stack([cond, tau])
    config = config or TrainConfig()
    layer_sizes = (X.shape[1],) + tuple(hidden) + (1,)
    base = DenseNet.initialized(layer_sizes, seed=config.seed)
    trained, history = netmod.train(base, X, target, tau, config)
    return QuantileNet(net=trained, role=role, conditioning_dim=X.shape[1] - 1), history


def train_posterior_net(table: TrainingTable, config: Optional[TrainConfig] = None,
                        hidden=netmod.DEFAULT_HIDDEN):
    """Fit H(summary, tau) -> theta quantiles on the table."""
    return _train_quantile_net(table.summary, table.theta, table.tau, "posterior",
                               config, hidden)


def train_utility_net(table: TrainingTable, config: Optional[TrainConfig] = None,
                      hidden=netmod.DEFAULT_HIDDEN):
    """Fit G(decision, tau) -> utility quantiles on the table."""
    if not table.has_utility:
        raise DataError("table has no decision/utility columns")
    return _train_quantile_net(table.decision, table.utility, table.tau, "utility",
                               config, hidden)


def posterior_sample(H: QuantileNet, y_obs, M: int, rng: RandomSource) -> np.ndarray:
    """Draw M posterior values H(y_obs, tau) with tau ~ U(0,1).

    `y_obs` is the summary value the net is conditioned on. Each draw
    interpolates the net's tau line, exact as it is piecewise linear.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    return _read_tau_line(H.net, y_obs, rng.uniform(M))


def expected_utility(quantile_source, d: Optional[float] = None,
                     y_obs=None, M: int = 1024, rng: Optional[RandomSource] = None):
    """Estimate E(U) as the integral of the quantile function over (0,1).

    A QuantileNet is read at whichever one of `d` and `y_obs` is given.
    Without `rng` its estimate is the exact integral over the breakpoints of
    its tau line, which is piecewise linear, and the standard error 0; this
    is also the integral of its monotone rearrangement, as the mean does not
    change under rearrangement, and M is only checked. With `rng` the tau
    set is the M sorted draws rng.uniform(M), the values are sorted, and the
    standard error is the Monte Carlo one; a net's values then interpolate
    its tau line. A callable `quantile_source` maps the sorted tau array to
    quantile values; without `rng` its tau set is the M midpoints (i-1/2)/M
    and its standard error 0.
    """
    if M < 2:
        raise ValueError("M must be >= 2")
    is_net = isinstance(quantile_source, QuantileNet)
    if is_net:
        if (d is None) == (y_obs is None):
            raise ValueError("give exactly one of d and y_obs for a QuantileNet")
        cond = y_obs if d is None else d
        if rng is None:
            return _read_tau_line(quantile_source.net, cond), 0.0

    taus = (np.arange(M) + 0.5) / M if rng is None else np.sort(rng.uniform(M))
    if is_net:
        values = np.sort(_read_tau_line(quantile_source.net, cond, taus))
    else:
        values = np.asarray(quantile_source(taus), dtype=np.float64).reshape(-1)
    if values.shape[0] != M:
        raise ShapeError("quantile source returned a wrong-length vector")
    if not np.all(np.isfinite(values)):
        raise NumericError("quantile source produced non-finite values")

    # finite values can still overflow in their sum or spread
    with np.errstate(over="ignore", invalid="ignore"):
        estimate = float(values.mean())
        se = 0.0 if rng is None else float(values.std(ddof=1) / math.sqrt(M))
    if not (math.isfinite(estimate) and math.isfinite(se)):
        raise NumericError("the EU estimate or its standard error overflowed")
    return estimate, se


@dataclass
class OptimizationResult:
    """Grid curve of EU estimates and the maximizing decision."""

    best_decision: float
    best_eu: float
    curve: list
    refine_trace: list = field(default_factory=list)
    ties_detected: bool = False
    config: dict = field(default_factory=dict)
    seed: Optional[int] = None

    def to_document(self) -> dict:
        return {
            "best_decision": self.best_decision,
            "best_eu": self.best_eu,
            "curve": [{"d": d, "eu": eu, "se": se} for d, eu, se in self.curve],
            "config": dict(self.config, ties_detected=self.ties_detected,
                           refine_trace=[[d, eu] for d, eu in self.refine_trace]),
            "seed": self.seed,
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_document())

    def curve_to_csv(self, path) -> None:
        write_csv(path, ["d", "eu", "se"], list(zip(*self.curve)))


def optimize_decision(eu_evaluator: Callable, domain, grid_size: int = 101,
                      refine: bool = True, config: Optional[dict] = None,
                      seed: Optional[int] = None) -> OptimizationResult:
    """Maximize an EU evaluator d -> (estimate, se) over an interval.

    Evaluates a uniform grid, breaks exact ties toward the smallest
    decision, and (optionally) refines with golden-section search inside
    the best grid cell and its neighbors. The evaluator must be pure, the
    same d always giving the same (estimate, se); a sampled tau scheme
    therefore scores every d on one tau set (common random numbers). Each
    point, the refined winner included, is scored once.
    """
    lo, hi = _interval(domain)
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")

    def call(d: float):
        try:
            est, se = eu_evaluator(d)
        except Exception as exc:
            exc.args = (f"EU evaluator failed at d={d!r}: {exc}",)
            raise
        if not math.isfinite(est):
            raise NumericError(f"EU estimate at d={d!r} is non-finite")
        return float(est), float(se)

    grid = np.linspace(lo, hi, grid_size)
    curve = [(float(d),) + call(float(d)) for d in grid]
    eus = np.array([c[1] for c in curve])
    best_idx = int(np.argmax(eus))   # the first, so the smallest d, of equal maxima
    ties = bool(np.count_nonzero(eus == eus[best_idx]) > 1)
    best_d, best_eu, _ = curve[best_idx]

    trace = []
    if refine:
        a = grid[max(best_idx - 1, 0)]
        b = grid[min(best_idx + 1, grid_size - 1)]
        se_at = {}

        def f(d: float) -> float:
            est, se_at[d] = call(d)
            trace.append((float(d), est))
            return est

        c = b - _INVPHI * (b - a)
        e = a + _INVPHI * (b - a)
        fc, fe = f(c), f(e)
        tol = max(1e-9, 1e-15 * max(abs(a), abs(b), 1.0))
        while (b - a) > tol:
            if fc > fe:
                b, e, fe = e, c, fc
                c = b - _INVPHI * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, e, fe
                e = a + _INVPHI * (b - a)
                fe = f(e)
        cand_d, cand_eu = (c, fc) if fc >= fe else (e, fe)
        if cand_eu > best_eu:
            curve.append((float(cand_d), cand_eu, se_at[cand_d]))
            curve.sort(key=lambda row: row[0])
            best_d, best_eu = float(cand_d), cand_eu

    cfg = dict(config or {})
    cfg.setdefault("domain", [lo, hi])
    cfg.setdefault("grid_size", int(grid_size))
    cfg.setdefault("refine", bool(refine))
    return OptimizationResult(best_decision=float(best_d), best_eu=float(best_eu),
                              curve=curve, refine_trace=trace,
                              ties_detected=ties, config=cfg, seed=seed)
