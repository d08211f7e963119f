"""Model definitions: samplers, summaries, utilities, and a seedable RNG.

Two concrete problems are provided, a conjugate normal-normal location
model and a one-asset CARA portfolio choice, plus a generic `ModelSpec`
container for user-defined simulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DataError, DomainError, NumericError, ShapeError,
                     SimulationError, SingularDesignError)
from .special import normal_quantile

_TINY = 2.0 ** -54


@dataclass
class RandomSource:
    """Counter-based random stream: identical (seed, stream) replays exactly.

    Built on the Philox generator, keyed by the pair (seed, stream), so
    distinct stream indices give independent sequences and chunked
    simulation stays deterministic regardless of scheduling.
    """

    seed: int = 0
    stream: int = 0
    algorithm: str = "philox"

    def __post_init__(self):
        if self.algorithm != "philox":
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0 <= int(self.stream) < 2 ** 64:
            raise ValueError("stream must fit in 64 unsigned bits")
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RandomSource":
        """Independent stream derived from the same seed."""
        return RandomSource(seed=self.seed, stream=int(index), algorithm=self.algorithm)

    def uniform(self, n: Optional[int] = None):
        """Open-interval uniforms in (0,1); scalar when n is None."""
        if n is None:
            return float(self._gen.random() + _TINY)
        if n < 0:
            raise ValueError("n must be nonnegative")
        return self._gen.random(n) + _TINY

    def normal(self, n: Optional[int] = None, mean: float = 0.0, sd: float = 1.0):
        """Gaussian draws via the inverse-CDF transform of open uniforms.

        The transform keeps draws a monotone function of the underlying
        uniforms, which the sorted-pairing construction relies on.
        """
        if sd < 0:
            raise DomainError("sd must be nonnegative")
        u = self.uniform(n)
        return normal_quantile(u) * sd + mean

    def integers(self, low: int, high: int, n: Optional[int] = None):
        if n is None:
            return int(self._gen.integers(low, high))
        return self._gen.integers(low, high, size=n)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


@dataclass
class ModelSpec:
    """Simulator bundle: prior draw, forward map, summary statistic."""

    prior_sampler: Callable[[RandomSource], float]
    forward: Callable[[float, int, RandomSource], np.ndarray]
    summary: Callable[[np.ndarray], "float | np.ndarray"]
    n_obs: int
    name: str = "custom"

    def __post_init__(self):
        if self.n_obs < 1:
            raise ValueError("n_obs must be >= 1")


@dataclass
class NormalNormalModel:
    """theta ~ N(prior_mean, prior_variance); y_i | theta ~ N(theta, likelihood_variance)."""

    prior_mean: float = 0.0
    prior_variance: float = 1.0
    likelihood_variance: float = 1.0
    n: int = 1

    def __post_init__(self):
        if not self.prior_variance > 0:
            raise DomainError("prior_variance must be positive")
        if not self.likelihood_variance > 0:
            raise DomainError("likelihood_variance must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def spec(self, summary: Optional[Callable] = None) -> ModelSpec:
        alpha = math.sqrt(self.prior_variance)
        sigma = math.sqrt(self.likelihood_variance)
        mu = self.prior_mean

        def prior(rng: RandomSource) -> float:
            return float(rng.normal(mean=mu, sd=alpha))

        def forward(theta: float, n: int, rng: RandomSource) -> np.ndarray:
            return rng.normal(n, mean=theta, sd=sigma)

        return ModelSpec(prior_sampler=prior, forward=forward,
                         summary=summary or summary_mean,
                         n_obs=self.n, name="normal-normal")


def _interval(domain) -> tuple:
    lo, hi = float(domain[0]), float(domain[1])
    if not lo <= hi:
        raise DomainError(f"empty interval ({lo}, {hi})")
    return lo, hi


@dataclass
class PortfolioProblem:
    """One risky asset vs a risk-free rate under CARA utility.

    Terminal wealth at weight w is (1-w)*risk_free + w*R with
    R ~ N(return_mean, return_sd**2), so Var(W) = w**2 * return_sd**2.
    """

    risk_free: float = 0.05
    return_mean: float = 0.1
    return_sd: float = 0.25
    risk_aversion: float = 2.0
    weight_domain: tuple = (0.0, 1.0)

    def __post_init__(self):
        if not self.return_sd > 0:
            raise DomainError("return_sd must be positive")
        if not self.risk_aversion > 0:
            raise DomainError("risk_aversion must be positive")
        lo, hi = _interval(self.weight_domain)
        if lo < 0.0 or hi > 1.0:
            raise DomainError("weight_domain must sit inside [0,1]")
        self.weight_domain = (lo, hi)

    def utility_spec(self) -> "UtilitySpec":
        gamma, rf = self.risk_aversion, self.risk_free

        def evaluate(decision: float, outcome: float) -> float:
            return cara_utility(portfolio_wealth(decision, outcome, rf), gamma)

        return UtilitySpec(evaluate=evaluate, decision_domain=self.weight_domain,
                           name="cara-portfolio")


@dataclass
class UtilitySpec:
    """Utility evaluator U(d, outcome) with its decision domain."""

    evaluate: Callable[[float, float], float]
    decision_domain: tuple = (0.0, 1.0)
    name: str = "utility"

    def __post_init__(self):
        self.decision_domain = _interval(self.decision_domain)


def simulate_pairs(model: ModelSpec, N: int, rng: RandomSource):
    """Draw N prior/forward pairs (theta_i, y_i) from the model."""
    if N < 1:
        raise ValueError("N must be >= 1")
    out = []
    for i in range(N):
        theta = float(model.prior_sampler(rng))
        if not math.isfinite(theta):
            raise SimulationError(f"prior draw {i} is non-finite", index=i)
        y = np.asarray(model.forward(theta, model.n_obs, rng), dtype=np.float64).reshape(-1)
        if y.shape[0] != model.n_obs:
            raise SimulationError(
                f"forward draw {i} returned {y.shape[0]} values, expected {model.n_obs}",
                index=i)
        if not np.all(np.isfinite(y)):
            raise SimulationError(f"forward draw {i} contains non-finite values", index=i)
        out.append((theta, y))
    return out


def summary_mean(y) -> float:
    """Arithmetic mean of the observations."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.size == 0:
        raise DataError("summary_mean needs a nonempty vector")
    return float(y.mean())


@dataclass
class LinearSummary:
    """Affine summary y -> intercept + coefficients . y learned by OLS."""

    intercept: float
    coefficients: np.ndarray

    def __call__(self, y) -> float:
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if y.shape[0] != self.coefficients.shape[0]:
            raise ShapeError(
                f"summary expects length {self.coefficients.shape[0]}, got {y.shape[0]}")
        return float(self.intercept + self.coefficients @ y)


def learn_summary_ols(pairs) -> LinearSummary:
    """Regress theta on y (with intercept) to learn a linear summary."""
    if len(pairs) == 0:
        raise DataError("no pairs supplied")
    theta = np.array([p[0] for p in pairs], dtype=np.float64)
    Y = np.array([np.asarray(p[1], dtype=np.float64).reshape(-1) for p in pairs])
    n, k = Y.shape
    if n < k + 1:
        raise SingularDesignError(f"need at least {k + 1} pairs for {k} regressors, got {n}")
    X = np.column_stack([np.ones(n), Y])
    rank = np.linalg.matrix_rank(X)
    if rank < k + 1:
        raise SingularDesignError(f"design matrix rank {rank} < {k + 1}")
    beta, *_ = np.linalg.lstsq(X, theta, rcond=None)
    return LinearSummary(intercept=float(beta[0]), coefficients=beta[1:].copy())


def cara_utility(W, gamma: float):
    """Constant-absolute-risk-aversion utility -exp(-gamma*W)."""
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    arr = np.asarray(W, dtype=np.float64)
    with np.errstate(over="ignore"):
        out = -np.exp(-gamma * arr)
    if not np.all(np.isfinite(out)):
        raise NumericError("cara_utility overflowed to a non-finite value")
    if arr.ndim == 0:
        return float(out)
    return out


def portfolio_wealth(weight, R, risk_free):
    """Terminal wealth (1-weight)*risk_free + weight*R."""
    return (1.0 - weight) * risk_free + weight * R

