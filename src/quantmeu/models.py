"""Model definitions: samplers, summaries, utilities, and a seedable RNG.

Two concrete problems are provided, a conjugate normal-normal location
model and a one-asset CARA portfolio choice, plus a generic `ModelSpec`
container for user-defined simulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, DomainError, NumericError, SimulationError
from .special import normal_quantile

_TINY = 2.0 ** -54
# the largest draw, 1 - 2**-53, plus _TINY rounds to 1.0
_BELOW_ONE = np.nextafter(1.0, 0.0)


@dataclass
class RandomSource:
    """Counter-based random stream: identical (seed, stream) replays exactly.

    Built on the Philox generator, keyed by the pair (seed, stream), so
    distinct stream indices give independent sequences and chunked
    simulation stays deterministic regardless of scheduling.
    """

    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0 <= int(self.stream) < 2 ** 64:
            raise ValueError("stream must fit in 64 unsigned bits")
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, n: int) -> np.ndarray:
        """n open-interval uniforms in (0,1)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        return np.minimum(self._gen.random(n) + _TINY, _BELOW_ONE)

    def normal(self, n: int, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        """Gaussian draws via the inverse-CDF transform of open uniforms.

        The transform keeps draws a monotone function of the underlying
        uniforms, which the sorted-pairing construction relies on.
        """
        if sd < 0:
            raise DomainError("sd must be nonnegative")
        u = self.uniform(n)
        return normal_quantile(u) * sd + mean


@dataclass
class ModelSpec:
    """Simulator bundle: `sample` maps open uniforms U[N, draws] to rows
    (theta[N], Y[N, n_obs]), row i reading only U[i]; `summary` maps Y to
    (N,) or (N, k) row by row, and one observation vector to a scalar or (k,).
    """

    sample: Callable[[np.ndarray], tuple]
    summary: Callable[[np.ndarray], "float | np.ndarray"]
    n_obs: int
    draws: int
    name: str = "custom"

    def __post_init__(self):
        if self.n_obs < 1 or self.draws < 1:
            raise ValueError("n_obs and draws must be >= 1")


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

    def spec(self) -> ModelSpec:
        alpha = math.sqrt(self.prior_variance)
        sigma = math.sqrt(self.likelihood_variance)
        mu = self.prior_mean

        def sample(U: np.ndarray):
            # column 0 is the prior draw, columns 1..n the forward draws
            Z = normal_quantile(U)
            theta = Z[:, 0] * alpha + mu
            return theta, Z[:, 1:] * sigma + theta[:, None]

        return ModelSpec(sample=sample, summary=summary_mean,
                         n_obs=self.n, draws=1 + self.n, name="normal-normal")


def _interval(domain) -> tuple:
    """(low, high) as floats; refuses anything but a pair with low < high."""
    lo, hi = map(float, domain)
    if not lo < hi:
        raise DomainError(f"domain ({lo}, {hi}) is not a proper interval")
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

        def evaluate(decision, outcome):
            return cara_utility(portfolio_wealth(decision, outcome, rf), gamma)

        return UtilitySpec(evaluate=evaluate, decision_domain=self.weight_domain)


@dataclass
class UtilitySpec:
    """Utility evaluator U(d, outcome) on arrays of one shape, with its decision domain."""

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    decision_domain: tuple = (0.0, 1.0)

    def __post_init__(self):
        self.decision_domain = _interval(self.decision_domain)


def simulate_pairs(model: ModelSpec, N: int, rng: RandomSource):
    """Draw N rows theta[N], Y[N, n_obs] from one row-major block of N * draws
    uniforms: each row reads what a row-by-row simulator would draw for it."""
    if N < 1:
        raise ValueError("N must be >= 1")
    theta, Y = model.sample(rng.uniform(N * model.draws).reshape(N, model.draws))
    theta = np.asarray(theta, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if theta.shape != (N,) or Y.shape != (N, model.n_obs):
        raise SimulationError(f"sample returned shapes {theta.shape} and {Y.shape}",
                              index=0)
    bad_prior = ~np.isfinite(theta)
    bad = bad_prior | ~np.all(np.isfinite(Y), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        kind = "prior" if bad_prior[i] else "forward"
        raise SimulationError(f"{kind} draw is non-finite", index=i)
    return theta, Y


def summary_mean(y):
    """Mean of the observations: a float for one vector, one mean per row of a block."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape[-1] == 0:
        raise DataError("summary_mean needs a nonempty vector")
    return y.mean(axis=-1) if y.ndim > 1 else float(y.mean())


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

