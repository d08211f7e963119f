"""Closed-form counterparts and dual-theory machinery.

Conjugate normal-normal posterior, the Wang distortion that carries the
prior survival to the posterior survival, survival-integral
representations of expectations, distorted expectations with the Yaari
construction, a telescoping normalization check for distortion
derivatives, and the CARA-normal expected utility with its closed-form
optimal weight.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, DomainError, NumericError, ShapeError
from .models import NormalNormalModel, PortfolioProblem
from .special import normal_cdf, normal_quantile

DEFAULT_M = 4096

_TAIL = 1e-8


# ---------------------------------------------------------------------------
# conjugate posterior and the Wang distortion
# ---------------------------------------------------------------------------

@dataclass
class NormalPosterior:
    """Normal posterior N(mu_star, sigma_star_sq) with its building blocks.

    t = likelihood_variance + n * prior_variance and s = sum(y), so
    mu_star = (sigma^2 mu + alpha^2 s) / t and sigma_star_sq =
    alpha^2 sigma^2 / t.
    """

    mu_star: float
    sigma_star_sq: float
    t: float
    s: float

    def __post_init__(self):
        if not self.sigma_star_sq > 0:
            raise DomainError("sigma_star_sq must be positive")
        if not self.t > 0:
            raise DomainError("t must be positive")

    @property
    def sigma_star(self) -> float:
        return math.sqrt(self.sigma_star_sq)

    def cdf(self, x):
        return normal_cdf((np.asarray(x, dtype=np.float64) - self.mu_star)
                          / self.sigma_star)


def conjugate_posterior(model: NormalNormalModel, y) -> NormalPosterior:
    """Exact normal-normal posterior; empty y returns the prior."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = y.shape[0]
    if n != 0 and n != model.n:
        raise ShapeError(f"y has length {n}, model declares n={model.n}")
    alpha_sq = model.prior_variance
    sigma_sq = model.likelihood_variance
    s = float(y.sum())
    t = sigma_sq + n * alpha_sq
    mu_star = (sigma_sq * model.prior_mean + alpha_sq * s) / t
    sigma_star_sq = alpha_sq * sigma_sq / t
    return NormalPosterior(mu_star=mu_star, sigma_star_sq=sigma_star_sq, t=t, s=s)


def _distortion(p, interior: Callable):
    """A distortion g at p in [0,1]: exactly 0 at 0 and 1 at 1, `interior`
    on the open interval, clipped to [0,1]; a scalar p gives a float."""
    arr = np.asarray(p, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    # written so that NaN fails the check too
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError("distortion argument must lie in [0,1]")
    out = np.where(arr == 1.0, 1.0, 0.0)
    inner = (arr != 0.0) & (arr != 1.0)
    if np.any(inner):
        out[inner] = interior(arr[inner])
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


@dataclass
class WangDistortion:
    """Distortion g(p) = Phi(lambda1 * Phi^{-1}(p) + lam)."""

    lambda1: float
    lam: float = 0.0

    def __post_init__(self):
        if not self.lambda1 > 0:
            raise DomainError("lambda1 must be positive")

    def __call__(self, p):
        return _distortion(p, lambda q: normal_cdf(self.lambda1 * normal_quantile(q)
                                                   + self.lam))


def wang_params(model: NormalNormalModel, y) -> WangDistortion:
    """Distortion parameters lambda1 = alpha/sigma_star, lam = alpha*lambda1*(s - n*mu)/t."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    post = conjugate_posterior(model, y)
    alpha = math.sqrt(model.prior_variance)
    lambda1 = alpha / post.sigma_star
    lam = alpha * lambda1 * (post.s - y.shape[0] * model.prior_mean) / post.t
    return WangDistortion(lambda1=lambda1, lam=lam)


def prior_to_posterior_survival_check(theta_grid, model: NormalNormalModel, y) -> float:
    """Worst |posterior survival - g(prior survival)| over the grid.

    The two sides agree identically when g carries the Wang parameters
    derived from the same model and data.
    """
    theta_grid = np.asarray(theta_grid, dtype=np.float64).reshape(-1)
    if theta_grid.size == 0:
        raise DataError("theta grid must be nonempty")
    post = conjugate_posterior(model, y)
    w = wang_params(model, y)
    alpha = math.sqrt(model.prior_variance)
    post_surv = normal_cdf(-(theta_grid - post.mu_star) / post.sigma_star)
    prior_surv = normal_cdf(-(theta_grid - model.prior_mean) / alpha)
    rhs = w(prior_surv)
    return float(np.max(np.abs(post_surv - rhs)))


# ---------------------------------------------------------------------------
# distribution views and expectation representations
# ---------------------------------------------------------------------------

@dataclass
class DistributionView:
    """A distribution given by its cdf and its quantile function.

    The quantile must be the generalized inverse of the cdf; operations
    here assume but do not verify this. Where a computation needs the
    range of the variable it reads the extreme quantiles, at 1e-12 and
    1 - 1e-12.
    """

    cdf: Callable
    quantile: Callable

    def survival(self, x):
        return 1.0 - self.cdf(x)


def normal_view(mean: float = 0.0, sd: float = 1.0) -> DistributionView:
    if not sd > 0:
        raise DomainError("sd must be positive")
    return DistributionView(
        cdf=lambda x: normal_cdf((np.asarray(x, dtype=np.float64) - mean) / sd),
        quantile=lambda p: mean + sd * normal_quantile(p))


def exponential_view(rate: float = 1.0) -> DistributionView:
    if not rate > 0:
        raise DomainError("rate must be positive")
    return DistributionView(
        cdf=lambda x: -np.expm1(-rate * np.maximum(np.asarray(x, dtype=np.float64), 0.0)),
        quantile=lambda p: -np.log1p(-np.asarray(p, dtype=np.float64)) / rate)


def uniform_view(a: float = 0.0, b: float = 1.0) -> DistributionView:
    if not a < b:
        raise DomainError("need a < b")
    return DistributionView(
        cdf=lambda x: np.clip((np.asarray(x, dtype=np.float64) - a) / (b - a), 0.0, 1.0),
        quantile=lambda p: a + (b - a) * np.asarray(p, dtype=np.float64))


def lognormal_view(mu: float = 0.0, sigma: float = 1.0) -> DistributionView:
    if not sigma > 0:
        raise DomainError("sigma must be positive")

    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        pos = x > 0
        out = np.where(pos, normal_cdf((np.log(np.where(pos, x, 1.0)) - mu) / sigma), 0.0)
        return out if out.ndim else float(out)

    return DistributionView(
        cdf=cdf,
        quantile=lambda p: np.exp(mu + sigma * normal_quantile(p)))


def _survival_integral(dist: DistributionView, g: Callable, M: int) -> float:
    """Midpoint rule for int g(S(t)) dt over [0, q(1-1e-8)].

    Needs an effectively nonnegative variable, probed through the extreme
    lower quantile, so a normal located far above zero still qualifies.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if float(np.asarray(dist.quantile(1e-12))) < -1e-8:
        raise DomainError("survival integrals need nonnegative support; "
                          "use the quantile-integral route instead")
    upper = float(np.asarray(dist.quantile(1.0 - _TAIL)))
    if not math.isfinite(upper):
        raise NumericError("upper truncation point is non-finite")
    if upper <= 0.0:
        return 0.0
    t = upper * (np.arange(M) + 0.5) / M
    s = np.clip(np.asarray(dist.survival(t), dtype=np.float64), 0.0, 1.0)
    vals = np.asarray(g(s), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise NumericError("survival integrand returned non-finite values")
    return float(vals.sum() * upper / M)


def expectation_via_survival(dist: DistributionView, M: int = DEFAULT_M) -> float:
    """E(U) as the integral of the survival function over [0, q(1-1e-8)]."""
    return _survival_integral(dist, lambda s: s, M)


def distorted_expectation(dist: DistributionView, g: Callable,
                          M: int = DEFAULT_M) -> float:
    """Dual-theory value int g(S(t)) dt over the payout axis."""
    g0 = float(np.asarray(g(0.0)))
    g1 = float(np.asarray(g(1.0)))
    if abs(g0) > 1e-9 or abs(g1 - 1.0) > 1e-9:
        raise DataError(f"distortion endpoints g(0)={g0}, g(1)={g1} must be 0 and 1")
    return _survival_integral(dist, g, M)


def yaari_g(u: Callable, dist: DistributionView) -> Callable:
    """Distortion carrying S_X to S_{u(X)}: g(p) = S_X(u_inv(S_X_inv(p))).

    The utility u must be strictly increasing on [q(1e-12), q(1 - 1e-12)];
    its inverse is computed by bisection on that bracket and clamped to
    its ends. Returned g maps 0 to 0 and 1 to 1 exactly.
    """
    lo_q = float(np.asarray(dist.quantile(1e-12)))
    hi_q = float(np.asarray(dist.quantile(1.0 - 1e-12)))
    probe = np.linspace(lo_q, hi_q, 33)
    uprobe = np.asarray([float(u(x)) for x in probe])
    if not np.all(np.diff(uprobe) > 0):
        raise DataError("utility must be strictly increasing on the support")

    def u_inverse(t: float) -> float:
        # past the bracket the survival at its nearer end is within 1e-12
        # of the true 1 or 0
        a, b = lo_q, hi_q
        if float(u(a)) > t:
            return a
        if float(u(b)) < t:
            return b
        for _ in range(200):
            mid = 0.5 * (a + b)
            if float(u(mid)) < t:
                a = mid
            else:
                b = mid
            if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
                break
        return 0.5 * (a + b)

    def interior(p):
        t = np.asarray(dist.quantile(1.0 - p), dtype=np.float64)
        return dist.survival(np.array([u_inverse(float(ti)) for ti in t]))

    return lambda p: _distortion(p, interior)


def silver_normalization(g: Callable, M: int = DEFAULT_M) -> float:
    """Integral of g'(1 - tau) over the unit interval; telescopes to 1.

    Equals int g'(S_X(t)) dF_X(t) for any continuous distribution after
    the tau substitution, so no distribution enters the computation.
    The derivative is a central difference of step 1e-6; stencils that
    would leave [0,1] (M > 500,000) are clipped with a warning, so g must
    be defined at 0 and 1.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    h = 1e-6
    tau = (np.arange(M) + 0.5) / M
    p = 1.0 - tau
    up = p + h
    down = p - h
    clipped = bool(np.any(up > 1.0) or np.any(down < 0.0))
    if clipped:
        warnings.warn("derivative stencil clipped at the unit interval boundary",
                      RuntimeWarning, stacklevel=2)
    up = np.clip(up, 0.0, 1.0)
    down = np.clip(down, 0.0, 1.0)
    gu = np.asarray(g(up), dtype=np.float64)
    gd = np.asarray(g(down), dtype=np.float64)
    deriv = (gu - gd) / (up - down)
    if not np.all(np.isfinite(deriv)):
        raise NumericError("distortion derivative evaluated non-finite")
    return float(deriv.mean())


# ---------------------------------------------------------------------------
# CARA portfolio closed forms
# ---------------------------------------------------------------------------

def cara_normal_eu(weight, problem: PortfolioProblem):
    """Closed-form expected CARA utility -exp(-gamma*m + gamma^2 w^2 sigma^2 / 2)."""
    arr = np.asarray(weight, dtype=np.float64)
    lo, hi = problem.weight_domain
    if np.any(arr < lo) or np.any(arr > hi):
        raise DomainError(f"weight outside the domain [{lo}, {hi}]")
    gamma = problem.risk_aversion
    m = (1.0 - arr) * problem.risk_free + arr * problem.return_mean
    out = -np.exp(-gamma * m + 0.5 * gamma * gamma * arr * arr
                  * problem.return_sd ** 2)
    return float(out) if arr.ndim == 0 else out


def kelly_weight(problem: PortfolioProblem) -> float:
    """Optimal weight (mu - r_f) / (sigma^2 gamma), clamped to the domain."""
    raw = (problem.return_mean - problem.risk_free) / (
        problem.return_sd ** 2 * problem.risk_aversion)
    lo, hi = problem.weight_domain
    return min(max(raw, lo), hi)
