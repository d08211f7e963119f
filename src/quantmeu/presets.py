"""Named experiment presets and builders for the two bundled problems.

Preset dictionaries are plain JSON-serializable configuration; builders
turn them into model objects. The normal-normal preset stores prior and
likelihood scales as standard deviations (prior sd 5, likelihood sd 10,
n=100) while the programmatic constructors take variances.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import DataError
from .models import (ModelSpec, NormalNormalModel, PortfolioProblem,
                     RandomSource, _interval, summary_mean)
from .special import normal_quantile

NORMAL_NORMAL = "normal-normal"
PORTFOLIO = "portfolio"

_PRESETS = {
    NORMAL_NORMAL: {
        "experiment": NORMAL_NORMAL,
        "model": {
            "prior_mean": 0.0,
            "prior_sd": 5.0,
            "likelihood_sd": 10.0,
            "n": 100,
            "true_theta": 3.0,
        },
        "simulate": {"N": 100000, "seed": 2061, "sorted_pairing": False},
        "data_seed": 424242,
        "train": {
            "learning_rate": 1e-3,
            "batch_size": 256,
            "max_epochs": 300,
            "patience": 30,
            "validation_fraction": 0.1,
            "seed": 42,
        },
        "posterior": {"M": 10000, "sample_seed": 5150},
    },
    PORTFOLIO: {
        "experiment": PORTFOLIO,
        "model": {
            "risk_free": 0.05,
            "return_mean": 0.1,
            "return_sd": 0.25,
            "risk_aversion": 2.0,
            "weight_domain": [0.0, 1.0],
        },
        "simulate": {"N": 100000, "seed": 7002, "sorted_pairing": True,
                     "grid_size": 101},
        "train": {
            "learning_rate": 1e-3,
            "batch_size": 256,
            "max_epochs": 80,
            "patience": 10,
            "validation_fraction": 0.1,
            "seed": 11,
        },
        "eu": {"M": 1024, "scheme": "uniform_grid"},
        "optimize": {"grid_size": 101, "refine": True},
    },
}


def preset_names():
    return sorted(_PRESETS)


def get_preset(name: str) -> dict:
    """Deep copy of the named preset configuration."""
    if name not in _PRESETS:
        raise DataError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return copy.deepcopy(_PRESETS[name])


def build_normal_normal(config: dict) -> NormalNormalModel:
    m = config["model"]
    prior_sd, likelihood_sd = float(m["prior_sd"]), float(m["likelihood_sd"])
    if not (prior_sd > 0 and likelihood_sd > 0):
        raise ValueError(f"model.prior_sd and model.likelihood_sd must be positive, "
                         f"got {prior_sd} and {likelihood_sd}")
    return NormalNormalModel(prior_mean=float(m["prior_mean"]),
                             prior_variance=prior_sd ** 2,
                             likelihood_variance=likelihood_sd ** 2,
                             n=int(m["n"]))


def generate_observed_data(config: dict) -> np.ndarray:
    """Seeded draw of the observed sample at the preset's true parameter."""
    m = config["model"]
    rng = RandomSource(seed=int(config["data_seed"]), stream=9)
    return rng.normal(int(m["n"]), mean=float(m["true_theta"]),
                      sd=float(m["likelihood_sd"]))


def build_portfolio(config: dict) -> PortfolioProblem:
    m = config["model"]
    return PortfolioProblem(risk_free=float(m["risk_free"]),
                            return_mean=float(m["return_mean"]),
                            return_sd=float(m["return_sd"]),
                            risk_aversion=float(m["risk_aversion"]),
                            weight_domain=decision_domain(config))


def portfolio_model_spec(problem: PortfolioProblem) -> ModelSpec:
    """Return draw as the parameter with an identity forward map.

    The risky return plays the role of theta; y = f(theta) = theta makes
    the summary column carry the return itself.
    """

    def sample(U: np.ndarray):
        theta = normal_quantile(U[:, 0]) * problem.return_sd + problem.return_mean
        return theta, theta[:, None]

    return ModelSpec(sample=sample, summary=summary_mean, n_obs=1, draws=1,
                     name="portfolio-return")


def decision_domain(config: dict) -> tuple:
    """The decision interval: the model's weight domain, else (0, 1)."""
    return _interval(config["model"].get("weight_domain", (0.0, 1.0)))


def decision_grid(config: dict) -> np.ndarray:
    return np.linspace(*decision_domain(config), int(config["simulate"]["grid_size"]))
