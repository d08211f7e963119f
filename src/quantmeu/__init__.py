"""quantmeu: quantile-network decision engine.

Simulation-based Bayesian decision making: learn posterior and utility
quantile functions with small dense networks trained on the pinball
loss, evaluate expected utility as an integral over quantile levels,
and maximize it over a one-dimensional decision. Closed-form normal
machinery (conjugate posterior, distortion functions, CARA portfolio
solutions) is included for verification and reproduction.

The top level exports what the acceptance checks and the README use;
import anything else from its module (`quantmeu.engine`, `quantmeu.net`,
`quantmeu.errors`, ...).
"""

from .special import normal_quantile
from .net import DenseNet, grad_check
from .models import ModelSpec, NormalNormalModel, PortfolioProblem, summary_mean
from .engine import expected_utility, optimize_decision
from .analytic import (WangDistortion, cara_normal_eu, conjugate_posterior,
                       distorted_expectation, expectation_via_survival,
                       exponential_view, kelly_weight, lognormal_view,
                       normal_view, prior_to_posterior_survival_check,
                       silver_normalization, uniform_view, yaari_g)
from .presets import get_preset
# repro imports every other submodule, so each one is a package attribute
from . import repro  # noqa: F401

__version__ = "0.1.0"
