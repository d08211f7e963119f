"""quantmeu: quantile-network decision engine.

Simulation-based Bayesian decision making: learn posterior and utility
quantile functions with small dense networks trained on the pinball
loss, evaluate expected utility as an integral over quantile levels,
and maximize it over a one-dimensional decision. Closed-form normal
machinery (conjugate posterior, distortion functions, CARA portfolio
solutions) is included for verification and reproduction.
"""

from .errors import (DataError, DomainError, NumericError, QuantmeuError,
                     ShapeError, SimulationError, SingularDesignError)
from .special import normal_cdf, normal_quantile
from ._kernels import backend
from .net import (DenseNet, GradCheckResult, TrainConfig, TrainHistory,
                  backward, forward, grad_check, load_net, net_from_document,
                  net_to_document, pinball_loss, save_net, train)
from .models import (LinearSummary, ModelSpec, NormalNormalModel,
                     PortfolioProblem, RandomSource, UtilitySpec,
                     cara_utility, learn_summary_ols, portfolio_wealth,
                     simulate_pairs, summary_mean)
from .tables import TrainingTable
from .engine import (OptimizationResult, QuantileNet, build_training_table,
                     compose_utility_samples, expected_utility,
                     optimize_decision, posterior_sample, train_posterior_net,
                     train_utility_net)
from .analytic import (DistributionView, NormalPosterior, WangDistortion,
                       cara_normal_eu, conjugate_posterior, constant_view,
                       distorted_expectation, expectation_via_survival,
                       exponential_view, kelly_weight, lognormal_view,
                       lorenz_point, normal_view, posterior_quantile_via_distortion,
                       prior_to_posterior_survival_check, silver_normalization,
                       uniform_view, wang_g, wang_g_inverse, wang_params,
                       yaari_g)
from .presets import get_preset, preset_names
from .repro import ks_distance, run_normal_normal, run_portfolio

__version__ = "0.1.0"
