"""The package's top-level names, and the README example that uses three of them."""

import re
import types
from pathlib import Path

import numpy as np

import quantmeu
from quantmeu.engine import build_training_table
from quantmeu.models import RandomSource

README = Path(__file__).resolve().parents[1] / "README.md"

# the names tests/test_acceptance.py imports, get_preset, and the README's
# ModelSpec, normal_quantile and summary_mean; everything else is reached
# through its submodule
PUBLIC = {
    "DenseNet", "ModelSpec", "NormalNormalModel", "PortfolioProblem",
    "WangDistortion", "cara_normal_eu", "conjugate_posterior",
    "distorted_expectation", "expectation_via_survival", "expected_utility",
    "exponential_view", "get_preset", "grad_check", "kelly_weight",
    "lognormal_view", "normal_quantile", "normal_view", "optimize_decision",
    "prior_to_posterior_survival_check", "silver_normalization",
    "summary_mean", "uniform_view", "yaari_g",
}


def test_public_names_are_exactly_the_kept_surface():
    names = {name for name, value in vars(quantmeu).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
    assert isinstance(quantmeu.__version__, str)


def test_readme_custom_model_example_builds_a_table():
    section = README.read_text(encoding="utf-8").split("## Custom models", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(code, scope)
    spec = scope["spec"]
    assert isinstance(spec, quantmeu.ModelSpec)
    table = build_training_table(spec, N=300, rng=RandomSource(0))
    assert table.n_rows == 300 and table.summary_dim == 1
    assert np.all((table.tau > 0) & (table.tau < 1))
    # the summary is theta plus the mean of 10 standard normal errors
    resid = table.summary[:, 0] - table.theta
    assert abs(resid.std() - 1 / np.sqrt(10)) < 0.05
