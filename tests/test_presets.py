"""Preset configurations and their builders."""

import numpy as np
import pytest

from quantmeu import get_preset
from quantmeu.errors import DataError
from quantmeu.presets import (NORMAL_NORMAL, PORTFOLIO, build_normal_normal,
                              build_portfolio, decision_grid,
                              generate_observed_data, portfolio_model_spec,
                              preset_names)


def test_preset_names():
    assert preset_names() == ["normal-normal", "portfolio"]


def test_get_preset_unknown():
    with pytest.raises(DataError):
        get_preset("nope")


def test_get_preset_returns_copy():
    a = get_preset(PORTFOLIO)
    a["simulate"]["N"] = 1
    assert get_preset(PORTFOLIO)["simulate"]["N"] != 1


def test_build_normal_normal_squares_sds():
    cfg = get_preset(NORMAL_NORMAL)
    model = build_normal_normal(cfg)
    assert model.prior_variance == cfg["model"]["prior_sd"] ** 2
    assert model.likelihood_variance == cfg["model"]["likelihood_sd"] ** 2
    assert model.n == cfg["model"]["n"]


def test_generate_observed_data_seeded():
    cfg = get_preset(NORMAL_NORMAL)
    a = generate_observed_data(cfg)
    b = generate_observed_data(cfg)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (cfg["model"]["n"],)
    c = generate_observed_data(dict(cfg, data_seed=1))
    assert not np.array_equal(a, c)
    # centered near the generating parameter
    assert abs(a.mean() - cfg["model"]["true_theta"]) < 5.0


def test_build_portfolio():
    cfg = get_preset(PORTFOLIO)
    problem = build_portfolio(cfg)
    assert problem.risk_free == cfg["model"]["risk_free"]
    assert problem.weight_domain == tuple(cfg["model"]["weight_domain"])


def test_portfolio_model_spec_identity_summary():
    from quantmeu.models import RandomSource, simulate_pairs
    spec = portfolio_model_spec(build_portfolio(get_preset(PORTFOLIO)))
    assert spec.n_obs == 1
    theta, Y = simulate_pairs(spec, 5, RandomSource(0))
    np.testing.assert_array_equal(spec.summary(Y), theta)


def test_decision_grid():
    cfg = get_preset(PORTFOLIO)
    grid = decision_grid(cfg)
    assert grid.shape == (cfg["simulate"]["grid_size"],)
    assert grid[0] == 0.0 and grid[-1] == 1.0
