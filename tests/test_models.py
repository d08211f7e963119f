"""Random source, model specs, summaries, and utility helpers."""

import math

import numpy as np
import pytest

from quantmeu import NormalNormalModel, PortfolioProblem, summary_mean
from quantmeu.errors import DataError, DomainError, NumericError, SimulationError
from quantmeu.models import (RandomSource, UtilitySpec, cara_utility,
                             portfolio_wealth, simulate_pairs)
from quantmeu.special import normal_quantile


# ---------------------------------------------------------------------------
# RandomSource
# ---------------------------------------------------------------------------

def test_random_source_reproducible():
    a = RandomSource(3, stream=2).uniform(10)
    b = RandomSource(3, stream=2).uniform(10)
    np.testing.assert_array_equal(a, b)


def test_random_source_streams_differ():
    a = RandomSource(3, stream=0).uniform(10)
    b = RandomSource(3, stream=1).uniform(10)
    assert not np.array_equal(a, b)


class _EdgeDraws:
    """A generator stub that returns Philox's smallest and largest draws."""

    def random(self, n):
        return np.array([0.0, 1.0 - 2.0 ** -53])


def test_uniform_open_interval():
    u = RandomSource(0).uniform(10000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)
    # 1 - 2**-53 + 2**-54 rounds half-to-even to 1.0, which normal_quantile
    # refuses; the top draw is capped just below it
    source = RandomSource(0)
    source._gen = _EdgeDraws()
    u = source.uniform(2)
    assert u.tolist() == [2.0 ** -54, 1.0 - 2.0 ** -53]
    assert np.all(np.isfinite(normal_quantile(u)))


def test_normal_moments_and_coupling():
    rng = RandomSource(1)
    z = rng.normal(200000)
    assert np.mean(z) == pytest.approx(0.0, abs=0.01)
    assert np.std(z) == pytest.approx(1.0, abs=0.01)
    # location/scale are applied to the same underlying uniforms
    a = RandomSource(2).normal(5, mean=3.0, sd=2.0)
    b = RandomSource(2).normal(5)
    np.testing.assert_allclose(a, 3.0 + 2.0 * b, rtol=1e-12)


# ---------------------------------------------------------------------------
# model specs and simulation
# ---------------------------------------------------------------------------

def test_normal_normal_spec_shapes():
    model = NormalNormalModel(0.0, 25.0, 100.0, n=7)
    spec = model.spec()
    assert spec.n_obs == 7
    assert spec.draws == 8
    theta, Y = simulate_pairs(spec, 40, RandomSource(0))
    assert theta.shape == (40,)
    assert Y.shape == (40, 7)


def test_normal_normal_marginals():
    # [DERIVED] marginally y_ij ~ N(prior_mean, prior_var + lik_var)
    model = NormalNormalModel(2.0, 4.0, 9.0, n=5)
    theta, Y = simulate_pairs(model.spec(), 20000, RandomSource(1))
    ys = Y.ravel()
    assert theta.mean() == pytest.approx(2.0, abs=0.05)
    assert theta.var() == pytest.approx(4.0, rel=0.05)
    assert ys.var() == pytest.approx(13.0, rel=0.05)


def test_simulate_pairs_reports_failing_index():
    model = NormalNormalModel(0.0, 1.0, 1.0, n=2)
    spec = model.spec()

    def bad_sample(U):
        theta, Y = spec.sample(U)
        theta[2] = math.nan
        Y[5, 1] = math.inf
        return theta, Y

    broken = type(spec)(sample=bad_sample, summary=spec.summary,
                        n_obs=spec.n_obs, draws=spec.draws)
    with pytest.raises(SimulationError) as exc:
        simulate_pairs(broken, 10, RandomSource(0))
    assert exc.value.index == 2


def test_summary_mean():
    assert summary_mean([1.0, 2.0, 6.0]) == 3.0
    np.testing.assert_array_equal(summary_mean([[1.0, 2.0, 6.0], [0.0, 0.0, 3.0]]),
                                  [3.0, 1.0])
    with pytest.raises(DataError):
        summary_mean([])


# ---------------------------------------------------------------------------
# portfolio pieces
# ---------------------------------------------------------------------------

def test_portfolio_wealth_values():
    # [TRIVIAL]
    assert portfolio_wealth(0.0, 0.5, 0.05) == 0.05
    assert portfolio_wealth(1.0, 0.5, 0.05) == 0.5
    assert portfolio_wealth(0.4, 0.1, 0.05) == pytest.approx(0.07)


def test_cara_utility_values():
    assert cara_utility(0.0, 2.0) == -1.0
    assert cara_utility(1.0, 2.0) == pytest.approx(-math.exp(-2.0))
    out = cara_utility(np.array([0.0, 1.0]), 1.0)
    np.testing.assert_allclose(out, [-1.0, -math.exp(-1.0)])


def test_cara_utility_guards():
    with pytest.raises(DomainError):
        cara_utility(0.0, 0.0)
    with pytest.raises(NumericError):
        cara_utility(-1000.0, 5.0)


def test_portfolio_problem_domain_check():
    with pytest.raises(DomainError):
        PortfolioProblem(weight_domain=(-0.5, 1.0))
    for degenerate in ((0.3, 0.3), (0.6, 0.2)):
        with pytest.raises(DomainError):
            PortfolioProblem(weight_domain=degenerate)
    with pytest.raises(DomainError):
        UtilitySpec(evaluate=portfolio_wealth, decision_domain=(0.5, 0.5))
    p = PortfolioProblem()
    assert p.weight_domain == (0.0, 1.0)


def test_utility_spec_evaluates_cara_of_wealth():
    p = PortfolioProblem(risk_free=0.05, return_mean=0.1, return_sd=0.25,
                         risk_aversion=2.0)
    spec = p.utility_spec()
    w, r = 0.3, 0.2
    expected = cara_utility(portfolio_wealth(w, r, 0.05), 2.0)
    assert spec.evaluate(w, r) == pytest.approx(expected)
    assert spec.decision_domain == (0.0, 1.0)
