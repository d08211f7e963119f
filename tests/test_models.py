"""Random source, model specs, summaries, and utility helpers."""

import math

import numpy as np
import pytest

from quantmeu import (LinearSummary, NormalNormalModel, PortfolioProblem,
                      RandomSource, cara_utility, learn_summary_ols,
                      portfolio_wealth, simulate_pairs, summary_mean)
from quantmeu.errors import (DataError, DomainError, NumericError, ShapeError,
                             SimulationError, SingularDesignError)


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


def test_substream_independent_of_draw_order():
    root = RandomSource(5)
    root.uniform(100)
    late = root.substream(4).uniform(8)
    early = RandomSource(5).substream(4).uniform(8)
    np.testing.assert_array_equal(late, early)


def test_uniform_open_interval():
    u = RandomSource(0).uniform(10000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


def test_normal_moments_and_coupling():
    rng = RandomSource(1)
    z = rng.normal(200000)
    assert np.mean(z) == pytest.approx(0.0, abs=0.01)
    assert np.std(z) == pytest.approx(1.0, abs=0.01)
    # location/scale are applied to the same underlying uniforms
    a = RandomSource(2).normal(5, mean=3.0, sd=2.0)
    b = RandomSource(2).normal(5)
    np.testing.assert_allclose(a, 3.0 + 2.0 * b, rtol=1e-12)


def test_normal_scalar_mode():
    x = RandomSource(9).normal()
    assert isinstance(x, float)


def test_integers_and_permutation():
    v = RandomSource(4).integers(0, 10, 1000)
    assert v.min() >= 0 and v.max() <= 9
    p = RandomSource(4).permutation(50)
    assert sorted(p.tolist()) == list(range(50))


# ---------------------------------------------------------------------------
# model specs and simulation
# ---------------------------------------------------------------------------

def test_normal_normal_spec_shapes():
    model = NormalNormalModel(0.0, 25.0, 100.0, n=7)
    spec = model.spec()
    assert spec.n_obs == 7
    pairs = simulate_pairs(spec, 40, RandomSource(0))
    assert len(pairs) == 40
    theta, y = pairs[0]
    assert isinstance(theta, float)
    assert y.shape == (7,)


def test_normal_normal_marginals():
    # [DERIVED] marginally y_ij ~ N(prior_mean, prior_var + lik_var)
    model = NormalNormalModel(2.0, 4.0, 9.0, n=5)
    pairs = simulate_pairs(model.spec(), 20000, RandomSource(1))
    theta = np.array([p[0] for p in pairs])
    ys = np.concatenate([p[1] for p in pairs])
    assert theta.mean() == pytest.approx(2.0, abs=0.05)
    assert theta.var() == pytest.approx(4.0, rel=0.05)
    assert ys.var() == pytest.approx(13.0, rel=0.05)


def test_simulate_pairs_reports_failing_index():
    model = NormalNormalModel(0.0, 1.0, 1.0, n=2)
    spec = model.spec()
    calls = {"i": 0}

    def bad_prior(rng):
        calls["i"] += 1
        return math.nan if calls["i"] == 3 else 0.0

    broken = type(spec)(prior_sampler=bad_prior, forward=spec.forward,
                        summary=spec.summary, n_obs=spec.n_obs)
    with pytest.raises(SimulationError) as exc:
        simulate_pairs(broken, 10, RandomSource(0))
    assert exc.value.index == 2


def test_summary_mean():
    assert summary_mean([1.0, 2.0, 6.0]) == 3.0
    with pytest.raises(DataError):
        summary_mean([])


def test_learn_summary_ols_recovers_plain_mean():
    # when theta is the exact mean of y, OLS must recover weights 1/n
    rng = np.random.default_rng(0)
    Y = rng.normal(size=(200, 4))
    pairs = [(float(np.mean(row)), row) for row in Y]
    s = learn_summary_ols(pairs)
    assert s.intercept == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(s.coefficients, 0.25, atol=1e-10)
    assert s(Y[0]) == pytest.approx(np.mean(Y[0]))


def test_learn_summary_ols_singular_design():
    pairs = [(1.0, np.array([2.0, 2.0]))] * 10
    with pytest.raises(SingularDesignError):
        learn_summary_ols(pairs)
    with pytest.raises(SingularDesignError):
        learn_summary_ols([(1.0, np.arange(5.0))] * 3)


def test_linear_summary_length_check():
    s = LinearSummary(0.0, np.array([1.0, 2.0]))
    with pytest.raises(ShapeError):
        s([1.0, 2.0, 3.0])


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
