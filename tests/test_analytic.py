"""Closed-form posterior, distortions, dual-theory integrals, Kelly weight.

Oracles: conjugate-update algebra recomputed longhand with mpmath, the
exponential-integral value for E[ln(1+X)], and Monte Carlo for the CARA
closed form.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from quantmeu import (NormalNormalModel, PortfolioProblem, WangDistortion,
                      cara_normal_eu, conjugate_posterior,
                      distorted_expectation, expectation_via_survival,
                      exponential_view, kelly_weight, lognormal_view,
                      normal_view, prior_to_posterior_survival_check,
                      silver_normalization, uniform_view, yaari_g)
from quantmeu.analytic import NormalPosterior, wang_params
from quantmeu.errors import DataError, DomainError, ShapeError

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# conjugate posterior
# ---------------------------------------------------------------------------

def test_conjugate_posterior_matches_longhand():
    # [DERIVED] precision-weighted update recomputed with 40-digit mpmath
    model = NormalNormalModel(prior_mean=1.5, prior_variance=4.0,
                              likelihood_variance=9.0, n=6)
    y = np.array([2.0, -1.0, 3.5, 0.0, 1.0, 2.5])
    post = conjugate_posterior(model, y)
    prec = 1 / mp.mpf(4) + 6 / mp.mpf(9)
    mu = (mp.mpf("1.5") / 4 + mp.mpf(y.sum()) / 9) / prec
    assert post.mu_star == pytest.approx(float(mu), rel=1e-14)
    assert post.sigma_star_sq == pytest.approx(float(1 / prec), rel=1e-14)


def test_conjugate_posterior_empty_y_is_prior():
    model = NormalNormalModel(2.0, 25.0, 100.0, n=100)
    post = conjugate_posterior(model, [])
    assert post.mu_star == 2.0
    assert post.sigma_star_sq == 25.0


def test_conjugate_posterior_length_check():
    model = NormalNormalModel(0.0, 1.0, 1.0, n=3)
    with pytest.raises(ShapeError):
        conjugate_posterior(model, [1.0, 2.0])


def test_posterior_quantile_cdf_roundtrip():
    post = NormalPosterior(mu_star=1.0, sigma_star_sq=0.25, t=2.0, s=3.0)
    view = normal_view(1.0, 0.5)
    for u in (0.05, 0.5, 0.9):
        assert post.cdf(view.quantile(u)) == pytest.approx(u, rel=1e-12)
    assert post.sigma_star == 0.5


def test_posterior_shrinks_toward_data():
    model = NormalNormalModel(0.0, 25.0, 100.0, n=100)
    y = np.full(100, 3.0)
    post = conjugate_posterior(model, y)
    # 100 observations at variance 100 dominate a variance-25 prior
    assert post.mu_star == pytest.approx(3.0, abs=0.15)
    assert post.sigma_star < 1.05


# ---------------------------------------------------------------------------
# Wang distortion
# ---------------------------------------------------------------------------

def test_wang_endpoints_exact():
    w = WangDistortion(2.0, 0.7)
    assert w(0.0) == 0.0
    assert w(1.0) == 1.0
    out = w(np.array([0.0, 0.5, 1.0]))
    assert out[0] == 0.0 and out[2] == 1.0


def test_wang_monotone_and_invertible():
    w = WangDistortion(1.7, -0.4)
    p = np.linspace(0.001, 0.999, 500)
    vals = w(p)
    assert np.all(np.diff(vals) > 0)


def test_wang_identity_parameters():
    w = WangDistortion(1.0, 0.0)
    p = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(w(p), p, rtol=1e-12)


def test_wang_open_unit_checked():
    w = WangDistortion(1.0, 0.0)
    with pytest.raises(DomainError):
        w(1.5)
    with pytest.raises(DomainError):
        WangDistortion(0.0, 0.0)


def test_prior_to_posterior_survival_identity():
    model = NormalNormalModel(0.0, 25.0, 100.0, n=10)
    y = np.linspace(-2, 6, 10)
    grid = np.linspace(-10, 10, 101)
    assert prior_to_posterior_survival_check(grid, model, y) < 1e-12


def test_wang_params_formulas():
    model = NormalNormalModel(0.0, 25.0, 100.0, n=4)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    w = wang_params(model, y)
    post = conjugate_posterior(model, y)
    assert w.lambda1 == pytest.approx(5.0 / post.sigma_star, rel=1e-12)
    assert w.lam == pytest.approx(5.0 * w.lambda1 * 10.0 / post.t, rel=1e-12)


# ---------------------------------------------------------------------------
# distribution views
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("view,median", [
    (normal_view(2.0, 3.0), 2.0),
    (exponential_view(2.0), math.log(2) / 2),
    (uniform_view(1.0, 5.0), 3.0),
    (lognormal_view(0.5, 1.0), math.exp(0.5)),
])
def test_view_roundtrips(view, median):
    assert view.quantile(0.5) == pytest.approx(median, rel=1e-12)
    for u in (0.1, 0.5, 0.95):
        assert view.cdf(view.quantile(u)) == pytest.approx(u, rel=1e-10)
    x = view.quantile(0.3)
    assert view.survival(x) == pytest.approx(1 - view.cdf(x), rel=1e-12)


# ---------------------------------------------------------------------------
# expectation representations
# ---------------------------------------------------------------------------

def test_survival_route_values():
    assert expectation_via_survival(uniform_view(0.0, 2.0)) == pytest.approx(
        1.0, abs=1e-9)
    assert expectation_via_survival(exponential_view(1.0)) == pytest.approx(
        1.0, abs=1e-5)
    assert expectation_via_survival(lognormal_view(0.0, 0.5)) == pytest.approx(
        math.exp(0.125), abs=1e-6)


def test_survival_route_accepts_positive_normal():
    got = expectation_via_survival(normal_view(5.0, 0.5))
    assert got == pytest.approx(5.0, abs=1e-6)


def test_survival_route_rejects_straddling_normal():
    with pytest.raises(DomainError):
        expectation_via_survival(normal_view(0.0, 1.0))


def test_distorted_identity_equals_survival_route():
    dist = exponential_view(0.5)
    ident = lambda p: np.asarray(p, dtype=np.float64)
    a = distorted_expectation(dist, ident)
    b = expectation_via_survival(dist)
    assert a == pytest.approx(b, rel=1e-12)


def test_wang_distorted_lognormal_closed_form():
    # [DERIVED] shifting by lam under lambda1=1 maps LN(mu, s) to
    # LN(mu + lam*s, s), so the value is exp(mu + lam*s + s^2/2)
    mu, sgm, lam = 0.0, 0.5, 0.5
    got = distorted_expectation(lognormal_view(mu, sgm),
                                WangDistortion(1.0, lam))
    want = math.exp(mu + lam * sgm + sgm * sgm / 2)
    assert got == pytest.approx(want, abs=1e-4)


def test_distorted_expectation_endpoint_guard():
    with pytest.raises(DataError):
        distorted_expectation(exponential_view(1.0), lambda p: 0.5 * np.ones_like(np.asarray(p, dtype=float)))


# ---------------------------------------------------------------------------
# Yaari construction and the normalization check
# ---------------------------------------------------------------------------

def test_yaari_g_closed_form_sqrt_exponential():
    # u = sqrt on exp(1): g(p) = exp(-(log p)^2)
    g = yaari_g(math.sqrt, exponential_view(1.0))
    for k in (1.0, 2.0, 4.0):
        p = math.exp(-k)
        assert g(p) == pytest.approx(math.exp(-k * k), rel=1e-6, abs=1e-12)
    assert g(0.0) == 0.0
    assert g(1.0) == 1.0


def test_yaari_g_past_the_bracket():
    # u_inv(6) = 36 lies beyond q(1 - 1e-12) = 27.6 of exp(1), where u_inv is
    # clamped; the survival there is within 1e-12 of the true exp(-36)
    g = yaari_g(math.sqrt, exponential_view(1.0))
    assert g(math.exp(-6.0)) == pytest.approx(math.exp(-36.0), rel=0, abs=1e-12)


def test_yaari_g_rejects_nonincreasing_utility():
    with pytest.raises(DataError):
        yaari_g(lambda x: -x, exponential_view(1.0))
    with pytest.raises(DataError):
        yaari_g(math.sin, uniform_view(0.0, 10.0))


def test_yaari_g_domain_check():
    g = yaari_g(math.sqrt, exponential_view(1.0))
    with pytest.raises(DomainError):
        g(1.5)


@pytest.mark.parametrize("u, dist", [
    (math.sqrt, lognormal_view(0.0, 0.5)),
    (math.log1p, exponential_view(1.0)),
    (lambda x: 0.5 * x, uniform_view(0.0, 2.0)),
])
def test_yaari_g_array_matches_elementwise(u, dist):
    # g evaluates a whole array at once; element by element is the reference
    g = yaari_g(u, dist)
    p = np.concatenate([[0.0, 1.0], np.linspace(1e-6, 1.0 - 1e-6, 101)])
    np.testing.assert_array_equal(g(p), [g(float(pi)) for pi in p])


def test_silver_normalization_identity_exact():
    ident = lambda p: np.asarray(p, dtype=np.float64)
    assert silver_normalization(ident) == pytest.approx(1.0, abs=1e-13)


def test_silver_normalization_quadratic_exact():
    psq = lambda p: np.asarray(p, dtype=np.float64) ** 2
    assert silver_normalization(psq) == pytest.approx(1.0, abs=1e-12)


def test_silver_normalization_wang():
    assert silver_normalization(WangDistortion(1.0, 0.5)) == pytest.approx(
        1.0, abs=1e-3)


def test_silver_normalization_clipping_warns():
    ident = lambda p: np.asarray(p, dtype=np.float64)
    with pytest.warns(RuntimeWarning):
        got = silver_normalization(ident, M=600_000)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_silver_normalization_guards():
    ident = lambda p: np.asarray(p, dtype=np.float64)
    with pytest.raises(ValueError):
        silver_normalization(ident, M=0)


# ---------------------------------------------------------------------------
# CARA closed form and the Kelly weight
# ---------------------------------------------------------------------------

def test_cara_normal_eu_matches_monte_carlo():
    # [DERIVED] 2e6-draw Monte Carlo oracle, seeded; SE about 1.3e-4
    problem = PortfolioProblem()
    rng = np.random.default_rng(20240817)
    R = rng.normal(problem.return_mean, problem.return_sd, size=2_000_000)
    for w in (0.0, 0.4, 1.0):
        wealth = (1 - w) * problem.risk_free + w * R
        mc = np.mean(-np.exp(-problem.risk_aversion * wealth))
        assert cara_normal_eu(w, problem) == pytest.approx(mc, abs=8e-4)


def test_cara_normal_eu_closed_form_value():
    # [TRIVIAL] -exp(-gamma*m + gamma^2 w^2 sigma^2 / 2) at w = 0.4
    problem = PortfolioProblem()
    want = -math.exp(-2 * 0.07 + 0.5 * 4 * 0.01)
    assert cara_normal_eu(0.4, problem) == pytest.approx(want, rel=1e-12)


def test_cara_normal_eu_domain():
    with pytest.raises(DomainError):
        cara_normal_eu(1.5, PortfolioProblem())


def test_cara_normal_eu_concave_on_grid():
    problem = PortfolioProblem()
    grid = np.linspace(0, 1, 201)
    vals = np.array([cara_normal_eu(w, problem) for w in grid])
    assert np.max(np.diff(vals, 2)) < 0


def test_kelly_weight_interior():
    w = kelly_weight(PortfolioProblem())
    assert w == pytest.approx(0.4, rel=1e-12)


def test_kelly_weight_clamps():
    assert kelly_weight(PortfolioProblem(return_mean=0.01)) == 0.0
    assert kelly_weight(PortfolioProblem(return_mean=0.5)) == 1.0


def test_kelly_is_cara_argmax():
    problem = PortfolioProblem(risk_free=0.02, return_mean=0.09,
                               return_sd=0.3, risk_aversion=1.5)
    w = float(kelly_weight(problem))
    eps = 1e-4
    center = cara_normal_eu(w, problem)
    assert center >= cara_normal_eu(w - eps, problem)
    assert center >= cara_normal_eu(w + eps, problem)
