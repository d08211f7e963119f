"""Acceptance gate: the eight criteria this package is validated against.

Each test prints one PASS/FAIL line (collected into the terminal summary)
and asserts the criterion at its pinned tolerance:

A1  full portfolio pipeline recovers the Kelly weight within 0.05 in
    under five minutes
A2  trained posterior matches the conjugate oracle (KS < 0.05, mean
    within 0.1 sigma*, sd ratio within 0.1; sigma* ~= 0.9806)
A3  Wang distortion carries the prior survival to the posterior survival
    within 1e-9 on the preset and 100 randomized models
A4  midpoint quantile integral at M = sample size equals the sorted-
    sample mean exactly; quantile and survival expectation routes agree
    within 1e-3 on analytic views
A5  Yaari's distorted expectation reproduces E[u(X)] within 1e-3 on
    three pairs; the normalization integral is 1 within 1e-3 for
    identity, Wang, and p^2 distortions
A6  analytic gradients match finite differences within 1e-4 on 50
    random kink-free configurations
A7  kelly_weight equals the numerical argmax of the closed-form EU
    within 1e-6 on 100 random parameter sets; grid optimization of the
    analytic curve returns 0.40 within 1e-3
A8  repro artifacts exist and are structurally sound (monotone g,
    concave analytic EU curve, 0.40 marker in the figure)
"""

import json
import math

import mpmath as mp
import numpy as np

from conftest import record_acceptance

from quantmeu import (DenseNet, NormalNormalModel, PortfolioProblem,
                      WangDistortion, cara_normal_eu, conjugate_posterior,
                      distorted_expectation, expectation_via_survival,
                      expected_utility, exponential_view, grad_check,
                      kelly_weight, lognormal_view, normal_view,
                      optimize_decision, prior_to_posterior_survival_check,
                      silver_normalization, uniform_view, yaari_g)
from quantmeu.presets import (NORMAL_NORMAL, PORTFOLIO, build_normal_normal,
                              build_portfolio, generate_observed_data,
                              get_preset)

mp.mp.dps = 40


def _verdict(tag, name, ok, detail):
    line = f"{tag} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_acceptance(line)
    print(line)
    assert ok, line


def _check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"report is missing check {name!r}")


# ---------------------------------------------------------------------------
# A1
# ---------------------------------------------------------------------------

def test_a1_kelly_recovery(portfolio_run):
    report, outdir = portfolio_run
    werr = _check(report, "weight_abs_error")
    runtime = _check(report, "pipeline_elapsed_seconds")
    result = json.loads((outdir / "result.json").read_text())
    ok = werr.passed and runtime.passed
    _verdict("A1", "kelly-recovery", ok,
             f"w*={result['best_decision']:.4f}, "
             f"|w*-0.40|={werr.value:.4f} <= 0.05; "
             f"runtime {runtime.value:.0f}s < 300s")


# ---------------------------------------------------------------------------
# A2
# ---------------------------------------------------------------------------

def test_a2_posterior_recovery(normal_normal_run):
    report, _ = normal_normal_run
    ks = _check(report, "posterior_ks_distance")
    mean_err = _check(report, "posterior_mean_abs_error")
    sd_err = _check(report, "posterior_sd_ratio_error")
    # sigma* from the precision form 1/(1/alpha^2 + n/sigma^2), an
    # algebraic route different from the production code's t-form
    cfg = get_preset(NORMAL_NORMAL)
    model = build_normal_normal(cfg)
    post = conjugate_posterior(model, generate_observed_data(cfg))
    prec = 1 / mp.mpf(model.prior_variance) + model.n / mp.mpf(
        model.likelihood_variance)
    sigma_star_ref = float(mp.sqrt(1 / prec))
    sigma_ok = abs(post.sigma_star - sigma_star_ref) < 1e-12 \
        and abs(sigma_star_ref - 0.9806) < 1e-4
    ok = ks.passed and mean_err.passed and sd_err.passed and sigma_ok
    _verdict("A2", "posterior-recovery", ok,
             f"KS={ks.value:.4f} < 0.05; "
             f"|mean err|={mean_err.value:.4f} < {mean_err.threshold:.4f}; "
             f"|sd ratio-1|={sd_err.value:.4f} < 0.1; "
             f"sigma*={sigma_star_ref:.6f}")


# ---------------------------------------------------------------------------
# A3
# ---------------------------------------------------------------------------

def test_a3_distortion_identity():
    grid = np.arange(-10.0, 10.0 + 1e-9, 0.01)
    cfg = get_preset(NORMAL_NORMAL)
    model = build_normal_normal(cfg)
    y = generate_observed_data(cfg)
    worst = prior_to_posterior_survival_check(grid, model, y)

    rng = np.random.default_rng(31)
    for _ in range(100):
        prior_mean = rng.uniform(-5, 5)
        prior_sd = rng.uniform(0.5, 10)
        lik_sd = rng.uniform(0.5, 10)
        n = int(rng.integers(1, 51))
        m = NormalNormalModel(prior_mean, prior_sd ** 2, lik_sd ** 2, n)
        theta_true = rng.normal(prior_mean, prior_sd)
        yy = rng.normal(theta_true, lik_sd, size=n)
        worst = max(worst, prior_to_posterior_survival_check(grid, m, yy))

    _verdict("A3", "distortion-identity", worst < 1e-9,
             f"max |S_post - g(S_prior)| = {worst:.2e} < 1e-9 "
             f"(preset grid + 100 random models)")


# ---------------------------------------------------------------------------
# A4
# ---------------------------------------------------------------------------

def test_a4_quantile_marginal_identity():
    exact = True
    worst_rel = 0.0
    rng = np.random.default_rng(8)
    for n in (11, 100, 1024, 4097):
        z = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 3),
                       size=n)
        src = lambda t: np.quantile(z, t, method="inverted_cdf")
        est, se = expected_utility(src, M=n)
        exact = exact and est == float(np.sort(z).mean()) and se == 0.0
        worst_rel = max(worst_rel, abs(est - z.mean()) / max(1, abs(z.mean())))

    views = [("uniform", uniform_view(0.0, 2.0)),
             ("exponential", exponential_view(1.0)),
             ("normal", normal_view(5.0, 0.5)),
             ("lognormal", lognormal_view(0.0, 0.5))]
    worst_gap = 0.0
    for _, dist in views:
        q_route, _ = expected_utility(lambda t: dist.quantile(t), M=4096)
        s_route = expectation_via_survival(dist, M=4096)
        worst_gap = max(worst_gap, abs(q_route - s_route))

    ok = exact and worst_rel < 1e-12 and worst_gap < 1e-3
    _verdict("A4", "quantile-marginal", ok,
             f"sorted-average identity exact on 4 samples; "
             f"max two-route gap {worst_gap:.2e} < 1e-3 "
             f"(uniform/exponential/normal/lognormal)")


# ---------------------------------------------------------------------------
# A5
# ---------------------------------------------------------------------------

def test_a5_yaari_duality():
    # closed-form oracles: E[sqrt(X)] = exp(1/32) for LN(0, 0.5);
    # E[log(1+X)] = e*E1(1) for exp(1); E[X/2] = 1/2 for U(0, 2)
    pairs = [
        (math.sqrt, lognormal_view(0.0, 0.5), float(mp.e ** (mp.mpf(1) / 32))),
        (math.log1p, exponential_view(1.0), float(mp.e * mp.e1(1))),
        (lambda x: 0.5 * x, uniform_view(0.0, 2.0), 0.5),
    ]
    worst_pair = 0.0
    for u, dist, oracle in pairs:
        # cross-check the oracle against the dense quantile-route integral
        taus = (np.arange(1 << 18) + 0.5) / (1 << 18)
        dense = float(np.mean([u(x) for x in np.asarray(dist.quantile(taus))]))
        assert abs(dense - oracle) < 5e-5
        g = yaari_g(u, dist)
        val = distorted_expectation(dist, g, M=4096)
        worst_pair = max(worst_pair, abs(val - oracle))

    ident = lambda p: np.asarray(p, dtype=np.float64)
    psq = lambda p: np.asarray(p, dtype=np.float64) ** 2
    worst_silver = max(abs(silver_normalization(g) - 1.0)
                       for g in (ident, WangDistortion(1.0, 0.5), psq))

    ok = worst_pair < 1e-3 and worst_silver < 1e-3
    _verdict("A5", "yaari-duality", ok,
             f"max pair gap {worst_pair:.2e} < 1e-3 (3 pairs); "
             f"max |silver-1| = {worst_silver:.2e} < 1e-3 "
             f"(identity/Wang/p^2)")


# ---------------------------------------------------------------------------
# A6
# ---------------------------------------------------------------------------

def _kink_margins(net, X, y):
    a = X
    min_z = np.inf
    n_layers = len(net.layer_sizes) - 1
    for l, (w, b) in enumerate(net.layers()):
        z = a @ w.T + b
        if l < n_layers - 1:
            min_z = min(min_z, float(np.min(np.abs(z))))
            a = np.maximum(z, 0.0)
        else:
            pred = z[:, 0]
    return min_z, float(np.min(np.abs(y - pred)))


def test_a6_gradient_check():
    worst = 0.0
    for idx in range(50):
        rng = np.random.default_rng(1000 + idx)
        for _ in range(60):
            n_in = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 3))
            sizes = (n_in, *(int(rng.integers(4, 17)) for _ in range(depth)), 1)
            net = DenseNet.initialized(sizes, seed=int(rng.integers(2 ** 31)))
            nb = int(rng.integers(4, 13))
            X = rng.normal(size=(nb, n_in))
            y = rng.normal(size=nb)
            tau = rng.uniform(0.05, 0.95, size=nb)
            z_margin, res_margin = _kink_margins(net, X, y)
            if z_margin > 1e-3 and res_margin > 1e-3:
                break
        else:
            raise AssertionError(f"no kink-free draw for configuration {idx}")
        res = grad_check(net, X, y, tau)
        worst = max(worst, res.max_rel_error)
    _verdict("A6", "gradient-check", worst < 1e-4,
             f"worst rel err {worst:.2e} < 1e-4 over 50 configurations")


# ---------------------------------------------------------------------------
# A7
# ---------------------------------------------------------------------------

def _golden_max(f, lo, hi, tol=1e-10):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def test_a7_oracle_agreement():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        rf = rng.uniform(0.0, 0.08)
        problem = PortfolioProblem(risk_free=rf,
                                   return_mean=rf + rng.uniform(-0.05, 0.1),
                                   return_sd=rng.uniform(0.1, 0.5),
                                   risk_aversion=rng.uniform(0.5, 5.0))
        argmax = _golden_max(lambda w: cara_normal_eu(w, problem), 0.0, 1.0)
        worst = max(worst, abs(argmax - float(kelly_weight(problem))))

    preset_problem = build_portfolio(get_preset(PORTFOLIO))
    res = optimize_decision(lambda d: (cara_normal_eu(d, preset_problem), 0.0),
                            preset_problem.weight_domain, grid_size=101,
                            refine=True)
    opt_err = abs(res.best_decision - 0.40)

    ok = worst < 1e-6 and opt_err < 1e-3
    _verdict("A7", "oracle-agreement", ok,
             f"max |kelly - argmax| = {worst:.2e} < 1e-6 (100 sets); "
             f"|grid optimum - 0.40| = {opt_err:.2e} < 1e-3")


# ---------------------------------------------------------------------------
# A8
# ---------------------------------------------------------------------------

def test_a8_repro_artifacts(portfolio_run, normal_normal_run):
    _, pf_dir = portfolio_run
    _, nn_dir = normal_normal_run

    expected = [
        nn_dir / "panel_model.csv", nn_dir / "panel_model.svg",
        nn_dir / "panel_distortion.csv", nn_dir / "panel_distortion.svg",
        nn_dir / "panel_survival.csv", nn_dir / "panel_survival.svg",
        nn_dir / "posterior_net.json", nn_dir / "posterior_draws.csv",
        nn_dir / "report.json",
        pf_dir / "eu_curve_analytic.csv", pf_dir / "eu_curve.csv",
        pf_dir / "eu_curve.svg", pf_dir / "utility_net.json",
        pf_dir / "result.json", pf_dir / "report.json",
    ]
    missing = [p.name for p in expected if not p.exists()]

    dist = np.genfromtxt(nn_dir / "panel_distortion.csv", delimiter=",",
                         names=True)
    g = dist["g"]
    g_nondecreasing = bool(np.all(np.diff(g) >= 0))
    interior = np.diff(g[(g > 1e-9) & (g < 1.0 - 1e-9)])
    g_strict = bool(interior.size and np.min(interior) > 0)

    curve = np.genfromtxt(pf_dir / "eu_curve_analytic.csv", delimiter=",",
                          names=True)
    concave = bool(np.max(np.diff(curve["eu"], 2)) < 0)

    marker = "0.40" in (pf_dir / "eu_curve.svg").read_text()

    ok = not missing and g_nondecreasing and g_strict and concave and marker
    _verdict("A8", "repro-artifacts", ok,
             f"{len(expected)} files present; g nondecreasing with strictly "
             f"increasing interior; analytic EU curve strictly concave; "
             f"0.40 marker rendered"
             + (f"; MISSING {missing}" if missing else ""))
