"""Training tables, quantile-net wrappers, EU estimation, optimization."""

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from quantmeu import (DenseNet, ModelSpec, NormalNormalModel,
                      PortfolioProblem, expected_utility, get_preset,
                      normal_quantile, optimize_decision, summary_mean)
from quantmeu import engine
from quantmeu.engine import (_BLOCK_UNIFORMS, QuantileNet,
                             build_training_table, posterior_sample,
                             train_posterior_net, train_utility_net)
from quantmeu.models import RandomSource, cara_utility, portfolio_wealth
from quantmeu.net import TrainConfig, load_net
from quantmeu.presets import (build_normal_normal, build_portfolio,
                              decision_grid, portfolio_model_spec)
from quantmeu.tables import TrainingTable
from quantmeu.errors import (DataError, DomainError, NumericError, ShapeError,
                             SimulationError)


def identity_model(name="identity"):
    # theta observed without noise: the conditional law of theta given the
    # summary s is a point mass at s
    def sample(U):
        theta = normal_quantile(U[:, 0])
        return theta, theta[:, None]

    return ModelSpec(sample=sample, summary=summary_mean, n_obs=1, draws=1,
                     name=name)


# ---------------------------------------------------------------------------
# build_training_table
# ---------------------------------------------------------------------------

def test_table_posterior_shape_and_provenance():
    model = NormalNormalModel(0.0, 25.0, 100.0, n=5).spec()
    t = build_training_table(model, N=50, rng=RandomSource(3, stream=1))
    assert t.n_rows == 50
    assert t.summary.shape == (50, 1)
    assert t.decision is None
    assert t.provenance["N"] == 50
    assert t.provenance["seed"] == 3
    assert t.provenance["sorted_pairing"] is False


def test_table_deterministic():
    model = NormalNormalModel(0.0, 25.0, 100.0, n=5).spec()
    a = build_training_table(model, N=40, rng=RandomSource(1))
    b = build_training_table(model, N=40, rng=RandomSource(1))
    np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(a.tau, b.tau)


def test_table_decisions_cycled():
    problem = PortfolioProblem()
    from quantmeu.presets import portfolio_model_spec
    spec = portfolio_model_spec(problem)
    grid = np.array([0.0, 0.5, 1.0])
    t = build_training_table(spec, utility=problem.utility_spec(),
                             decisions=grid, N=9, rng=RandomSource(0))
    np.testing.assert_array_equal(t.decision,
                                  [0.0, 0.5, 1.0, 0.0, 0.5, 1.0, 0.0, 0.5, 1.0])
    assert t.has_utility


def test_table_sorted_pairing_ranks_match():
    problem = PortfolioProblem()
    from quantmeu.presets import portfolio_model_spec
    spec = portfolio_model_spec(problem)
    grid = np.linspace(0, 1, 5)
    t = build_training_table(spec, utility=problem.utility_spec(),
                             decisions=grid, N=200, rng=RandomSource(2),
                             sorted_pairing=True)
    for w in grid:
        idx = np.nonzero(t.decision == w)[0]
        order = np.argsort(t.tau[idx])
        # within a cell, utility sorted by tau must be nondecreasing
        assert np.all(np.diff(t.utility[idx][order]) >= 0)


def test_table_utility_requires_decisions():
    problem = PortfolioProblem()
    from quantmeu.presets import portfolio_model_spec
    spec = portfolio_model_spec(problem)
    with pytest.raises(DataError):
        build_training_table(spec, utility=problem.utility_spec(), N=10,
                             rng=RandomSource(0))


def test_table_decision_domain_checked():
    problem = PortfolioProblem()
    from quantmeu.presets import portfolio_model_spec
    spec = portfolio_model_spec(problem)
    with pytest.raises(DomainError):
        build_training_table(spec, utility=problem.utility_spec(),
                             decisions=[0.5, 1.2], N=10, rng=RandomSource(0))


def test_table_failing_utility_reports_row():
    model = identity_model()

    class BadUtility:
        decision_domain = (0.0, 1.0)

        @staticmethod
        def evaluate(d, theta):
            raise RuntimeError("boom")

    with pytest.raises(SimulationError) as exc:
        build_training_table(model, utility=BadUtility(), decisions=[0.5],
                             N=4, rng=RandomSource(0))
    assert exc.value.index == 0


def test_table_wrong_utility_shape_is_reported():
    class ScalarUtility:
        decision_domain = (0.0, 1.0)

        @staticmethod
        def evaluate(d, theta):
            return float(np.sum(d * theta))

    with pytest.raises(SimulationError, match="utility returned shape"):
        build_training_table(identity_model(), utility=ScalarUtility(),
                             decisions=[0.5], N=4, rng=RandomSource(0))


def test_table_evaluates_utility_once():
    # the one-draw model puts the table's rows in two blocks; the utility
    # still sees the whole decision and theta columns in one call
    N = _BLOCK_UNIFORMS + 7
    calls = []

    class CountingUtility:
        decision_domain = (0.0, 1.0)

        @staticmethod
        def evaluate(d, theta):
            calls.append(d.shape)
            return d * theta

    t = build_training_table(identity_model(), utility=CountingUtility(),
                             decisions=[0.25, 0.75], N=N, rng=RandomSource(0))
    assert calls == [(N,)]
    np.testing.assert_array_equal(t.utility, t.decision * t.theta)


def test_table_error_rows_count_across_blocks():
    # a failure in the second block is reported at its row of the table
    target = _BLOCK_UNIFORMS + 7
    seen = [0]

    def sample(U):
        theta = normal_quantile(U[:, 0])
        if seen[0] <= target < seen[0] + theta.size:
            theta[target - seen[0]] = math.nan
        seen[0] += theta.size
        return theta, theta[:, None]

    bad_prior = ModelSpec(sample=sample, summary=summary_mean, n_obs=1, draws=1)
    with pytest.raises(SimulationError) as exc:
        build_training_table(bad_prior, N=target + 2, rng=RandomSource(0))
    assert exc.value.index == target
    assert str(exc.value).endswith(f"at row {target}")

    class NanUtility:
        decision_domain = (0.0, 1.0)

        @staticmethod
        def evaluate(d, theta):
            return np.where(d == 1.0, math.nan, theta)

    # decision 1.0 is the last of target + 1 grid points: first met at row target
    with pytest.raises(SimulationError) as exc:
        build_training_table(identity_model(), utility=NanUtility(),
                             decisions=np.linspace(0.0, 1.0, target + 1),
                             N=target + 2, rng=RandomSource(0))
    assert exc.value.index == target


def test_table_sorted_pairing_two_column_summary():
    # discrete 2-column summary: 3 x 3 cells of rows that share a summary row
    def sample(U):
        return normal_quantile(U[:, 0]), U[:, 1:]

    model = ModelSpec(sample=sample, summary=lambda Y: np.floor(3.0 * Y),
                      n_obs=2, draws=3)
    plain = build_training_table(model, N=300, rng=RandomSource(4))
    paired = build_training_table(model, N=300, rng=RandomSource(4),
                                  sorted_pairing=True)
    assert paired.summary.shape == (300, 2)
    np.testing.assert_array_equal(paired.theta, plain.theta)
    cells = np.unique(paired.summary, axis=0)
    assert len(cells) == 9
    for cell in cells:
        idx = np.nonzero(np.all(paired.summary == cell, axis=1))[0]
        assert idx.size > 1
        np.testing.assert_array_equal(np.sort(paired.tau[idx]), np.sort(plain.tau[idx]))
        np.testing.assert_array_equal(np.argsort(np.argsort(paired.tau[idx])),
                                      np.argsort(np.argsort(paired.theta[idx])))


def per_row_table(preset, N, seed, sorted_pairing):
    """Row-by-row reference for a preset's table: per row, the prior uniform
    and then the forward uniforms, Phi^-1 of each, the summary and the
    utility; then tau, re-paired one conditioning value at a time."""
    config = get_preset(preset)
    rng = RandomSource(seed)
    theta, summary, utility = np.empty(N), np.empty(N), np.empty(N)
    if preset == "portfolio":
        problem = build_portfolio(config)
        grid = decision_grid(config)
        decision = grid[np.arange(N) % grid.size]
        for i in range(N):
            u = rng.uniform(1)
            theta[i] = normal_quantile(u)[0] * problem.return_sd + problem.return_mean
            summary[i] = theta[i]   # the mean of the one observation y = theta
            utility[i] = cara_utility(portfolio_wealth(decision[i], theta[i],
                                                       problem.risk_free),
                                      problem.risk_aversion)
        keys, target = decision, utility
    else:
        model = build_normal_normal(config)
        alpha, sigma = math.sqrt(model.prior_variance), math.sqrt(model.likelihood_variance)
        for i in range(N):
            u = rng.uniform(1 + model.n)
            theta[i] = normal_quantile(u[:1])[0] * alpha + model.prior_mean
            summary[i] = np.mean(normal_quantile(u[1:]) * sigma + theta[i])
        keys, target = summary, theta
    tau = rng.uniform(N)
    if sorted_pairing:
        for key in np.unique(keys):
            idx = np.nonzero(keys == key)[0]
            tau[idx[np.argsort(target[idx], kind="stable")]] = np.sort(tau[idx])
    return theta, summary, tau, utility


def preset_table(preset, N, seed, sorted_pairing):
    config = get_preset(preset)
    rng = RandomSource(seed)
    if preset == "portfolio":
        problem = build_portfolio(config)
        return build_training_table(portfolio_model_spec(problem),
                                    utility=problem.utility_spec(),
                                    decisions=decision_grid(config), N=N, rng=rng,
                                    sorted_pairing=sorted_pairing)
    return build_training_table(build_normal_normal(config).spec(), N=N, rng=rng,
                                sorted_pairing=sorted_pairing)


def assert_matches_per_row_reference(preset, N, seed, sorted_pairing):
    t = preset_table(preset, N, seed, sorted_pairing)
    theta, summary, tau, utility = per_row_table(preset, N, seed, sorted_pairing)
    assert t.theta.tobytes() == theta.tobytes()
    assert t.summary.tobytes() == summary.reshape(N, 1).tobytes()
    assert t.tau.tobytes() == tau.tobytes()
    if preset == "portfolio":
        assert t.utility.tobytes() == utility.tobytes()


def preset_draws(preset):
    return 1 if preset == "portfolio" else 1 + get_preset(preset)["model"]["n"]


def around(rows, size):
    return {"1": 1, "rows-1": max(rows - 1, 1), "rows": rows, "rows+1": rows + 1,
            "2rows+3": 2 * rows + 3}[size]


SIZES = st.sampled_from(["1", "rows-1", "rows", "rows+1", "2rows+3"])


@settings(max_examples=50, deadline=None)
@given(preset=st.sampled_from(["portfolio", "normal-normal"]),
       sorted_pairing=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       block_uniforms=st.integers(1, 1024), size=SIZES)
def test_table_matches_per_row_reference(preset, sorted_pairing, seed,
                                         block_uniforms, size):
    # a smaller block, down to less than one row's draws, moves the block
    # edges without changing the table; N sits around the rows of one block
    rows = max(block_uniforms // preset_draws(preset), 1)
    with mock.patch.object(engine, "_BLOCK_UNIFORMS", block_uniforms):
        assert_matches_per_row_reference(preset, around(rows, size), seed,
                                         sorted_pairing)


@settings(max_examples=8, deadline=None)
@given(sorted_pairing=st.booleans(), seed=st.integers(0, 2 ** 32 - 1), size=SIZES)
def test_table_default_blocks_match_per_row_reference(sorted_pairing, seed, size):
    # the normal-normal preset uses 101 uniforms a row, so its default block
    # holds few enough rows for the per-row reference to walk past two edges
    rows = _BLOCK_UNIFORMS // preset_draws("normal-normal")
    assert_matches_per_row_reference("normal-normal", around(rows, size), seed,
                                     sorted_pairing)


# ---------------------------------------------------------------------------
# QuantileNet wrapper
# ---------------------------------------------------------------------------

def test_quantile_net_dim_check():
    net = DenseNet.initialized((3, 4, 1))
    with pytest.raises(ShapeError):
        QuantileNet(net, role="posterior", conditioning_dim=1)
    QuantileNet(net, role="posterior", conditioning_dim=2)


def test_posterior_sample_checks_its_arguments():
    q = QuantileNet(DenseNet.initialized((2, 8, 1), seed=0), role="posterior",
                    conditioning_dim=1)
    with pytest.raises(ValueError):
        posterior_sample(q, [0.0], M=0, rng=RandomSource(0))
    with pytest.raises(ShapeError):
        posterior_sample(q, [0.0, 1.0], M=8, rng=RandomSource(0))
    with pytest.raises(ValueError):
        posterior_sample(q, [np.inf], M=8, rng=RandomSource(0))


# ---------------------------------------------------------------------------
# posterior training and sampling on the noiseless identity model
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def identity_posterior():
    t = build_training_table(identity_model(), N=4000, rng=RandomSource(10))
    cfg = TrainConfig(max_epochs=40, patience=40, seed=0, batch_size=256)
    qnet, hist = train_posterior_net(t, config=cfg, hidden=(32, 32))
    return qnet, hist


def test_posterior_net_learns_identity(identity_posterior):
    qnet, hist = identity_posterior
    assert qnet.role == "posterior"
    assert qnet.conditioning_dim == 1
    assert hist.best_epoch >= 0
    for s in (-1.5, 0.0, 1.2):
        draws = qnet.net.predict(line_inputs([s], (np.arange(64) + 0.5) / 64))
        assert np.mean(draws) == pytest.approx(s, abs=0.15)


def test_posterior_sample_modes(identity_posterior):
    qnet, _ = identity_posterior
    d1 = posterior_sample(qnet, 0.5, M=32, rng=RandomSource(0))
    d2 = posterior_sample(qnet, 0.5, M=32, rng=RandomSource(0))
    np.testing.assert_array_equal(d1, d2)
    # each draw is the net's tau line read at one uniform
    taus = RandomSource(0).uniform(32)
    np.testing.assert_array_equal(d1, np.interp(taus, *engine._tau_line(qnet.net, [0.5])))
    want = qnet.net.predict(line_inputs([0.5], taus))
    np.testing.assert_allclose(d1, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# expected utility
# ---------------------------------------------------------------------------

def test_expected_utility_callable_equals_sorted_mean():
    # empirical-quantile source at M = sample size averages the order
    # statistics exactly
    rng = np.random.default_rng(0)
    z = rng.normal(size=512)
    src = lambda t: np.quantile(z, t, method="inverted_cdf")
    est, se = expected_utility(src, M=512)
    assert est == float(np.mean(np.sort(z)))
    assert se == 0.0
    assert est == pytest.approx(z.mean(), rel=1e-12)


def test_expected_utility_random_scheme():
    z = np.linspace(-1, 1, 1000)
    src = lambda t: np.quantile(z, t, method="inverted_cdf")
    est, se = expected_utility(src, M=4096, rng=RandomSource(7))
    assert se > 0.0
    assert abs(est - 0.0) < 5 * se + 1e-3


def test_expected_utility_net_reads_exactly_one_condition():
    q = QuantileNet(DenseNet.initialized((2, 8, 1), seed=3), role="posterior",
                    conditioning_dim=1)
    with pytest.raises(ValueError):
        expected_utility(q, d=0.2, y_obs=0.2, M=16)
    with pytest.raises(ValueError):
        expected_utility(q, M=16)
    for x in (-0.7, 0.2, 1.5):
        assert expected_utility(q, y_obs=x, M=64) == expected_utility(q, d=x, M=64)


def test_expected_utility_guards():
    with pytest.raises(ValueError):
        expected_utility(lambda t: t, M=1)
    with pytest.raises(ShapeError):
        expected_utility(lambda t: t[:-1], M=16)
    with pytest.raises(NumericError):
        expected_utility(lambda t: np.full(t.shape, np.nan), M=16)
    with pytest.raises(NumericError):
        expected_utility(lambda t: np.full(t.shape, 1e308), M=16)
    with pytest.raises(NumericError):
        expected_utility(lambda t: np.where(t < 0.5, -1e200, 1e200), M=16,
                         rng=RandomSource(0))


def test_expected_utility_via_utility_net():
    # deterministic utility -(d - 0.3)^2: quantiles are flat in tau
    model = identity_model()

    class Quad:
        decision_domain = (0.0, 1.0)
        name = "quad"

        @staticmethod
        def evaluate(d, theta):
            return -((d - 0.3) ** 2)

    t = build_training_table(model, utility=Quad(),
                             decisions=np.linspace(0, 1, 21), N=2100,
                             rng=RandomSource(5))
    cfg = TrainConfig(max_epochs=40, patience=40, seed=1, batch_size=256)
    qnet, _ = train_utility_net(t, config=cfg, hidden=(32, 32))
    assert qnet.role == "utility"
    est, se = expected_utility(qnet, d=0.3, M=256)
    assert se == 0.0
    assert est == pytest.approx(0.0, abs=0.02)
    est2, _ = expected_utility(qnet, d=0.8, M=256)
    assert est2 == pytest.approx(-0.25, abs=0.03)
    with pytest.raises(ValueError):
        expected_utility(qnet, M=256)


# ---------------------------------------------------------------------------
# a net's tau line: the exact integral and interpolated reads
# ---------------------------------------------------------------------------

def random_net(draw_seed, cond_dim, widths):
    # random weights and biases, so hidden units cross zero inside (0,1),
    # and standardisation constants far from the identity
    r = np.random.default_rng(draw_seed)
    sizes = (cond_dim + 1,) + tuple(widths) + (1,)
    n_params = sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:]))
    return DenseNet(sizes, r.normal(size=n_params), x_mean=r.normal(size=cond_dim + 1),
                    x_scale=np.exp(r.uniform(-2.3, 2.3, size=cond_dim + 1)),
                    y_mean=float(10.0 * r.normal()), y_scale=float(np.exp(r.uniform(-2.3, 2.3)))), r


def line_inputs(cond, taus):
    X = np.empty((taus.size, len(cond) + 1))
    X[:, :-1] = cond
    X[:, -1] = taus
    return X


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), cond_dim=st.integers(1, 2),
       widths=st.lists(st.integers(1, 16), min_size=1, max_size=3))
def test_tau_line_is_the_net_and_integrates_to_the_fine_midpoint_eu(seed, cond_dim, widths):
    net, r = random_net(seed, cond_dim, widths)
    cond = r.normal(size=cond_dim)
    T, Q = engine._tau_line(net, cond)
    assert T[0] == 0.0 and T[-1] == 1.0 and np.all(np.diff(T) >= 0.0)
    want = net.predict(line_inputs(cond, T))
    # relative to the line's largest value, as a breakpoint value may cancel to ~0
    np.testing.assert_allclose(Q, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
    # the line is linear between breakpoints: its midpoints are on the chords
    mid = net.predict(line_inputs(cond, 0.5 * (T[:-1] + T[1:])))
    np.testing.assert_allclose(mid, 0.5 * Q[:-1] + 0.5 * Q[1:], rtol=0.0,
                               atol=1e-12 * np.max(np.abs(want)))

    exact, se = expected_utility(QuantileNet(net, "utility", cond_dim), d=cond, M=2)
    fine, _ = expected_utility(lambda t: net.predict(line_inputs(cond, t)), M=2 ** 20)
    assert se == 0.0
    assert abs(exact - fine) <= 1e-8 * max(1.0, np.max(np.abs(Q)))


def hand_net():
    # layer 1: u1 = relu(tau - 1/2) and u2 = relu(1/2 - tau) share the root 1/2,
    # u3 = relu(1) and u4 = relu(-1) have zero tau-weight; layer 2:
    # v = relu(u1 - u2), exactly 0 at the breakpoint 1/2, and c = relu(u3 / 4)
    w1 = [[0.0, 1.0], [0.0, -1.0], [0.0, 0.0], [0.0, 0.0]]
    b1 = [-0.5, 0.5, 1.0, -1.0]
    w2 = [[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.25, 0.0]]
    params = np.concatenate([np.ravel(w1), b1, np.ravel(w2), [0.0, 0.0], [1.0, 1.0], [0.0]])
    return DenseNet((2, 4, 2, 1), params)


def test_tau_line_edge_cases():
    # Q = relu(tau - 1/2) + 1/4, whose integral is 1/8 + 1/4
    net = hand_net()
    T, Q = engine._tau_line(net, [3.0])
    # the shared root is one breakpoint (twice); v's zero and the flat units add none
    np.testing.assert_array_equal(np.unique(T), [0.0, 0.5, 1.0])
    assert T.size == 4
    np.testing.assert_array_equal(Q, net.predict(line_inputs([3.0], T)))
    np.testing.assert_array_equal(Q, [0.25, 0.25, 0.25, 0.75])
    assert expected_utility(QuantileNet(net, "utility", 1), d=3.0) == (0.375, 0.0)


def test_tau_line_checks_the_condition():
    net = DenseNet.initialized((3, 4, 1), seed=0)
    with pytest.raises(ShapeError):
        engine._tau_line(net, [0.1])
    with pytest.raises(ValueError):
        engine._tau_line(net, [0.1, np.nan])


def test_net_reads_run_no_forward_pass(monkeypatch):
    # draws and both EU schemes read the tau line; only training's
    # validation passes and DenseNet.predict reach the forward kernel
    from quantmeu import _kernels

    def refuse(*args):
        raise AssertionError("forward_batch ran")

    q = QuantileNet(DenseNet.initialized((2, 16, 16, 1), seed=4), "posterior", 1)
    monkeypatch.setattr(_kernels, "forward_batch", refuse)
    assert posterior_sample(q, [0.3], M=10_000, rng=RandomSource(3)).shape == (10_000,)
    for d in (0.0, 0.5, 1.0):
        expected_utility(q, d=d, M=4096)
        expected_utility(q, d=d, M=4096, rng=RandomSource(3))
    with pytest.raises(AssertionError):
        q.net.predict([[0.3, 0.5]])


def test_net_eu_overflow_is_numeric_error_without_a_warning():
    net = DenseNet.initialized((2, 8, 1), seed=0)
    q = QuantileNet(net, "utility", 1)
    assert math.isfinite(expected_utility(q, d=1e308)[0])
    big = QuantileNet(DenseNet(net.layer_sizes, net.params, y_scale=1e10), "utility", 1)
    # a finite tau line, -1e308 to 1e308, whose slope overflows: np.interp
    # returns inf without a floating-point warning
    steep = QuantileNet(DenseNet((2, 1), np.array([0.0, 2.0, -1.0]), y_scale=1e308),
                        "posterior", 1)
    assert np.all(np.isfinite(engine._tau_line(steep.net, [0.0])[1]))
    with np.errstate(all="raise"):
        for read in (lambda: expected_utility(big, d=1e308),
                     lambda: expected_utility(big, d=1e308, rng=RandomSource(0)),
                     lambda: posterior_sample(big, 1e308, M=8, rng=RandomSource(0)),
                     lambda: posterior_sample(steep, [0.0], M=64, rng=RandomSource(0))):
            with pytest.raises(NumericError):
                read()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), cond_dim=st.integers(1, 2),
       widths=st.lists(st.integers(1, 16), min_size=1, max_size=3))
def test_interpolated_tau_line_is_the_net(seed, cond_dim, widths):
    net, r = random_net(seed, cond_dim, widths)
    cond = r.normal(size=cond_dim)
    taus = r.uniform(size=257)
    want = net.predict(line_inputs(cond, taus))
    got = np.interp(taus, *engine._tau_line(net, cond))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
    q = QuantileNet(net, "posterior", cond_dim)
    np.testing.assert_array_equal(
        posterior_sample(q, cond, M=257, rng=RandomSource(seed)),
        np.interp(RandomSource(seed).uniform(257), *engine._tau_line(net, cond)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), root=st.floats(0.01, 0.99))
def test_interpolated_tau_line_with_duplicated_units(seed, root):
    # first-layer units 0 and 1 are equal and cross zero at tau = root, so T
    # holds equal neighbours: a zero-width interval np.interp must not use
    net, r = random_net(seed, 1, [6, 6])
    cond = r.normal(size=1)
    w, b = net.layers()[0]
    xs = (np.array([cond[0], root]) - net.x_mean) / net.x_scale
    b[0] = -(w[0] @ xs)
    w[1], b[1] = w[0], b[0]
    T, Q = engine._tau_line(net, cond)
    ties = T[1:][np.diff(T) == 0.0]
    assert ties.size >= 1
    taus = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1.0),
                           r.uniform(size=64)])
    want = net.predict(line_inputs(cond, taus))
    got = np.interp(taus, T, Q)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


def tau_line_oracle(net, cond):
    """_tau_line as it was before its walk was trimmed: 2-D indexing, one
    concatenate and sort per layer whether or not a root was found, and
    new rows built as T[i] + f * (T[i+1] - T[i]) in fresh arrays."""
    cond = np.asarray(cond, dtype=np.float64).reshape(-1)
    T = np.array([0.0, 1.0])
    A = np.empty((2, net.input_dim))
    A[:, :-1] = cond
    A[:, -1] = T
    A = (A - net.x_mean) / net.x_scale
    layers = net.layers()
    for w, b in layers[:-1]:
        Z = A @ w.T
        Z += b
        pos, neg = Z > 0.0, Z < 0.0
        i, k = np.divmod(np.flatnonzero((pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:])),
                         Z.shape[1])
        f = Z[i, k] / (Z[i, k] - Z[i + 1, k])
        T = np.concatenate([T, T[i] + f * (T[i + 1] - T[i])])
        Z = np.concatenate([Z, Z[i] + f[:, None] * (Z[i + 1] - Z[i])])
        order = np.argsort(T, kind="stable")
        T, Z = T[order], Z[order]
        A = np.maximum(Z, 0.0, out=Z)
    w, b = layers[-1]
    return T, (A @ w[0] + b[0]) * net.y_scale + net.y_mean


def assert_walks_as_oracle(net, cond):
    want = tau_line_oracle(net, cond)
    got = engine._tau_line(net, cond)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    T, Q = want
    # the integral as it was summed before
    integral = float(np.sum(np.diff(T) * (0.5 * Q[:-1] + 0.5 * Q[1:])))
    assert engine._read_tau_line(net, cond) == integral


def small_integer_net(draw_seed, cond_dim, widths):
    # weights, biases, inputs and x_mean in {-2, ..., 2}: units that are
    # exactly 0 at a point, several units with one root, and equal
    # neighbours in T
    r = np.random.default_rng(draw_seed)
    sizes = (cond_dim + 1,) + tuple(widths) + (1,)
    n_params = sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:]))
    net = DenseNet(sizes, r.integers(-2, 3, size=n_params).astype(float),
                   x_mean=r.integers(-1, 2, size=cond_dim + 1).astype(float))
    return net, r.integers(-2, 3, size=cond_dim).astype(float)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), cond_dim=st.integers(1, 2),
       widths=st.lists(st.integers(1, 16), min_size=1, max_size=3),
       small=st.booleans())
def test_tau_line_walks_as_the_oracle_bytes(seed, cond_dim, widths, small):
    if small:
        net, cond = small_integer_net(seed, cond_dim, widths)
    else:
        net, r = random_net(seed, cond_dim, widths)
        cond = r.normal(size=cond_dim)
    assert_walks_as_oracle(net, cond)


def test_small_integer_nets_reach_the_ties_the_oracle_covers():
    # the small-integer strategy above does give exact zeros and ties in T
    zeros = ties = 0
    for seed in range(200):
        net, cond = small_integer_net(seed, 1, [8, 8])
        T, _ = engine._tau_line(net, cond)
        ties += np.any(np.diff(T) == 0.0)
        w, b = net.layers()[0]
        x = (np.array([cond[0], 0.0]) - net.x_mean) / net.x_scale
        zeros += np.any(w @ x + b == 0.0)
    assert ties >= 10 and zeros >= 10


@pytest.mark.parametrize("fixture, lo, hi", [("portfolio_utility_net.json", 0.0, 1.0),
                                            ("normal_normal_posterior_net.json", -6.0, 6.0)])
def test_tau_line_walks_as_the_oracle_on_fixture_nets(fixture, lo, hi):
    net = load_net(Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / fixture)
    for c in np.linspace(lo, hi, 100):
        assert_walks_as_oracle(net, [c])


# ---------------------------------------------------------------------------
# trainer input layout: the conditioning columns, then tau
# ---------------------------------------------------------------------------

def layout_table():
    # column means far apart, so a swapped or wrong column shows in x_mean
    rng = np.random.default_rng(0)
    n = 64
    return TrainingTable(theta=rng.normal(-3.0, 1.0, n), summary=rng.normal(5.0, 1.0, (n, 1)),
                         tau=rng.uniform(0.01, 0.99, n), decision=rng.uniform(2.0, 3.0, n),
                         utility=rng.uniform(-9.0, -8.0, n))


def test_posterior_net_input_is_summary_then_tau():
    t = layout_table()
    qnet, _ = train_posterior_net(t, TrainConfig(max_epochs=1), hidden=(4,))
    np.testing.assert_allclose(qnet.net.x_mean, [t.summary[:, 0].mean(), t.tau.mean()])
    assert qnet.net.y_mean == pytest.approx(t.theta.mean())


def test_utility_net_input_is_decision_then_tau():
    t = layout_table()
    qnet, _ = train_utility_net(t, TrainConfig(max_epochs=1), hidden=(4,))
    np.testing.assert_allclose(qnet.net.x_mean, [t.decision.mean(), t.tau.mean()])
    assert qnet.net.y_mean == pytest.approx(t.utility.mean())


def test_utility_net_requires_utility_columns():
    t = layout_table()
    with pytest.raises(DataError):
        train_utility_net(TrainingTable(theta=t.theta, summary=t.summary, tau=t.tau))


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def quad_eu(peak):
    return lambda d: (-((d - peak) ** 2), 0.0)


def test_optimize_quadratic_with_refinement():
    res = optimize_decision(quad_eu(0.3456), (0.0, 1.0), grid_size=101,
                            refine=True)
    assert res.best_decision == pytest.approx(0.3456, abs=1e-6)
    assert res.best_eu == pytest.approx(0.0, abs=1e-10)
    ds = [d for d, _, _ in res.curve]
    assert ds == sorted(ds)
    assert len(res.curve) == 102
    assert not res.ties_detected


def test_optimize_scores_each_point_once():
    calls = []

    def evaluator(d):
        calls.append(d)
        return -((d - 0.3456) ** 2), d

    res = optimize_decision(evaluator, (0.0, 1.0), grid_size=101, refine=True)
    assert len(calls) == 101 + len(res.refine_trace)
    # the refined winner keeps the (eu, se) of its search evaluation
    assert (res.best_decision, res.best_eu, res.best_decision) in res.curve


def test_optimize_without_refinement_stays_on_grid():
    res = optimize_decision(quad_eu(0.3456), (0.0, 1.0), grid_size=101,
                            refine=False)
    assert len(res.curve) == 101
    assert res.best_decision == pytest.approx(0.35, abs=1e-12)


def test_optimize_ties_pick_smallest():
    res = optimize_decision(lambda d: (1.0, 0.0), (0.0, 1.0), grid_size=11)
    assert res.ties_detected
    assert res.best_decision == 0.0


def test_optimize_boundary_maximum():
    res = optimize_decision(lambda d: (d, 0.0), (0.0, 1.0), grid_size=11,
                            refine=True)
    assert res.best_decision == pytest.approx(1.0, abs=1e-6)


def test_optimize_evaluator_error_names_decision():
    def bad(d):
        if d > 0.5:
            raise ArithmeticError("overflow")
        return (0.0, 0.0)

    with pytest.raises(ArithmeticError) as exc:
        optimize_decision(bad, (0.0, 1.0), grid_size=11)
    assert "0.6" in str(exc.value)


def test_optimize_validates_inputs():
    with pytest.raises(ValueError):
        optimize_decision(quad_eu(0.5), (1.0, 0.0))
    with pytest.raises(ValueError):
        optimize_decision(quad_eu(0.5), (0.0, 1.0), grid_size=1)


def test_result_documents(tmp_path):
    res = optimize_decision(quad_eu(0.25), (0.0, 1.0), grid_size=21,
                            refine=True, seed=5)
    doc = res.to_document()
    assert doc["best_decision"] == res.best_decision
    assert doc["config"]["ties_detected"] is False
    jpath = tmp_path / "res.json"
    res.save_json(jpath)
    loaded = json.loads(jpath.read_text())
    assert loaded["best_eu"] == res.best_eu
    cpath = tmp_path / "curve.csv"
    res.curve_to_csv(cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "d,eu,se"
    assert len(lines) == len(res.curve) + 1
    d0 = float(lines[1].split(",")[0])
    assert d0 == res.curve[0][0]
