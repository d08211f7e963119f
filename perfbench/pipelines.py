"""The benchmark's two workloads, one pass at a time, with their checks.

A pass follows the CLI flow ``simulate`` -> ``train --table`` -> query at a
reduced table size and a fixed epoch count, then runs a query phase
(``optimize`` / ``eu``) against a full-size net committed under
``fixtures/``. Every call into the package goes through a module or class
attribute (``engine.build_training_table``, ``net.save_net``, ...) so that
the traced run can rebind it.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from common import FIXTURES, import_quantmeu

qm = import_quantmeu()
RandomSource = qm.models.RandomSource

WORKLOADS = ("portfolio", "normal-normal")
FIXTURE_FILES = {"portfolio": "portfolio_utility_net.json",
                 "normal-normal": "normal_normal_posterior_net.json"}
EU_QUERY_M = 4096        # single-decision `eu --m 4096` queries
QUERY_SUMMARY_RANGE = (-6.0, 6.0)   # about 1.2 prior-predictive sd of the mean


@dataclass(frozen=True)
class Scale:
    N: int                  # table rows per pass
    epochs: int             # training epochs per pass (early stopping off)
    optimize_repeats: int   # full `optimize` runs on the fixture per pass
    queries: int            # distinct single EU queries per pass, each asked twice


SCALES = {
    "bench": {"portfolio": Scale(N=10000, epochs=40, optimize_repeats=2, queries=60),
              "normal-normal": Scale(N=10000, epochs=60, optimize_repeats=0, queries=100)},
    "tiny": {"portfolio": Scale(N=600, epochs=10, optimize_repeats=1, queries=4),
             "normal-normal": Scale(N=600, epochs=10, optimize_repeats=0, queries=4)},
}


class Checks:
    """Correctness checks; each one evaluated counts as an attempted
    operation, and each one that does not hold as a failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, passed, value=None):
        self.attempted += 1
        if not passed:
            self.failures.append(f"{name} (value {value!r})")

    def error(self, name, exc):
        self.attempted += 1
        self.failures.append(f"{name} raised {type(exc).__name__}: {exc}")


@dataclass
class Setup:
    workload: str
    scale: Scale
    seed: int
    config: dict
    fixture: object
    queries: np.ndarray
    extra: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)


def preset_seed(workload):
    return int(qm.get_preset(workload)["simulate"]["seed"])


def train_config(s: Setup):
    cfg = dict(s.config["train"], max_epochs=s.scale.epochs, patience=s.scale.epochs)
    return qm.net.TrainConfig(**cfg)


def train_rows(s: Setup) -> int:
    """Rows of the training split, as ``net.train`` splits the table."""
    n = s.scale.N
    n_val = min(max(int(round(s.config["train"]["validation_fraction"] * n)), 1), n - 1)
    return n - n_val


def _load_fixture(workload, role):
    net = qm.net.load_net(os.path.join(FIXTURES, FIXTURE_FILES[workload]))
    return qm.engine.QuantileNet(net=net, role=role, conditioning_dim=net.input_dim - 1)


def _counting_evaluator(qnet, M, counter):
    def evaluator(d):
        counter[0] += 1
        return qm.engine.expected_utility(qnet, d=d, M=M)
    return evaluator


def _optimize(s: Setup, qnet, counter):
    return qm.engine.optimize_decision(
        _counting_evaluator(qnet, int(s.config["eu"]["M"]), counter),
        s.extra["problem"].weight_domain,
        grid_size=int(s.config["optimize"]["grid_size"]),
        refine=bool(s.config["optimize"]["refine"]))


def setup(workload, scale_name, seed, checks: Checks) -> Setup:
    """Preset and model build, fixture load, and the fixture's acceptance
    check (A1 for the utility net, A2 for the posterior net)."""
    scale = SCALES[scale_name][workload]
    config = qm.get_preset(workload)
    picks = RandomSource(seed=seed, stream=2).uniform(scale.queries)
    if workload == "portfolio":
        problem = qm.presets.build_portfolio(config)
        lo, hi = problem.weight_domain
        s = Setup(workload, scale, seed, config, _load_fixture(workload, "utility"),
                  queries=lo + (hi - lo) * picks,
                  extra={"problem": problem, "grid": qm.presets.decision_grid(config),
                         "kelly": float(qm.analytic.kelly_weight(problem))})
        best = _optimize(s, s.fixture, [0]).best_decision
        err = abs(best - s.extra["kelly"])
        s.quality["weight_abs_error"] = err
        checks.add("fixture weight_abs_error <= 0.05 (A1)", err <= 0.05, err)
        return s

    model = qm.presets.build_normal_normal(config)
    y_obs = qm.presets.generate_observed_data(config)
    lo, hi = QUERY_SUMMARY_RANGE
    s = Setup(workload, scale, seed, config, _load_fixture(workload, "posterior"),
              queries=lo + (hi - lo) * picks,
              extra={"model": model, "post": qm.analytic.conjugate_posterior(model, y_obs),
                     "s_obs": qm.models.summary_mean(y_obs)})
    draws = _posterior_draws(s, s.fixture)
    for name, value, limit in _a2_values(s, draws):
        s.quality[name] = value
        checks.add(f"fixture {name} < {limit:g} (A2)", value < limit, value)
    return s


def _posterior_draws(s: Setup, qnet):
    """The draws of `repro normal-normal`, with its fixed sample seed."""
    post = s.config["posterior"]
    return qm.engine.posterior_sample(
        qnet, [s.extra["s_obs"]], M=int(post["M"]),
        rng=RandomSource(seed=int(post["sample_seed"]), stream=1))


def _a2_values(s: Setup, draws):
    post = s.extra["post"]
    return [
        ("posterior_ks", qm.repro.ks_distance(draws, post.cdf), 0.05),
        ("posterior_mean_error_sd", abs(float(draws.mean()) - post.mu_star) / post.sigma_star, 0.1),
        ("posterior_sd_ratio_error", abs(float(draws.std(ddof=1)) / post.sigma_star - 1.0), 0.1),
    ]


def _write_columns(path, header, columns):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([format(v, ".17g") for v in row])


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def run_pass(s: Setup, outdir, checks: Checks, wrap_utility=None) -> dict:
    """One pass of the workload; returns stage seconds and counts."""
    os.makedirs(outdir, exist_ok=True)
    clock = time.perf_counter
    r = {"simulate": 0.0, "train": 0.0, "write": 0.0, "read": 0.0,
         "optimize": 0.0, "sample": 0.0, "eu": 0.0, "eu_calls": 0}
    start = clock()
    cfg = s.config
    portfolio = s.workload == "portfolio"

    # simulate: `quantmeu simulate` writes table.csv
    if portfolio:
        problem = s.extra["problem"]
        utility = problem.utility_spec()
        if wrap_utility is not None:
            utility.evaluate = wrap_utility(utility.evaluate)
        model = qm.presets.portfolio_model_spec(problem)
        extra = {"utility": utility, "decisions": s.extra["grid"]}
    else:
        model = s.extra["model"].spec()
        extra = {}
    t = clock()
    table = qm.engine.build_training_table(
        model, N=s.scale.N, rng=RandomSource(seed=s.seed),
        sorted_pairing=bool(cfg["simulate"]["sorted_pairing"]), **extra)
    r["simulate"] = clock() - t

    table_path = os.path.join(outdir, "table.csv")
    t = clock()
    table.to_csv(table_path)
    r["write"] += clock() - t
    r["table_bytes"] = os.path.getsize(table_path)

    # train: `quantmeu train --table table.csv` writes net.json
    t = clock()
    back = qm.tables.TrainingTable.from_csv(table_path)
    r["read"] += clock() - t
    checks.add("table CSV read-back is bit-identical",
               all(_same_bits(getattr(table, c), getattr(back, c))
                   for c in ("theta", "summary", "tau", "decision", "utility")))
    trainer = qm.engine.train_utility_net if portfolio else qm.engine.train_posterior_net
    t = clock()
    trained, history = trainer(back, train_config(s))
    r["train"] = clock() - t
    r["epochs"] = len(history.train_loss)
    r["steps"] = r["epochs"] * math.ceil(train_rows(s) / int(cfg["train"]["batch_size"]))
    r["val_pinball"] = min(history.val_loss)
    checks.add("val_pinball < 0.2", r["val_pinball"] < 0.2, r["val_pinball"])

    net_path = os.path.join(outdir, "net.json")
    t = clock()
    qm.net.save_net(trained.net, net_path)
    r["write"] += clock() - t

    # query with the saved net, as a separate CLI command would
    t = clock()
    net = qm.net.load_net(net_path)
    r["read"] += clock() - t
    qnet = qm.engine.QuantileNet(net=net, role=trained.role, conditioning_dim=net.input_dim - 1)
    report = qm.repro.ReproReport(experiment=s.workload)
    if portfolio:
        t = clock()
        result = _optimize(s, qnet, [0])
        r["optimize"] = clock() - t
        eus = np.array([eu for _, eu, _ in result.curve])
        checks.add("every EU value is finite", bool(np.all(np.isfinite(eus))))
        r["scaled_weight_abs_error"] = abs(result.best_decision - s.extra["kelly"])
        report.add("scaled_weight_abs_error", r["scaled_weight_abs_error"], math.inf)
        t = clock()
        result.save_json(os.path.join(outdir, "result.json"))
        result.curve_to_csv(os.path.join(outdir, "curve.csv"))
        curve = np.array([[d, eu] for d, eu, _ in result.curve])
        qm.svgplot.line_plot(
            os.path.join(outdir, "curve.svg"),
            [qm.svgplot.Series(curve[:, 0], curve[:, 1], "EU estimate")],
            title="Expected utility", xlabel="decision", ylabel="expected utility",
            vlines=[qm.svgplot.VLine(s.extra["kelly"], label="Kelly"),
                    qm.svgplot.VLine(result.best_decision, label="estimate")])
        report.save(os.path.join(outdir, "report.json"))
        r["write"] += clock() - t
    else:
        t = clock()
        draws = _posterior_draws(s, qnet)
        r["sample"] = clock() - t
        for name, value, _ in _a2_values(s, draws):
            r["scaled_" + name] = value
            report.add(name, value, math.inf)
        t = clock()
        _write_columns(os.path.join(outdir, "posterior_draws.csv"), ["theta"], [draws])
        # the closed-form panels (CSV + SVG) and report.json of `repro normal-normal`
        qm.repro.run_normal_normal(outdir, structural_only=True)
        report.save(os.path.join(outdir, "scaled_report.json"))
        r["write"] += clock() - t

    # query phase on the full-size fixture: `optimize` and `eu --m 4096`
    counter = [0]
    t = clock()
    if portfolio:
        results = [_optimize(s, s.fixture, counter) for _ in range(s.scale.optimize_repeats)]
        values = [qm.engine.expected_utility(s.fixture, d=float(d), M=EU_QUERY_M)[0]
                  for d in np.concatenate([s.queries, s.queries])]
    else:
        values = [qm.engine.expected_utility(s.fixture, y_obs=[float(y)], M=EU_QUERY_M)[0]
                  for y in np.concatenate([s.queries, s.queries])]
    r["eu"] = clock() - t
    r["eu_calls"] = counter[0] + len(values)

    values = np.array(values)
    q = s.scale.queries
    checks.add("every query EU value is finite", bool(np.all(np.isfinite(values))))
    checks.add("a repeated query returns bit-identical EU values",
               _same_bits(values[:q], values[q:]))
    if portfolio:
        checks.add("repeated optimize runs agree exactly",
                   all(res.curve == results[0].curve for res in results))
        for res in results:
            err = abs(res.best_decision - s.extra["kelly"])
            checks.add("query argmax within 0.05 of Kelly", err <= 0.05, err)
    else:
        model = s.extra["model"]
        errs = [abs(v - qm.analytic.conjugate_posterior(model, np.full(model.n, y)).mu_star)
                / s.extra["post"].sigma_star for v, y in zip(values[:q], s.queries)]
        r["query_mean_error_sd"] = max(errs)
        checks.add("query posterior mean within 0.1 sd of the conjugate mean",
                   r["query_mean_error_sd"] < 0.1, r["query_mean_error_sd"])
    r["wall"] = clock() - start
    return r


PRODUCTION_LAYERS = (2, 64, 64, 64, 1)


def matmul_flops(layers, batch):
    """Multiply-add count x2 of one loss/gradient step, computed from the
    shapes: forward, weight gradients, and the deltas of layers 1.."""
    pairs = [(layers[i], layers[i + 1]) for i in range(len(layers) - 1)]
    macs = sum(a * b for a, b in pairs)
    return 2 * batch * (2 * macs + sum(a * b for a, b in pairs[1:]))


def kernel_microbench(repeats=7):
    """Median microseconds per kernel call at the production net shape.

    Batch 256 is the training batch; 1024 and 4096 are the EU batches
    (``eu --m 1024`` on the optimize grid, ``eu --m 4096``).
    """
    k = qm._kernels
    net = qm.net.DenseNet.initialized(PRODUCTION_LAYERS, seed=0)
    rng = np.random.default_rng(0)
    args = (net.params, net._sizes, net._w_offs, net._b_offs)
    out = {}
    for batch, calls in ((256, 20), (1024, 6), (4096, 2)):
        X = rng.standard_normal((batch, PRODUCTION_LAYERS[0]))
        y = rng.standard_normal(batch)
        tau = rng.uniform(0.01, 0.99, batch)
        jobs = [("loss_grad_batch", lambda: k.loss_grad_batch(*args, X, y, tau))]
        if batch > 256:
            jobs.append(("forward_batch", lambda: k.forward_batch(*args, X)))
        for name, job in jobs:
            job()
            per_call = []
            for _ in range(repeats):
                t = time.perf_counter()
                for _ in range(calls):
                    job()
                per_call.append((time.perf_counter() - t) / calls)
            out[f"kernels.{name}.b{batch}_us"] = 1e6 * float(np.median(per_call))
    out["kernels.loss_grad_batch.b4096_gflops"] = (
        matmul_flops(PRODUCTION_LAYERS, 4096) / out["kernels.loss_grad_batch.b4096_us"] / 1e3)
    return out
