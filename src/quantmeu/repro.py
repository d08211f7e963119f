"""The experiment pipeline: one validated configuration, the shared
stages, and the end-to-end preset runs with pass/fail reports.

`ExperimentConfig` merges a preset with overrides and checks every field
a stage reads. `simulate_table` and `optimize_net` are the stages that
both the CLI subcommands and the runners call. Each runner writes CSV
panel data, SVG plots, and a JSON report whose checks mirror the
package's acceptance thresholds; `structural_only` skips network
training and keeps only the closed-form artifacts, which is enough for
format/shape verification.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import presets
from .analytic import (cara_normal_eu, conjugate_posterior, kelly_weight,
                       prior_to_posterior_survival_check, wang_params)
from .engine import (OptimizationResult, QuantileNet, build_training_table,
                     expected_utility, optimize_decision, posterior_sample,
                     train_posterior_net, train_utility_net)
from .errors import DataError, UsageError
from .models import RandomSource, summary_mean
from .net import DenseNet, TrainConfig, save_net
from .special import normal_cdf
from .svgplot import Series, VLine, line_plot
from .tables import TrainingTable, write_csv, write_json

_U64 = 2 ** 64 - 1
_INT, _NUMBER = ("int", None, None), ("number", None, None)

# Every key a stage reads: section -> key -> (kind, low, high); a choice's low holds
# its options. The builders, model classes and TrainConfig own model and train ranges.
_FIELDS = {
    "experiment": ("choice", (presets.NORMAL_NORMAL, presets.PORTFOLIO), None),
    "data_seed": ("int", 0, _U64),
    "model": {"prior_mean": _NUMBER, "prior_sd": _NUMBER, "likelihood_sd": _NUMBER,
              "n": ("int", 1, None), "true_theta": _NUMBER, "risk_free": _NUMBER,
              "return_mean": _NUMBER, "return_sd": _NUMBER, "risk_aversion": _NUMBER,
              "weight_domain": ("pair", None, None)},
    "simulate": {"seed": ("int", 0, _U64), "N": ("int", 1, None),
                 "grid_size": ("int", 2, None), "sorted_pairing": ("bool", None, None)},
    "optimize": {"grid_size": ("int", 2, None), "refine": ("bool", None, None)},
    "eu": {"M": ("int", 2, None), "scheme": ("choice", ("uniform_grid", "random"), None)},
    # the sd check needs two draws
    "posterior": {"M": ("int", 2, None), "sample_seed": ("int", 0, _U64)},
    "train": {"learning_rate": _NUMBER, "batch_size": _INT, "max_epochs": _INT,
              "patience": _INT, "validation_fraction": _NUMBER, "seed": _INT},
}

# Merged under the preset, so every section is present.
_DEFAULTS = {"model": {}, "simulate": {"seed": 0, "grid_size": 101, "sorted_pairing": False},
             "optimize": {"grid_size": 101, "refine": True},
             "eu": {"M": 1024, "scheme": "uniform_grid"}, "posterior": {}, "train": {}}


def _merge(base: dict, override: Optional[dict]) -> dict:
    out = dict(base)
    for key, val in (override or {}).items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def _is_number(value) -> bool:
    """A finite int or float; a bool is refused."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# kind -> (test of a value, what the error says the value must be)
_KINDS = {"int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
          "number": (_is_number, "a number"),
          "bool": (lambda v: isinstance(v, bool), "true or false"),
          "pair": (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                   and all(map(_is_number, v)), "a pair of numbers [low, high]")}


def _checked(doc: dict, fields: dict, prefix: str = "") -> dict:
    """A copy of `doc` in which `fields` declares every key and each value is
    of its kind and in [low, high]; an integral float such as 1e5 given for
    an int becomes an int. Anything else is a `UsageError`."""
    out = {}
    for key, value in doc.items():
        name, spec = prefix + key, fields.get(key)
        if spec is None:
            raise UsageError(f"unknown config key {name!r}")
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                raise UsageError(f"config section {name!r} must be an object, got {value!r}")
            out[key] = _checked(value, spec, name + ".")
            continue
        kind, low, high = spec
        if kind == "int" and isinstance(value, float) and value.is_integer():
            value = int(value)
        if kind == "choice":
            if value not in low:
                raise UsageError(f"{name} must be one of {', '.join(low)}, got {value!r}")
        elif not _KINDS[kind][0](value):
            raise UsageError(f"{name} must be {_KINDS[kind][1]}, got {value!r}")
        elif (low is not None and value < low) or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise UsageError(f"{name} must be {bound}, got {value}")
        out[key] = value
    return out


class ExperimentConfig:
    """A preset merged with overrides, every field a stage reads checked once.

    The preset, when given, names the experiment; otherwise the merged
    document's `experiment` does. `doc` is the checked document, as the
    presets' builders read it. Bad values raise `UsageError`.
    """

    def __init__(self, preset: Optional[str] = None, overrides: Optional[dict] = None):
        base = {}
        if preset:
            try:
                base = presets.get_preset(preset)
            except DataError as exc:
                raise UsageError(str(exc)) from exc
        doc = _checked(_merge(_merge(_DEFAULTS, base), overrides), _FIELDS)
        self.experiment = preset or doc.get("experiment", "custom")
        try:
            self.train = TrainConfig(**doc["train"])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        self.doc, self.model, self.simulate = doc, doc["model"], doc["simulate"]
        self.optimize, self.eu, self.posterior = doc["optimize"], doc["eu"], doc["posterior"]

    def build(self, builder):
        """`builder(doc)`; a missing key, or a value that the builder or the
        model refuses, is a `UsageError`."""
        try:
            return builder(self.doc)
        except KeyError as exc:
            raise UsageError(f"the {self.experiment} config lacks key "
                             f"{exc.args[0]!r}") from None
        except ValueError as exc:
            raise UsageError(f"bad {self.experiment} config value: {exc}") from None


def simulate_table(cfg: ExperimentConfig) -> TrainingTable:
    """Simulate the experiment's training table from its spec, utility and
    decision grid."""
    if not cfg.model or "N" not in cfg.simulate:
        raise UsageError("simulate needs --preset or --config with model "
                         "parameters and simulate.N")
    if cfg.experiment == presets.PORTFOLIO:
        problem = cfg.build(presets.build_portfolio)
        parts = {"model": presets.portfolio_model_spec(problem),
                 "utility": problem.utility_spec(),
                 "decisions": cfg.build(presets.decision_grid)}
    elif cfg.experiment == presets.NORMAL_NORMAL:
        parts = {"model": cfg.build(presets.build_normal_normal).spec()}
    else:
        raise UsageError("simulate needs an experiment: give --preset or set "
                         "experiment in --config")
    sim = cfg.simulate
    return build_training_table(N=sim["N"], rng=RandomSource(seed=sim["seed"]),
                                sorted_pairing=sim["sorted_pairing"], **parts)


def eu_evaluator(net: DenseNet, cfg: ExperimentConfig):
    """x -> (eu, se) of the net conditioned on x (the decision of a utility
    net, the summary of a posterior net): the exact integral of the net's
    tau line under eu.scheme uniform_grid, or under random the mean over
    the first eu.M draws of the simulation seed's stream 7, the same draws
    at every call."""
    M, scheme, seed = cfg.eu["M"], cfg.eu["scheme"], cfg.simulate["seed"]
    qnet = QuantileNet(net, "utility", net.input_dim - 1)

    def evaluate(x):
        rng = RandomSource(seed=seed, stream=7) if scheme == "random" else None
        return expected_utility(qnet, d=x, M=M, rng=rng)

    return evaluate


def optimize_net(net: DenseNet, cfg: ExperimentConfig) -> OptimizationResult:
    """Maximize the utility net's expected utility over the decision domain."""
    return optimize_decision(eu_evaluator(net, cfg), cfg.build(presets.decision_domain),
                             grid_size=cfg.optimize["grid_size"],
                             refine=cfg.optimize["refine"],
                             config={"experiment": cfg.experiment, "M": cfg.eu["M"],
                                     "scheme": cfg.eu["scheme"]},
                             seed=cfg.simulate["seed"])


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str = "<"
    detail: str = ""


@dataclass
class ReproReport:
    experiment: str
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, value, threshold, comparison="<", detail=""):
        value = float(value)
        ok = {"<": value < threshold, "<=": value <= threshold,
              ">": value > threshold, ">=": value >= threshold}[comparison]
        self.checks.append(Check(name=name, passed=bool(ok), value=value,
                                 threshold=float(threshold),
                                 comparison=comparison, detail=detail))

    def save(self, path) -> None:
        write_json(path, {
            "experiment": self.experiment,
            "passed": self.passed,
            "elapsed_seconds": self.elapsed_seconds,
            "checks": [asdict(c) for c in self.checks],
            "artifacts": self.artifacts,
        })


def ks_distance(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a reference CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    if x.size == 0:
        raise DataError("empty sample")
    n = x.size
    F = np.asarray(cdf(x), dtype=np.float64)
    upper = np.max(np.arange(1, n + 1) / n - F)
    lower = np.max(F - np.arange(0, n) / n)
    return float(max(upper, lower))


def _normal_pdf(x, mean, sd):
    z = (np.asarray(x, dtype=np.float64) - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def run_normal_normal(outdir, overrides: Optional[dict] = None,
                      structural_only: bool = False) -> ReproReport:
    """Conjugate-model reproduction: panel data, distortion identity, and
    (unless structural_only) the trained-posterior recovery checks."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(presets.NORMAL_NORMAL, overrides)
    os.makedirs(outdir, exist_ok=True)
    report = ReproReport(experiment=cfg.experiment)

    model = cfg.build(presets.build_normal_normal)
    y_obs = cfg.build(presets.generate_observed_data)
    post = conjugate_posterior(model, y_obs)
    w = wang_params(model, y_obs)
    alpha = math.sqrt(model.prior_variance)
    sigma = math.sqrt(model.likelihood_variance)
    true_theta = float(cfg.doc["model"]["true_theta"])

    theta = np.arange(-15.0, 15.0 + 1e-9, 0.05)
    prior_pdf = _normal_pdf(theta, model.prior_mean, alpha)
    lik_pdf = _normal_pdf(theta, true_theta, sigma)
    post_pdf = _normal_pdf(theta, post.mu_star, post.sigma_star)
    p_model = os.path.join(outdir, "panel_model.csv")
    write_csv(p_model, ["theta", "prior", "likelihood", "posterior"],
              [theta, prior_pdf, lik_pdf, post_pdf])
    s_model = os.path.join(outdir, "panel_model.svg")
    line_plot(s_model,
              [Series(theta, prior_pdf, "prior"),
               Series(theta, lik_pdf, "likelihood", dashed=True),
               Series(theta, post_pdf, "posterior")],
              title="Model densities", xlabel="theta", ylabel="density")

    p = np.linspace(1e-4, 1.0 - 1e-4, 601)
    g_vals = w(p)
    p_dist = os.path.join(outdir, "panel_distortion.csv")
    write_csv(p_dist, ["p", "g"], [p, g_vals])
    s_dist = os.path.join(outdir, "panel_distortion.svg")
    line_plot(s_dist,
              [Series(p, g_vals, "g(p)"), Series(p, p, "identity", dashed=True)],
              title="Distortion function", xlabel="p", ylabel="g(p)")

    prior_surv = normal_cdf(-(theta - model.prior_mean) / alpha)
    post_surv = normal_cdf(-(theta - post.mu_star) / post.sigma_star)
    p_surv = os.path.join(outdir, "panel_survival.csv")
    write_csv(p_surv, ["theta", "prior_survival", "posterior_survival",
                       "distorted_prior_survival"],
              [theta, prior_surv, post_surv, w(prior_surv)])
    s_surv = os.path.join(outdir, "panel_survival.svg")
    line_plot(s_surv,
              [Series(theta, prior_surv, "prior survival"),
               Series(theta, post_surv, "posterior survival")],
              title="Survival functions", xlabel="theta", ylabel="1 - CDF")
    report.artifacts += [p_model, s_model, p_dist, s_dist, p_surv, s_surv]

    report.add("distortion_nondecreasing",
               float(np.min(np.diff(g_vals))), 0.0, comparison=">=",
               detail="min forward difference of g on the panel grid")
    # strict increase is only checkable away from the regions where g has
    # saturated to 0 or 1 in double precision
    interior = np.diff(g_vals[(g_vals > 1e-9) & (g_vals < 1.0 - 1e-9)])
    report.add("distortion_strictly_increasing",
               float(np.min(interior)) if interior.size else math.inf,
               0.0, comparison=">",
               detail="min forward difference where g is away from 0 and 1")
    grid = np.arange(-10.0, 10.0 + 1e-9, 0.01)
    report.add("survival_identity_max_discrepancy",
               prior_to_posterior_survival_check(grid, model, y_obs), 1e-9)
    sigma_star_exact = math.sqrt(alpha ** 2 * sigma ** 2
                                 / (sigma ** 2 + model.n * alpha ** 2))
    report.add("sigma_star_matches_closed_form",
               abs(post.sigma_star - sigma_star_exact), 1e-12,
               detail=f"sigma_star={post.sigma_star:.6f}")

    if not structural_only:
        H, _ = train_posterior_net(simulate_table(cfg), cfg.train)
        net_path = os.path.join(outdir, "posterior_net.json")
        save_net(H.net, net_path)
        report.artifacts.append(net_path)

        M = cfg.posterior["M"]
        draw_rng = RandomSource(seed=cfg.posterior["sample_seed"], stream=1)
        s_obs = summary_mean(y_obs)
        draws = posterior_sample(H, [s_obs], M=M, rng=draw_rng)
        d_path = os.path.join(outdir, "posterior_draws.csv")
        write_csv(d_path, ["theta"], [draws])
        report.artifacts.append(d_path)

        report.add("posterior_ks_distance", ks_distance(draws, post.cdf), 0.05,
                   detail=f"M={M}, summary={s_obs:.4f}")
        report.add("posterior_mean_abs_error",
                   abs(float(draws.mean()) - post.mu_star),
                   0.1 * post.sigma_star,
                   detail=f"net mean={draws.mean():.4f}, oracle={post.mu_star:.4f}")
        report.add("posterior_sd_ratio_error",
                   abs(float(draws.std(ddof=1)) / post.sigma_star - 1.0), 0.1,
                   detail=f"net sd={draws.std(ddof=1):.4f}, oracle={post.sigma_star:.4f}")

    report.elapsed_seconds = time.perf_counter() - t0
    report.save(os.path.join(outdir, "report.json"))
    report.artifacts.append(os.path.join(outdir, "report.json"))
    return report


def run_portfolio(outdir, overrides: Optional[dict] = None,
                  structural_only: bool = False) -> ReproReport:
    """Portfolio reproduction: EU curves with the 0.4 marker and (unless
    structural_only) the trained-utility-net weight recovery check."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(presets.PORTFOLIO, overrides)
    if cfg.simulate["grid_size"] < 3:
        # the concavity check takes second differences of the analytic curve
        raise UsageError("simulate.grid_size must be >= 3 for the portfolio repro, "
                         f"got {cfg.simulate['grid_size']}")
    os.makedirs(outdir, exist_ok=True)
    report = ReproReport(experiment=cfg.experiment)

    problem = cfg.build(presets.build_portfolio)
    grid = cfg.build(presets.decision_grid)
    kelly = kelly_weight(problem)
    analytic_curve = cara_normal_eu(grid, problem)

    a_csv = os.path.join(outdir, "eu_curve_analytic.csv")
    write_csv(a_csv, ["d", "eu", "se"],
              [grid, analytic_curve, np.zeros_like(grid)])
    report.artifacts.append(a_csv)

    report.add("analytic_curve_strictly_concave",
               float(np.max(np.diff(analytic_curve, 2))), 0.0,
               detail="max second difference over the weight grid")
    report.add("kelly_weight_abs_error", abs(float(kelly) - 0.40), 1e-12,
               detail=f"kelly={float(kelly):.6f}")

    series = [Series(grid, analytic_curve, "analytic EU", dashed=True)]
    vlines = [VLine(float(kelly), label=f"{float(kelly):.2f}", color="#d62728")]

    if not structural_only:
        G, _ = train_utility_net(simulate_table(cfg), cfg.train)
        net_path = os.path.join(outdir, "utility_net.json")
        save_net(G.net, net_path)
        report.artifacts.append(net_path)

        result = optimize_net(G.net, cfg)
        r_json = os.path.join(outdir, "result.json")
        result.save_json(r_json)
        c_csv = os.path.join(outdir, "eu_curve.csv")
        result.curve_to_csv(c_csv)
        report.artifacts += [r_json, c_csv]

        curve = np.array([[d, eu] for d, eu, _ in result.curve])
        series.insert(0, Series(curve[:, 0], curve[:, 1], "net EU"))
        vlines.append(VLine(result.best_decision,
                            label=f"est {result.best_decision:.3f}",
                            color="#2ca02c"))
        report.add("weight_abs_error", abs(result.best_decision - float(kelly)),
                   0.05, comparison="<=",
                   detail=f"best_decision={result.best_decision:.4f}")
        report.add("pipeline_elapsed_seconds", time.perf_counter() - t0, 300.0)

    svg = os.path.join(outdir, "eu_curve.svg")
    line_plot(svg, series, title="Expected utility vs portfolio weight",
              xlabel="weight", ylabel="expected utility", vlines=vlines)
    report.artifacts.append(svg)

    report.elapsed_seconds = time.perf_counter() - t0
    report.save(os.path.join(outdir, "report.json"))
    report.artifacts.append(os.path.join(outdir, "report.json"))
    return report


RUNNERS = {
    presets.NORMAL_NORMAL: run_normal_normal,
    presets.PORTFOLIO: run_portfolio,
}
