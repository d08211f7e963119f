"""Repro report plumbing and the KS distance helper."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from quantmeu.errors import DataError
from quantmeu.net import load_net
from quantmeu.presets import PORTFOLIO, build_portfolio
from quantmeu.repro import (_FIELDS, ExperimentConfig, ReproReport, ks_distance,
                            optimize_net)
from quantmeu.special import normal_cdf


def test_report_add_and_passed():
    rep = ReproReport(experiment="demo")
    rep.add("small", 0.01, 0.05)
    assert rep.passed
    rep.add("big", 0.2, 0.05, comparison="<", detail="should fail")
    assert not rep.passed
    assert [c.passed for c in rep.checks] == [True, False]


def test_report_comparisons():
    rep = ReproReport(experiment="demo")
    rep.add("ge", 0.0, 0.0, comparison=">=")
    rep.add("gt", 1.0, 0.0, comparison=">")
    rep.add("le", 0.0, 0.0, comparison="<=")
    assert rep.passed
    with pytest.raises(KeyError):
        rep.add("bad", 0.0, 0.0, comparison="!=")


def test_report_save(tmp_path):
    rep = ReproReport(experiment="demo")
    rep.add("x", 0.5, 1.0)
    rep.artifacts.append("a.csv")
    path = tmp_path / "report.json"
    rep.save(path)
    doc = json.loads(path.read_text())
    assert doc["experiment"] == "demo"
    assert doc["passed"] is True
    assert doc["checks"][0]["name"] == "x"
    assert doc["artifacts"] == ["a.csv"]


def test_ks_distance_self_consistent():
    # [DERIVED] for a sample vs its own empirical quantiles the distance
    # is the grid offset 1/(2n)
    n = 1000
    u = (np.arange(n) + 0.5) / n
    d = ks_distance(u, lambda x: np.clip(x, 0.0, 1.0))
    assert d == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_distance_detects_shift():
    rng = np.random.default_rng(0)
    z = rng.normal(size=5000)
    close = ks_distance(z, normal_cdf)
    far = ks_distance(z + 1.0, normal_cdf)
    assert close < 0.03
    assert far > 0.3


def test_ks_distance_empty():
    with pytest.raises(DataError):
        ks_distance([], normal_cdf)


def test_random_scheme_optimum_matches_grid_scheme(portfolio_run):
    # one seed's M draws score every decision, so the random-scheme argmax
    # stays where the grid scheme puts it on the preset utility net
    _, outdir = portfolio_run
    net = load_net(outdir / "utility_net.json")
    grid_w = json.loads((outdir / "result.json").read_text())["best_decision"]
    for seed in range(5):
        cfg = ExperimentConfig(PORTFOLIO, {"simulate": {"seed": seed},
                                           "eu": {"scheme": "random"}})
        w = optimize_net(net, cfg).best_decision
        assert abs(w - grid_w) <= 0.01, f"seed {seed}: w*={w:.4f}, grid w*={grid_w:.4f}"


def test_json_int_model_value_and_tuple_domain_accepted():
    cfg = ExperimentConfig(PORTFOLIO, {"model": {"risk_free": 0,
                                                 "weight_domain": (0.1, 0.9)}})
    problem = cfg.build(build_portfolio)
    assert problem.risk_free == 0.0
    assert problem.weight_domain == (0.1, 0.9)


def test_readme_config_table_lists_every_field():
    # one README row per key that ExperimentConfig accepts, and no other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = re.findall(r"^\| `([\w.]+)` \|", readme, flags=re.MULTILINE)
    declared = []
    for name, spec in _FIELDS.items():
        declared += [f"{name}.{key}" for key in spec] if isinstance(spec, dict) else [name]
    assert sorted(documented) == sorted(declared)
