"""CLI subcommands, exit codes, and artifact formats at small scale."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from quantmeu import DenseNet
from quantmeu.net import load_net, save_net
from quantmeu.tables import TrainingTable
from quantmeu.cli import main


SMALL_CONFIG = {
    "train": {"max_epochs": 5, "patience": 5, "seed": 0, "batch_size": 256},
    "eu": {"M": 64, "scheme": "uniform_grid"},
    "optimize": {"grid_size": 21, "refine": True},
}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


@pytest.fixture()
def portfolio_table(tmp_path, small_config):
    outdir = tmp_path / "sim"
    rc = main(["simulate", "--preset", "portfolio", "--config", small_config,
               "--n", "630", "--grid", "21", "--out", str(outdir)])
    assert rc == 0
    return outdir


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_portfolio_artifacts(portfolio_table):
    table = TrainingTable.from_csv(portfolio_table / "table.csv")
    assert table.n_rows == 630
    assert table.has_utility
    assert len(np.unique(table.decision)) == 21
    prov = json.loads((portfolio_table / "table_provenance.json").read_text())
    assert prov["N"] == 630
    assert prov["sorted_pairing"] is True


def test_simulate_normal_normal(tmp_path):
    outdir = tmp_path / "nn"
    rc = main(["simulate", "--preset", "normal-normal", "--n", "200",
               "--seed", "77", "--out", str(outdir)])
    assert rc == 0
    table = TrainingTable.from_csv(outdir / "table.csv")
    assert table.n_rows == 200
    assert not table.has_utility
    prov = json.loads((outdir / "table_provenance.json").read_text())
    assert prov["seed"] == 77


@pytest.mark.parametrize("args, digest", [
    (["--preset", "portfolio", "--n", "630", "--grid", "21"],
     "251fb92b13c67f760cc9ddcb4924968dd45c90f567ff5115505df6d0f94b2271"),
    (["--preset", "normal-normal", "--n", "200", "--seed", "77"],
     "498ae20b5aa64e61c0ae1f4551226a956679c2b9fd757123414bb052458b266e"),
], ids=["portfolio", "normal-normal"])
def test_simulate_table_csv_bytes_are_pinned(tmp_path, args, digest):
    # digests recorded while every cell still went through csv.writer as
    # format(v, ".17g"): the table format and the simulated rows keep every byte
    assert main(["simulate", *args, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "table.csv").read_bytes()).hexdigest() == digest


def test_simulate_seed_changes_table(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((a, "5"), (b, "5"), (c, "6")):
        assert main(["simulate", "--preset", "normal-normal", "--n", "50",
                     "--seed", seed, "--out", str(out)]) == 0
    ta = (a / "table.csv").read_text()
    assert ta == (b / "table.csv").read_text()
    assert ta != (c / "table.csv").read_text()


def test_simulate_requires_model():
    assert main(["simulate", "--n", "10"]) == 1


def test_simulate_without_experiment_says_it_is_missing(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "model": {"risk_free": 0.05, "return_mean": 0.1, "return_sd": 0.25,
                  "risk_aversion": 2.0},
        "simulate": {"N": 5}}))
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: simulate needs an experiment: give --preset or set "
                   "experiment in --config"]


def test_simulate_rejects_bad_n():
    assert main(["simulate", "--preset", "portfolio", "--n", "0"]) == 1


def test_simulate_unknown_preset():
    assert main(["simulate", "--preset", "nope", "--n", "10"]) == 1


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_and_artifacts(tmp_path, portfolio_table, small_config):
    outdir = tmp_path / "train"
    rc = main(["train", "--table", str(portfolio_table / "table.csv"),
               "--config", small_config, "--out", str(outdir)])
    assert rc == 0
    net = load_net(outdir / "net.json")
    assert net.input_dim == 2
    lines = (outdir / "history.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[1]), float(first[2])


def test_train_missing_table_flag():
    assert main(["train"]) == 1


def test_train_missing_table_file(tmp_path):
    assert main(["train", "--table", str(tmp_path / "nope.csv")]) == 2


def test_train_bad_config_key(tmp_path, portfolio_table):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"train": {"not_a_field": 3}}))
    assert main(["train", "--table", str(portfolio_table / "table.csv"),
                 "--config", str(cfg)]) == 1


def test_train_divergence_exits_2(tmp_path, portfolio_table, capsys):
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({"train": {"learning_rate": 1e300, "max_epochs": 5,
                                         "patience": 2}}))
    capsys.readouterr()
    # the overflow on the way to the divergence is reported once, as the error
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["train", "--table", str(portfolio_table / "table.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "train")]) == 2
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [err[0]] and "diverged at epoch 0" in err[0]
    assert not (tmp_path / "train" / "net.json").exists()


def test_config_not_json(tmp_path, portfolio_table):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{broken")
    assert main(["train", "--table", str(portfolio_table / "table.csv"),
                 "--config", str(cfg)]) == 2


def test_config_missing_file(portfolio_table, tmp_path):
    assert main(["train", "--table", str(portfolio_table / "table.csv"),
                 "--config", str(tmp_path / "absent.json")]) == 2


# ---------------------------------------------------------------------------
# optimize and eu
# ---------------------------------------------------------------------------

@pytest.fixture()
def trained_net(tmp_path, portfolio_table, small_config):
    outdir = tmp_path / "train"
    assert main(["train", "--table", str(portfolio_table / "table.csv"),
                 "--config", small_config, "--out", str(outdir)]) == 0
    return outdir / "net.json"


def test_optimize_artifacts(tmp_path, trained_net, small_config):
    outdir = tmp_path / "opt"
    rc = main(["optimize", "--net", str(trained_net), "--preset", "portfolio",
               "--config", small_config, "--out", str(outdir)])
    assert rc == 0
    result = json.loads((outdir / "result.json").read_text())
    assert 0.0 <= result["best_decision"] <= 1.0
    curve = (outdir / "curve.csv").read_text().splitlines()
    assert curve[0] == "d,eu,se"
    assert len(curve) >= 22
    svg = (outdir / "curve.svg").read_text()
    assert svg.startswith("<?xml")
    assert "0.40" in svg


def test_eu_prints_document(capsys, trained_net):
    capsys.readouterr()  # drain fixture-setup output
    rc = main(["eu", "--net", str(trained_net), "--decision", "0.4",
               "--m", "64"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["decision"] == 0.4
    assert doc["M"] == 64
    assert doc["se"] == 0.0
    assert -1.5 < doc["eu"] < 0.0


def test_eu_writes_json(tmp_path, trained_net):
    outdir = tmp_path / "eu"
    rc = main(["eu", "--net", str(trained_net), "--decision", "0.2",
               "--m", "32", "--out", str(outdir)])
    assert rc == 0
    doc = json.loads((outdir / "eu.json").read_text())
    assert doc["decision"] == 0.2


def test_eu_matches_optimize_curve_under_random_scheme(tmp_path, capsys):
    # every decision of one run is scored on the same tau draws, so `eu`
    # reproduces each grid row of `optimize`'s curve bit for bit
    net_path = tmp_path / "net.json"
    save_net(DenseNet.initialized((2, 8, 1), seed=0), net_path)
    cfg = tmp_path / "random.json"
    cfg.write_text(json.dumps({"eu": {"M": 64, "scheme": "random"}}))
    flags = ["--net", str(net_path), "--config", str(cfg)]
    assert main(["optimize", "--grid", "5", "--out", str(tmp_path / "opt")] + flags) == 0
    lines = (tmp_path / "opt" / "curve.csv").read_text().splitlines()[1:]
    curve = {d: (eu, se) for d, eu, se in
             ([float(v) for v in line.split(",")] for line in lines)}
    for d in np.linspace(0.0, 1.0, 5):
        capsys.readouterr()
        assert main(["eu", "--decision", repr(float(d))] + flags) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["eu"], doc["se"]) == curve[float(d)], f"d={d}"


def test_eu_corrupt_net(tmp_path):
    bad = tmp_path / "net.json"
    bad.write_text(json.dumps({"format": "other", "version": 1}))
    assert main(["eu", "--net", str(bad), "--decision", "0.4"]) == 2


def test_eu_overflowing_estimate_is_numeric_error(tmp_path, capsys):
    # an estimate that overflows once printed Infinity; at 1e308 this net's
    # tau line is about -3.9e307 and finite, and y_scale 1e10 overflows it
    net = DenseNet.initialized((2, 8, 1), seed=0)
    net_path = tmp_path / "net.json"
    save_net(net, net_path)
    assert main(["eu", "--net", str(net_path), "--decision", "1e308"]) == 0
    assert -1e308 < json.loads(capsys.readouterr().out)["eu"] < -1e307
    save_net(DenseNet(net.layer_sizes, net.params, y_scale=1e10), net_path)
    assert main(["eu", "--net", str(net_path), "--decision", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------

def test_repro_structural_normal_normal(tmp_path, capsys):
    outdir = tmp_path / "nn-repro"
    rc = main(["repro", "normal-normal", "--structural", "--out", str(outdir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS survival_identity_max_discrepancy" in out
    for name in ("panel_model.csv", "panel_model.svg", "panel_distortion.csv",
                 "panel_survival.csv", "report.json"):
        assert (outdir / name).exists()
    report = json.loads((outdir / "report.json").read_text())
    assert report["passed"] is True


def test_repro_structural_portfolio(tmp_path, capsys):
    outdir = tmp_path / "pf-repro"
    rc = main(["repro", "portfolio", "--structural", "--out", str(outdir)])
    assert rc == 0
    assert (outdir / "eu_curve_analytic.csv").exists()
    out = capsys.readouterr().out
    assert "PASS kelly_weight_abs_error" in out


def test_repro_random_scheme_uses_optimize_stream(tmp_path):
    cfg = tmp_path / "random.json"
    cfg.write_text(json.dumps({"train": {"max_epochs": 2, "patience": 2},
                               "eu": {"M": 64, "scheme": "random"}}))
    flags = ["--config", str(cfg), "--grid", "5"]
    outdir = tmp_path / "pf-repro"
    # A1 cannot pass on a 300-row, 2-epoch net, so a failed check (3) is fine
    assert main(["repro", "portfolio", "--n", "300", "--out", str(outdir)] + flags) in (0, 3)
    result = json.loads((outdir / "result.json").read_text())
    assert result["config"]["scheme"] == "random"
    assert main(["optimize", "--preset", "portfolio", "--net",
                 str(outdir / "utility_net.json"), "--out", str(tmp_path / "opt")]
                + flags) == 0
    # the same tau stream as `optimize` gives the same curve, byte for byte
    assert ((outdir / "eu_curve.csv").read_text()
            == (tmp_path / "opt" / "curve.csv").read_text())


def test_repro_unknown_experiment():
    assert main(["repro", "mystery"]) == 1


def test_repro_failing_report_maps_to_3(tmp_path, monkeypatch, capsys):
    from quantmeu import repro as rmod

    def doomed(outdir, overrides=None, structural_only=False):
        rep = rmod.ReproReport(experiment="portfolio")
        rep.add("impossible", 1.0, 0.5, comparison="<")
        return rep

    monkeypatch.setitem(rmod.RUNNERS, "portfolio", doomed)
    rc = main(["repro", "portfolio", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "FAIL impossible" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def test_no_command_is_usage_error():
    assert main([]) == 1


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_bad_seed_rejected(tmp_path):
    assert main(["simulate", "--preset", "normal-normal", "--n", "10",
                 "--seed", "-1", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "portfolio", "--n", "10", "--grid", "0"],
    ["repro", "portfolio", "--structural", "--grid", "1"],
    ["optimize", "--net", "{net}", "--grid", "1"],
    ["eu", "--net", "{net}", "--decision", "0.4", "--m", "1"],
    ["repro", "portfolio", "--seed", "-1"],
    ["repro", "normal-normal", "--n", "0"],
    ["repro", "portfolio", "--config", {"train": {"foo": 1}}],
    ["optimize", "--net", "{net}", "--config", {"eu": {"M": 1}}],
    ["optimize", "--net", "{net}", "--config", {"eu": {"scheme": "bogus"}}],
    ["simulate", "--config", {"experiment": "portfolio", "model": {"risk_free": 0.05}},
     "--n", "10"],
    ["simulate", "--config", {"simulate": 5}, "--n", "10"],
    ["simulate", "--config", {"simulate": 5}],
    ["eu", "--net", "{net}", "--decision", "nan"],
    ["eu", "--net", "{net}", "--decision", "inf"],
    ["optimize", "--net", "{net}", "--config", {"train": {"beta1": 0.8}}],
    ["simulate", "--preset", "portfolio", "--config", {"model": {"risk_free": None}},
     "--n", "10"],
    ["simulate", "--preset", "portfolio", "--config", {"model": {"risk_free": "x"}},
     "--n", "10"],
    ["simulate", "--preset", "normal-normal", "--config", {"model": {"n": "x"}},
     "--n", "10"],
    ["repro", "normal-normal", "--structural", "--config", {"model": {"n": "x"}}],
    ["repro", "portfolio", "--structural", "--config",
     {"model": {"weight_domain": None}}],
    ["optimize", "--net", "{net}", "--grid", "3", "--config",
     {"model": {"weight_domain": [0.2, "x"]}}],
    ["optimize", "--net", "{net}", "--grid", "3", "--config",
     {"model": {"weight_domain": 5}}],
    ["repro", "normal-normal", "--n", "200", "--config",
     {"train": {"max_epochs": 1}, "posterior": {"M": "x"}}],
    ["repro", "normal-normal", "--n", "200", "--config",
     {"train": {"max_epochs": 1}, "posterior": {"M": 0}}],
    ["repro", "normal-normal", "--n", "200", "--config",
     {"train": {"max_epochs": 1}, "posterior": {"sample_seed": -1}}],
    ["simulate", "--preset", "normal-normal", "--n", "5", "--config",
     {"model": {"likelihood_sd": 0}}],
    ["simulate", "--preset", "portfolio", "--n", "5", "--config",
     {"model": {"weight_domain": [0.5, 0.2]}}],
    ["simulate", "--preset", "normal-normal", "--n", "5", "--config",
     {"model": {"prior_sd": -1}}],
    ["simulate", "--preset", "normal-normal", "--n", "5", "--config",
     {"model": {"n": 10.7}}],
    ["repro", "portfolio", "--structural", "--config", {"model": {"return_sd": -1}}],
    ["simulate", "--preset", "portfolio", "--n", "5", "--config",
     {"model": {"weight_domain": [0.3, 0.3]}}],
    ["optimize", "--net", "{net}", "--grid", "3", "--config",
     {"model": {"weight_domain": [0.3, 0.3]}}],
    ["simulate", "--preset", "portfolio", "--n", "5", "--config",
     {"model": {"weight_domain": [0.5, 2]}}],
    ["eu", "--net", "{net}", "--decision", "0.4", "--role", "utility"],
    ["train", "--table", "absent.csv", "--target", "auto"],
    ["train", "--table", "absent.csv", "--seed", "5"],
    ["train", "--table", "absent.csv", "--n", "7"],
    ["train", "--table", "absent.csv", "--grid", "3"],
    ["optimize", "--net", "{net}", "--n", "3"],
    ["eu", "--net", "{net}", "--decision", "0.4", "--n", "3"],
    ["eu", "--net", "{net}", "--decision", "0.4", "--grid", "9"],
    ["repro", "portfolio", "--structural", "--preset", "portfolio"],
    ["eu", "--net", "{net}", "--dec", "0.4"],
    ["repro", "normal-normal", "--structural", "--config", {"data_seed": 424242.7}],
    ["repro", "normal-normal", "--structural", "--config", {"data_seed": True}],
    ["repro", "normal-normal", "--structural", "--config", {"data_seed": "424242"}],
    ["optimize", "--net", "{net}", "--grid", "3", "--config",
     {"train": {"learning_rate": True}}],
    ["simulate", "--preset", "portfolio", "--config", {"simulate": {"n": 50}}],
    ["optimize", "--net", "{net}", "--grid", "3", "--config", {"eu": {"m": 50}}],
    ["simulate", "--preset", "portfolio", "--n", "5", "--config",
     {"model": {"return_sdd": 0.2}}],
    ["simulate", "--preset", "portfolio", "--n", "5", "--config",
     {"simulation": {"N": 5}}],
    ["repro", "normal-normal", "--structural", "--config", {"model": {"true_theta": True}}],
    ["repro", "normal-normal", "--structural", "--config", {"model": {"prior_mean": "1.5"}}],
    ["simulate", "--preset", "portfolio", "--n", "5", "--config",
     {"model": {"weight_domain": [False, "1"]}}],
    ["simulate", "--preset", "portfolio", "--n", "5", "--config",
     {"model": {"risk_free": math.nan}}],
    ["repro", "portfolio", "--structural", "--grid", "2"],
], ids=["simulate-grid0", "repro-grid1", "optimize-grid1", "eu-m1",
        "repro-seed-1", "repro-n0", "repro-train-key", "optimize-eu-m1",
        "optimize-eu-scheme", "simulate-model-key", "simulate-section-n",
        "simulate-section", "eu-decision-nan", "eu-decision-inf",
        "optimize-train-beta1", "simulate-model-null", "simulate-model-str",
        "simulate-model-n-str", "repro-structural-n-str",
        "repro-structural-domain-null", "optimize-domain-str", "optimize-domain-int",
        "repro-posterior-m-str", "repro-posterior-m0", "repro-posterior-seed-1",
        "simulate-likelihood-sd0", "simulate-domain-reversed", "simulate-prior-sd-neg",
        "simulate-model-n-fraction", "repro-structural-return-sd-neg",
        "simulate-domain-degenerate", "optimize-domain-degenerate",
        "simulate-domain-outside-unit", "eu-role-flag", "train-target-flag",
        "train-seed-flag", "train-n-flag", "train-grid-flag", "optimize-n-flag",
        "eu-n-flag", "eu-grid-flag", "repro-preset-flag", "eu-abbreviated-flag",
        "repro-data-seed-fraction", "repro-data-seed-bool", "repro-data-seed-str",
        "optimize-learning-rate-bool", "simulate-key-typo-n", "optimize-key-typo-eu-m",
        "simulate-model-key-typo", "simulate-section-typo", "repro-true-theta-bool",
        "repro-prior-mean-str", "simulate-domain-bool-str", "simulate-risk-free-nan",
        "repro-portfolio-grid2"])
def test_too_small_grid_or_m_is_usage_error(tmp_path, capsys, argv):
    net_path = tmp_path / "net.json"
    save_net(DenseNet.initialized((2, 8, 1), seed=0), net_path)
    config_path = tmp_path / "config.json"

    def arg(a):
        if isinstance(a, dict):
            config_path.write_text(json.dumps(a))
            return str(config_path)
        return a.format(net=net_path)

    argv = [arg(a) for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("section,key,value,wanted", [
    ("simulate", "sorted_pairing", "false", "true or false"),
    ("optimize", "refine", "false", "true or false"),
    ("simulate", "N", 10.7, "an integer"),
    ("eu", "M", True, "an integer"),
    ("simulate", "seed", "3", "an integer"),
    ("train", "batch_size", 2.5, "an integer"),
    ("train", "max_epochs", True, "an integer"),
    ("model", "true_theta", True, "a number"),
    ("model", "prior_mean", "1.5", "a number"),
    ("model", "likelihood_sd", math.inf, "a number"),
    ("model", "weight_domain", [False, "1"], "a pair of numbers"),
    ("train", "batch_size", 0, ">= 1, got 0"),
    ("train", "max_epochs", 0, ">= 1, got 0"),
    ("train", "patience", 0, ">= 1, got 0"),
    ("train", "learning_rate", 0, "> 0, got 0"),
    ("train", "validation_fraction", 1, "in (0, 1), got 1"),
    ("train", "seed", -1, "in [0, 2**64), got -1"),
], ids=["sorted-pairing-str", "refine-str", "n-fraction", "eu-m-bool", "seed-str",
        "train-batch-fraction", "train-epochs-bool", "model-theta-bool", "model-mean-str",
        "model-sd-inf", "model-domain-bool-str", "train-batch-0", "train-epochs-0",
        "train-patience-0", "train-learning-rate-0", "train-validation-fraction-1",
        "train-seed-neg"])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, section, key, value,
                                                    wanted):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({section: {key: value}}))
    argv = ["simulate", "--preset", "normal-normal", "--config", str(config_path),
            "--out", str(tmp_path / "out")]
    if key != "N":
        argv += ["--n", "5"]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"{section}.{key} must be {wanted}" in err[0]
    assert not (tmp_path / "out" / "table.csv").exists()


def test_config_integral_float_and_json_bool_accepted(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"simulate": {"N": 1e1, "sorted_pairing": False}}))
    outdir = tmp_path / "out"
    assert main(["simulate", "--preset", "portfolio", "--config", str(config_path),
                 "--grid", "5", "--out", str(outdir)]) == 0
    prov = json.loads((outdir / "table_provenance.json").read_text())
    assert prov["N"] == 10 and prov["sorted_pairing"] is False


def _edited_net(edit):
    """Writer of a saved 2-8-1 net whose document `edit` has changed."""
    def write(path):
        save_net(DenseNet.initialized((2, 8, 1), seed=0), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return write


def _table_with_text_tau(path):
    path.write_text("theta,summary,decision,utility,tau\n0.1,0.2,,,half\n")


@pytest.mark.parametrize("command,flag,write", [
    ("eu", "--net", lambda path: path.write_text("{not json")),
    ("eu", "--net", _edited_net(lambda doc: doc.pop("layer_sizes"))),
    ("eu", "--net", _edited_net(lambda doc: doc["standardization"].update(x_mean=[0, 0, 0]))),
    ("eu", "--net", _edited_net(lambda doc: doc.pop("standardization"))),
    ("train", "--table", _table_with_text_tau),
    ("train", "--table", lambda path: path.write_bytes(b"\xff\xfe\x00bin")),
], ids=["net-not-json", "net-no-layer-sizes", "net-long-x-mean",
        "net-no-standardization", "table-text-tau",
        "table-not-utf8"])
def test_malformed_file_is_data_error(tmp_path, capsys, command, flag, write):
    path = tmp_path / "input"
    write(path)
    argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
    if command == "eu":
        argv += ["--decision", "0.4"]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["eu", "--net", "{net}", "--decision", "0.4", "--m", "1000000000000000",
     "--scheme", "random"],
    ["simulate", "--preset", "portfolio", "--n", "1000000000000000"],
], ids=["eu-m-1e15", "simulate-n-1e15"])
def test_size_too_large_to_allocate_is_usage_error(tmp_path, capsys, argv):
    # 10**15 rows ask for petabytes, so the first allocation fails at once
    net_path = tmp_path / "net.json"
    save_net(DenseNet.initialized((2, 8, 1), seed=0), net_path)
    argv = [a.format(net=net_path) for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory")
