"""CLI subcommands, exit codes, and artifact formats at small scale."""

import json

import numpy as np
import pytest

from quantmeu import DenseNet, TrainingTable, load_net, save_net
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


def test_eu_corrupt_net(tmp_path):
    bad = tmp_path / "net.json"
    bad.write_text(json.dumps({"format": "other", "version": 1}))
    assert main(["eu", "--net", str(bad), "--decision", "0.4"]) == 2


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
], ids=["simulate-grid0", "repro-grid1", "optimize-grid1", "eu-m1"])
def test_too_small_grid_or_m_is_usage_error(tmp_path, capsys, argv):
    net_path = tmp_path / "net.json"
    save_net(DenseNet.initialized((2, 8, 1), seed=0), net_path)
    argv = [a.format(net=net_path) for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
