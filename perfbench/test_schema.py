"""Schema check of the benchmark's output, from tiny-scale runs.

Asserts nothing about timings. Run from the repository root:

    python3 -m pytest -q perfbench/test_schema.py
"""

from __future__ import annotations

import functools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]

_BOTH_E2E = ["setup_s", "wall_s", "simulate_rows_per_s", "train_samples_per_s",
             "eu_evals_per_s", "write_s", "peak_rss_mb"]
_BOTH_LAYERS = [
    "special.normal_quantile.calls", "models.simulate_pairs.s",
    "engine.build_training_table.self_s", "engine.expected_utility.calls",
    "engine.expected_utility.us_per_call", "net.train.s", "net.train.self_s",
    "net.train.epochs", "net.train.steps", "net.save_net.s", "net.load_net.s",
    "kernels.loss_grad_batch.calls", "kernels.loss_grad_batch.s",
    "kernels.loss_grad_batch.us_per_call",
    "kernels.forward_batch.validation.calls", "kernels.forward_batch.validation.rows",
    "kernels.forward_batch.validation.s", "kernels.forward_batch.prediction.calls",
    "kernels.forward_batch.prediction.rows", "kernels.forward_batch.prediction.s",
    "kernels.loss_grad_batch.b256_us", "kernels.loss_grad_batch.b1024_us",
    "kernels.loss_grad_batch.b4096_us", "kernels.loss_grad_batch.b4096_gflops",
    "kernels.forward_batch.b1024_us", "kernels.forward_batch.b4096_us",
    "tables.to_csv.s", "tables.to_csv.bytes", "tables.from_csv.s",
    "svgplot.line_plot.s", "trace.overhead_s",
]
_QUALITY = {"portfolio": ["val_pinball", "weight_abs_error"],
            "normal-normal": ["val_pinball", "posterior_ks"]}
# every metric the benchmark's specification names, per workload and mode
NAMED = {
    ("portfolio", 0): _BOTH_E2E + _QUALITY["portfolio"],
    ("normal-normal", 0): _BOTH_E2E + _QUALITY["normal-normal"],
    ("portfolio", 1): _BOTH_LAYERS + _QUALITY["portfolio"]
    + ["models.utility_evaluate.calls", "engine.optimize_decision.self_s"],
    ("normal-normal", 1): _BOTH_LAYERS + _QUALITY["normal-normal"]
    + ["engine.posterior_sample.s"],
}
ENVIRONMENT = {"python", "numpy", "blas", "blas_threads", "nproc", "kernel_backend",
               "git_commit", "workload"}


@functools.lru_cache(maxsize=None)
def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record_path = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
    with open(os.path.join(ROOT, record_path), encoding="utf-8") as fh:
        record = json.load(fh)
    return json.loads(lines[-1]), record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_has_the_declared_metrics(workload, trace):
    result, _ = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_record_names_every_metric_with_unit_and_workload(workload, trace):
    _, record = _run(workload, trace)
    metrics = record["metrics"]
    for name in NAMED[(workload, trace)]:
        assert name in metrics, name
        assert metrics[name]["unit"], name
        assert metrics[name]["workload"] == workload
    assert ENVIRONMENT <= set(record["environment"])
    assert {"N", "seed", "epochs", "steps"} <= set(record["environment"]["workload"])
    assert record["environment"]["workload"]["seed"] == 3


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
