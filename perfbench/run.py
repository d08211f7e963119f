"""quantmeu benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload portfolio --seed 7002 --seconds 55 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):

* ``portfolio``      CLI flow simulate -> train --table -> optimize, then
                     optimize and ``eu --m 4096`` queries on the committed
                     full-size utility net.
* ``normal-normal``  CLI flow simulate -> train --table -> posterior draws and
                     the ``repro normal-normal`` panels, then posterior-mean
                     ``eu --m 4096`` queries on the committed posterior net.

A run measures fresh-process set-up several times (median), then repeats
passes of the workload until ``--seconds`` is spent and reports the
interquartile mean over the passes after the first, which warms up.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the kernel
step microbenchmark and alternates untraced and traced passes, and reports
the per-layer metrics and the tracing overhead. The last line of standard
output is the JSON result; the full record (environment, per-pass stages,
every metric with its unit, checks, spans) goes to ``.perfbench_out/``.
Exit code 2: the checkout holds no usable package source.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

from common import OUT, CheckoutError, git_commit

SETUP_REPEATS = 5

# end-to-end metrics, reported with --trace 0 by both workloads
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "simulate_rows_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "eu_evals_per_s": "1/s",
    "write_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics, reported with --trace 1 by both workloads
PER_LAYER = {
    "special.normal_quantile.calls": "count",
    "models.simulate_pairs.s": "s",
    "engine.build_training_table.self_s": "s",
    "engine.expected_utility.calls": "count",
    "engine.expected_utility.us_per_call": "us",
    "net.train.s": "s",
    "net.train.self_s": "s",
    "net.train.epochs": "count",
    "net.train.steps": "count",
    "net.save_net.s": "s",
    "net.load_net.s": "s",
    "kernels.loss_grad_batch.calls": "count",
    "kernels.loss_grad_batch.s": "s",
    "kernels.loss_grad_batch.us_per_call": "us",
    "kernels.forward_batch.validation.calls": "count",
    "kernels.forward_batch.validation.rows": "count",
    "kernels.forward_batch.validation.s": "s",
    "kernels.forward_batch.prediction.calls": "count",
    "kernels.forward_batch.prediction.rows": "count",
    "kernels.forward_batch.prediction.s": "s",
    "kernels.loss_grad_batch.b256_us": "us",
    "kernels.loss_grad_batch.b1024_us": "us",
    "kernels.loss_grad_batch.b4096_us": "us",
    "kernels.loss_grad_batch.b4096_gflops": "GFLOP/s",
    "kernels.forward_batch.b1024_us": "us",
    "kernels.forward_batch.b4096_us": "us",
    "tables.to_csv.s": "s",
    "tables.to_csv.bytes": "bytes",
    "tables.from_csv.s": "s",
    "svgplot.line_plot.s": "s",
    "trace.overhead_s": "s",
}

# reported in the run record only: fit quality, which varies with the seed
# far more than any bound allows ...
QUALITY = {
    "portfolio": {
        "weight_abs_error": "abs",
        "scaled_weight_abs_error": "abs",
        "val_pinball": "loss",
    },
    "normal-normal": {
        "posterior_ks": "ks",
        "posterior_mean_error_sd": "sd",
        "posterior_sd_ratio_error": "ratio",
        "scaled_posterior_ks": "ks",
        "query_mean_error_sd": "sd",
        "val_pinball": "loss",
    },
}
# ... and, in the traced run, layers that one of the workloads never calls
LAYERS_OF_ONE = {
    "portfolio": {"models.utility_evaluate.calls": "count",
                  "engine.optimize_decision.self_s": "s"},
    "normal-normal": {"engine.posterior_sample.s": "s"},
}


def median(values):
    return float(statistics.median(values))


def as_number(value, unit):
    """Counts print as integers when they are whole."""
    if unit in ("count", "bytes") and float(value).is_integer():
        return int(value)
    return value


def blas_info():
    """OpenBLAS version string and its thread count in effect, read from
    the library numpy loaded."""
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        version = None
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                threads = int(getattr(lib, sym)())
                break
    return version, threads


def environment(qm):
    import numpy as np
    version, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": version,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": qm._kernels.backend(),
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def save_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def time_setups(args):
    """Wall seconds of fresh processes doing the workload's set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return times


def run_passes(pipelines, s, outdir, checks, seconds, tracer=None):
    """Repeat passes while another one fits in ``seconds``.

    The first pass warms up (first-call and allocation costs) and is left
    out of the metrics. With a tracer, traced passes alternate with
    untraced ones after it; each pass dict carries a ``traced`` flag.
    """
    passes = []
    least = 3 if tracer is not None else 2
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        # each pass starts from a collected heap, as a fresh CLI process would
        gc.collect()
        try:
            if traced:
                pass_id = len(passes)
                with tracer.installed(pipelines.qm, pass_id):
                    r = pipelines.run_pass(s, outdir, checks,
                                           wrap_utility=lambda fn: tracer.count(
                                               "models.utility_evaluate", fn))
                r["layers"] = tracer.pass_summary(pass_id)
            else:
                r = pipelines.run_pass(s, outdir, checks)
        except Exception as exc:  # a failed pass is a failed operation; stop here
            checks.error(f"pass {len(passes)}", exc)
            break
        r["traced"] = traced
        passes.append(r)
        if len(passes) >= least and time.perf_counter() + r["wall"] > deadline:
            break
    return passes


def interquartile_mean(values):
    """Mean of the middle half of the values."""
    v = sorted(values)
    k = len(v) // 4
    return float(statistics.fmean(v[k:len(v) - k]))


def end_to_end(s, pipelines, passes, setup_times):
    """Interquartile means over the measured passes.

    A 2-vCPU VM on a shared host switches between a fast and a ~1.7x
    slower state for tens of seconds at a time, and its multi-threaded BLAS
    phases stall now and then. Per-pass times are then bimodal with a long
    tail: the median jumps between the two modes from run to run and the
    mean follows the stalls, while the middle half of the passes does
    neither.
    """
    measured = passes[1:]

    def iqm(fn):
        return interquartile_mean([fn(p) for p in measured])

    return {
        "setup_s": median(setup_times),
        "wall_s": iqm(lambda p: p["wall"]),
        "simulate_rows_per_s": s.scale.N / iqm(lambda p: p["simulate"]),
        "train_samples_per_s": pipelines.train_rows(s) / iqm(lambda p: p["train"] / p["epochs"]),
        "eu_evals_per_s": 1.0 / iqm(lambda p: p["eu"] / p["eu_calls"]),
        "write_s": iqm(lambda p: p["write"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes, micro):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes[1:] if not p["traced"]]

    def med(fn):
        return median([fn(p["layers"]) for p in traced])

    def s_(name):
        return lambda L: L["s"].get(name, 0.0)

    def self_(name):
        return lambda L: L["self_s"].get(name, 0.0)

    def calls(name):
        return lambda L: L["calls"].get(name, 0)

    def us_per_call(name):
        return lambda L: 1e6 * L["s"].get(name, 0.0) / max(L["calls"].get(name, 0), 1)

    out = {
        "special.normal_quantile.calls": med(lambda L: L["counts"].get("special.normal_quantile", 0)),
        "models.simulate_pairs.s": med(s_("models.simulate_pairs")),
        "engine.build_training_table.self_s": med(self_("engine.build_training_table")),
        "engine.expected_utility.calls": med(calls("engine.expected_utility")),
        "engine.expected_utility.us_per_call": med(us_per_call("engine.expected_utility")),
        "net.train.s": med(s_("net.train")),
        "net.train.self_s": med(self_("net.train")),
        "net.train.epochs": median([p["epochs"] for p in traced]),
        "net.train.steps": median([p["steps"] for p in traced]),
        "net.save_net.s": med(s_("net.save_net")),
        "net.load_net.s": med(s_("net.load_net")),
        "kernels.loss_grad_batch.calls": med(calls("_kernels.loss_grad_batch")),
        "kernels.loss_grad_batch.s": med(s_("_kernels.loss_grad_batch")),
        "kernels.loss_grad_batch.us_per_call": med(us_per_call("_kernels.loss_grad_batch")),
        "tables.to_csv.s": med(s_("tables.to_csv")),
        "tables.to_csv.bytes": median([p["table_bytes"] for p in traced]),
        "tables.from_csv.s": med(s_("tables.from_csv")),
        "svgplot.line_plot.s": med(s_("svgplot.line_plot")),
        "trace.overhead_s": median([p["wall"] for p in traced]) - median([p["wall"] for p in plain]),
        "models.utility_evaluate.calls": med(lambda L: L["counts"].get("models.utility_evaluate", 0)),
        "engine.optimize_decision.self_s": med(self_("engine.optimize_decision")),
        "engine.posterior_sample.s": med(s_("engine.posterior_sample")),
    }
    for kind in ("validation", "prediction"):
        for i, stat in enumerate(("calls", "rows", "s")):
            out[f"kernels.forward_batch.{kind}.{stat}"] = med(lambda L: L["forward"][kind][i])
    out.update(micro)
    return out


def quality(s, passes):
    out = dict(s.quality)
    for key in ("val_pinball", "scaled_weight_abs_error", "scaled_posterior_ks",
                "query_mean_error_sd"):
        values = [p[key] for p in passes if key in p]
        if values:
            out[key] = median(values)
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("portfolio", "normal-normal"))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the preset's simulation seed)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                   help="tiny: a few hundred rows, for the schema test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import pipelines
    except (CheckoutError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from spans import Tracer

    if args.seed is None:
        args.seed = pipelines.preset_seed(args.workload)
    if not 0 <= args.seed < 2 ** 64:
        print("error: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    checks = pipelines.Checks()
    if args.setup_only:
        pipelines.setup(args.workload, args.scale, args.seed, checks)
        return 0

    setup_times = [] if args.trace else time_setups(args)
    s = pipelines.setup(args.workload, args.scale, args.seed, checks)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = os.path.join(OUT, tag)
    tracer = Tracer() if args.trace else None
    micro = pipelines.kernel_microbench() if args.trace else {}
    passes = run_passes(pipelines, s, os.path.join(outdir, "pass"), checks,
                        args.seconds, tracer=tracer)
    if len(passes) < (3 if tracer is not None else 2):
        print("error: too few complete passes; " + "; ".join(checks.failures),
              file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(passes, micro)
        units = dict(PER_LAYER, **LAYERS_OF_ONE[args.workload])
    else:
        values = end_to_end(s, pipelines, passes, setup_times)
        units = dict(END_TO_END)
    values.update(quality(s, passes))
    units.update(QUALITY[args.workload])

    env = environment(pipelines.qm)
    env["workload"] = {"name": args.workload, "seed": args.seed, "scale": args.scale,
                       "N": s.scale.N, "passes": len(passes),
                       "epochs": passes[-1]["epochs"], "steps": passes[-1]["steps"]}
    record = {
        "environment": env,
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "metrics": {name: {"value": as_number(values[name], unit), "unit": unit,
                           "workload": args.workload,
                           "gated": name in END_TO_END}
                    for name, unit in units.items()},
        "setup_s_samples": setup_times,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
        "layers": [p.get("layers") for p in passes],
    }
    os.makedirs(outdir, exist_ok=True)
    save_json(os.path.join(outdir, "record.json"), record)
    if tracer is not None:
        save_json(os.path.join(outdir, "spans.json"), tracer.dump())

    print("environment " + json.dumps(env))
    for name, m in record["metrics"].items():
        label = "" if name in END_TO_END or name in PER_LAYER else "  (record only)"
        print(f"{args.workload:14s} {name:42s} {m['value']:.6g} {m['unit']}{label}")
    for failure in checks.failures:
        print(f"FAILED CHECK: {failure}")
    print(f"record: {os.path.relpath(os.path.join(outdir, 'record.json'))}")
    declared = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": as_number(values[name], unit), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
