"""Command-line driver.

Subcommands `simulate`, `train`, `optimize`, `eu`, and `repro` wire the
models, engine, and closed-form modules into reproducible experiments.
All outputs are CSV (17 significant digits), JSON, or SVG files under
the --out directory. Exit codes: 0 success, 1 usage or configuration
error (a size too large to allocate included), 2 I/O or data error,
3 failed checks in repro mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import presets, repro
from .analytic import kelly_weight
from .engine import train_posterior_net, train_utility_net
from .errors import QuantmeuError, UsageError
from .net import load_net, save_net
from .svgplot import Series, VLine, line_plot
from .tables import TrainingTable, read_json, write_csv, write_json


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _overrides(args) -> dict:
    """The --config document with the value flags set on top of it."""
    doc = read_json(args.config, "config file") if args.config else {}
    flags = vars(args)   # each subcommand has only the flags it reads
    for section, key, value in (("simulate", "seed", flags.get("seed")),
                                ("simulate", "N", flags.get("n")),
                                ("simulate", "grid_size", flags.get("grid")),
                                ("optimize", "grid_size", flags.get("grid")),
                                ("eu", "M", flags.get("m")),
                                ("eu", "scheme", flags.get("scheme"))):
        # a section that is not an object is left for ExperimentConfig to report
        if value is not None and isinstance(doc.setdefault(section, {}), dict):
            doc[section][key] = value
    return doc


def _load_config(args) -> repro.ExperimentConfig:
    return repro.ExperimentConfig(args.preset, _overrides(args))


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    table = repro.simulate_table(_load_config(args))
    outdir = _outdir(args)
    table_path = os.path.join(outdir, "table.csv")
    table.to_csv(table_path)
    prov_path = os.path.join(outdir, "table_provenance.json")
    write_json(prov_path, table.provenance)
    print(f"wrote {table_path} ({table.n_rows} rows)")
    print(f"wrote {prov_path}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    outdir = _outdir(args)
    table = TrainingTable.from_csv(args.table)
    target = "utility" if table.has_utility else "posterior"
    trainer = train_utility_net if target == "utility" else train_posterior_net
    qnet, history = trainer(table, cfg.train)

    net_path = os.path.join(outdir, "net.json")
    save_net(qnet.net, net_path)
    hist_path = os.path.join(outdir, "history.csv")
    write_csv(hist_path, ["epoch", "train_loss", "val_loss"],
              [range(len(history.train_loss)), history.train_loss, history.val_loss])
    print(f"trained {target} net on {table.n_rows} rows; "
          f"best epoch {history.best_epoch}, "
          f"val loss {history.val_loss[history.best_epoch]:.6f}")
    print(f"wrote {net_path}")
    print(f"wrote {hist_path}")
    return 0


def cmd_optimize(args) -> int:
    cfg = _load_config(args)
    outdir = _outdir(args)
    vlines = []
    if cfg.experiment == presets.PORTFOLIO and cfg.model:
        kelly = float(kelly_weight(cfg.build(presets.build_portfolio)))
        vlines.append(VLine(kelly, label=f"{kelly:.2f}", color="#d62728"))
    result = repro.optimize_net(load_net(args.net), cfg)

    result_path = os.path.join(outdir, "result.json")
    result.save_json(result_path)
    curve_path = os.path.join(outdir, "curve.csv")
    result.curve_to_csv(curve_path)

    curve = np.array([[d, eu] for d, eu, _ in result.curve])
    vlines.append(VLine(result.best_decision, label=f"est {result.best_decision:.3f}",
                        color="#2ca02c"))
    svg_path = os.path.join(outdir, "curve.svg")
    line_plot(svg_path, [Series(curve[:, 0], curve[:, 1], "EU estimate")],
              title="Expected utility", xlabel="decision",
              ylabel="expected utility", vlines=vlines)

    print(f"best decision {result.best_decision:.6f} "
          f"with EU {result.best_eu:.6f}"
          + (" (ties detected)" if result.ties_detected else ""))
    for p in (result_path, curve_path, svg_path):
        print(f"wrote {p}")
    return 0


def cmd_eu(args) -> int:
    cfg = _load_config(args)
    if not math.isfinite(args.decision):
        raise UsageError(f"--decision must be finite, got {args.decision}")
    evaluate = repro.eu_evaluator(load_net(args.net), cfg)
    est, se = evaluate(args.decision)
    doc = {"decision": args.decision, "eu": est, "se": se, "M": cfg.eu["M"],
           "scheme": cfg.eu["scheme"]}
    print(json.dumps(doc))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "eu.json"), doc)
    return 0


def cmd_repro(args) -> int:
    runner = repro.RUNNERS.get(args.experiment)
    if runner is None:
        raise UsageError(f"unknown experiment {args.experiment!r}; "
                         f"choose from {', '.join(sorted(repro.RUNNERS))}")
    outdir = args.out or args.experiment + "-repro"
    report = runner(outdir, overrides=_overrides(args) or None,
                    structural_only=args.structural)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = (f"{status} {check.name}: value={check.value:.6g} "
                f"(required {check.comparison} {check.threshold:.6g})")
        if check.detail:
            line += f" [{check.detail}]"
        print(line)
    print(f"report: {os.path.join(outdir, 'report.json')} "
          f"({report.elapsed_seconds:.1f}s)")
    return 0 if report.passed else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="quantmeu",
                     description="Quantile-network decision engine: simulate, "
                                 "train, and optimize expected utility.")
    sub = parser.add_subparsers(dest="command", required=True)

    value_flags = {"--preset": {"help": "named preset configuration"},
                   "--seed": {"type": int, "help": "simulation seed (u64)"},
                   "--n": {"type": int, "help": "number of table rows"},
                   "--grid": {"type": int, "help": "decision grid size"}}

    def common(p, *flags):
        p.add_argument("--config", help="JSON config file; overrides the preset")
        p.add_argument("--out", help="output directory")
        for flag in flags:
            p.add_argument(flag, **value_flags[flag])

    p = sub.add_parser("simulate", help="write a training-table CSV")
    common(p, "--preset", "--seed", "--n", "--grid")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a quantile net from a table CSV")
    common(p, "--preset")
    p.add_argument("--table", required=True, help="training-table CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("optimize", help="maximize expected utility over decisions")
    common(p, "--preset", "--seed", "--grid")
    p.add_argument("--net", required=True, help="serialized net JSON path")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("eu", help="evaluate expected utility at one decision")
    common(p, "--preset", "--seed")
    p.add_argument("--net", required=True, help="serialized net JSON path")
    p.add_argument("--decision", type=float, required=True,
                   help="decision (or conditioning) value")
    p.add_argument("--m", type=int, help="number of tau points")
    p.add_argument("--scheme", help="tau scheme: uniform_grid or random")
    p.set_defaults(func=cmd_eu)

    p = sub.add_parser("repro", help="run a full preset pipeline with checks")
    common(p, "--seed", "--n", "--grid")
    p.add_argument("experiment", help="normal-normal or portfolio")
    p.add_argument("--structural", action="store_true",
                   help="skip training; emit closed-form artifacts only")
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the size it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (QuantmeuError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
