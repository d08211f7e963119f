"""Command-line driver.

Subcommands `simulate`, `train`, `optimize`, `eu`, and `repro` wire the
models, engine, and closed-form modules into reproducible experiments.
All outputs are CSV (17 significant digits), JSON, or SVG files under
the --out directory. Exit codes: 0 success, 1 usage or configuration
error, 2 I/O or data error, 3 failed checks in repro mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import presets, repro
from .analytic import kelly_weight
from .engine import (QuantileNet, build_training_table, expected_utility,
                     optimize_decision)
from .errors import QuantmeuError, DataError
from .models import RandomSource
from .net import TrainConfig, load_net, save_net
from .svgplot import Series, VLine, line_plot
from .tables import TrainingTable


class UsageError(Exception):
    """Bad flags or configuration; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class ExperimentConfig:
    """Merged (preset <- config file <- flags) experiment description."""

    experiment: str
    model: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    eu: dict = field(default_factory=dict)
    optimize: dict = field(default_factory=dict)
    posterior: dict = field(default_factory=dict)
    out: str = "."
    data_seed: Optional[int] = None
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict, out: str) -> "ExperimentConfig":
        return cls(experiment=doc.get("experiment", doc.get("name", "custom")),
                   model=doc.get("model", {}),
                   simulate=doc.get("simulate", {}),
                   train=doc.get("train", {}),
                   eu=doc.get("eu", {"M": 1024, "scheme": "uniform_grid"}),
                   optimize=doc.get("optimize", {"grid_size": 101, "refine": True}),
                   posterior=doc.get("posterior", {}),
                   out=out,
                   data_seed=doc.get("data_seed"),
                   raw=doc)

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(**self.train) if self.train else TrainConfig()
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad train configuration: {exc}") from exc


def _load_config(args) -> ExperimentConfig:
    doc: dict = {}
    if getattr(args, "preset", None):
        try:
            doc = presets.get_preset(args.preset)
        except DataError as exc:
            raise UsageError(str(exc)) from exc
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_doc, dict):
            raise DataError("config file must hold a JSON object")
        doc = repro._merge(doc, file_doc)
    if getattr(args, "seed", None) is not None:
        doc.setdefault("simulate", {})["seed"] = args.seed
    if getattr(args, "n", None) is not None:
        doc.setdefault("simulate", {})["N"] = args.n
    if getattr(args, "grid", None) is not None:
        doc.setdefault("simulate", {})["grid_size"] = args.grid
        doc.setdefault("optimize", {})["grid_size"] = args.grid
    out = getattr(args, "out", None) or "."
    cfg = ExperimentConfig.from_dict(doc, out=out)
    for section in ("simulate", "optimize"):
        grid_size = int(getattr(cfg, section).get("grid_size", 101))
        if grid_size < 2:
            raise UsageError(f"--grid or {section}.grid_size must be >= 2, got {grid_size}")
    return cfg


def _ensure_outdir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _sim_rng(cfg: ExperimentConfig) -> RandomSource:
    seed = int(cfg.simulate.get("seed", 0))
    if not 0 <= seed < 2 ** 64:
        raise UsageError("--seed must fit in 64 unsigned bits")
    return RandomSource(seed=seed)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if not cfg.model:
        raise UsageError("simulate needs --preset or --config with model parameters")
    N = int(cfg.simulate.get("N", 0))
    if N < 1:
        raise UsageError(f"N must be >= 1, got {N}")
    outdir = _ensure_outdir(cfg)
    rng = _sim_rng(cfg)
    sorted_pairing = bool(cfg.simulate.get("sorted_pairing", False))

    if cfg.experiment == presets.PORTFOLIO:
        problem = presets.build_portfolio(cfg.raw)
        spec = presets.portfolio_model_spec(problem)
        table = build_training_table(spec, utility=problem.utility_spec(),
                                     decisions=presets.decision_grid(cfg.raw),
                                     N=N, rng=rng, sorted_pairing=sorted_pairing)
    elif cfg.experiment == presets.NORMAL_NORMAL:
        model = presets.build_normal_normal(cfg.raw)
        table = build_training_table(model.spec(), N=N, rng=rng,
                                     sorted_pairing=sorted_pairing)
    else:
        raise UsageError(f"unknown experiment {cfg.experiment!r}")

    table_path = os.path.join(outdir, "table.csv")
    table.to_csv(table_path)
    prov_path = os.path.join(outdir, "table_provenance.json")
    with open(prov_path, "w", encoding="utf-8") as fh:
        json.dump(table.provenance, fh, indent=1)
    print(f"wrote {table_path} ({table.n_rows} rows)")
    print(f"wrote {prov_path}")
    return 0


def cmd_train(args) -> int:
    from .engine import train_posterior_net, train_utility_net

    cfg = _load_config(args)
    outdir = _ensure_outdir(cfg)
    table = TrainingTable.from_csv(args.table)
    target = args.target
    if target == "auto":
        target = "utility" if table.has_utility else "posterior"
    config = cfg.train_config()
    if target == "utility":
        qnet, history = train_utility_net(table, config)
    else:
        qnet, history = train_posterior_net(table, config)

    net_path = os.path.join(outdir, "net.json")
    save_net(qnet.net, net_path)
    hist_path = os.path.join(outdir, "history.csv")
    with open(hist_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for i, (tr, vl) in enumerate(zip(history.train_loss, history.val_loss)):
            fh.write(f"{i},{tr:.17g},{vl:.17g}\n")
    print(f"trained {target} net on {table.n_rows} rows; "
          f"best epoch {history.best_epoch}, "
          f"val loss {history.val_loss[history.best_epoch]:.6f}")
    print(f"wrote {net_path}")
    print(f"wrote {hist_path}")
    return 0


def _load_quantile_net(path, role: str) -> QuantileNet:
    net = load_net(path)
    return QuantileNet(net=net, role=role, conditioning_dim=net.input_dim - 1)


def cmd_optimize(args) -> int:
    cfg = _load_config(args)
    outdir = _ensure_outdir(cfg)
    qnet = _load_quantile_net(args.net, "utility")

    domain = tuple(cfg.model.get("weight_domain",
                                 cfg.optimize.get("domain", (0.0, 1.0))))
    M = int(cfg.eu.get("M", 1024))
    scheme = cfg.eu.get("scheme", "uniform_grid")
    rng = _sim_rng(cfg).substream(7) if scheme == "random" else None

    def evaluator(d):
        return expected_utility(qnet, d=d, M=M, scheme=scheme, rng=rng)

    result = optimize_decision(evaluator, domain,
                               grid_size=int(cfg.optimize.get("grid_size", 101)),
                               refine=bool(cfg.optimize.get("refine", True)),
                               config={"experiment": cfg.experiment, "M": M,
                                       "scheme": scheme},
                               seed=int(cfg.simulate.get("seed", 0)))

    result_path = os.path.join(outdir, "result.json")
    result.save_json(result_path)
    curve_path = os.path.join(outdir, "curve.csv")
    result.curve_to_csv(curve_path)

    curve = np.array([[d, eu] for d, eu, _ in result.curve])
    vlines = [VLine(result.best_decision, label=f"est {result.best_decision:.3f}",
                    color="#2ca02c")]
    if cfg.experiment == presets.PORTFOLIO and cfg.model:
        kelly = float(kelly_weight(presets.build_portfolio(cfg.raw)))
        vlines.insert(0, VLine(kelly, label=f"{kelly:.2f}", color="#d62728"))
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
    M = args.m if args.m is not None else int(cfg.eu.get("M", 1024))
    if M < 2:
        raise UsageError(f"M must be >= 2, got {M}")
    qnet = _load_quantile_net(args.net, args.role)
    scheme = args.scheme or cfg.eu.get("scheme", "uniform_grid")
    rng = _sim_rng(cfg).substream(7) if scheme == "random" else None
    if qnet.role == "utility":
        est, se = expected_utility(qnet, d=args.decision, M=M, scheme=scheme,
                                   rng=rng)
    else:
        est, se = expected_utility(qnet, y_obs=[args.decision], M=M,
                                   scheme=scheme, rng=rng)
    doc = {"decision": args.decision, "eu": est, "se": se, "M": M,
           "scheme": scheme}
    print(json.dumps(doc))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "eu.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return 0


def cmd_repro(args) -> int:
    cfg = _load_config(args)
    runner = repro.RUNNERS.get(args.experiment)
    if runner is None:
        raise UsageError(f"unknown experiment {args.experiment!r}; "
                         f"choose from {', '.join(sorted(repro.RUNNERS))}")
    outdir = getattr(args, "out", None) or args.experiment + "-repro"
    overrides = {k: v for k, v in cfg.raw.items() if k != "name"}
    report = runner(outdir, overrides=overrides or None,
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

    def common(p):
        p.add_argument("--config", help="JSON config file; overrides the preset")
        p.add_argument("--seed", type=int, help="simulation seed (u64)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--preset", help="named preset configuration")
        p.add_argument("--n", type=int, help="number of table rows")
        p.add_argument("--grid", type=int, help="decision grid size")

    p = sub.add_parser("simulate", help="write a training-table CSV")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a quantile net from a table CSV")
    common(p)
    p.add_argument("--table", required=True, help="training-table CSV path")
    p.add_argument("--target", choices=("auto", "posterior", "utility"),
                   default="auto", help="which net to train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("optimize", help="maximize expected utility over decisions")
    common(p)
    p.add_argument("--net", required=True, help="serialized net JSON path")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("eu", help="evaluate expected utility at one decision")
    common(p)
    p.add_argument("--net", required=True, help="serialized net JSON path")
    p.add_argument("--decision", type=float, required=True,
                   help="decision (or conditioning) value")
    p.add_argument("--m", type=int, help="number of tau points")
    p.add_argument("--scheme", choices=("uniform_grid", "random"),
                   help="tau scheme")
    p.add_argument("--role", choices=("utility", "posterior"),
                   default="utility", help="how to interpret the net")
    p.set_defaults(func=cmd_eu)

    p = sub.add_parser("repro", help="run a full preset pipeline with checks")
    common(p)
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
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuantmeuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
