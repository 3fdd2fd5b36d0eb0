"""Command-line front end.

Subcommands:
  run              execute a configured experiment and emit artifacts
  bound            evaluate the convergence-bound calculator and print JSON
  partition-stats  inspect the non-IID client partition of a config
  eval             re-run the bit-width sweep from a saved checkpoint

Exit codes are part of the contract: 0 success, 2 configuration error,
3 training divergence, 4 I/O failure, 5 learning-rate conditions violated
(bound subcommand only; the report is still printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import config as cfgmod
from .data import partition_stats
from .errors import ConfigError, DivergedError, FedQuantError
from .evaluation import sweep
from .federation import (POOL_MIN_PARAMS, config_hash, load_checkpoint, run,
                         save_checkpoint)
from .theory import BoundInputs, compute_bound

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4
EXIT_CONDITIONS = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedquant",
        description="Desk-scale federated simulator with quantization-robust "
                    "client training and a convergence-bound calculator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train, sweep bit-widths, emit artifacts")
    p_run.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value); repeatable")
    p_run.add_argument("--out", default=None, help="output directory (default: config output.dir)")
    p_run.add_argument("--threads", type=int, default=1,
                       help="upper bound on client worker threads, used only "
                            f"for models of at least {POOL_MIN_PARAMS} "
                            "parameters (POOL_MIN_PARAMS); never changes results")
    p_run.add_argument("--quiet", action="store_true", help="suppress progress lines")

    p_bound = sub.add_parser("bound", help="evaluate the convergence bound, print JSON")
    p_bound.add_argument("--config", default=None,
                         help="JSON file with the inputs below (flags win)")
    p_bound.add_argument("--smoothness", dest="L", type=float, default=None,
                         help="gradient Lipschitz constant L (1/param units)")
    p_bound.add_argument("--sigma-local", dest="sigma_l", type=float, default=None,
                         help="mini-batch gradient noise bound sigma_l (gradient units)")
    p_bound.add_argument("--sigma-global", dest="sigma_g", type=float, default=None,
                         help="client drift bound sigma_g (gradient units)")
    p_bound.add_argument("--dim", dest="D", type=int, default=None,
                         help="parameter count D (dimensionless)")
    p_bound.add_argument("--local-steps", dest="K", type=int, default=None,
                         help="local SGD steps per round K (dimensionless)")
    p_bound.add_argument("--rounds", dest="T", type=int, default=None,
                         help="federated rounds T (dimensionless)")
    p_bound.add_argument("--eta-client", dest="eta_c", type=float, default=None,
                         help="client learning rate (step units)")
    p_bound.add_argument("--eta-server", dest="eta_s", type=float, default=None,
                         help="server learning rate (step units)")
    p_bound.add_argument("--method", choices=("apqn", "qat", "mqat"), default=None,
                         help="training method determining the noise radius R")
    p_bound.add_argument("--step", dest="steps", type=float, action="append",
                         help="quantizer step size (weight units); repeat for mqat")
    p_bound.add_argument("--initial-gap", dest="initial_gap", type=float, default=None,
                         help="loss gap F(start) - F(best) (loss units)")

    p_stats = sub.add_parser("partition-stats",
                             help="print per-client sizes and label entropy as JSON")
    p_stats.add_argument("--config", required=True)
    p_stats.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p_eval = sub.add_parser("eval", help="re-sweep a checkpoint at the configured bit-widths")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", default=None, help="directory for eval.csv / eval.json")
    p_eval.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override eval-section entries of the embedded config")
    return parser


def _artifacts(doc: dict, state, history, report, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    history.to_csv(os.path.join(out_dir, "history.csv"))
    report.to_csv(os.path.join(out_dir, "eval.csv"))
    report.to_json(os.path.join(out_dir, "eval.json"))
    save_checkpoint(os.path.join(out_dir, "checkpoint.json"), state, doc)
    meta = {"config": doc, "config_hash": config_hash(doc),
            "rounds_completed": state.round_idx,
            "artifacts": ["history.csv", "eval.csv", "eval.json", "checkpoint.json"]}
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _sweep(exp: cfgmod.Experiment, state):
    """Sweep the global model over the experiment's bit configs on the
    holdout, calibrating activation ranges on its calibration batch."""
    metadata = {"seed": exp.fed.seed, "config_hash": config_hash(exp.doc),
                "rounds_completed": state.round_idx, "config": exp.doc}
    return sweep(state, exp.strategy, exp.bit_configs, exp.data.holdout,
                 calib_batch=exp.calib_batch, metadata=metadata,
                 exempt_first_last=exp.doc["eval"]["exempt_first_last"])


def cmd_run(args) -> int:
    exp = cfgmod.build(cfgmod.load_config(args.config, args.set))
    out_dir = args.out or exp.doc["output"]["dir"]

    def progress(round_idx, row):
        if not args.quiet:
            print(f"round {round_idx}/{exp.fed.total_rounds} "
                  f"val_acc={row.val_accuracy:.4f} val_loss={row.val_loss:.4f} "
                  f"client_loss={row.mean_client_loss:.4f}")

    state, history = run(exp.fed, exp.strategy, exp.data, hidden=exp.hidden,
                         threads=max(1, args.threads), progress=progress)
    report = _sweep(exp, state)
    _artifacts(exp.doc, state, history, report, out_dir)
    if not args.quiet:
        for row in report.rows:
            wb = "-" if row.weight_bits is None else row.weight_bits
            ab = "-" if row.act_bits is None else row.act_bits
            print(f"eval {row.strategy} W-{wb} A-{ab} "
                  f"acc={row.accuracy:.4f} loss={row.loss:.4f}")
        print(f"artifacts written to {out_dir}")
    return EXIT_OK


def cmd_bound(args) -> int:
    values: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                values = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"bound config not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bound config is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError("bound config root must be an object")
    for f in fields(BoundInputs):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    if type(values.get("steps")) in (int, float):
        values["steps"] = [values["steps"]]
    cfgmod.check_fields(BoundInputs, values, "bound input")
    inputs = BoundInputs(**values)
    report = compute_bound(inputs)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.conditions_ok else EXIT_CONDITIONS


def cmd_partition_stats(args) -> int:
    doc = cfgmod.load_config(args.config, args.set)
    data = cfgmod.build_data(doc)
    stats = partition_stats(data.base.labels, data.assignment,
                            data.base.num_classes)
    stats["alpha"] = doc["data"]["alpha"]
    stats["config_hash"] = config_hash(doc)
    print(json.dumps(stats, indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    outside = [item for item in args.set if not item.startswith("eval.")]
    if outside:
        raise ConfigError(f"eval --set accepts only eval.* keys, got {outside[0]!r}")
    state, doc = load_checkpoint(args.checkpoint)
    doc = cfgmod.validate_config(cfgmod.apply_overrides(doc, args.set))
    report = _sweep(cfgmod.build(doc), state)
    print(json.dumps(report.to_json_dict(), indent=2))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report.to_csv(os.path.join(args.out, "eval.csv"))
        report.to_json(os.path.join(args.out, "eval.json"))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "bound": cmd_bound,
                "partition-stats": cmd_partition_stats, "eval": cmd_eval}
    try:
        return handlers[args.command](args)
    except DivergedError as exc:
        where = f" (round {exc.round_idx}, client {exc.client_id})" \
            if exc.round_idx is not None else ""
        code, message = EXIT_DIVERGED, f"training diverged{where}: {exc}"
    except OSError as exc:
        code, message = EXIT_IO, f"I/O failure: {exc}"
    except FedQuantError as exc:
        code, message = EXIT_CONFIG, str(exc)
    # one line, even where the message quotes a line break (in a path, say)
    print("error: " + " ".join(message.splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
