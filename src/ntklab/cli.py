"""Command-line front end: desk-scale experiment sweeps writing RunRecords
and plot-ready CSV grids.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .sweeps import EXPERIMENT_KINDS, SERIAL_BUDGET_S, ConfigError, SweepConfig, grid, \
    run_experiment

DATA_DIR_ENV = "NTKLAB_DATA_DIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntk-lab",
        description=("Mean-field / neural-tangent-kernel experiment runner. "
                     "Defaults follow the reference protocol: variance-ratio "
                     "heatmaps sample 200 initializations per cell, training "
                     "uses full-batch gradient descent at learning rate 1e-5 "
                     "with the 1e-7/100-step early-stopping rule."))
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} sweep")
        p.add_argument("--config", help="YAML sweep configuration file")
        p.add_argument("--out-dir", help="output directory for records and CSVs")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--threads", type=int,
                       help="numpy BLAS threads per process (default 1); the output "
                            "bytes depend on it, not on the host.  Once a sweep's cells "
                            f"have taken {SERIAL_BUDGET_S} s and those left would take "
                            "as long again, the rest run on usable cores // THREADS "
                            "worker processes when that is at least 2; limit the "
                            "cores with taskset")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override any config field (YAML-parsed value); "
                            "repeatable, e.g. --set depths=[2,4,8]")
    return parser


def load_config(args) -> SweepConfig:
    """The config of a parsed command line.  Each source overrides the ones
    before it: the defaults, NTKLAB_DATA_DIR (out_dir only; empty counts as
    unset), the --config file, the --set overrides, then --out-dir, --seed
    and --threads, the number of numpy BLAS threads in each process of the
    sweep.  A sweep whose cells outlast sweeps.SERIAL_BUDGET_S, with as much
    work left, runs the rest on one worker process per `threads` usable
    cores (taskset limits the cores); the output bytes do not depend on how
    many."""
    cfg = SweepConfig()
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        cfg = replace(cfg, out_dir=env_dir)
    if args.config:
        cfg = SweepConfig.from_yaml(args.config, cfg)
    cfg = cfg.override(args.overrides)
    flags = dict(experiment=args.command, out_dir=args.out_dir, seed=args.seed,
                 threads=args.threads)
    cfg = replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    print(f"{cfg.experiment}: {len(grid(cfg))} grid cells -> {cfg.out_dir}")
    try:
        out = run_experiment(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {err}", file=sys.stderr)
        return 2
    for path in out.csv_paths:
        print(f"wrote {path}")
    print(f"{len(out.records)} records appended")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
