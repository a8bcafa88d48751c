"""Command-line entry point.

    chemlab run <config.ini>   [--out DIR] [--seed S]
    chemlab sweep <sweep.ini>  [--out DIR] [--seed S] [--workers N]
    chemlab report <results-dir>

Exit codes: 0 all requested checks pass, 2 a check failed, 3 solver
divergence (the divergence time is recorded in verdicts.json and on
stderr), 4 configuration or I/O error.  No other codes are emitted.
A bad input (core.InvalidParameterError: a config error, or a run whose
checks cannot judge it) or an I/O error prints one line; any other
exception also prints its traceback to stderr, then exits 4.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import replace

from .config import load_config, load_sweep_config
from .core import InvalidParameterError
from .runner import (
    EXIT_CONFIG_ERROR,
    EXIT_DIVERGED,
    execute_report,
    execute_run,
    execute_sweep,
    is_bug,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemlab",
        description="Numerical laboratory for the chemotaxis-logistic system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text, kind in (
        ("run", "run one experiment config", "experiment"),
        ("sweep", "run a parameter sweep", "sweep"),
    ):
        cmd_p = sub.add_parser(command, help=help_text)
        cmd_p.add_argument("config", help=f"path to the {kind} .ini file")
        cmd_p.add_argument("--out", help="override the [output] dir")
        cmd_p.add_argument("--seed", type=int, help="override the [initial] seed")
        if command == "sweep":
            workers = "worker pool size (default: the CPUs this process may use)"
            cmd_p.add_argument("--workers", type=int, help=workers)

    report_p = sub.add_parser("report", help="summarise a results directory")
    report_p.add_argument("directory", help="directory with run/sweep outputs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return execute_report(args.directory)
        sweep = load_sweep_config(args.config) if args.command == "sweep" else None
        cfg = sweep.base if sweep is not None else load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, initial=replace(cfg.initial, seed=args.seed))
        out_dir = args.out if args.out is not None else cfg.output_dir
        if sweep is not None:
            return execute_sweep(replace(sweep, base=cfg), out_dir, workers=args.workers)
        outcome = execute_run(cfg, out_dir)
        if outcome.status == "diverged":
            print(f"solver diverged at t={outcome.divergence_t!r}", file=sys.stderr)
            return EXIT_DIVERGED
        failed = [v.name for v in outcome.verdicts if not v.passed]
        if failed:
            print(f"checks failed: {', '.join(failed)}", file=sys.stderr)
        return outcome.exit_code
    except InvalidParameterError as exc:  # a bad input, including a config file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:  # anything unexpected maps to the config/I-O code
        if is_bug(exc):
            traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
