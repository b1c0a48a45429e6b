"""Command line entry point.

Exit codes: 0 success, 1 unexpected internal error, 2 bad configuration or
usage, 3 missing or malformed input data, 4 solver time limit reached.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import ConfigError, load_config
from .evaluate import report_text
from .io import FormatError
from .pipeline import (
    SolverTimeout,
    run_dump_graph,
    run_e2e,
    run_eval,
    run_propose,
    run_simulate,
    run_track,
    run_train,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_TIMEOUT = 4

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    name = os.environ.get("LINEAGE_ILP_LOG", "warn")
    if name not in _LOG_LEVELS:
        raise ConfigError(
            f"LINEAGE_ILP_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}"
        )
    logging.basicConfig(
        stream=sys.stderr,
        level=_LOG_LEVELS[name],
        format="%(levelname)s %(name)s: %(message)s",
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config-class errors (exit 2)
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lineage-ilp", description="Joint cell detection and tracking.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        return p

    p = add("simulate", "generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="dataset directory to create")

    p = add("propose", "generate candidate regions for a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="proposals file to write")

    p = add("train", "fit the classifiers on an annotated dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--proposals", required=True)
    p.add_argument("--out", required=True, help="model directory to create")

    p = add("track", "select and link proposals into tracks")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--proposals", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="result directory to create")

    p = add("eval", "score a tracking result against ground truth")
    p.add_argument("result", help="result directory (tracks.txt plus seg/)")
    p.add_argument("--data", required=True, help="dataset directory with gt/")
    p.add_argument("--config", default=None, help="optional, for eval weight overrides")
    p.add_argument("--out", default=None, help="optional report JSON path")

    p = add("e2e", "simulate, propose, train, track and evaluate in one run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = add("dump-graph", "write the candidate graph as JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--proposals", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="graph JSON path")

    return parser


def _run(args) -> int:
    if args.command == "simulate":
        cfg = load_config(args.config, seed=args.seed)
        run_simulate(cfg, args.out)
    elif args.command == "propose":
        cfg = load_config(args.config, seed=args.seed)
        run_propose(cfg, args.data, args.out)
    elif args.command == "train":
        cfg = load_config(args.config, seed=args.seed)
        run_train(cfg, args.data, args.proposals, args.out)
    elif args.command == "track":
        cfg = load_config(args.config, seed=args.seed)
        run_track(cfg, args.data, args.proposals, args.model, args.out)
    elif args.command == "eval":
        cfg = load_config(args.config, seed=args.seed) if args.config else None
        report = run_eval(args.data, args.result, args.out, cfg=cfg)
        sys.stdout.write(report_text(report))
    elif args.command == "e2e":
        cfg = load_config(args.config, seed=args.seed)
        report = run_e2e(cfg, args.out)
        sys.stdout.write(report_text(report))
    elif args.command == "dump-graph":
        cfg = load_config(args.config, seed=args.seed)
        run_dump_graph(cfg, args.data, args.proposals, args.model, args.out)
    else:  # pragma: no cover - argparse enforces the choices
        raise ConfigError(f"unknown command {args.command!r}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return _run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        return 130
    except Exception as exc:  # pragma: no cover - last resort
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
