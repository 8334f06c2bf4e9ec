"""Command-line interface.

    auramimo run --config cfg.json [--seed N] [--out-dir DIR]
                 [--format binary|text]
    auramimo plan --config cfg.json [--seed N]
    auramimo metrics --tensor channel.bin

`run` executes the full pipeline and writes all outputs; `plan` prints
the sharing tables without synthesizing coefficients; `metrics`
recomputes correlation metrics from an existing tensor file. Errors exit
nonzero with "ErrorClass: message" on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import FORMATS, load_config
from .errors import ChannelModelError
from .metrics import correlation_metrics
from .pipeline import run, share_tables, write_outputs
from .tables import METRICS_HEADER, SHARE_HEADER, metrics_rows, share_rows
from .tensorio import read_tensor_binary


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auramimo",
        description="Geometry-based stochastic channel simulator for massive MIMO",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline: clusters, channel tensor, metrics")
    _add_config_options(p_run)
    p_run.add_argument("--out-dir", default=None, help="override output directory")
    p_run.add_argument("--format", choices=FORMATS, default=None, help="tensor format")

    p_plan = sub.add_parser("plan", help="print sharing tables without synthesis")
    _add_config_options(p_plan)

    p_metrics = sub.add_parser("metrics", help="recompute metrics from a tensor file")
    p_metrics.add_argument("--tensor", required=True, help="binary tensor file")
    return parser


def _load(args) -> "RunConfig":
    overrides = {
        "seed": args.seed,
        "out_dir": getattr(args, "out_dir", None),
        "out_format": getattr(args, "format", None),
    }
    overrides = {key: value for key, value in overrides.items() if value is not None}
    return dataclasses.replace(load_config(args.config), **overrides)


def _cmd_run(args) -> int:
    config = _load(args)
    result = run(config)
    paths = write_outputs(result)
    for kind in sorted(paths):
        print(f"{kind}\t{paths[kind]}")
    return 0


def _cmd_plan(args) -> int:
    config = _load(args)
    print(SHARE_HEADER)
    for table in share_tables(config):
        for line in share_rows(table):
            print(line)
    return 0


def _cmd_metrics(args) -> int:
    report = correlation_metrics(read_tensor_binary(args.tensor))
    print(METRICS_HEADER, *metrics_rows(report), sep="\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "plan": _cmd_plan, "metrics": _cmd_metrics}
    try:
        return handlers[args.command](args)
    except (ChannelModelError, OSError, ValueError, MemoryError) as e:
        message = str(e) or ("out of memory" if isinstance(e, MemoryError) else "")
        print(f"{type(e).__name__}: {message}", file=sys.stderr)
        return 2 if isinstance(e, ChannelModelError) else 3


if __name__ == "__main__":
    sys.exit(main())
