"""Command-line interface.

Subcommands map onto pipeline stages and run every stage up to their
target (honoring --resume, so completed stages are loaded from the output
directory). Exit codes: 0 success, 2 invalid arguments/config, 3 I/O or
format problems, 4 numerical failures, 5 empty data sets, 1 anything else.
"""
from __future__ import annotations

import argparse
import ctypes
import logging
import sys

from ..errors import (
    DivergenceError,
    EmptyCleanSet,
    EmptyCorpus,
    FormatError,
    InvalidArgument,
    NumericalFailure,
)
from .config import ExperimentConfig
from .pipeline import SWEEP_VARIANTS, Pipeline, fake_order_effect_sweep

COMMAND_STAGE = {
    "synth": "data",
    "inject": "inject",
    "train-target": "poisoned_model",
    "train-detector": "dualview",
    "detect": "detect",
    "influence": "influence",
    "rectify": "rectify",
    "eval": "final",
    "pipeline": "final",
}

# glibc mallopt parameters (malloc.h) and the values the CLI sets: freed blocks
# up to 32 MiB stay on the heap, above the largest per-call temporary at the
# default config (a 4096 x 500 float64 block of the tied loss, 16 MB).
# glibc refuses an mmap threshold above 32 MiB on 64-bit hosts.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
KEEP_FREED_BYTES = 32 * 1024 * 1024

EXIT_CODES = (
    (InvalidArgument, 2),
    ((FormatError, OSError), 3),
    ((NumericalFailure, DivergenceError), 4),
    ((EmptyCorpus, EmptyCleanSet), 5),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderlab",
        description="Inject, detect and rectify fake orders in a sequential recommender.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(COMMAND_STAGE) + ["effect-sweep"]:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="experiment config JSON (defaults used when omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--resume", action="store_true", help="reuse existing stage artifacts")
        p.add_argument("-v", "--verbose", action="store_true")
        if name == "effect-sweep":
            p.add_argument(
                "--variants",
                nargs="+",
                default=list(SWEEP_VARIANTS),
                choices=list(SWEEP_VARIANTS),
            )
    return parser


def keep_freed_memory() -> None:
    """Make glibc keep freed heap memory in the process for reuse.

    The kernels allocate multi-megabyte temporaries on every call. By
    default glibc serves them with mmap or trims the heap top after them,
    so each call faults its pages in again. This is process-wide, so only
    the CLI entry sets it, never an import. Without glibc's mallopt it
    does nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, name in ((M_MMAP_THRESHOLD, "M_MMAP_THRESHOLD"), (M_TRIM_THRESHOLD, "M_TRIM_THRESHOLD")):
        if mallopt(param, KEEP_FREED_BYTES) != 1:
            logging.getLogger(__name__).debug("mallopt(%s, %d) refused", name, KEEP_FREED_BYTES)


def main(argv=None) -> int:
    """Process entry: parse `argv`, run the command, and return its exit code.

    Before any work it sets the process's allocator to keep freed memory
    (`keep_freed_memory`).
    """
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    keep_freed_memory()
    try:
        cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg.seed = int(args.seed)
        if args.command == "effect-sweep":
            rows = fake_order_effect_sweep(cfg, args.out, tuple(args.variants), resume=args.resume)
            for row in rows:
                print(row)
        else:
            ctx = Pipeline(cfg, args.out, resume=args.resume).run(COMMAND_STAGE[args.command])
            if "metrics" in ctx:
                print(f"metrics written to {args.out}/metrics.json")
    except Exception as exc:  # noqa: BLE001 - map every family to its exit code
        for families, code in EXIT_CODES:
            if isinstance(exc, families):
                logging.error("%s: %s", type(exc).__name__, exc)
                return code
        logging.exception("unexpected failure")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
