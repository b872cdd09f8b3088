"""Command-line interface: ``python -m repro <command>``.

Each verb -- ``compare``, ``compile``, ``inspect``, ``stack``,
``decode``, ``sweep``, ``validate``, ``plan``, ``serve``, ``fleet``,
``learn``, ``cache``, ``figures`` -- lives in its own module,
``repro.cli.<verb>``, documented there and exposing
``add_arguments(parser)`` and ``run(args)``; the argument helpers
verbs share live here.

:func:`main` registers every verb's name and help but builds (and
imports) only the invoked verb's arguments, so a ``plan`` process
compiles this dispatcher and the plan verb alone; help, usage and
error text are byte-identical to the full parser's
(:func:`build_parser`), which ``tests/test_cli_help.py`` pins.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import TYPE_CHECKING, Collection, List, Optional

if TYPE_CHECKING:
    from repro.model.workload import Workload

#: ``(verb, help)`` in ``repro --help`` order; the verb's module is
#: ``repro.cli.<verb>``.
VERBS = (
    ("compare", "run all executors on one workload"),
    ("compile", "compile a workload with TransFusion"),
    ("inspect", "render a sub-layer's DPipe schedule"),
    ("stack", "price an encoder/decoder stack"),
    ("decode", "per-step decode cost vs context length"),
    ("sweep", "price a grid of points via the parallel sweep engine"),
    ("validate", "audit one grid point with every invariant auditor"),
    ("plan", (
        "price one point through the serving protocol "
        "(locally or against a running server)"
    )),
    ("serve", "run the planning service (HTTP, or --stdio NDJSON)"),
    ("fleet", (
        "run K supervised serve replicas over one shared "
        "cache with crash/wedge restarts"
    )),
    ("learn", (
        "fit or evaluate the learned warm-start predictor "
        "mined from the sweep corpus"
    )),
    ("cache", (
        "inspect and maintain the persistent plan cache "
        "(stats, byte-budget gc, corruption scrub)"
    )),
    ("figures", "regenerate a paper figure's table"),
)


def positive_int(value: str) -> int:
    """argparse type: an integer >= 1."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value!r}"
        )
    return number


def add_workload_args(parser: argparse.ArgumentParser) -> None:
    """``--model/--arch/--seq/--batch/--causal``: one workload."""
    from repro.model.config import MODEL_ZOO

    parser.add_argument(
        "--model", default="llama3", choices=sorted(MODEL_ZOO),
        help="model shape preset",
    )
    parser.add_argument(
        "--arch", default="cloud",
        choices=("cloud", "edge", "edge32", "edge64"),
        help="architecture preset (Table 3)",
    )
    parser.add_argument("--seq", type=int, default=65536,
                        help="sequence length P")
    parser.add_argument("--batch", type=int, default=64,
                        help="batch size B")
    parser.add_argument("--causal", action="store_true",
                        help="causally masked self-attention")


def workload_from(args: argparse.Namespace) -> "Workload":
    """The workload :func:`add_workload_args` describes."""
    from repro.model.config import named_model
    from repro.model.workload import Workload

    return Workload(
        named_model(args.model),
        seq_len=args.seq,
        batch=args.batch,
        causal=args.causal,
    )


def _verb_module(verb: str):
    return importlib.import_module(f"{__name__}.{verb}")


def build_parser(
    verbs: Optional[Collection[str]] = None,
) -> argparse.ArgumentParser:
    """The argument parser, with every verb's arguments by default.

    Args:
        verbs: Only these verbs get their arguments (the rest are
            registered by name and help alone); ``None`` builds all.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "TransFusion reproduction: end-to-end Transformer "
            "acceleration via graph fusion and pipelining"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, help_text in VERBS:
        verb_parser = sub.add_parser(verb, help=help_text)
        if verbs is None or verb in verbs:
            _verb_module(verb).add_arguments(verb_parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser takes no option values, so the first
    # positional argument names the verb.
    invoked = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(verbs=(invoked,)).parse_args(argv)
    return _verb_module(args.command).run(args)
