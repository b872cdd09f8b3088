"""``repro decode``: per-step decode cost across context lengths."""

from __future__ import annotations

import argparse

from repro.model.config import MODEL_ZOO


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``decode`` verb's arguments."""
    parser.add_argument(
        "--model", default="llama3", choices=sorted(MODEL_ZOO)
    )
    parser.add_argument("--arch", default="cloud",
                        choices=("cloud", "edge", "edge32",
                        "edge64"))
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument(
        "--contexts", type=int, nargs="+",
        default=[1024, 8192, 65536],
    )


def run(args: argparse.Namespace) -> int:
    """Print per-step decode latency across context lengths."""
    from repro.experiments.decode import decode_sweep
    from repro.metrics.tables import format_table

    contexts = tuple(args.contexts)
    data = decode_sweep(
        model=args.model,
        contexts=contexts,
        arch_name=args.arch,
        batch=args.batch,
    )
    executors = ("unfused", "fusemax", "transfusion")
    rows = [
        [context] + [data[context][name] * 1e3
                     for name in executors]
        for context in contexts
    ]
    print(format_table(
        ["context"] + [f"{n} (ms/step)" for n in executors],
        rows,
        title=(
            f"Per-step decode latency, {args.model} B={args.batch} "
            f"on {args.arch} (per layer)"
        ),
    ))
    return 0

