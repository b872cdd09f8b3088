"""``repro stack``: price an encoder/decoder stack under the main executors."""

from __future__ import annotations

import argparse

from repro.arch.spec import named_architecture
from repro.model.config import MODEL_ZOO, named_model


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``stack`` verb's arguments."""
    parser.add_argument(
        "--model", default="t5", choices=sorted(MODEL_ZOO)
    )
    parser.add_argument("--arch", default="cloud",
                        choices=("cloud", "edge", "edge32",
                        "edge64"))
    parser.add_argument("--encoder-layers", type=int, default=6)
    parser.add_argument("--decoder-layers", type=int, default=6)
    parser.add_argument("--src", type=int, default=16384,
                        help="encoder (source) sequence length")
    parser.add_argument("--tgt", type=int, default=4096,
                        help="decoder (target) sequence length")
    parser.add_argument("--batch", type=int, default=16)


def run(args: argparse.Namespace) -> int:
    """Price an encoder/decoder stack under the main executors."""
    from repro.core.stack import StackConfig, estimate_stack
    from repro.metrics.tables import format_table

    arch = named_architecture(args.arch)
    stack = StackConfig(
        named_model(args.model),
        encoder_layers=args.encoder_layers,
        decoder_layers=args.decoder_layers,
        src_len=args.src or None,
        tgt_len=args.tgt or None,
        batch=args.batch,
    )
    rows = []
    for executor in ("unfused", "fusemax", "transfusion"):
        estimate = estimate_stack(stack, arch, executor)
        blocks = estimate.block_latencies(arch)
        rows.append(
            [executor]
            + [blocks.get(label, 0.0)
               for label in ("encoder", "decoder.self",
                             "decoder.cross")]
            + [estimate.latency_seconds(arch),
               estimate.energy_pj(arch) / 1e12]
        )
    print(format_table(
        ["executor", "encoder (s)", "dec.self (s)",
         "dec.cross (s)", "total (s)", "energy (J)"],
        rows,
        title=(
            f"{args.model} stack ({args.encoder_layers} enc + "
            f"{args.decoder_layers} dec) on {arch.name}"
        ),
    ))
    return 0

