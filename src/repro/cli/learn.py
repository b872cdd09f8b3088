"""``repro learn``: fit or evaluate the learned warm-start predictor.

``learn fit`` mines the plan cache and sweep journals into a
deterministic corpus and persists the kNN model into the plan cache;
``learn eval`` measures search units saved on a held-out grid.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.arch.spec import named_architecture
from repro.cli import positive_int
from repro.model.config import MODEL_ZOO, named_model


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``learn`` verb's arguments."""
    learn_sub = parser.add_subparsers(
        dest="learn_command", required=True
    )
    fit_parser = learn_sub.add_parser(
        "fit",
        help=(
            "mine the plan cache (and optional sweep journals) "
            "into a corpus and persist the kNN model"
        ),
    )
    fit_parser.add_argument(
        "--journal", nargs="*", default=[], metavar="PATH",
        help="sweep journals to mine alongside the plan cache",
    )
    fit_parser.add_argument(
        "--corpus", default="", metavar="PATH",
        help="also write the canonical corpus JSON to this path",
    )
    fit_parser.add_argument(
        "--k", type=positive_int, default=None, metavar="N",
        help="neighbors per prediction (default 3)",
    )
    fit_parser.add_argument(
        "--json", action="store_true",
        help="print a machine-readable fit summary",
    )
    eval_parser = learn_sub.add_parser(
        "eval",
        help=(
            "measure search units to near-optimum on a held-out "
            "grid, with vs. without the fitted model"
        ),
    )
    eval_parser.add_argument(
        "--models", nargs="+", default=["t5"],
        choices=sorted(MODEL_ZOO), help="model shape presets",
    )
    eval_parser.add_argument(
        "--archs", nargs="+", default=["cloud"],
        choices=("cloud", "edge", "edge32", "edge64"),
        help="architecture presets (Table 3)",
    )
    eval_parser.add_argument(
        "--seqs", type=int, nargs="+", default=[256, 1024],
        help="held-out sequence lengths P",
    )
    eval_parser.add_argument("--batch", type=int, default=4,
                             help="batch size B")
    eval_parser.add_argument("--causal", action="store_true",
                             help="causally masked self-attention")
    eval_parser.add_argument(
        "--iterations", type=positive_int, default=400,
        help="full search size (optimum reference and probe cap)",
    )
    eval_parser.add_argument(
        "--seed", type=int, default=0, help="search seed",
    )
    eval_parser.add_argument(
        "--gate", type=float, default=None, metavar="RATIO",
        help=(
            "exit 1 unless learned/baseline unit ratio <= RATIO "
            "(the CI perf gate uses 0.5)"
        ),
    )
    eval_parser.add_argument(
        "--json", action="store_true",
        help="print the full evaluation report as JSON",
    )



def run(args: argparse.Namespace) -> int:
    """Run the chosen ``learn`` subcommand."""
    return {"fit": fit, "eval": evaluate}[args.learn_command](args)


def fit(args: argparse.Namespace) -> int:
    """Mine the corpus and persist the kNN warm-start model."""
    from repro.learn.corpus import corpus_hash, extract_corpus
    from repro.learn.predictor import KNNPredictor, save_model
    from repro.runner.cache import default_cache

    cache = default_cache()
    corpus = extract_corpus(cache=cache, journals=args.journal)
    if args.corpus:
        with open(args.corpus, "w", encoding="utf-8") as handle:
            handle.write(corpus.to_json())
            handle.write("\n")
    skipped = sum(corpus.skipped.values())
    if not corpus.records:
        print(
            f"learn fit: empty corpus ({skipped} entries skipped); "
            "run a sweep first so the plan cache holds tilings",
            file=sys.stderr,
        )
        return 1
    predictor = KNNPredictor.fit(corpus, k=args.k)
    path = save_model(predictor, cache=cache)
    if args.json:
        print(json.dumps({
            "corpus": corpus_hash(corpus),
            "k": predictor.k,
            "model": str(path),
            "records": len(corpus.records),
            "skipped": dict(corpus.skipped),
        }, indent=2, sort_keys=True))
        return 0
    print(
        f"fitted k={predictor.k} kNN on {len(corpus.records)} "
        f"records ({skipped} skipped)"
    )
    if args.corpus:
        print(f"corpus: {args.corpus}")
    print(f"model: {path}")
    return 0


def evaluate(args: argparse.Namespace) -> int:
    """Score the fitted model on a held-out grid; gate the ratio."""
    from repro.learn.evaluate import evaluate_points
    from repro.learn.predictor import load_model
    from repro.metrics.tables import format_table
    from repro.model.workload import Workload

    predictor = load_model()
    if predictor is None:
        print(
            "learn eval: no fitted model for this code version; "
            "run `repro learn fit` first",
            file=sys.stderr,
        )
        return 1
    pairs = [
        (
            Workload(
                named_model(model), seq_len=seq, batch=args.batch,
                causal=args.causal,
            ),
            named_architecture(arch),
        )
        for model in args.models
        for arch in args.archs
        for seq in args.seqs
    ]
    report = evaluate_points(
        predictor, pairs,
        iterations=args.iterations, seed=args.seed,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        rows = [
            [
                row["workload"], row["arch"],
                row["baseline_units"], row["learned_units"],
            ]
            for row in report["points"]
        ]
        print(format_table(
            ["workload", "arch", "baseline units", "learned units"],
            rows,
            title=(
                f"learned warm-start eval "
                f"(ratio {report['ratio']:.3f})"
            ),
        ))
    if args.gate is not None and report["ratio"] > args.gate:
        print(
            f"learn eval: ratio {report['ratio']:.3f} exceeds gate "
            f"{args.gate:.3f}",
            file=sys.stderr,
        )
        return 1
    return 0

