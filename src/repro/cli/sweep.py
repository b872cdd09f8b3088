"""``repro sweep``: price a grid of points through the parallel sweep engine.

Each point is an (executor, model, sequence, architecture) tuple;
reports come from the persistent cache when possible.
"""

from __future__ import annotations

import argparse
import sys

from repro.arch.spec import named_architecture
from repro.cli import positive_int
from repro.model.config import MODEL_ZOO


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``sweep`` verb's arguments."""
    parser.add_argument(
        "--models", nargs="+", default=["llama3"],
        choices=sorted(MODEL_ZOO), help="model shape presets",
    )
    parser.add_argument(
        "--seqs", type=int, nargs="+", default=[1024, 4096, 16384],
        help="sequence lengths P",
    )
    parser.add_argument(
        "--archs", nargs="+", default=["cloud"],
        choices=("cloud", "edge", "edge32", "edge64"),
        help="architecture presets (Table 3)",
    )
    parser.add_argument(
        "--executors", nargs="+",
        default=["unfused", "fusemax", "transfusion"],
        help="executor registry names",
    )
    parser.add_argument("--batch", type=int, default=64,
                        help="batch size B")
    parser.add_argument("--causal", action="store_true",
                        help="causally masked self-attention")
    parser.add_argument(
        "--jobs", type=positive_int, default=None,
        help="worker processes (default: REPRO_JOBS, else 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result cache for this sweep",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "per-chain timeout in seconds (default: REPRO_TIMEOUT, "
            "else unlimited; enforced with --jobs > 1)"
        ),
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help=(
            "extra attempts per failed chain "
            "(default: REPRO_RETRIES, else 0)"
        ),
    )
    parser.add_argument(
        "--budget", type=positive_int, default=None, metavar="N",
        help=(
            "deterministic search-unit budget per point (MCTS "
            "iterations + DPipe nodes; default: REPRO_BUDGET, else "
            "unlimited) -- same budget, same results on any host "
            "at any --jobs"
        ),
    )
    parser.add_argument(
        "--no-fallback", action="store_true",
        help=(
            "fail a point whose search exhausts its budget instead "
            "of degrading to the fallback ladder"
        ),
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help=(
            "advisory deadline mapped once to a deterministic "
            "search-unit budget (tighter of this and --budget wins)"
        ),
    )
    parser.add_argument(
        "--json", action="store_true",
        help=(
            "print the canonical serving-protocol sweep response "
            "(byte-comparable to a served response; runs serially "
            "in-process)"
        ),
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help=(
            "degrade gracefully: report per-point failures instead "
            "of aborting on the first one (exit 1 if any failed)"
        ),
    )
    parser.add_argument(
        "--journal", default="", metavar="PATH",
        help=(
            "checkpoint each completed point's cache key to this "
            "file as chains finish"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=(
            "reload the journal (default: the canonical per-grid "
            "path under the cache root) and skip points already "
            "completed by a previous, possibly killed, run"
        ),
    )


def run(args: argparse.Namespace) -> int:
    """Price a grid of points through the sweep engine."""
    from repro.arch.pe import PEArrayKind
    from repro.metrics.tables import format_table
    from repro.runner import (
        GridPoint,
        default_cache,
        default_journal_path,
        run_grid,
    )

    points = [
        GridPoint(
            executor=executor, model=model, seq_len=seq,
            arch=arch, batch=args.batch, causal=args.causal,
        )
        for model in args.models
        for arch in args.archs
        for executor in args.executors
        for seq in args.seqs
    ]
    if args.json:
        # Canonical serving-protocol rendering: the same builders a
        # running server uses, so this output is byte-comparable to
        # a served sweep response (the differential tests rely on
        # it).  Runs serially in-process; the fault-tolerance knobs
        # (--timeout/--retries/--journal/--resume) do not apply.
        from repro.runner.errors import SweepError
        from repro.serve.protocol import (
            ServeRequest,
            canonical_body,
            effective_budget,
            error_response,
            execute_request,
        )

        request = ServeRequest(
            op="sweep",
            points=tuple(points),
            budget=effective_budget(args.budget, args.deadline),
            no_fallback=args.no_fallback,
        )
        try:
            document = execute_request(request)
        except (SweepError, RuntimeError) as error:
            document = error_response(error, "sweep")
        print(canonical_body(document))
        return 0 if document.get("ok") else 1
    journal = args.journal or None
    if journal is None and args.resume:
        # --resume without --journal: the canonical per-grid journal
        # under the cache root, so a rerun of the same command line
        # finds the previous run's checkpoints automatically.
        journal = default_journal_path(points)
    if journal is not None and args.no_cache:
        print(
            "warning: --no-cache disables the persistent layer; the "
            "journal cannot checkpoint or resume without it",
            file=sys.stderr,
        )
        journal = None
    reports = run_grid(
        points,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        timeout=args.timeout,
        retries=args.retries,
        strict=not args.keep_going,
        journal=journal,
        resume=args.resume,
        budget=args.budget,
        no_fallback=args.no_fallback,
    )
    rows = []
    for point, report in reports.items():
        arch = named_architecture(point.arch)
        util = report.utilization(arch)
        rows.append([
            point.executor, point.model, point.seq_len, point.arch,
            report.latency_seconds(arch),
            util[PEArrayKind.ARRAY_2D],
            report.energy(arch).total_pj / 1e12,
            report.dram_words(),
            # Search provenance: blank for a complete search, else
            # "budget_exhausted" / "fallback:<rung>".
            "" if report.provenance == "complete"
            else report.provenance,
        ])
    counts = reports.counts()
    summary = ", ".join(
        f"{status}={count}" for status, count in sorted(counts.items())
    )
    print(format_table(
        ["executor", "model", "seq", "arch", "latency (s)",
         "2D util", "energy (J)", "DRAM words", "prov"],
        rows,
        title=(
            f"sweep over {len(reports.points)} points "
            f"(B={args.batch}; {summary})"
        ),
    ))
    for point in reports.infeasible_points():
        verdict = reports.infeasible[point]
        print(
            f"INFEASIBLE {point.executor}/{point.model}/"
            f"seq={point.seq_len}/{point.arch}: {verdict}"
        )
    for point in reports.failed_points():
        failure = reports.failures[point]
        print(
            f"{reports.statuses[point].upper()} {point.executor}/"
            f"{point.model}/seq={point.seq_len}/{point.arch}: "
            f"{failure}",
            file=sys.stderr,
        )
    cache = None if args.no_cache else default_cache()
    if cache is not None:
        print(
            f"cache: {cache.root} "
            f"({cache.entry_count()} entries on disk)"
        )
    if journal is not None:
        print(f"journal: {journal}")
    return 0 if reports.ok else 1

