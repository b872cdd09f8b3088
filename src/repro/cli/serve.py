"""``repro serve``: the planning service (HTTP, or ``--stdio`` NDJSON).

stdlib-asyncio HTTP (``POST /v1``, ``GET /stats``) or
newline-delimited-JSON stdio, multiplexing requests onto a persistent
worker pool behind a coalescing code-salt-keyed LRU.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import positive_int


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``serve`` verb's arguments."""
    parser.add_argument(
        "--host", default="",
        help="bind host (default: REPRO_SERVE_HOST, else 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=None,
        help=(
            "bind port; 0 picks an ephemeral port "
            "(default: REPRO_SERVE_PORT, else 8734)"
        ),
    )
    parser.add_argument(
        "--stdio", action="store_true",
        help=(
            "serve newline-delimited JSON on stdin/stdout instead "
            "of HTTP (deterministic harness mode)"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "worker processes (default: REPRO_JOBS, else 1); 0 "
            "executes in-process on a single worker thread"
        ),
    )
    parser.add_argument(
        "--lru", type=int, default=None, metavar="N",
        help=(
            "response LRU capacity in entries "
            "(default: REPRO_SERVE_LRU, else 256; 0 disables)"
        ),
    )
    parser.add_argument(
        "--pressure", type=int, default=None, metavar="N",
        help=(
            "in-flight searches at which load shedding starts "
            "(default: REPRO_SERVE_PRESSURE, else 8; 0 disables)"
        ),
    )
    parser.add_argument(
        "--shed-budget", type=positive_int, default=None,
        metavar="N",
        help=(
            "degraded search-unit budget applied while shedding "
            "(default: REPRO_SERVE_SHED_BUDGET, else 4096)"
        ),
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "wall-clock bound per worker-pool request "
            "(default: REPRO_SERVE_TIMEOUT, else unlimited)"
        ),
    )
    parser.add_argument(
        "--queue", type=int, default=None, metavar="N",
        help=(
            "in-flight searches at which new searches are rejected "
            "with a typed ServerOverloaded body "
            "(default: REPRO_SERVE_QUEUE, else unbounded; 0 "
            "disables)"
        ),
    )
    parser.add_argument(
        "--journal", default="", metavar="PATH",
        help="append one JSONL line per response to this file",
    )
    parser.add_argument(
        "--cache-dir", default="", metavar="PATH",
        help="persistent plan-cache root for the worker pool",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent plan cache in workers",
    )


def run(args: argparse.Namespace) -> int:
    """Run the planning service (HTTP, or stdio with ``--stdio``)."""
    import asyncio
    import time

    from repro.runner.cache import ENV_CACHE, ENV_CACHE_DIR
    from repro.runner.chain import resolve_jobs
    from repro.runner.pool import make_pool
    from repro.serve.app import ServeApp, resolve_lru_entries
    from repro.serve.journal import ServeJournal
    from repro.serve.lru import SaltedLRU
    from repro.serve.transport import serve_http, serve_stdio
    from repro.settings import env_int, raw_value

    env = {}
    if args.no_cache:
        env[ENV_CACHE] = "0"
    elif args.cache_dir:
        env[ENV_CACHE_DIR] = args.cache_dir
    jobs = args.jobs if args.jobs is not None else resolve_jobs()
    pool = make_pool(jobs, env)
    journal = (
        ServeJournal(args.journal) if args.journal else None
    )
    app = ServeApp(
        pool,
        lru=SaltedLRU(resolve_lru_entries(args.lru)),
        journal=journal,
        pressure=args.pressure,
        shed_budget=args.shed_budget,
        timeout=args.timeout,
        queue=args.queue,
    )
    host = args.host or raw_value("REPRO_SERVE_HOST") or "127.0.0.1"
    port = args.port
    if port is None:
        port = env_int("REPRO_SERVE_PORT", "a TCP port", minimum=0)
    if port is None:
        port = 8734
    # Deterministic replica-slow injection: delay *before* binding,
    # so the supervisor's ready-line timeout sees a genuinely slow
    # start (REPRO_FAULTS=replica-slow:...).
    from repro.runner.faults import replica_slow_start_seconds

    slow = replica_slow_start_seconds()
    if slow > 0:
        time.sleep(slow)
    try:
        if args.stdio:
            asyncio.run(serve_stdio(app))
        else:
            asyncio.run(
                serve_http(app, host, port, ready=sys.stderr)
            )
    except KeyboardInterrupt:
        pass
    finally:
        app.close()
    return 0

