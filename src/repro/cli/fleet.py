"""``repro fleet``: K supervised ``serve`` replicas, one shared cache.

Health probes, crash/wedge detection and seeded-backoff restarts on
sticky ports.
"""

from __future__ import annotations

import argparse
import sys


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``fleet`` verb's arguments."""
    parser.add_argument(
        "--replicas", type=int, default=None, metavar="K",
        help=(
            "replica count "
            "(default: REPRO_FLEET_REPLICAS, else 3)"
        ),
    )
    parser.add_argument(
        "--host", default="",
        help="bind host for every replica (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes per replica (0 = in-process)",
    )
    parser.add_argument(
        "--cache-dir", default="", metavar="PATH",
        help="shared persistent plan-cache root for all replicas",
    )
    parser.add_argument(
        "--journal-dir", default="", metavar="PATH",
        help=(
            "directory for the supervisor journal plus "
            "per-replica serve journals and stderr logs"
        ),
    )
    parser.add_argument(
        "--probe-interval", type=float, default=None,
        metavar="SECONDS",
        help=(
            "seconds between health probes "
            "(default: REPRO_FLEET_PROBE_INTERVAL, else 1)"
        ),
    )
    parser.add_argument(
        "--probe-timeout", type=float, default=None,
        metavar="SECONDS",
        help=(
            "per-probe deadline; an unanswered probe counts "
            "toward wedge detection "
            "(default: REPRO_FLEET_PROBE_TIMEOUT, else 5)"
        ),
    )
    parser.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help=(
            "restarts per replica before it is abandoned "
            "(default: REPRO_FLEET_MAX_RESTARTS, else 5)"
        ),
    )
    parser.add_argument(
        "--backoff", type=float, default=None, metavar="SECONDS",
        help=(
            "base for the seeded exponential restart backoff "
            "(default: REPRO_FLEET_BACKOFF, else 0.05)"
        ),
    )


def run(args: argparse.Namespace) -> int:
    """Run K supervised serve replicas over one shared cache."""
    from repro.runner.errors import SweepError
    from repro.serve.fleet import FleetSupervisor

    try:
        supervisor = FleetSupervisor(
            replicas=args.replicas,
            host=args.host or "127.0.0.1",
            cache_dir=args.cache_dir,
            journal_dir=args.journal_dir,
            jobs=args.jobs,
            probe_interval=args.probe_interval,
            probe_timeout=args.probe_timeout,
            max_restarts=args.max_restarts,
            backoff=args.backoff,
        )
        return supervisor.run(ready=sys.stderr)
    except SweepError as error:
        print(
            f"fleet error: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return 1

