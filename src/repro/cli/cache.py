"""``repro cache``: inspect and maintain the persistent plan cache.

``stats`` reports usage, budget and brownout state, ``gc`` evicts
oldest entries down to a byte budget, and ``scrub`` quarantines
corrupt entries.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import positive_int


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``cache`` verb's arguments."""
    cache_sub = parser.add_subparsers(
        dest="cache_command", required=True
    )
    cache_stats = cache_sub.add_parser(
        "stats",
        help="report entry/byte usage, budget and brownout state",
    )
    cache_gc = cache_sub.add_parser(
        "gc",
        help=(
            "evict oldest-mtime entries until the cache fits its "
            "byte budget"
        ),
    )
    cache_gc.add_argument(
        "--max-bytes", type=positive_int, default=None,
        metavar="N",
        help=(
            "byte budget to enforce "
            "(default: REPRO_CACHE_MAX_BYTES)"
        ),
    )
    cache_scrub = cache_sub.add_parser(
        "scrub",
        help=(
            "read-validate every entry, quarantining corrupt ones"
        ),
    )
    for verb in (cache_stats, cache_gc, cache_scrub):
        verb.add_argument(
            "--cache-dir", default="", metavar="PATH",
            help=(
                "cache root to operate on "
                "(default: REPRO_CACHE_DIR resolution)"
            ),
        )
        verb.add_argument(
            "--json", action="store_true",
            help="print a machine-readable report",
        )


def run(args: argparse.Namespace) -> int:
    """Run the chosen ``cache`` subcommand."""
    return {"stats": stats, "gc": gc, "scrub": scrub}[
        args.cache_command
    ](args)


def _open_cache(args: argparse.Namespace):
    """The cache the ``repro cache`` verbs operate on.

    ``--cache-dir`` overrides the environment; otherwise the same
    resolution the sweep runner uses (``REPRO_CACHE`` /
    ``REPRO_CACHE_DIR``).  Returns ``None`` when the cache is
    disabled, which the verbs report as an error.
    """
    from repro.runner.cache import PlanCache, default_cache

    if args.cache_dir:
        return PlanCache(args.cache_dir)
    return default_cache()


def stats(args: argparse.Namespace) -> int:
    """Report persistent-cache usage, budget and brownout state."""
    cache = _open_cache(args)
    if cache is None:
        print("plan cache disabled (REPRO_CACHE=0)",
              file=sys.stderr)
        return 1
    report = cache.stats()
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    cap = report["max_bytes"]
    print(f"root:        {report['root']}")
    print(f"entries:     {report['entries']}")
    print(f"bytes:       {report['bytes']}")
    print(f"max_bytes:   {cap if cap is not None else 'unbounded'}")
    print(f"quarantined: {report['quarantined']}")
    print(f"brownout:    {'yes' if report['brownout'] else 'no'}")
    return 0


def gc(args: argparse.Namespace) -> int:
    """Evict oldest entries until the cache fits its byte budget."""
    from repro.runner.cache import resolve_cache_max_bytes

    cache = _open_cache(args)
    if cache is None:
        print("plan cache disabled (REPRO_CACHE=0)",
              file=sys.stderr)
        return 1
    max_bytes = (
        args.max_bytes if args.max_bytes is not None
        else resolve_cache_max_bytes()
    )
    if max_bytes is None:
        print(
            "no byte budget: pass --max-bytes or set "
            "REPRO_CACHE_MAX_BYTES", file=sys.stderr,
        )
        return 1
    report = cache.gc(max_bytes)
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    print(
        f"removed {report['removed']} entries "
        f"({report['freed_bytes']} bytes); "
        f"{report['bytes']} bytes remain under a "
        f"{report['max_bytes']}-byte budget"
    )
    return 0


def scrub(args: argparse.Namespace) -> int:
    """Read-validate every entry; quarantine the corrupt ones."""
    cache = _open_cache(args)
    if cache is None:
        print("plan cache disabled (REPRO_CACHE=0)",
              file=sys.stderr)
        return 1
    report = cache.scrub()
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    print(
        f"checked {report['checked']} entries, "
        f"quarantined {report['quarantined']}"
    )
    return 0

