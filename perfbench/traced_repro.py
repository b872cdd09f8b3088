"""``python -m repro`` with the benchmark's span recorder installed.

Usage: ``python perfbench/traced_repro.py <repro CLI arguments>``,
with ``PERFBENCH_TRACE_DIR`` naming the directory span files go to.
Times ``import repro.cli`` and the first ``main`` call, then writes
this process's spans when ``main`` returns (``repro serve`` returns
after SIGINT).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import TRACE_DIR_ENV, use_checkout_sources  # noqa: E402


def main(argv: list) -> int:
    use_checkout_sources()
    start = time.monotonic_ns()
    import repro.cli

    imported = time.monotonic_ns()
    import tracer

    tracer.install(Path(os.environ[TRACE_DIR_ENV]))
    tracer.record("cli.import", start, imported)
    try:
        with tracer.span("cli.main"):
            return repro.cli.main(argv)
    finally:
        tracer.flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
