"""Make the benchmark's modules and the checkout's sources importable."""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.use_checkout_sources()
for key in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[key]
