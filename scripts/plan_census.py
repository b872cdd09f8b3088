#!/usr/bin/env python3
"""Print one JSON line sizing the planner and what a local plan loads.

    python scripts/plan_census.py

Fields:

* ``src_lines`` -- lines in every ``src/repro`` Python file;
* ``knobs`` -- unique ``"REPRO_..."`` string literals in ``src/repro``
  (the environment-variable surface);
* ``cold`` / ``warm`` -- the ``repro.*`` modules, and their source
  lines, loaded by one local ``plan --json`` in a fresh interpreter,
  first against an empty plan cache (a search) and then against the
  entry that run wrote (a disk hit).

Each probe scrubs every ``REPRO_*`` variable and owns a private cache
directory, so the census does not depend on the caller's settings.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

PLAN = [
    "plan", "--json", "--executor", "transfusion", "--model", "t5",
    "--seq", "512", "--arch", "cloud", "--batch", "4",
]

PROBE = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(
    (name, getattr(module, "__file__", None))
    for name, module in list(sys.modules.items())
    if name == "repro" or name.startswith("repro.")
)
print(json.dumps([code, loaded]))
"""

KNOB = re.compile(r'"(REPRO_[A-Z0-9_]+)"')


def line_count(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def plan_footprint(cache_dir: str) -> dict:
    """Modules and source lines one fresh-interpreter plan loads."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = str(SRC)
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, *PLAN],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(completed.stderr)
    code, loaded = json.loads(completed.stdout.splitlines()[-1])
    if code != 0:
        raise SystemExit(f"plan exited {code}")
    files = [path for _, path in loaded if path]
    return {
        "modules": len(loaded),
        "lines": sum(line_count(Path(path)) for path in files),
    }


def main() -> int:
    sources = sorted(PACKAGE.rglob("*.py"))
    knobs = set()
    for path in sources:
        knobs.update(KNOB.findall(path.read_text()))
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = plan_footprint(cache_dir)
        warm = plan_footprint(cache_dir)
    print(json.dumps({
        "src_lines": sum(line_count(path) for path in sources),
        "knobs": len(knobs),
        "cold": cold,
        "warm": warm,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
