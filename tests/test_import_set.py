"""What a local ``repro plan`` and a forking sweep import.

Each probe runs in a fresh interpreter with a private cache directory
and reports ``sys.modules`` afterwards:

* a warm local ``plan --json`` (a disk-cache hit) loads neither numpy
  nor the search stack;
* a cold local ``plan`` loads the search stack but none of the serving
  stack (HTTP, asyncio, worker pools, the learned-predictor corpus);
* processes that fork workers -- ``make_pool`` and a parallel
  ``run_grid`` -- import the executor stack before forking, so no
  worker pays for it again.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PLAN = [
    "plan", "--json", "--executor", "transfusion", "--model", "t5",
    "--seq", "512", "--arch", "cloud", "--batch", "4",
]

#: Modules a warm (disk-hit) local plan must not load.
WARM_FORBIDDEN = (
    "numpy", "repro.einsum", "repro.core.executor",
    "repro.dpipe.planner", "repro.tileseek.search", "repro.serve.app",
    "asyncio",
)

#: Modules a cold local plan must not load.
COLD_FORBIDDEN = (
    "repro.serve.app", "repro.serve.transport", "repro.serve.client",
    "repro.serve.fleet", "repro.runner.pool", "repro.learn.corpus",
    "asyncio", "http.client",
)

PLAN_PROBE = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))
"""

POOL_PROBE = """
import json, sys
from repro.runner.pool import make_pool
pool = make_pool(2, {})
loaded = sorted(sys.modules)
pool.close()
print(json.dumps(loaded))
"""

GRID_PROBE = """
import json, sys
from repro.runner import GridPoint, run_grid
points = [
    GridPoint(executor="unfused", model=model, seq_len=512,
              arch="cloud", batch=4)
    for model in ("t5", "bert")
]
assert run_grid(points, jobs=2).ok
print(json.dumps(sorted(sys.modules)))
"""


def run_probe(script, cache_dir, *args):
    """Run ``script`` in a fresh interpreter; returns its JSON line."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def plan_runs(tmp_path_factory):
    """A cold then a warm local plan against one private cache."""
    cache_dir = tmp_path_factory.mktemp("plan-imports")
    cold = run_probe(PLAN_PROBE, cache_dir, *PLAN)
    warm = run_probe(PLAN_PROBE, cache_dir, *PLAN)
    return cold, warm


def test_warm_plan_skips_numpy_and_the_search_stack(plan_runs):
    cold, warm = plan_runs
    assert warm[0] == cold[0] == 0
    assert warm[1] == cold[1]
    assert "numpy" in cold[2]
    assert not set(WARM_FORBIDDEN) & set(warm[2])


def test_cold_plan_skips_the_serving_stack(plan_runs):
    cold, _ = plan_runs
    assert "repro.core.executor" in cold[2]
    assert not set(COLD_FORBIDDEN) & set(cold[2])


def test_make_pool_preloads_the_executor_stack(tmp_path):
    loaded = run_probe(POOL_PROBE, tmp_path)
    assert "repro.core.executor" in loaded


def test_parallel_run_grid_preloads_the_executor_stack(tmp_path):
    # Only baseline executors run, so the TransFusion executor can
    # only be loaded by the pre-fork preload.
    loaded = run_probe(GRID_PROBE, tmp_path)
    assert "repro.core.executor" in loaded
