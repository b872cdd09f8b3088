"""What a local ``repro plan`` and a forking sweep import.

Each probe runs in a fresh interpreter with a private cache directory
and reports ``sys.modules`` afterwards:

* a warm local ``plan --json`` (a disk-cache hit) loads neither numpy
  nor the search stack;
* a cold local ``plan`` loads the search stack but neither numpy nor
  the serving stack (HTTP, asyncio, worker pools, the
  learned-predictor corpus);
* neither loads code no plan runs: other verbs' CLI modules, the
  sweep fan-out, the simulator's cross-validation models, and the
  fault-injection parser unless ``REPRO_FAULTS`` is set;
* processes that fork workers -- ``make_pool`` and a parallel
  ``run_grid`` -- import the executor stack before forking, so no
  worker pays for it again, and load no numpy.
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

#: Code a local plan never runs, warm or cold: the simulator's
#: cross-validation models, the sweep fan-out and its journal, the
#: fault-injection parser (no ``REPRO_FAULTS`` set), the Gantt
#: renderer and every other verb's CLI module.
OFF_PLAN = (
    "repro.sim.des", "repro.sim.loopnest", "repro.sim.layer_pipeline",
    "repro.sim.mapper", "repro.sim.registers", "repro.sim.roofline",
    "repro.runner.parallel", "repro.runner.journal",
    "repro.runner.faults", "repro.runner.result",
    "repro.dpipe.visualize",
    *(
        f"repro.cli.{verb}" for verb in (
            "compare", "compile", "inspect", "stack", "decode",
            "sweep", "validate", "serve", "fleet", "learn", "cache",
            "figures",
        )
    ),
)

#: Modules a warm (disk-hit) local plan must not load.
WARM_FORBIDDEN = OFF_PLAN + (
    "numpy", "repro.einsum", "repro.graph", "repro.sim",
    "repro.core.executor", "repro.core.serialize",
    "repro.dpipe.planner", "repro.tileseek.search", "repro.serve.app",
    "asyncio",
)

#: Modules a cold local plan must not load.
COLD_FORBIDDEN = OFF_PLAN + (
    "numpy", "repro.serve.app", "repro.serve.transport", "repro.serve.client",
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

#: A parallel ``run_grid`` over every executor with numpy made
#: unimportable: forked workers inherit the blocking finder, so any
#: numpy import in the parent or a worker fails its chain.
NUMPY_BLOCKED_GRID_PROBE = """
import json, sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError("numpy is blocked")

sys.meta_path.insert(0, NoNumpy())
from repro.baselines.registry import EXECUTORS
from repro.runner import GridPoint, run_grid
points = [
    GridPoint(executor=executor, model="t5", seq_len=seq,
              arch="cloud", batch=4)
    for executor in sorted(EXECUTORS) for seq in (512, 1024)
]
result = run_grid(points, jobs=2)
assert result.ok, result
print(json.dumps(sorted(sys.modules)))
"""


def run_probe(script, cache_dir, *args, env_extra=None):
    """Run ``script`` in a fresh interpreter; returns its JSON line."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(env_extra or {})
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
    assert "numpy" not in cold[2]
    assert not set(WARM_FORBIDDEN) & set(warm[2])


def test_cold_plan_skips_the_serving_stack(plan_runs):
    cold, _ = plan_runs
    assert "repro.core.executor" in cold[2]
    assert not set(COLD_FORBIDDEN) & set(cold[2])


def test_armed_fault_spec_loads_the_fault_machinery(plan_runs, tmp_path):
    # A spec that matches no site changes no bytes, but the chain
    # runner must still read it: the parser loads because the
    # variable is set, not because a rule fired.
    cold, _ = plan_runs
    armed = run_probe(
        PLAN_PROBE, tmp_path, *PLAN,
        env_extra={"REPRO_FAULTS": "crash:chain=99"},
    )
    assert armed[:2] == cold[:2]
    assert "repro.runner.faults" in armed[2]
    assert "repro.runner.faults" not in cold[2]


def test_make_pool_preloads_the_executor_stack(tmp_path):
    loaded = run_probe(POOL_PROBE, tmp_path)
    assert "repro.core.executor" in loaded


def test_make_pool_loads_no_numpy(tmp_path):
    assert "numpy" not in run_probe(POOL_PROBE, tmp_path)


def test_parallel_run_grid_preloads_the_executor_stack(tmp_path):
    # Only baseline executors run, so the TransFusion executor can
    # only be loaded by the pre-fork preload.
    loaded = run_probe(GRID_PROBE, tmp_path)
    assert "repro.core.executor" in loaded


def test_parallel_run_grid_loads_no_numpy(tmp_path):
    assert "numpy" not in run_probe(GRID_PROBE, tmp_path)
    loaded = run_probe(NUMPY_BLOCKED_GRID_PROBE, tmp_path)
    assert "repro.tileseek.search" in loaded
