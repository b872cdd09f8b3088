"""sweep_grid: closed loop of in-process ``run_grid(jobs=2)`` sweeps.

The sweeps run in a child process (``sweep_client.py``) so that its
peak RSS and its import are the sweep user's own.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from typing import Any, Dict

import common
import inputs
import layers
from result import Result

SETUP_REPEATS = 5


def _drive(
    seed: int, grids: list, trace: bool, result: Result
) -> Dict[str, Any]:
    tag = "sweep_grid-traced" if trace else "sweep_grid"
    work = common.fresh_dir(tag, "work")
    spec = {
        "grids": [[asdict(p) for p in grid] for grid in grids],
        "work_dir": str(work), "trace": trace, "seed": seed,
        "trace_dir": str(common.fresh_dir(tag, "spans")),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    _, _, code, out, err = common.timed_process(
        [sys.executable, str(common.BENCH_DIR / "sweep_client.py"),
         str(spec_path)],
        common.child_env(), timeout=170,
    )
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if code != 0 or not lines:
        result.attempted += 1
        result.fail(f"sweep client exit {code}: {err[-600:]!r}")
        return {
            "cold": [], "hot": [], "rss": 0.0, "jobs": 2,
            "trace_dir": spec["trace_dir"],
        }
    document = json.loads(lines[-1])
    result.attempted += document["attempted"]
    for failure in document["failures"]:
        result.fail(failure)
    # The larger of the sweeping process's peak and its fork-started
    # workers' (who do the planning), both taken before its audits.
    peak = document["peak_rss_mb"]
    document["rss"] = max(peak["self"], peak["workers"])
    result.notes["peak_rss_mb"] = peak
    document["trace_dir"] = spec["trace_dir"]
    return document


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result("sweep_grid")
    grids = inputs.sweep_grids(seed, seconds)
    env = common.child_env(common.fresh_dir("sweep_grid", "setup-cache"))
    setup = common.setup_probe("repro.runner", env, SETUP_REPEATS)
    plain = _drive(seed, grids, False, result)
    result.notes["points_per_grid"] = [len(g) for g in grids]
    if not trace:
        cold = common.timing_summary(plain["cold"])
        hot = common.timing_summary(plain["hot"])
        result.timings = {
            "setup_s": common.timing_summary(setup),
            "sweep_cold_s_per_point": cold,
            "sweep_hot_s_per_point": hot,
        }
        result.table = {
            "setup_s": common.median(setup),
            "sweep_cold_pps": 1.0 / cold["p50"] if plain["cold"] else None,
            "sweep_hot_pps": 1.0 / hot["p50"] if plain["hot"] else None,
        }
        result.end_to_end = {
            "setup_s": common.median(setup),
            "cold_s.p50": cold["p50"],
            "warm_s.p50": hot["p50"],
            "peak_rss_mb": plain["rss"],
        }
        return result
    traced = _drive(seed, grids, True, result)
    spans = result.load_trace(traced["trace_dir"])
    extra = {
        "parallel.jobs": traced["jobs"],
        "trace.overhead_ratio": (
            common.median(traced["cold"]) / common.median(plain["cold"])
            if traced["cold"] and plain["cold"] else None
        ),
    }
    result.per_layer = layers.compute(spans, extra)
    return result
