"""The sweep_grid client: in-process ``run_grid(jobs=2)`` over seeded grids.

Usage: ``python perfbench/sweep_client.py <spec.json>``.  The spec
names the grids, the directory to work in and whether to trace.
Each grid runs cold (empty cache, in-process memos cleared), then hot
(same cache, memos cleared again).  The last stdout line is a JSON
document with the timings and any failed checks.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

JOBS = 2
AUDITS = 2


def _clear_memos() -> None:
    from repro.core.executor import _TILING_CACHE
    from repro.dpipe.planner import clear_kernel_cache

    _TILING_CACHE.clear()
    clear_kernel_cache()


def _documents(result: Any) -> Dict[Any, str]:
    from repro.core.serialize import canonical_json, report_to_dict

    return {
        point: canonical_json(report_to_dict(report))
        for point, report in result.items()
    }


def main(spec_path: str) -> int:
    import os
    import shutil

    spec = json.loads(Path(spec_path).read_text())
    common.use_checkout_sources()
    if spec["trace"]:
        import tracer

        tracer.install(Path(spec["trace_dir"]))
    from repro.runner import GridPoint, run_grid

    import checks
    import inputs

    work = Path(spec["work_dir"])
    os.environ["REPRO_CACHE_DIR"] = str(work / "audit-cache")
    failures: List[str] = []
    cold: List[float] = []
    hot: List[float] = []
    attempted = 0
    sample: List[Any] = []
    for index, grid in enumerate(spec["grids"]):
        points = [inputs.Point(**p) for p in grid]
        grid_points = [
            GridPoint(
                executor=p.executor, model=p.model, seq_len=p.seq_len,
                arch=p.arch, batch=p.batch, causal=p.causal,
            )
            for p in points
        ]
        cache = work / f"grid-{index}"
        shutil.rmtree(cache, ignore_errors=True)
        runs = []
        for samples in (cold, hot):
            _clear_memos()
            attempted += 1
            start = time.perf_counter()
            try:
                result = run_grid(
                    grid_points, jobs=JOBS, cache_dir=str(cache),
                    strict=False,
                )
            except Exception as error:  # reported, never swallowed
                failures.append(
                    f"grid {index}: {type(error).__name__}: {error}"
                )
                break
            samples.append((time.perf_counter() - start) / len(points))
            runs.append(result)
            bad = [p for p, s in result.statuses.items() if s != "ok"]
            if bad:
                failures.append(f"grid {index}: not ok: {bad[:3]}")
        if len(runs) == 2:
            attempted += 1
            if _documents(runs[0]) != _documents(runs[1]):
                failures.append(f"grid {index}: hot reports differ")
            for point, grid_point in zip(points, grid_points):
                if point.golden() and grid_point in runs[0]:
                    attempted += 1
                    from repro.core.serialize import report_to_dict

                    problem = checks.golden_report_mismatch(
                        point, report_to_dict(runs[0][grid_point])
                    )
                    if problem:
                        failures.append(problem)
            sample.extend(
                (point, runs[0][gp]) for point, gp in zip(points, grid_points)
                if gp in runs[0]
            )
        shutil.rmtree(cache, ignore_errors=True)
    import resource

    # Before the audits, whose NumPy oracle on a large point would
    # set this process's peak instead of the sweeps.
    peak = {
        who: resource.getrusage(which).ru_maxrss / 1024.0
        for who, which in (
            ("self", resource.RUSAGE_SELF),
            ("workers", resource.RUSAGE_CHILDREN),
        )
    }
    if spec["trace"]:
        tracer.flush()
    else:
        from repro.core.serialize import report_to_dict

        for point, report in random.Random(spec["seed"]).sample(
            sample, min(AUDITS, len(sample))
        ):
            attempted += 1
            problem = checks.audit(point, report_to_dict(report))
            if problem:
                failures.append(problem)
    print(json.dumps({
        "cold": cold, "hot": hot, "attempted": attempted,
        "failures": failures, "jobs": JOBS, "peak_rss_mb": peak,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
