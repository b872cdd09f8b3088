"""cli_plan: one client, one fresh ``repro plan --json`` per request.

Closed loop.  Every seeded point is planned cold (empty report entry;
shared ``dpipe-kernel``/``tileseek`` entries may hit) and then warm
(disk hit) against a cache directory the run owns.
"""

from __future__ import annotations

import json
import random
import sys
from typing import Any, Dict, List

import checks
import common
import inputs
import layers
from result import Result

SETUP_REPEATS = 5
AUDITS = 2


def _argv(point: inputs.Point, traced: bool) -> List[str]:
    entry = (
        [str(common.BENCH_DIR / "traced_repro.py")] if traced
        else ["-m", "repro"]
    )
    return [sys.executable, *entry, "plan", "--json", *point.cli_args()]


def _pass(
    points: List[inputs.Point], result: Result, traced: bool,
    tag: str,
) -> Dict[str, Any]:
    """Plan every point cold then warm; returns samples and bodies."""
    cache = common.fresh_dir(tag, "cache")
    extra = {}
    if traced:
        extra[common.TRACE_DIR_ENV] = str(common.fresh_dir(tag, "spans"))
    env = common.child_env(cache, extra)
    cold, warm, rss, bodies = [], [], [], {}
    for point in points:
        for phase, samples in (("cold", cold), ("warm", warm)):
            wall, peak, code, out, err = common.timed_process(
                _argv(point, traced), env
            )
            result.attempted += 1
            body = out.decode("utf-8", "replace").strip()
            if code != 0 or not checks.ok_body(body):
                result.fail(
                    f"plan {phase} {point}: exit {code}: "
                    f"{body[:200]} {err[-400:]!r}"
                )
                continue
            samples.append(wall)
            rss.append(peak)
            if phase == "cold":
                bodies[point] = body
            elif body != bodies.get(point):
                result.fail(f"warm body differs from cold: {point}")
    return {"cold": cold, "warm": warm, "rss": rss, "bodies": bodies}


def _check(
    points: List[inputs.Point], bodies: Dict, seed: int, result: Result
) -> None:
    """Golden snapshots and audits, outside the timed section."""
    for point in points:
        if point.golden() and point in bodies:
            result.attempted += 1
            problem = checks.golden_mismatch(point, bodies[point])
            if problem:
                result.fail(problem)
    candidates = [p for p in points if p.budget is None and p in bodies]
    for point in random.Random(seed).sample(
        candidates, min(AUDITS, len(candidates))
    ):
        result.attempted += 1
        problem = checks.audit(point, json.loads(bodies[point])["report"])
        if problem:
            result.fail(problem)


def _module_count(point: inputs.Point) -> int:
    """``repro.*`` modules loaded after one local ``plan``."""
    code = (
        "import sys, io, contextlib\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({['plan', '--json', *point.cli_args()]!r})\n"
        "print(sum(1 for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.')))\n"
    )
    env = common.child_env(common.fresh_dir("cli_plan", "modules"))
    _, _, code_, out, err = common.timed_process(
        [sys.executable, "-c", code], env
    )
    if code_ != 0:
        raise RuntimeError(f"module probe failed: {err[-400:]!r}")
    return int(out.decode().split()[-1])


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result("cli_plan")
    points = inputs.cli_points(seed, seconds)
    env = common.child_env(common.fresh_dir("cli_plan", "setup-cache"))
    setup = common.setup_probe("repro.cli", env, SETUP_REPEATS)
    plain = _pass(points, result, False, "cli_plan")
    _check(points, plain["bodies"], seed, result)
    if not trace:
        cold = common.timing_summary(plain["cold"])
        warm = common.timing_summary(plain["warm"])
        result.timings = {
            "setup_s": common.timing_summary(setup),
            "plan_cold_s": cold, "plan_warm_s": warm,
        }
        result.table = {
            "setup_s": common.median(setup),
            "plan_cold_s.p50": cold["p50"],
            "plan_cold_s.tail": cold["tail"],
            "plan_warm_s.p50": warm["p50"],
            "plan_peak_rss_mb": max(plain["rss"], default=0.0),
        }
        result.end_to_end = {
            "setup_s": common.median(setup),
            "cold_s.p50": cold["p50"],
            "warm_s.p50": warm["p50"],
            "peak_rss_mb": max(plain["rss"], default=0.0),
        }
        return result
    traced = _pass(points, result, True, "cli_plan-traced")
    for point, body in traced["bodies"].items():
        result.attempted += 1
        if body != plain["bodies"].get(point):
            result.fail(f"traced body differs from untraced: {point}")
    spans = result.load_trace(common.OUT_DIR / "cli_plan-traced" / "spans")
    extra = {
        "cli.modules": _module_count(points[0]),
        "trace.overhead_ratio": (
            common.median(traced["cold"]) / common.median(plain["cold"])
            if traced["cold"] and plain["cold"] else None
        ),
    }
    result.per_layer = layers.compute(spans, extra)
    return result
