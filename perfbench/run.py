"""The planner's standing benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli_plan --seed 1 --seconds 20 --trace 0

``--workload`` is ``cli_plan``, ``serve_mix``, ``sweep_grid`` or
``all`` (every workload, one table row each).  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` runs the same inputs untraced
and then traced, and reports the per-layer metrics and the tracing
overhead.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any check failed.  Full results (provenance, sample counts, tail
percentiles, per-rung serve figures) and Chrome trace files are
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("cli_plan", "serve_mix", "sweep_grid")

#: A single workload run that takes longer than this is stopped and
#: reported as failed, so the command always ends within 180 s.
RUN_LIMIT_S = 170


class RunOverrun(Exception):
    """The run went past ``RUN_LIMIT_S``."""


def _overrun(signum: int, frame: Any) -> None:
    raise RunOverrun(f"run exceeded {RUN_LIMIT_S} s")

#: The metrics BENCHMARK.json bounds, present on every workload: the
#: median uncached (cold) and cached (warm) operation of each
#: workload, its set-up time and its memory.  Tails are printed in the
#: table but not bounded: on a serve mix they swing with queueing.
END_TO_END = (
    ("setup_s", "s"),
    ("cold_s.p50", "s"),
    ("warm_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)

#: The planner's end-to-end metrics by their own names, per workload.
TABLE = (
    ("setup_s", "s"),
    ("plan_cold_s.p50", "s"),
    ("plan_cold_s.tail", "s"),
    ("plan_warm_s.p50", "s"),
    ("plan_peak_rss_mb", "MB"),
    ("miss_s.p50", "s"),
    ("miss_s.tail", "s"),
    ("hit_s.p50", "s"),
    ("hit_s.tail", "s"),
    ("max_rate_rps", "req/s"),
    ("deadline_met_ratio", "ratio"),
    ("deadline_plan_slowdown", "ratio"),
    ("sweep_cold_pps", "points/s"),
    ("sweep_hot_pps", "points/s"),
    ("failed_ratio", "ratio"),
)

#: Which timing summary carries the sample count of a tail metric.
_TAIL_SOURCE = {
    "plan_cold_s.tail": "plan_cold_s",
    "miss_s.tail": "miss_s",
    "hit_s.tail": "hit_s",
}


def _module(workload: str):
    import w_cli
    import w_serve
    import w_sweep

    return {
        "cli_plan": w_cli, "serve_mix": w_serve, "sweep_grid": w_sweep,
    }[workload]


def _format(value: Optional[float], unit: str) -> str:
    if value is None:
        return "n/a"
    if unit in ("count", "bytes"):
        return f"{value:.0f}"
    return f"{value:.6g}"


def _table_row(result: Any) -> str:
    cells = []
    table = dict(result.table)
    table["failed_ratio"] = result.failed / max(1, result.attempted)
    for name, unit in TABLE:
        if name not in table:
            continue
        cell = f"{name}={_format(table[name], unit)} {unit}"
        source = _TAIL_SOURCE.get(name)
        if source in result.timings:
            timing = result.timings[source]
            cell += f" [p{timing['tail_pct']} of n={timing['n']}]"
        elif name.endswith(".p50"):
            timing = result.timings.get(name[:-4])
            if timing:
                cell += f" [n={timing['n']}]"
        cells.append(cell)
    return f"{result.workload:<11} " + "  ".join(cells)


def _print_layers(result: Any, absent: Dict[str, str]) -> None:
    import layers

    print(f"per-layer metrics, {result.workload} (traced run):")
    for name, unit, _ in layers.PER_LAYER:
        if name in absent:
            print(f"  {name:<30} absent: {absent[name]}")
        else:
            value = result.per_layer.get(name)
            print(f"  {name:<30} {_format(value, unit)} {unit}")


def run(args: argparse.Namespace) -> int:
    try:
        common.require_checkout()
    except common.CheckoutError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    scrubbed = common.scrub_environment()
    # A launcher that ignores SIGINT would pass that on to the servers
    # this run stops with SIGINT; a handled signal resets on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    common.use_checkout_sources()
    os.environ["REPRO_CACHE_DIR"] = str(
        common.fresh_dir("inprocess-cache")
    )
    os.environ["TMPDIR"] = str(common.own_dir("tmp"))
    import inputs
    import layers
    import tracer

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    stamp = common.provenance()
    print(
        "provenance: " + " ".join(f"{k}={v}" for k, v in stamp.items())
    )
    if scrubbed:
        print("scrubbed inherited: " + " ".join(sorted(scrubbed)))
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in names:
        signal.signal(signal.SIGALRM, _overrun)
        signal.alarm(RUN_LIMIT_S)
        try:
            result = _module(name).run(
                args.seed, args.seconds, bool(args.trace)
            )
        except RunOverrun as error:
            print(f"FAILED {name}: {error}", file=sys.stderr)
            failed += 1
            continue
        finally:
            signal.alarm(0)
        attempted += result.attempted
        failed += result.failed
        for failure in result.failures[:20]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        absent: Dict[str, str] = {}
        document: Dict[str, Any] = {
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "provenance": stamp,
            "scrubbed_env": sorted(scrubbed),
            "inputs_sha256": inputs.inputs_digest(
                name, args.seed, args.seconds
            ),
            "attempted": result.attempted, "failed": result.failed,
            "failures": result.failures, "notes": result.notes,
        }
        if args.trace:
            layer_metrics, absent = layers.report(name, result.per_layer)
            _print_layers(result, absent)
            document.update(per_layer=layer_metrics, absent=absent)
            trace_path = common.OUT_DIR / f"trace-{name}-seed{args.seed}.json"
            common.write_json(
                trace_path,
                tracer.chrome_trace(result.spans, {"workload": name, **stamp}),
            )
            print(f"chrome trace: {trace_path} ({len(result.spans)} spans)")
            chosen = layer_metrics
        else:
            print(_table_row(result))
            if "rungs" in result.notes:
                for rung in result.notes["rungs"]:
                    print(
                        f"  rung {rung['rate_rps']:g} req/s: n={rung['n']}"
                        f" p50={_format(rung['p50'], 's')} s"
                        f" tail={_format(rung['tail'], 's')} s"
                        f" [p{rung['tail_pct']}]"
                        f" {'ok' if rung['ok'] else 'over limit'}"
                    )
            document.update(
                table=result.table, timings=result.timings,
                end_to_end=result.end_to_end,
            )
            chosen = {
                metric: {"value": result.end_to_end.get(metric), "unit": unit}
                for metric, unit in END_TO_END
            }
        common.write_json(
            common.OUT_DIR
            / f"result-{name}-seed{args.seed}-trace{args.trace}.json",
            document,
        )
        for metric, value in chosen.items():
            key = metric if len(names) == 1 else f"{name}/{metric}"
            if value["value"] is None:
                failed += 1
                print(f"FAILED {name}: no value for {metric}", file=sys.stderr)
                value = {"value": 0, "unit": value["unit"]}
            metrics[key] = value
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": max(1, attempted),
        "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
