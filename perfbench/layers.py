"""Per-layer metrics computed from a traced run's spans.

Time metrics are medians per call, in seconds; counts are totals
over the traced pass, whose inputs are fixed by the seed and
``--seconds``, so deterministic counts repeat exactly.  A layer's
self time is its span's duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import median

#: (name, unit, better) for every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("cli.import_s", "s", "lower"),
    ("cli.modules", "count", "lower"),
    ("cli.first_call_s", "s", "lower"),
    ("executor.run_s", "s", "lower"),
    ("tileseek.search_s", "s", "lower"),
    ("tileseek.calls", "count", "lower"),
    ("tileseek.iterations", "count", "lower"),
    ("tileseek.evaluations", "count", "lower"),
    ("dpipe.plan_cascade_s", "s", "lower"),
    ("dpipe.plan_cascade_calls", "count", "lower"),
    ("dpipe.search_s", "s", "lower"),
    ("dpipe.search_calls", "count", "lower"),
    ("dpipe.kernel_memo_hit_ratio", "ratio", "higher"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.hit_ratio.report", "ratio", "higher"),
    ("cache.hit_ratio.tileseek", "ratio", "higher"),
    ("cache.hit_ratio.dpipe-kernel", "ratio", "higher"),
    ("cache.bytes_written", "bytes", "lower"),
    ("parallel.busy_ratio", "ratio", "higher"),
    ("parallel.chains", "count", "lower"),
    ("baselines.run_s", "s", "lower"),
    ("pool.wait_s", "s", "lower"),
    ("pool.exec_s", "s", "lower"),
    ("pool.respawns", "count", "lower"),
    ("serve.handle_s.lru", "s", "lower"),
    ("serve.handle_s.search", "s", "lower"),
    ("serve.lru_hit_ratio", "ratio", "higher"),
    ("serve.coalesced_ratio", "ratio", "higher"),
    ("serve.searches", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.overloaded", "count", "lower"),
    ("transport.s", "s", "lower"),
    ("serialize.s", "s", "lower"),
    ("loadgen.late_s.max", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

_OFF_CLI = "the CLI is not on this workload's request path"
_OFF_SERVE = "no server on this workload's path"
_OFF_POOL = "runner.pool serves requests only under repro serve"
_OFF_GRID = "run_grid is not on this workload's path"
_OFF_BASE = "only the transfusion executor plans on this workload"
_OFF_LOADGEN = "closed loop: there is no load generator"

#: Metrics that a workload's path never reaches, with the reason.
OFF_PATH: Dict[str, Dict[str, str]] = {
    "cli_plan": {
        "parallel.busy_ratio": _OFF_GRID,
        "parallel.chains": _OFF_GRID,
        "baselines.run_s": _OFF_BASE,
        "pool.wait_s": _OFF_POOL,
        "pool.exec_s": _OFF_POOL,
        "pool.respawns": _OFF_POOL,
        "serve.handle_s.lru": _OFF_SERVE,
        "serve.handle_s.search": _OFF_SERVE,
        "serve.lru_hit_ratio": _OFF_SERVE,
        "serve.coalesced_ratio": _OFF_SERVE,
        "serve.searches": _OFF_SERVE,
        "serve.shed": _OFF_SERVE,
        "serve.overloaded": _OFF_SERVE,
        "transport.s": _OFF_SERVE,
        "loadgen.late_s.max": _OFF_LOADGEN,
    },
    "serve_mix": {
        "cli.import_s": _OFF_CLI,
        "cli.modules": _OFF_CLI,
        "cli.first_call_s": _OFF_CLI,
        "parallel.busy_ratio": _OFF_GRID,
        "parallel.chains": _OFF_GRID,
        "baselines.run_s": _OFF_BASE,
    },
    "sweep_grid": {
        "cli.import_s": _OFF_CLI,
        "cli.modules": _OFF_CLI,
        "cli.first_call_s": _OFF_CLI,
        "pool.wait_s": _OFF_POOL,
        "pool.exec_s": _OFF_POOL,
        "pool.respawns": _OFF_POOL,
        "serve.handle_s.lru": _OFF_SERVE,
        "serve.handle_s.search": _OFF_SERVE,
        "serve.lru_hit_ratio": _OFF_SERVE,
        "serve.coalesced_ratio": _OFF_SERVE,
        "serve.searches": _OFF_SERVE,
        "serve.shed": _OFF_SERVE,
        "serve.overloaded": _OFF_SERVE,
        "transport.s": _OFF_SERVE,
        "loadgen.late_s.max": _OFF_LOADGEN,
    },
}

Span = Dict[str, Any]


def _seconds(ns: float) -> float:
    return ns / 1e9


def _duration(span: Span) -> int:
    return span["end"] - span["start"]


def self_time(span: Span, children: Sequence[Span]) -> int:
    """Duration minus the union of the children's (clipped) intervals."""
    covered = 0
    cursor = span["start"]
    for child in sorted(children, key=lambda s: s["start"]):
        start = max(child["start"], cursor)
        end = min(child["end"], span["end"])
        if end > start:
            covered += end - start
            cursor = end
    return _duration(span) - covered


class SpanIndex:
    """Spans grouped by name and by parent."""

    def __init__(self, spans: List[Span]) -> None:
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.children: Dict[str, List[Span]] = defaultdict(list)
        for span in spans:
            self.by_name[span["name"]].append(span)
            if span["parent"] is not None:
                self.children[span["parent"]].append(span)

    def named(self, name: str) -> List[Span]:
        return self.by_name.get(name, [])

    def self_seconds(self, name: str) -> List[float]:
        return [
            _seconds(self_time(s, self.children.get(s["sid"], [])))
            for s in self.named(name)
        ]

    def seconds(self, name: str) -> List[float]:
        return [_seconds(_duration(s)) for s in self.named(name)]


def _ratio(hits: int, total: int) -> Optional[float]:
    return hits / total if total else None


def compute(
    spans: List[Span], extra: Dict[str, Optional[float]]
) -> Dict[str, Optional[float]]:
    """Every per-layer metric the spans support (``None`` = no data).

    ``extra`` carries what the workload measured outside the spans
    (module count, client-side latencies, overhead, server stats).
    """
    index = SpanIndex(spans)
    values: Dict[str, Optional[float]] = {}

    values["cli.import_s"] = median(index.seconds("cli.import"))
    values["cli.first_call_s"] = median(index.seconds("cli.main"))
    values["executor.run_s"] = median(index.self_seconds("executor.run"))
    values["baselines.run_s"] = median(index.self_seconds("baselines.run"))

    searches = index.named("tileseek.search")
    values["tileseek.search_s"] = median(index.seconds("tileseek.search"))
    values["tileseek.calls"] = len(searches) if searches else None
    for key in ("iterations", "evaluations"):
        values[f"tileseek.{key}"] = (
            sum(s["attrs"].get(key, 0) for s in searches)
            if searches else None
        )

    cascades = index.named("dpipe.plan_cascade")
    values["dpipe.plan_cascade_s"] = median(index.seconds("dpipe.plan_cascade"))
    values["dpipe.plan_cascade_calls"] = len(cascades) if cascades else None
    dsearch = index.named("dpipe.search")
    values["dpipe.search_s"] = median(index.seconds("dpipe.search"))
    values["dpipe.search_calls"] = len(dsearch) if cascades else None
    memo_hits = sum(
        1 for span in cascades
        if not any(
            child["name"] == "cache.get"
            and child["attrs"].get("kind") == "dpipe-kernel"
            for child in index.children.get(span["sid"], [])
        )
    )
    values["dpipe.kernel_memo_hit_ratio"] = _ratio(memo_hits, len(cascades))

    gets = index.named("cache.get")
    puts = index.named("cache.put")
    values["cache.get_s"] = median(index.seconds("cache.get"))
    values["cache.put_s"] = median(index.seconds("cache.put"))
    for kind in ("report", "tileseek", "dpipe-kernel"):
        of_kind = [s for s in gets if s["attrs"].get("kind") == kind]
        values[f"cache.hit_ratio.{kind}"] = _ratio(
            sum(1 for s in of_kind if s["attrs"].get("hit")), len(of_kind)
        )
    values["cache.bytes_written"] = (
        sum(s["attrs"].get("bytes", 0) for s in puts) if puts else None
    )

    grids = index.named("parallel.run_grid")
    chains = index.named("parallel.chain")
    jobs = extra.get("parallel.jobs") or 1
    grid_wall = sum(_duration(s) for s in grids)
    values["parallel.busy_ratio"] = (
        sum(_duration(s) for s in chains) / (jobs * grid_wall)
        if chains and grid_wall else None
    )
    values["parallel.chains"] = len(chains) if grids else None

    executions = index.named("pool.exec")
    values["pool.wait_s"] = median(
        [_seconds(s["attrs"]["wait_ns"]) for s in executions]
    )
    values["pool.exec_s"] = median(index.seconds("pool.exec"))
    values["pool.respawns"] = (
        len(index.named("pool.respawn")) if executions else None
    )

    handles = [s for s in index.named("serve.handle") if s["rid"]]
    by_source: Dict[str, List[Span]] = defaultdict(list)
    for span in handles:
        by_source[span["attrs"].get("source", "other")].append(span)
    for source in ("lru", "search"):
        values[f"serve.handle_s.{source}"] = median([
            _seconds(self_time(s, index.children.get(s["sid"], [])))
            for s in by_source.get(source, [])
        ])
    values["serve.lru_hit_ratio"] = _ratio(
        len(by_source.get("lru", [])), len(handles)
    )
    values["serve.coalesced_ratio"] = _ratio(
        len(by_source.get("coalesced", [])), len(handles)
    )
    values["serve.searches"] = (
        len(by_source.get("search", [])) if handles else None
    )
    client = extra.get("client_latency_by_rid") or {}
    handled = {s["rid"]: _seconds(_duration(s)) for s in handles}
    values["transport.s"] = median([
        latency - handled[rid]
        for rid, latency in client.items() if rid in handled
    ])

    values["serialize.s"] = median(
        index.seconds("serialize.report_to_dict")
        + index.seconds("serialize.canonical_body")
    )
    for key in (
        "cli.modules", "serve.shed", "serve.overloaded",
        "loadgen.late_s.max", "trace.overhead_ratio",
    ):
        values[key] = extra.get(key)
    return values


def report(
    workload: str, values: Dict[str, Optional[float]]
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, str]]:
    """The per-layer ``metrics`` object and the absent-metric reasons.

    An absent metric is reported as 0 in ``metrics`` and named, with
    its reason, in the second mapping.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    absent: Dict[str, str] = {}
    off = OFF_PATH.get(workload, {})
    for name, unit, _ in PER_LAYER:
        value = values.get(name)
        if name in off:
            absent[name] = off[name]
            value = None
        elif value is None:
            absent[name] = "no call to this layer was recorded"
        metrics[name] = {
            "value": 0 if value is None else value, "unit": unit,
        }
    return metrics, absent
