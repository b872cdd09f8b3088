"""One workload run's outcome: counts, metrics and failures."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional


class Result:
    """What a workload measured and what went wrong.

    ``end_to_end`` holds the metrics ``BENCHMARK.json`` declares;
    ``table`` holds the same run under the planner's own metric names
    (``plan_cold_s.p50``, ``miss_s.tail`` ...), printed per workload.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.end_to_end: Dict[str, Optional[float]] = {}
        self.table: Dict[str, Optional[float]] = {}
        self.timings: Dict[str, Dict[str, Any]] = {}
        self.per_layer: Dict[str, Optional[float]] = {}
        self.spans: List[Dict[str, Any]] = []
        self.notes: Dict[str, Any] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def load_trace(self, directory: Path) -> List[Dict[str, Any]]:
        import tracer

        self.spans = tracer.load_spans(directory)
        return self.spans
