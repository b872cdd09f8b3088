"""Shared helpers for the per-figure benchmark harnesses.

Each benchmark regenerates one paper table/figure: it runs the
experiment generator under ``pytest-benchmark`` timing, prints the
series as an aligned table, and archives the table under
``benchmarks/results/`` for inspection.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def merge_perf_records(path: Path, records: dict) -> None:
    """Merge one session's records into the JSON file at ``path``.

    Records are keyed by benchmark; a key this session logged
    replaces the stored entry, and every other stored entry is kept,
    so sessions that run different benchmarks accumulate in one file.
    """
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged.update(records)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def _perf_records(results_dir):
    """Collects framework-perf metrics across the session and merges
    them into ``results/BENCH_framework.json`` at teardown
    (machine-readable counterpart of the per-figure ``.txt`` tables;
    CI archives it as an artifact so perf history is diffable across
    runs)."""
    records: dict = {}
    yield records
    if records:
        merge_perf_records(results_dir / "BENCH_framework.json", records)


@pytest.fixture
def perf_log(_perf_records):
    """Record one benchmark's metrics under a stable key."""

    def _log(name: str, metrics: dict) -> None:
        _perf_records[name] = metrics

    return _log


@pytest.fixture
def emit(results_dir, capsys):
    """Print a rendered table and archive it as ``<name>.txt``."""

    def _emit(name: str, text: str) -> None:
        with capsys.disabled():
            print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit
