"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import math
import subprocess
import sys

import pytest

import checks
import common
import inputs
import w_serve
from result import Result


@pytest.fixture(autouse=True)
def owned_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["cli_plan", "serve_mix", "sweep_grid"])
def test_same_seed_gives_byte_identical_inputs(workload):
    first = inputs.inputs_digest(workload, 7, 20)
    assert inputs.inputs_digest(workload, 7, 20) == first
    assert inputs.inputs_digest(workload, 8, 20) != first


def test_seeded_inputs_hold_the_golden_points():
    golden = set(inputs.golden_points())
    degraded = {p for p in golden if p.budget is not None}
    for seed in range(5):
        points = inputs.cli_points(seed, 20)
        assert len(set(points)) == len(points)
        assert degraded <= set(points)
        assert all(p.golden() for p in set(points) & golden)
        hot = {
            a.point for a in inputs.serve_schedule(seed, 20).arrivals
            if a.kind == "zipf"
        }
        assert hot & golden


def test_serve_schedule_climbs_the_ladder_with_every_class():
    schedule = inputs.serve_schedule(3, 20)
    dues = [a.due for a in schedule.arrivals]
    assert dues == sorted(dues)
    assert {a.rung for a in schedule.arrivals} == set(
        range(len(inputs.SERVE_LADDER))
    )
    kinds = {a.kind for a in schedule.arrivals}
    assert kinds == {kind for kind, _ in inputs.SERVE_SHARES}
    pairs = [a for a in schedule.arrivals if a.kind == "pair"]
    assert len(pairs) % 2 == 0
    assert all(
        pairs[i].identity() == pairs[i + 1].identity()
        and pairs[i].due == pairs[i + 1].due
        for i in range(0, len(pairs), 2)
    )
    low, high = inputs.DEADLINE_RANGE
    assert all(
        low <= a.deadline_s <= high
        for a in schedule.arrivals if a.kind == "deadline"
    )


# ----------------------------------------------------------------------
# The tail rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(5, None), (10, None), (11, 9), (20, 50), (100, 90), (1000, 99)],
)
def test_tail_is_the_highest_percentile_with_ten_beyond(count, expected):
    assert common.tail_percentile(count) == expected


@pytest.mark.parametrize("count", range(11, 400, 7))
def test_tail_percentile_leaves_ten_beyond_and_the_next_would_not(count):
    q = common.tail_percentile(count)
    beyond = count - math.ceil(q * count / 100)
    assert beyond >= common.TAIL_BEYOND
    if q < 99:
        assert count - math.ceil((q + 1) * count / 100) < common.TAIL_BEYOND


def test_tail_value_is_the_nearest_rank_sample():
    values = [float(v) for v in range(1, 21)]
    assert common.tail(values) == (10.0, 50)
    assert common.tail(values[:10]) == (None, None)


# ----------------------------------------------------------------------
# Wrappers are transparent
# ----------------------------------------------------------------------
def _plan(entry, point, cache, extra=None):
    env = common.child_env(cache, extra)
    out = subprocess.run(
        [sys.executable, *entry, "plan", "--json", *point.cli_args()],
        cwd=str(common.ROOT), env=env, capture_output=True, check=True,
    ).stdout
    return out


def test_traced_cli_bodies_are_byte_identical(tmp_path):
    traced = [str(common.BENCH_DIR / "traced_repro.py")]
    for point in (
        inputs.Point("t5", "cloud", 512, 4, budget=16),
        inputs.Point("bert", "edge64", 2048, 1, causal=True),
    ):
        plain = _plan(["-m", "repro"], point, tmp_path / "a")
        spans = tmp_path / "spans"
        body = _plan(
            traced, point, tmp_path / "b",
            {common.TRACE_DIR_ENV: str(spans)},
        )
        assert body == plain
        assert list(spans.glob("spans-*.jsonl"))


def test_traced_served_bodies_are_byte_identical(tmp_path):
    schedule = inputs.serve_schedule(5, 2)
    arrivals = schedule.arrivals[:6]
    bodies = []
    for traced in (False, True):
        extra = (
            {common.TRACE_DIR_ENV: str(tmp_path / "spans")} if traced
            else {}
        )
        server = w_serve.Server(
            common.child_env(extra=extra), traced,
            str(tmp_path / f"cache-{traced}"),
        )
        try:
            bodies.append([
                asyncio.run(w_serve._exchange(
                    server.host, server.port, "POST", "/v1",
                    json.dumps(a.document()).encode(),
                ))
                for a in arrivals
            ])
        finally:
            assert server.stop() == 0
    assert bodies[0] == bodies[1]
    assert all(status == 200 for status, _ in bodies[0])
    names = {
        json.loads(line)["name"]
        for path in (tmp_path / "spans").glob("spans-*.jsonl")
        for line in path.read_text().splitlines()
    }
    assert {"serve.handle", "pool.exec", "tileseek.search"} <= names


# ----------------------------------------------------------------------
# Corrupted answers count as failed
# ----------------------------------------------------------------------
def _served(arrival):
    record = w_serve.Record(arrival)
    record.status = 200
    record.body = checks.inprocess_body(arrival.document())
    return record


def test_a_correct_served_body_passes():
    arrival = inputs.Arrival(
        0, 0.0, 0, "fresh", inputs.Point("bert", "cloud", 512, 4)
    )
    result = Result("serve_mix")
    w_serve._check([_served(arrival)], 0, result)
    assert result.failed == 0 and result.attempted >= 3


@pytest.mark.parametrize("corruption", ["digit", "truncate", "status"])
def test_a_corrupted_served_body_counts_as_failed(corruption):
    arrival = inputs.Arrival(
        0, 0.0, 0, "fresh", inputs.Point("llama3", "edge", 1024, 4)
    )
    record = _served(arrival)
    if corruption == "digit":
        index = next(
            i for i, c in enumerate(record.body)
            if c.isdigit() and record.body[i - 1] == "."
        )
        digit = "1" if record.body[index] != "1" else "2"
        record.body = record.body[:index] + digit + record.body[index + 1:]
    elif corruption == "truncate":
        record.body = record.body[:-1]
    else:
        record.status = 500
    result = Result("serve_mix")
    w_serve._check([record], 0, result)
    assert result.failed >= 1


def test_a_corrupted_hit_body_counts_as_failed():
    point = inputs.Point("bert", "cloud", 512, 4)
    first = _served(inputs.Arrival(0, 0.0, 0, "zipf", point))
    hit = _served(inputs.Arrival(1, 0.1, 0, "zipf", point))
    hit.cls = "hit"
    # A repeat answered with its twin's body: right plan, wrong id.
    hit.body = first.body
    result = Result("serve_mix")
    w_serve._check([first, hit], 0, result)
    assert result.failed == 1


def test_the_client_stays_below_the_shedding_threshold():
    from repro.serve.app import DEFAULT_PRESSURE

    assert 1 <= w_serve.connection_limit() <= DEFAULT_PRESSURE


def test_a_run_fits_the_servers_lru():
    from repro.serve.app import resolve_lru_entries

    schedule = inputs.serve_schedule(3, 20)
    identities = {
        a.identity() for a in schedule.warmup + schedule.arrivals
    }
    assert len(identities) < resolve_lru_entries()


def test_a_corrupted_report_fails_the_golden_comparison():
    point = inputs.Point("t5", "edge", 512, 4)
    body = checks.inprocess_body({"op": "plan", "point": point.wire()})
    assert checks.golden_mismatch(point, body) is None
    document = json.loads(body)
    document["report"]["phases"][0]["compute_seconds"] *= 1.0000001
    assert checks.golden_mismatch(point, json.dumps(document))


def test_without_the_program_the_benchmark_refuses(tmp_path):
    import shutil

    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_plan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert run.stdout.strip() == ""
