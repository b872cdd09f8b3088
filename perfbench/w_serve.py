"""serve_mix: open-loop HTTP traffic against one ``repro serve --jobs 1``.

A single asyncio client replays a seeded Poisson schedule that climbs
a fixed ladder of offered rates over at most ``nproc`` connections
that can start a search, and never more than the server's shedding
threshold, so no request is answered at the shed budget.
Each response is framed by ``Content-Length`` (as
``repro.serve.client.remote_call`` does) rather than read to EOF: a
pool worker forked while a request is open inherits that connection's
socket, so EOF can be late.  Latency runs from when a request was
due, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import checks
import common
import inputs
import layers
from result import Result

SETUP_STARTS = 3
AUDITS = 2
#: A response slower than this is a failed request, not a hang.
REQUEST_TIMEOUT_S = 30.0
#: Seconds a server gets to exit after SIGINT before it is killed.
STOP_GRACE_S = 20.0


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, env: Dict[str, str], traced: bool, cache: str):
        entry = (
            [str(common.BENCH_DIR / "traced_repro.py")] if traced
            else ["-m", "repro"]
        )
        argv = [
            sys.executable, *entry, "serve", "--jobs", "1",
            "--port", "0", "--cache-dir", cache,
        ]
        start = time.perf_counter()
        # Its own session: the server and its pool workers can be
        # killed as one process group if it will not stop.
        self.process = subprocess.Popen(
            argv, env=env, cwd=str(common.ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.stderr: List[bytes] = []
        line = self.process.stderr.readline()
        self.setup_s = time.perf_counter() - start
        parts = line.decode("ascii", "replace").split()
        if len(parts) != 3 or parts[0] != "SERVING":
            rest = self.process.stderr.read()
            self._kill_group()
            self.process.wait()
            raise RuntimeError(
                f"server did not start: {(line + rest)[-600:]!r}"
            )
        self.host, self.port = parts[1], int(parts[2])
        self._drain = threading.Thread(
            target=self._read_stderr, daemon=True
        )
        self._drain.start()
        self.peak_rss_mb = 0.0
        self.orphans = False

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.stderr.append(line)

    def _kill_group(self) -> None:
        common.kill_group(self.process.pid)

    def stop(self) -> int:
        """SIGINT, then reap; records the server's peak RSS.

        A server still running ``STOP_GRACE_S`` after SIGINT is killed
        with its whole process group, and the exit code says so.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        timer = threading.Timer(STOP_GRACE_S, self._kill_group)
        timer.start()
        try:
            _, status, usage = os.wait4(self.process.pid, 0)
        finally:
            timer.cancel()
        # Anything left in the group outlived the server (a pool worker
        # holds the server's stderr and sockets): note it, then kill it
        # so the stderr reader sees EOF.
        try:
            os.killpg(self.process.pid, 0)
            self.orphans = True
        except ProcessLookupError:
            self.orphans = False
        self._kill_group()
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._drain.join(timeout=10)
        if not self._drain.is_alive():
            self.process.stderr.close()
        return self.process.returncode


async def _exchange(
    host: str, port: int, method: str, path: str, payload: bytes
) -> Tuple[int, str]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode("ascii") + payload
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("ascii").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await reader.readexactly(length)
        return status, body.decode("utf-8")
    finally:
        writer.close()


class Record:
    __slots__ = (
        "arrival", "cls", "status", "body", "latency", "client", "late",
    )

    def __init__(self, arrival: inputs.Arrival) -> None:
        self.arrival = arrival
        self.cls = ""
        self.status = 0
        self.body = ""
        self.latency = 0.0
        self.client = 0.0
        self.late = 0.0


def connection_limit() -> int:
    """Connections the client opens for requests that can search:
    ``nproc``, but at most the server's shedding threshold (the
    default: the server's environment is scrubbed).
    ``ServeApp`` tightens a request's budget once that many searches
    are in flight; with at most that many requests open, at most one
    fewer are in flight when any request is admitted, so every body
    stays the unbudgeted one ``execute_request`` gives."""
    from repro.serve.app import DEFAULT_PRESSURE

    return min(os.cpu_count() or 1, DEFAULT_PRESSURE)


async def _drive(
    schedule: inputs.ServeSchedule, server: Server, connections: int
) -> Tuple[List[Record], Dict[str, Any]]:
    loop = asyncio.get_running_loop()
    gate = asyncio.Semaphore(connections)
    state: Dict[Any, str] = {}
    records = [Record(a) for a in schedule.arrivals]

    async def send(record: Record, due: float) -> None:
        identity = record.arrival.identity()
        seen = state.get(identity)
        record.cls = {"done": "hit", "inflight": "coalesced"}.get(
            seen, "miss"
        )
        if seen is None:
            state[identity] = "inflight"
        payload = json.dumps(record.arrival.document()).encode()
        sent = loop.time()
        try:
            record.status, record.body = await asyncio.wait_for(
                _exchange(
                    server.host, server.port, "POST", "/v1", payload
                ),
                REQUEST_TIMEOUT_S,
            )
        except (OSError, ValueError, IndexError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError) as error:
            record.status, record.body = 0, repr(error)
        done = loop.time()
        record.latency = done - due
        record.client = done - sent
        if record.status == 200:
            state[identity] = "done"

    async def one(record: Record, due: float) -> None:
        async with gate:
            await send(record, due)

    async def pair(first: Record, second: Record, due: float) -> None:
        # The second joins the first's search and never starts one, so
        # it goes out with the first on a connection of its own,
        # outside the gate.  It always reaches the server while the
        # first is searching: coalesced, never the LRU hit that
        # waiting for a free connection could make it.
        async with gate:
            await asyncio.gather(send(first, due), send(second, due))

    warmup = [Record(a) for a in schedule.warmup]
    for record in warmup:
        record.cls = "warmup"
        start = loop.time()
        record.status, record.body = await asyncio.wait_for(
            _exchange(
                server.host, server.port, "POST", "/v1",
                json.dumps(record.arrival.document()).encode(),
            ),
            REQUEST_TIMEOUT_S,
        )
        record.latency = record.client = loop.time() - start
        if record.status == 200:
            state[record.arrival.identity()] = "done"
    start = loop.time() + 0.05
    tasks = []
    index = 0
    while index < len(records):
        record = records[index]
        due = start + record.arrival.due
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        record.late = max(0.0, loop.time() - due)
        if record.arrival.kind == "pair":
            twin = records[index + 1]
            twin.late = record.late
            tasks.append(asyncio.ensure_future(pair(record, twin, due)))
            index += 2
        else:
            tasks.append(asyncio.ensure_future(one(record, due)))
            index += 1
    await asyncio.gather(*tasks)
    _, stats = await asyncio.wait_for(
        _exchange(server.host, server.port, "GET", "/stats", b""),
        REQUEST_TIMEOUT_S,
    )
    return warmup + records, json.loads(stats)


def _traffic(
    schedule: inputs.ServeSchedule, env: Dict[str, str], traced: bool,
    tag: str,
) -> Dict[str, Any]:
    cache = common.fresh_dir(tag, "cache")
    server = Server(env, traced, str(cache))
    try:
        records, stats = asyncio.run(
            _drive(schedule, server, connection_limit())
        )
    finally:
        code = server.stop()
    return {
        "records": records, "stats": stats, "exit": code,
        "rss": server.peak_rss_mb, "setup": server.setup_s,
        "orphans": server.orphans,
    }


def _rung_ok(records: List[Record], limit: float) -> bool:
    """Tail within ``limit`` and no growing backlog on one rung."""
    if any(r.status != 200 for r in records):
        return False
    latencies = [r.latency for r in records]
    value, _ = common.tail(latencies)
    if value is None:
        value = max(latencies, default=0.0)
    third = max(1, len(records) // 3)
    ordered = sorted(records, key=lambda r: r.arrival.due)
    first = common.median([r.latency for r in ordered[:third]])
    last = common.median([r.latency for r in ordered[-third:]])
    return value <= limit and last - first <= limit / 2


def _simulated_latency(body: str) -> float:
    from repro.arch.spec import named_architecture
    from repro.core.serialize import report_from_dict

    document = json.loads(body)
    report = report_from_dict(document["report"])
    return report.latency_seconds(
        named_architecture(report.architecture)
    )


def _check(
    records: List[Record], seed: int, result: Result
) -> Dict[str, Any]:
    """Outside the timed section: every answer against the in-process
    body (hits and coalesced followers too: each carries its own id),
    golden points, audits, and the deadline plans' slowdown."""
    distinct: Dict[Any, Record] = {}
    for record in records:
        result.attempted += 1
        if record.status != 200 or not checks.ok_body(record.body):
            result.fail(
                f"request r{record.arrival.index}: HTTP {record.status}"
                f" {record.body[:200]}"
            )
            continue
        # Repeats hit the in-process memos and disk cache: cheap.
        if checks.inprocess_body(record.arrival.document()) != record.body:
            result.fail(
                f"served body differs from execute_request: "
                f"r{record.arrival.index} ({record.cls})"
            )
            continue
        distinct.setdefault(record.arrival.identity(), record)
    for record in distinct.values():
        point = record.arrival.point
        if record.arrival.deadline_s is None and point.golden():
            result.attempted += 1
            problem = checks.golden_mismatch(point, record.body)
            if problem:
                result.fail(problem)
    plans = [
        r for r in distinct.values() if r.arrival.deadline_s is None
    ]
    for record in random.Random(seed).sample(
        plans, min(AUDITS, len(plans))
    ):
        result.attempted += 1
        problem = checks.audit(
            record.arrival.point, json.loads(record.body)["report"]
        )
        if problem:
            result.fail(problem)
    slowdowns = []
    for record in distinct.values():
        arrival = record.arrival
        if arrival.deadline_s is None or record.status != 200:
            continue
        complete = checks.inprocess_body(
            {"op": "plan", "point": arrival.point.wire()}
        )
        slowdowns.append(
            _simulated_latency(record.body) / _simulated_latency(complete)
        )
    return {"slowdowns": slowdowns, "distinct": len(distinct)}


def _summaries(records: List[Record]) -> Dict[str, Any]:
    ok = [
        r for r in records
        if r.status == 200
        and 0 <= r.arrival.rung < inputs.SERVE_LATENCY_RUNGS
    ]
    miss = [
        r.latency for r in ok
        if r.cls == "miss" and r.arrival.deadline_s is None
    ]
    hit = [r.latency for r in ok if r.cls == "hit"]
    rungs = []
    max_rate = 0.0
    for index, rate in enumerate(inputs.SERVE_LADDER):
        on_rung = [r for r in records if r.arrival.rung == index]
        passed = bool(on_rung) and _rung_ok(on_rung, inputs.SERVE_LIMIT_S)
        value, q = common.tail([r.latency for r in on_rung])
        rungs.append({
            "rate_rps": rate, "n": len(on_rung), "tail": value,
            "tail_pct": q, "ok": passed,
            "p50": common.median([r.latency for r in on_rung]),
        })
        if passed:
            max_rate = rate
    deadline = [r for r in records if r.arrival.deadline_s is not None]
    met = sum(
        1 for r in deadline
        if r.status == 200 and checks.ok_body(r.body)
        and r.latency <= r.arrival.deadline_s
    )
    classes: Dict[str, int] = {}
    for record in records:
        classes[record.cls] = classes.get(record.cls, 0) + 1
    return {
        "miss": common.timing_summary(miss),
        "hit": common.timing_summary(hit),
        "rungs": rungs,
        "max_rate": max_rate,
        "deadline_met": met / len(deadline) if deadline else None,
        "deadline_n": len(deadline),
        "late_max": max((r.late for r in records), default=0.0),
        "classes": classes,
    }


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result("serve_mix")
    schedule = inputs.serve_schedule(seed, seconds)
    env = common.child_env()
    setups, exits = [], []
    for _ in range(SETUP_STARTS - 1):
        server = Server(
            env, False, str(common.fresh_dir("serve_mix", "setup"))
        )
        setups.append(server.setup_s)
        exits.append(server.stop())
    plain = _traffic(schedule, env, False, "serve_mix")
    setups.append(plain["setup"])
    exits.append(plain["exit"])
    result.notes["orphaned_workers"] = plain["orphans"]
    result.notes["connections"] = connection_limit()
    if plain["orphans"]:
        print("warning: a pool worker outlived its server and was killed")
    for code in exits:
        result.attempted += 1
        if code != 0:
            result.fail(f"server exited {code} after SIGINT")
    records = plain["records"]
    checked = _check(records, seed, result)
    summary = _summaries(records)
    result.notes["rungs"] = summary["rungs"]
    result.notes["classes"] = summary["classes"]
    result.notes["distinct_bodies"] = checked["distinct"]
    result.notes["requests"] = [
        [r.arrival.index, r.arrival.rung, r.arrival.kind, r.cls,
         r.status, round(r.latency, 6), round(r.client, 6),
         round(r.late, 6)]
        for r in records
    ]
    if not trace:
        miss, hit = summary["miss"], summary["hit"]
        slowdowns = checked["slowdowns"]
        result.timings = {
            "setup_s": common.timing_summary(setups),
            "miss_s": miss, "hit_s": hit,
        }
        result.table = {
            "setup_s": common.median(setups),
            "miss_s.p50": miss["p50"], "miss_s.tail": miss["tail"],
            "hit_s.p50": hit["p50"], "hit_s.tail": hit["tail"],
            "max_rate_rps": summary["max_rate"],
            "deadline_met_ratio": summary["deadline_met"],
            "deadline_plan_slowdown": (
                common.geomean(slowdowns) if slowdowns else None
            ),
        }
        result.end_to_end = {
            "setup_s": common.median(setups),
            "cold_s.p50": miss["p50"],
            "warm_s.p50": hit["p50"],
            "peak_rss_mb": plain["rss"],
        }
        return result
    trace_dir = common.fresh_dir("serve_mix-traced", "spans")
    traced = _traffic(
        schedule, common.child_env(
            extra={common.TRACE_DIR_ENV: str(trace_dir)}
        ), True, "serve_mix-traced",
    )
    result.attempted += 1
    if traced["exit"] != 0:
        result.fail(f"traced server exited {traced['exit']} after SIGINT")
    for before, after in zip(records, traced["records"]):
        result.attempted += 1
        if before.body != after.body:
            result.fail(
                f"traced body differs from untraced: "
                f"r{before.arrival.index}"
            )
    spans = result.load_trace(trace_dir)
    traced_summary = _summaries(traced["records"])
    extra = {
        "client_latency_by_rid": {
            f"r{r.arrival.index}": r.client for r in traced["records"]
        },
        "serve.shed": traced["stats"].get("shed"),
        "serve.overloaded": traced["stats"].get("queue", {}).get(
            "overloaded", 0
        ),
        "loadgen.late_s.max": traced_summary["late_max"],
        "trace.overhead_ratio": (
            traced_summary["miss"]["p50"] / summary["miss"]["p50"]
            if summary["miss"]["n"] and traced_summary["miss"]["n"]
            else None
        ),
    }
    result.per_layer = layers.compute(spans, extra)
    return result
