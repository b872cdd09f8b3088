"""Journal battery: one JSONL line per response, telling how.

The journal is the serve job's CI artifact: every response appends
one line recording its source (``search`` / ``lru`` / ``coalesced``
/ ``error``), the request fingerprint, the provenance and the pool
generation.  These tests pin the line schema and the source
classification.
"""

from __future__ import annotations

import json

from repro.serve.app import ServeApp
from repro.serve.journal import JOURNAL_VERSION, ServeJournal
from repro.serve.lru import SaltedLRU
from repro.runner.pool import InlineWorkerPool
from tests.serve.conftest import body_of, plan_request


def journal_lines(path):
    with open(path, encoding="utf-8") as handle:
        return [
            json.loads(line) for line in handle if line.strip()
        ]


def test_search_then_lru_hit_lines(tmp_path):
    path = tmp_path / "serve" / "journal.jsonl"
    app = ServeApp(
        InlineWorkerPool(),
        lru=SaltedLRU(8),
        journal=ServeJournal(path),
        pressure=0,
    )
    try:
        first = body_of(app, plan_request())
        second = body_of(app, plan_request())
    finally:
        app.close()
    assert first == second
    lines = journal_lines(path)
    assert [line["source"] for line in lines] == ["search", "lru"]
    search, lru = lines
    assert search["v"] == JOURNAL_VERSION
    assert search["seq"] == 1 and lru["seq"] == 2
    assert search["op"] == "plan"
    assert search["status"] == "ok"
    assert search["provenance"] == "fallback:first_order"
    assert search["generation"] == 0
    assert search["salt"]
    assert lru["fingerprint"] == search["fingerprint"]


def test_error_and_protocol_lines(tmp_path, monkeypatch):
    path = tmp_path / "journal.jsonl"
    monkeypatch.setenv("REPRO_FAULTS", "exit:chain=0,attempt=0")
    app = ServeApp(
        InlineWorkerPool(), journal=ServeJournal(path), pressure=0
    )
    try:
        crashed = json.loads(body_of(app, plan_request()))
        malformed = json.loads(app_handle_raw(app, "{not json"))
    finally:
        app.close()
    assert crashed["ok"] is False
    assert malformed["ok"] is False
    lines = journal_lines(path)
    assert [line["source"] for line in lines] == [
        "error", "error",
    ]
    assert lines[0]["op"] == "plan"
    assert lines[0]["status"] == "error"
    assert "fingerprint" in lines[0]
    assert lines[1]["op"] == "?"


def app_handle_raw(app, raw):
    from tests.serve.conftest import run

    return run(app.handle(raw))


def test_load_round_trips_recorded_lines(tmp_path):
    journal = ServeJournal(tmp_path / "journal.jsonl")
    journal.record("plan", "search", fingerprint="fp", status="ok")
    journal.record("plan", "lru", fingerprint="fp", status="ok")
    entries = journal.load()
    assert [entry["source"] for entry in entries] == [
        "search", "lru",
    ]
    assert all(
        entry["v"] == JOURNAL_VERSION for entry in entries
    )


def test_load_skips_torn_trailing_line(tmp_path):
    """A server killed mid-append leaves a torn tail; loading the
    journal recovers every durably written line with a warning, not
    an exception -- hand-truncated regression for the post-mortem
    path."""
    import pytest

    from repro.runner.errors import JournalTruncation

    journal = ServeJournal(tmp_path / "journal.jsonl")
    journal.record("plan", "search", fingerprint="fp", status="ok")
    journal.record("plan", "error", fingerprint="fp")
    with open(journal.path, encoding="utf-8") as handle:
        full = handle.read()
    torn = full[:-25]   # cut mid-way through the final line
    with open(journal.path, "w", encoding="utf-8") as handle:
        handle.write(torn)
    with pytest.warns(JournalTruncation, match="truncated"):
        entries = journal.load()
    assert [entry["source"] for entry in entries] == ["search"]


def test_load_survives_error_warning_filters(tmp_path):
    """CI runs ``python -W error``: the truncation warning must not
    escalate into a load failure."""
    import warnings

    journal = ServeJournal(tmp_path / "journal.jsonl")
    journal.record("plan", "search", fingerprint="fp", status="ok")
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "seq": 2, "op": "pl')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(journal.load()) == 1


def test_journal_spans_restarts(tmp_path):
    path = tmp_path / "journal.jsonl"
    for _ in range(2):
        app = ServeApp(
            InlineWorkerPool(),
            journal=ServeJournal(path),
            pressure=0,
        )
        try:
            body_of(app, plan_request())
        finally:
            app.close()
    lines = journal_lines(path)
    assert len(lines) == 2
    assert [line["seq"] for line in lines] == [1, 1]
