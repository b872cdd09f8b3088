"""Tests for sweep journaling and checkpoint/resume."""

import json

import pytest

from repro.core.serialize import report_to_dict
from repro.runner.cache import code_salt
from repro.runner.chain import GridPoint
from repro.runner.journal import (
    SweepJournal,
    default_journal_path,
    point_fingerprint,
)
from repro.runner.parallel import run_grid


def grid(executors=("unfused", "fusemax"), seqs=(512, 1024)):
    return [
        GridPoint(executor=name, model="t5", seq_len=seq,
                  arch="cloud", batch=4)
        for name in executors
        for seq in seqs
    ]


def rendered(reports):
    return [
        (point, json.dumps(report_to_dict(report), sort_keys=True))
        for point, report in reports.items()
    ]


@pytest.fixture
def point():
    return GridPoint(executor="unfused", model="t5", seq_len=512,
                     arch="cloud", batch=4)


class TestJournalFile:
    def test_record_load_round_trip(self, tmp_path, point):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record(point, "abc123")
        assert journal.load() == {
            point_fingerprint(point): "abc123",
        }

    def test_keyless_points_not_recorded(self, tmp_path, point):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record(point, None)
        assert not journal.path.exists()
        assert journal.load() == {}

    def test_missing_file_loads_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "missing.jsonl").load() == {}

    def test_torn_final_line_skipped(self, tmp_path, point):
        """A crash mid-append loses at most the torn line."""
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record(point, "abc123")
        with journal.path.open("a") as handle:
            handle.write('{"v": 1, "fingerprint": "tr')
        assert journal.load() == {
            point_fingerprint(point): "abc123",
        }

    def test_torn_final_line_warns_with_evidence(
        self, tmp_path, point
    ):
        """The skip is surfaced: a JournalTruncation warning naming
        the file, not a silent shrug."""
        from repro.runner.errors import JournalTruncation

        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record(point, "abc123")
        with journal.path.open("a") as handle:
            handle.write('{"v": 1, "fingerprint": "tr')
        with pytest.warns(JournalTruncation) as caught:
            journal.load()
        assert "j.jsonl" in str(caught[0].message)

    def test_torn_final_line_recovers_under_error_filters(
        self, tmp_path, point
    ):
        """CI runs ``python -W error``: a torn tail must stay a
        recoverable skip, not a hard load failure."""
        import warnings

        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record(point, "abc123")
        with journal.path.open("a") as handle:
            handle.write('{"v": 1, "fing')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert journal.load() == {
                point_fingerprint(point): "abc123",
            }

    def test_appended_lines_are_complete_and_durable(
        self, tmp_path, point
    ):
        """Every record is one complete line on disk the moment
        ``record`` returns -- no buffered tail owned by the dying
        process."""
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record(point, "abc123")
        raw = journal.path.read_bytes()
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1
        json.loads(raw.decode("utf-8"))

    def test_other_schema_versions_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.path.write_text(
            '{"v": 99, "fingerprint": "f", "key": "k"}\n'
        )
        assert journal.load() == {}

    def test_other_code_versions_skipped(self, tmp_path, point):
        """Lines written by a different source tree are rejected:
        old-salt cache entries are never evicted, so serving a stale
        journaled key would *hit* the stale entry."""
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record(point, "abc123")
        stale = journal.path.read_text().replace(
            code_salt(), "0" * 64
        )
        journal.path.write_text(stale)
        assert journal.load() == {}

    def test_saltless_legacy_lines_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.path.write_text(
            '{"v": 1, "fingerprint": "f", "key": "k"}\n'
        )
        assert journal.load() == {}

    def test_clear(self, tmp_path, point):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record(point, "abc")
        journal.clear()
        assert not journal.path.exists()
        journal.clear()  # idempotent


class TestDefaultJournalPath:
    def test_deterministic_per_grid(self, tmp_path):
        points = grid()
        first = default_journal_path(points, root=tmp_path)
        assert first == default_journal_path(points, root=tmp_path)
        assert first.parent == tmp_path / "journal"

    def test_distinct_grids_never_share(self, tmp_path):
        full = default_journal_path(grid(), root=tmp_path)
        other = default_journal_path(grid()[:2], root=tmp_path)
        assert full != other


class TestResume:
    def test_journal_written_during_sweep(self, tmp_path):
        points = grid()
        journal = SweepJournal(tmp_path / "j.jsonl")
        run_grid(points, jobs=1, cache_dir=tmp_path / "c",
                 journal=journal)
        completed = journal.load()
        assert len(completed) == len(points)
        for point in points:
            assert point_fingerprint(point) in completed

    def test_resume_skips_completed_work(
        self, tmp_path, monkeypatch
    ):
        """A fully journaled sweep resumes without building a single
        executor -- TransFusion's searched points included."""
        points = grid(executors=("unfused", "fusemax", "transfusion"))
        journal = tmp_path / "j.jsonl"
        first = run_grid(points, jobs=1, cache_dir=tmp_path / "c",
                         journal=journal)

        import repro.runner.chain as chain

        def forbidden(name):
            raise AssertionError(
                "resume must not construct executors"
            )

        monkeypatch.setattr(chain, "named_executor", forbidden)
        resumed = run_grid(points, jobs=1, cache_dir=tmp_path / "c",
                           journal=journal, resume=True)
        assert set(resumed.statuses.values()) == {"skipped"}
        assert rendered(resumed) == rendered(first)

    def test_crash_then_resume_matches_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        """The acceptance path: one chain of a 4-chain sweep crashes,
        the partial run journals its completed points, and a resumed
        run produces byte-identical reports to an uninterrupted one.
        """
        points = [
            GridPoint(executor=name, model=model, seq_len=seq,
                      arch="cloud", batch=4)
            for name in ("unfused", "fusemax")
            for model in ("t5", "bert")
            for seq in (512, 1024)
        ]
        uninterrupted = run_grid(points, jobs=2,
                                 cache_dir=tmp_path / "clean")
        journal = tmp_path / "j.jsonl"
        monkeypatch.setenv("REPRO_FAULTS", "crash:chain=2")
        partial = run_grid(points, jobs=2,
                           cache_dir=tmp_path / "c",
                           strict=False, journal=journal)
        assert partial.counts() == {"ok": 6, "failed": 2}
        monkeypatch.delenv("REPRO_FAULTS")
        resumed = run_grid(points, jobs=2, cache_dir=tmp_path / "c",
                           journal=journal, resume=True)
        assert resumed.ok
        assert resumed.counts() == {"skipped": 6, "ok": 2}
        assert rendered(resumed) == rendered(uninterrupted)

    def test_strict_crash_still_checkpoints_finished_chains(
        self, tmp_path, monkeypatch
    ):
        """Even a strict (raising) sweep leaves a resumable journal
        behind -- the moral equivalent of kill -9 mid-run."""
        points = grid()
        journal = SweepJournal(tmp_path / "j.jsonl")
        monkeypatch.setenv("REPRO_FAULTS", "crash:chain=1")
        with pytest.raises(Exception):
            run_grid(points, jobs=1, cache_dir=tmp_path / "c",
                     journal=journal)
        # Chain 0 completed before the crash and was checkpointed.
        assert len(journal.load()) == 2

    def test_resume_recomputes_when_cache_entry_missing(
        self, tmp_path
    ):
        """The journal is a hint, not a source of truth: a journaled
        point whose cache entry vanished recomputes."""
        from repro.runner.cache import PlanCache

        points = grid(executors=("unfused",))
        journal = tmp_path / "j.jsonl"
        first = run_grid(points, jobs=1, cache_dir=tmp_path / "c",
                         journal=journal)
        PlanCache(tmp_path / "c").clear()
        resumed = run_grid(points, jobs=1, cache_dir=tmp_path / "c",
                           journal=journal, resume=True)
        assert set(resumed.statuses.values()) == {"ok"}
        assert rendered(resumed) == rendered(first)

    def test_resume_recomputes_after_code_change(
        self, tmp_path, monkeypatch
    ):
        """A journal from an older source tree must recompute, not
        serve the (never-evicted) old-salt cache entries as
        'skipped'."""
        import repro.runner.cache as cache_mod

        points = grid(executors=("unfused",))
        journal = tmp_path / "j.jsonl"
        first = run_grid(points, jobs=1, cache_dir=tmp_path / "c",
                         journal=journal)
        # Simulate editing src/repro between the runs.
        monkeypatch.setattr(cache_mod, "_code_salt", "f" * 64)
        resumed = run_grid(points, jobs=1, cache_dir=tmp_path / "c",
                           journal=journal, resume=True)
        assert set(resumed.statuses.values()) == {"ok"}
        assert rendered(resumed) == rendered(first)
