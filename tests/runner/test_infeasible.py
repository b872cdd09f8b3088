"""Sweep-engine handling of typed infeasibility verdicts.

An :class:`InfeasiblePoint` is a terminal *answer* (nothing in the
tiling space fits the buffer), not an operational failure: it must
surface as its own ``infeasible`` status, never consume retries,
survive journal round-trips, and leave ``--keep-going`` semantics and
strictness untouched.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.runner.parallel as parallel
from repro.arch.spec import named_architecture
from repro.core.serialize import (
    report_to_dict,
    sweep_result_from_dict,
    sweep_result_to_dict,
)
from repro.runner.chain import (
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_SKIPPED,
    GridPoint,
)
from repro.runner.errors import InfeasiblePoint
from repro.runner.parallel import run_grid


def tiny_buffer(arch):
    """The same architecture with a buffer nothing can fit in."""
    return dataclasses.replace(
        arch,
        buffer=dataclasses.replace(arch.buffer, capacity_bytes=4096),
    )


@pytest.fixture
def shrunken_edge(monkeypatch):
    """Make ``edge`` infeasible for every model, keep ``cloud`` real.

    Patches the sweep engine's architecture lookup (the serial path
    runs in-process, so the executor and the cache fingerprint both
    see the shrunken buffer).
    """

    def lookup(name):
        arch = named_architecture(name)
        return tiny_buffer(arch) if name == "edge" else arch

    monkeypatch.setattr(
        "repro.runner.chain.named_architecture", lookup
    )


def mixed_grid():
    return [
        GridPoint(executor="transfusion", model="t5", seq_len=512,
                  arch="cloud", batch=4),
        GridPoint(executor="transfusion", model="t5", seq_len=512,
                  arch="edge", batch=4),
    ]


def rendered(reports):
    return [
        (point, json.dumps(report_to_dict(report), sort_keys=True))
        for point, report in reports.items()
    ]


class TestInfeasibleStatus:
    def test_distinct_status_with_diagnosis(
        self, shrunken_edge, tmp_path
    ):
        result = run_grid(
            mixed_grid(), jobs=1, cache_dir=tmp_path / "c"
        )
        feasible, infeasible = mixed_grid()
        assert result.statuses[feasible] == STATUS_OK
        assert result.statuses[infeasible] == STATUS_INFEASIBLE
        verdict = result.infeasible[infeasible]
        assert isinstance(verdict, InfeasiblePoint)
        assert verdict.point == infeasible
        assert verdict.diagnosis["overflow_words"] > 0
        assert verdict.diagnosis["worst_module"]
        assert "no tiling fits the buffer" in str(verdict)
        assert list(result.infeasible_points()) == [infeasible]

    def test_strict_sweep_does_not_raise(
        self, shrunken_edge, tmp_path
    ):
        result = run_grid(
            mixed_grid(), jobs=1, cache_dir=tmp_path / "c",
            strict=True,
        )
        assert result.ok
        result.raise_if_failed()

    def test_keep_going_unaffected(self, shrunken_edge, tmp_path):
        result = run_grid(
            mixed_grid(), jobs=1, cache_dir=tmp_path / "c",
            strict=False,
        )
        assert result.ok
        assert not result.failures

    def test_getitem_names_the_verdict(
        self, shrunken_edge, tmp_path
    ):
        result = run_grid(
            mixed_grid(), jobs=1, cache_dir=tmp_path / "c"
        )
        _, infeasible = mixed_grid()
        with pytest.raises(KeyError, match="no tiling fits"):
            result[infeasible]

    def test_never_retried(
        self, shrunken_edge, tmp_path, monkeypatch
    ):
        attempts = []
        real = parallel._run_chain

        def spy(chain, warm_start, chain_index=0, attempt=0,
                indices=None, serial=True):
            attempts.append((chain_index, attempt))
            return real(
                chain, warm_start, chain_index=chain_index,
                attempt=attempt, indices=indices, serial=serial,
            )

        monkeypatch.setattr(parallel, "_run_chain", spy)
        run_grid(
            mixed_grid(), jobs=1, cache_dir=tmp_path / "c",
            retries=3,
        )
        assert all(attempt == 0 for _, attempt in attempts)
        assert len(attempts) == 2  # one attempt per chain, no more


class TestJournalRoundTrip:
    def test_resume_serves_the_verdict(
        self, shrunken_edge, tmp_path, monkeypatch
    ):
        journal = tmp_path / "sweep.jsonl"
        first = run_grid(
            mixed_grid(), jobs=1, cache_dir=tmp_path / "c",
            journal=journal, resume=True,
        )

        def explode(*args, **kwargs):  # pragma: no cover
            raise AssertionError("resume re-ran a completed chain")

        monkeypatch.setattr(parallel, "_run_chain", explode)
        second = run_grid(
            mixed_grid(), jobs=1, cache_dir=tmp_path / "c",
            journal=journal, resume=True,
        )
        feasible, infeasible = mixed_grid()
        assert second.statuses[feasible] == STATUS_SKIPPED
        assert second.statuses[infeasible] == STATUS_INFEASIBLE
        assert (
            second.infeasible[infeasible].diagnosis
            == first.infeasible[infeasible].diagnosis
        )
        assert rendered(second) == rendered(first)


class TestSerialization:
    def test_sweep_result_roundtrip(self, shrunken_edge, tmp_path):
        result = run_grid(
            mixed_grid(), jobs=1, cache_dir=tmp_path / "c"
        )
        document = json.loads(
            json.dumps(sweep_result_to_dict(result), sort_keys=True)
        )
        restored = sweep_result_from_dict(document)
        _, infeasible = mixed_grid()
        assert restored.statuses == result.statuses
        assert (
            restored.infeasible[infeasible].diagnosis
            == result.infeasible[infeasible].diagnosis
        )
        assert rendered(restored) == rendered(result)

    def test_healthy_document_has_no_infeasible_key(self, tmp_path):
        points = [mixed_grid()[0]]
        result = run_grid(points, jobs=1, cache_dir=tmp_path / "c")
        assert "infeasible" not in sweep_result_to_dict(result)


class TestBudgetedSweeps:
    def test_budget_validation(self, tmp_path):
        from repro.runner.errors import SweepConfigError

        with pytest.raises(SweepConfigError, match=">= 1"):
            run_grid(
                mixed_grid(), jobs=1, cache_dir=tmp_path / "c",
                budget=0,
            )

    def test_serial_equals_parallel_under_budget(self, tmp_path):
        points = [
            GridPoint(executor="transfusion", model="t5",
                      seq_len=seq, arch="cloud", batch=4)
            for seq in (512, 1024)
        ] + [
            GridPoint(executor="transfusion", model="llama3",
                      seq_len=1024, arch="edge", batch=4),
        ]
        serial = run_grid(
            points, jobs=1, cache_dir=tmp_path / "s", budget=16
        )
        fanned = run_grid(
            points, jobs=2, cache_dir=tmp_path / "p", budget=16
        )
        assert rendered(serial) == rendered(fanned)
        assert any(
            report.provenance != "complete"
            for report in serial.values()
        )

    def test_budget_does_not_leak_out_of_the_sweep(self, tmp_path):
        import os

        points = [mixed_grid()[0]]
        run_grid(points, jobs=1, cache_dir=tmp_path / "c", budget=16)
        assert "REPRO_BUDGET" not in os.environ
