"""Tests for the failure taxonomy, fault injection and recovery paths."""

import json
import pickle

import pytest

from repro.core.serialize import (
    failure_from_dict,
    failure_to_dict,
    report_to_dict,
    sweep_result_from_dict,
    sweep_result_to_dict,
)
from repro.runner.chain import GridPoint, resolve_jobs
from repro.runner.errors import (
    CacheBrownout,
    CacheClearFailure,
    CacheCorruption,
    ChainTimeout,
    FaultSpecError,
    PointFailure,
    ServerOverloaded,
    SweepConfigError,
    SweepError,
    WorkerCrash,
)
from repro.runner.faults import (
    active_plan,
    backoff_seconds,
    parse_faults,
    resolve_retries,
    resolve_timeout,
)
from repro.runner.parallel import run_grid
from repro.runner.result import SweepResult


def grid(executors=("unfused", "fusemax"), seqs=(512, 1024)):
    """Two cheap chains (one per executor family) by default."""
    return [
        GridPoint(executor=name, model="t5", seq_len=seq,
                  arch="cloud", batch=4)
        for name in executors
        for seq in seqs
    ]


def rendered(reports):
    """Canonical byte rendering of a run_grid result."""
    return [
        (point, json.dumps(report_to_dict(report), sort_keys=True))
        for point, report in reports.items()
    ]


class TestFaultSpec:
    def test_empty_spec_is_empty_plan(self):
        assert not parse_faults("")
        assert not parse_faults(" ; ; ")

    def test_bare_kind_matches_everywhere(self):
        plan = parse_faults("crash")
        assert plan.matching(chain=0, point=7, attempt=3)

    def test_fields_and_params(self):
        plan = parse_faults(
            "crash:chain=2,attempt=0;hang:point=5,seconds=1.5"
        )
        crash, hang = plan.rules
        assert crash.kind == "crash"
        assert crash.where == {"chain": 2, "attempt": 0}
        assert hang.kind == "hang"
        assert hang.where == {"point": 5}
        assert hang.seconds == 1.5

    def test_matching_requires_every_field(self):
        plan = parse_faults("crash:chain=1,attempt=0")
        assert plan.matching(chain=1, attempt=0, point=9)
        assert plan.matching(chain=1, attempt=1) is None
        assert plan.matching(chain=0, attempt=0) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError, match="explode"):
            parse_faults("explode:chain=1")

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultSpecError, match="galaxy"):
            parse_faults("crash:galaxy=1")

    def test_non_integer_value_rejected(self):
        with pytest.raises(FaultSpecError, match="two"):
            parse_faults("crash:chain=two")

    def test_missing_equals_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_faults("crash:chain")

    def test_active_plan_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:chain=3")
        assert active_plan().rules[0].where == {"chain": 3}
        monkeypatch.delenv("REPRO_FAULTS")
        assert not active_plan()

    def test_describe_round_trips(self):
        plan = parse_faults("crash:attempt=0,chain=2")
        assert parse_faults(plan.rules[0].describe()) == plan


class TestIoFaults:
    def test_io_kinds_parse(self):
        plan = parse_faults(
            "disk-full:write=3;slow-io:write=1,seconds=0.5;"
            "cache-evict"
        )
        disk, slow, evict = plan.rules
        assert disk.kind == "disk-full"
        assert disk.where == {"write": 3}
        assert slow.seconds == 0.5
        assert evict.kind == "cache-evict"

    def test_disk_full_raises_enospc(self):
        import errno

        plan = parse_faults("disk-full:write=2")
        with pytest.raises(OSError) as caught:
            plan.fire_io(write=2)
        assert caught.value.errno == errno.ENOSPC
        assert "write=2" in str(caught.value)

    def test_io_rules_match_their_write_site_only(self):
        plan = parse_faults("disk-full:write=2")
        assert plan.fire_io(write=0) is None
        assert plan.fire_io(write=1) is None

    def test_cache_evict_returns_the_rule(self):
        plan = parse_faults("cache-evict:write=5")
        rule = plan.fire_io(write=5)
        assert rule is not None and rule.kind == "cache-evict"

    def test_slow_io_proceeds_after_the_delay(self):
        plan = parse_faults("slow-io:write=0,seconds=0")
        rule = plan.fire_io(write=0)
        assert rule is not None and rule.kind == "slow-io"

    def test_io_kinds_never_fire_in_the_chain_path(self):
        plan = parse_faults("disk-full")
        # A bare io rule must not crash sweep chains or replicas.
        plan.fire(serial=True, chain=0, point=0, attempt=0)
        plan.fire_replica(request=0)

    def test_chain_kinds_never_fire_in_the_io_path(self):
        assert parse_faults("crash").fire_io(write=0) is None

    def test_io_context_carries_replica_index(self, monkeypatch):
        from repro.runner.faults import io_context

        monkeypatch.delenv("REPRO_FLEET_INDEX", raising=False)
        assert io_context(4) == {"write": 4}
        monkeypatch.setenv("REPRO_FLEET_INDEX", "2")
        assert io_context(4) == {"write": 4, "replica": 2}


class TestTaxonomy:
    def failures(self):
        point = GridPoint(executor="unfused", model="t5",
                          seq_len=512, arch="cloud", batch=4)
        return [
            PointFailure(point, 1, 0, "ValueError", "boom"),
            ChainTimeout(2, 1.5, 1),
            WorkerCrash(0, 2, "SIGKILL"),
            CacheCorruption("/tmp/x.json", "bad json"),
            CacheClearFailure("/tmp/cache", "1 of 2 survived"),
            CacheBrownout("/tmp/cache/x.json", "ENOSPC"),
            ServerOverloaded(9, 8, 200),
        ]

    def test_all_are_sweep_errors(self):
        for failure in self.failures():
            assert isinstance(failure, SweepError)

    def test_pickle_round_trip(self):
        """Workers hand failures across the process boundary."""
        for failure in self.failures():
            clone = pickle.loads(pickle.dumps(failure))
            assert type(clone) is type(failure)
            assert str(clone) == str(failure)

    def test_point_failure_carries_structure(self):
        failure = self.failures()[0]
        assert failure.point.executor == "unfused"
        assert failure.chain_index == 1
        assert failure.attempt == 0
        assert failure.error_type == "ValueError"
        assert "boom" in str(failure)

    def test_cache_corruption_is_a_warning(self):
        assert issubclass(CacheCorruption, Warning)

    def test_recoverable_cache_conditions_are_warnings(self):
        assert issubclass(CacheClearFailure, Warning)
        assert issubclass(CacheBrownout, Warning)
        # Overload is a rejection the client must handle, never a
        # warning to be filtered away.
        assert not issubclass(ServerOverloaded, Warning)

    def test_overloaded_names_its_numbers(self):
        error = ServerOverloaded(9, 8, 200)
        assert "9" in str(error)
        assert "8" in str(error)
        assert "200" in str(error)

    def test_config_error_is_a_value_error(self):
        """Pre-taxonomy callers caught ValueError; keep them working."""
        assert issubclass(SweepConfigError, ValueError)

    def test_serialize_round_trip(self):
        for failure in self.failures():
            clone = failure_from_dict(
                json.loads(json.dumps(failure_to_dict(failure)))
            )
            assert type(clone) is type(failure)
            assert str(clone) == str(failure)

    def test_unknown_failure_degrades_to_generic(self):
        document = failure_to_dict(SweepError("odd"))
        assert document["type"] == "SweepError"
        assert isinstance(failure_from_dict(document), SweepError)


class TestConfigResolution:
    def test_non_numeric_jobs_env_is_typed(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(SweepConfigError) as excinfo:
            resolve_jobs()
        assert "REPRO_JOBS" in str(excinfo.value)
        assert "many" in str(excinfo.value)

    def test_timeout_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
        assert resolve_timeout() == 2.5
        monkeypatch.setenv("REPRO_TIMEOUT", "0")
        assert resolve_timeout() is None
        monkeypatch.delenv("REPRO_TIMEOUT")
        assert resolve_timeout() is None
        assert resolve_timeout(3.0) == 3.0

    def test_bad_timeout_env_is_typed(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "soon")
        with pytest.raises(SweepConfigError, match="REPRO_TIMEOUT"):
            resolve_timeout()

    def test_retries_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "3")
        assert resolve_retries() == 3
        monkeypatch.delenv("REPRO_RETRIES")
        assert resolve_retries() == 0
        assert resolve_retries(2) == 2

    def test_bad_retries_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "lots")
        with pytest.raises(SweepConfigError, match="REPRO_RETRIES"):
            resolve_retries()
        with pytest.raises(SweepConfigError):
            resolve_retries(-1)

    def test_backoff_deterministic_and_bounded(self):
        first = backoff_seconds("chain-0", 0, base=0.125)
        assert first == backoff_seconds("chain-0", 0, base=0.125)
        assert 0.125 <= first < 0.25
        later = backoff_seconds("chain-0", 2, base=0.125)
        assert 0.5 <= later < 1.0
        assert backoff_seconds("chain-0", 0, base=0.0) == 0.0


class TestSerialRecovery:
    def test_crash_strict_raises_point_failure(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash:chain=1,attempt=0")
        with pytest.raises(PointFailure) as excinfo:
            run_grid(grid(), jobs=1, cache_dir=tmp_path / "c")
        assert excinfo.value.chain_index == 1
        assert excinfo.value.error_type == "InjectedCrash"

    def test_crash_graceful_returns_partial(
        self, tmp_path, monkeypatch
    ):
        points = grid()
        monkeypatch.setenv("REPRO_FAULTS", "crash:chain=1")
        result = run_grid(points, jobs=1, cache_dir=tmp_path / "c",
                          strict=False)
        assert isinstance(result, SweepResult)
        assert not result.ok
        assert result.counts() == {"ok": 2, "failed": 2}
        # The mapping view only exposes completed points...
        assert list(result) == points[:2]
        assert len(result) == 2
        # ...but statuses/failures cover everything requested.
        assert result.points == points
        for point in points[2:]:
            assert result.statuses[point] == "failed"
            assert isinstance(result.failures[point], PointFailure)
            with pytest.raises(KeyError):
                result[point]
        with pytest.raises(PointFailure):
            result.raise_if_failed()

    def test_retry_completes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        points = grid()
        clean = run_grid(points, jobs=1, cache_dir=tmp_path / "clean")
        monkeypatch.setenv("REPRO_FAULTS", "crash:chain=0,attempt=0")
        retried = run_grid(points, jobs=1,
                           cache_dir=tmp_path / "retry", retries=1)
        assert retried.ok
        assert rendered(retried) == rendered(clean)

    def test_point_matcher_targets_input_index(
        self, tmp_path, monkeypatch
    ):
        points = grid()
        # Input index 1 is the second unfused point (chain 0).
        monkeypatch.setenv("REPRO_FAULTS", "crash:point=1")
        result = run_grid(points, jobs=1, cache_dir=tmp_path / "c",
                          strict=False)
        assert result.statuses[points[0]] == "failed"
        assert result.statuses[points[2]] == "ok"

    def test_worker_exit_maps_to_worker_crash(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "exit:chain=0")
        with pytest.raises(WorkerCrash):
            run_grid(grid(), jobs=1, cache_dir=tmp_path / "c")

    def test_hang_maps_to_chain_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang:chain=1")
        result = run_grid(grid(), jobs=1, cache_dir=tmp_path / "c",
                          strict=False)
        assert result.counts() == {"ok": 2, "timeout": 2}
        for failure in result.failures.values():
            assert isinstance(failure, ChainTimeout)


class TestParallelRecovery:
    def test_worker_exit_respawns_and_retries(
        self, tmp_path, monkeypatch
    ):
        """A dying worker (BrokenProcessPool) only re-runs the lost
        chains, on a fresh pool -- and the recovered sweep is
        byte-identical to a clean serial one."""
        points = grid()
        clean = run_grid(points, jobs=1, cache_dir=tmp_path / "clean")
        monkeypatch.setenv("REPRO_FAULTS", "exit:chain=0,attempt=0")
        recovered = run_grid(points, jobs=2,
                             cache_dir=tmp_path / "broken",
                             retries=1)
        assert recovered.ok
        assert rendered(recovered) == rendered(clean)

    def test_pool_broken_while_submitting_reruns_the_rest(
        self, tmp_path, monkeypatch
    ):
        """A worker can die before every chain is queued, so
        ``submit`` itself raises ``BrokenProcessPool``.  The chains
        not yet queued never ran: they rerun on the next round's
        pool, uncharged, and the sweep still matches a clean one."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        points = grid()
        clean = run_grid(points, jobs=1, cache_dir=tmp_path / "clean")
        real_submit = ProcessPoolExecutor.submit
        submits = []
        pools = []

        def breaking_submit(self, *args, **kwargs):
            # The first pool breaks after accepting one chain.
            submits.append(self)
            if self not in pools:
                pools.append(self)
            if self is pools[0] and submits.count(self) > 1:
                raise BrokenProcessPool("worker died mid-submit")
            return real_submit(self, *args, **kwargs)

        monkeypatch.setattr(
            ProcessPoolExecutor, "submit", breaking_submit
        )
        recovered = run_grid(points, jobs=2,
                             cache_dir=tmp_path / "broken")
        assert len(pools) == 2
        assert recovered.ok
        assert rendered(recovered) == rendered(clean)

    def test_worker_exit_graceful_marks_lost_chains(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "exit:chain=0,attempt=0")
        result = run_grid(grid(), jobs=2, cache_dir=tmp_path / "c",
                          strict=False)
        assert not result.ok
        assert all(
            isinstance(f, WorkerCrash)
            for f in result.failures.values()
        )

    def test_crash_parallel_matches_serial(
        self, tmp_path, monkeypatch
    ):
        points = grid()
        monkeypatch.setenv("REPRO_FAULTS", "crash:chain=1")
        serial = run_grid(points, jobs=1,
                          cache_dir=tmp_path / "serial",
                          strict=False)
        parallel = run_grid(points, jobs=2,
                            cache_dir=tmp_path / "parallel",
                            strict=False)
        assert serial.counts() == parallel.counts() == {
            "ok": 2, "failed": 2,
        }
        assert rendered(serial) == rendered(parallel)

    def test_hung_worker_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang:chain=1,seconds=3")
        result = run_grid(grid(), jobs=2, cache_dir=tmp_path / "c",
                          timeout=0.75, strict=False)
        assert result.counts() == {"ok": 2, "timeout": 2}
        for failure in result.failures.values():
            assert isinstance(failure, ChainTimeout)
            assert failure.seconds == 0.75

    def test_retry_after_injected_retryable_crash(
        self, tmp_path, monkeypatch
    ):
        points = grid()
        clean = run_grid(points, jobs=1, cache_dir=tmp_path / "clean")
        monkeypatch.setenv("REPRO_FAULTS", "crash:chain=1,attempt=0")
        recovered = run_grid(points, jobs=2,
                             cache_dir=tmp_path / "r", retries=1)
        assert recovered.ok
        assert rendered(recovered) == rendered(clean)

    def test_hung_workers_are_killed_after_recovery(
        self, tmp_path, monkeypatch
    ):
        """Abandoning a timed-out pool must not leave its hung
        worker burning CPU: run_grid kills the abandoned workers, so
        no child outlives the sweep (a 60 s injected hang would
        otherwise linger)."""
        import multiprocessing
        import time

        monkeypatch.setenv(
            "REPRO_FAULTS", "hang:chain=0,attempt=0,seconds=60"
        )
        start = time.monotonic()
        result = run_grid(grid(), jobs=2, cache_dir=tmp_path / "c",
                          timeout=3.0, retries=1)
        assert result.ok
        # Detection is prompt (deadline-based), nowhere near the 60 s
        # the injected hang would sleep.
        assert time.monotonic() - start < 30
        deadline = time.monotonic() + 10
        while (multiprocessing.active_children()
               and time.monotonic() < deadline):
            time.sleep(0.1)
        assert multiprocessing.active_children() == []

    def test_queued_chain_survives_all_workers_hanging(
        self, tmp_path, monkeypatch
    ):
        """With every worker wedged on a timed-out chain, a chain
        still waiting in the queue is re-run on the fresh pool
        without being charged an attempt -- it never started, so it
        must not burn a retry or be reported as a timeout."""
        points = grid(
            executors=("unfused", "fusemax", "transfusion")
        )
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "hang:chain=0,attempt=0,seconds=60;"
            "hang:chain=1,attempt=0,seconds=60",
        )
        result = run_grid(points, jobs=2, cache_dir=tmp_path / "c",
                          timeout=5.0, retries=1)
        assert result.ok
        assert set(result.statuses.values()) == {"ok"}


class TestSweepResultSerialization:
    def test_round_trip_with_failures(self, tmp_path, monkeypatch):
        points = grid()
        monkeypatch.setenv("REPRO_FAULTS", "crash:chain=1")
        result = run_grid(points, jobs=1, cache_dir=tmp_path / "c",
                          strict=False)
        clone = sweep_result_from_dict(
            json.loads(json.dumps(sweep_result_to_dict(result)))
        )
        assert clone.points == result.points
        assert clone.statuses == result.statuses
        assert rendered(clone) == rendered(result)
        for point, failure in result.failures.items():
            assert type(clone.failures[point]) is type(failure)
            assert str(clone.failures[point]) == str(failure)

    def test_round_trip_all_ok(self, tmp_path):
        points = grid(executors=("unfused",))
        result = run_grid(points, jobs=1, cache_dir=tmp_path / "c")
        clone = sweep_result_from_dict(sweep_result_to_dict(result))
        assert clone.ok
        assert rendered(clone) == rendered(result)
