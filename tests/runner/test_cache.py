"""Tests for the persistent content-addressed plan cache."""

import json
import os

import pytest

from pathlib import Path

from repro.arch.spec import named_architecture
from repro.baselines.registry import EXECUTORS
from repro.model.workload import Workload
from repro.runner.cache import (
    CacheClearFailure,
    CacheCorruption,
    PlanCache,
    arch_fingerprint,
    cache_enabled,
    code_salt,
    default_cache,
    stable_hash,
    workload_fingerprint,
)
from repro.runner.chain import GridPoint, compute_report, report_cache_payload


@pytest.fixture
def cache(tmp_path):
    return PlanCache(tmp_path / "cache")


def _race_quarantine(root, key, barrier, results):
    """Child-process body for the quarantine race test: rendezvous
    at the barrier, then race ``get`` on one corrupt entry."""
    import warnings

    try:
        racing = PlanCache(root)
        barrier.wait()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = racing.get("report", key)
        results.put(("miss" if value is None else "hit", None))
    except Exception as error:   # pragma: no cover - failure path
        results.put(("error", f"{type(error).__name__}: {error}"))


@pytest.fixture
def point():
    return GridPoint(
        executor="unfused", model="t5", seq_len=1024,
        arch="cloud", batch=4,
    )


class TestStableHash:
    def test_deterministic(self):
        payload = {"a": 1, "b": [1.5, "x"], "c": {"d": True}}
        assert stable_hash(payload) == stable_hash(dict(payload))

    def test_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash(
            {"b": 2, "a": 1}
        )

    def test_sensitive_to_values(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_code_salt_stable_within_process(self):
        assert code_salt() == code_salt()
        assert len(code_salt()) == 64

    def test_code_salt_digests_every_module_in_path_order(
        self, monkeypatch
    ):
        # The salt's definition, spelled with pathlib: every module's
        # relative path and bytes, sorted by path.  Cache keys of
        # existing entries depend on it staying exactly this.
        import hashlib
        from pathlib import Path

        import repro
        import repro.runner.cache as cache_mod

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        digest.update(cache_mod.CACHE_SCHEMA.encode())
        digest.update(repro.__version__.encode())
        for source in sorted(root.rglob("*.py")):
            digest.update(str(source.relative_to(root)).encode())
            digest.update(source.read_bytes())
        monkeypatch.setattr(cache_mod, "_code_salt", None)
        assert code_salt() == digest.hexdigest()


class TestPlanCache:
    def test_miss_then_hit_roundtrip(self, cache):
        key = stable_hash({"k": 1})
        assert cache.get("report", key) is None
        assert cache.misses == 1
        value = {"latency": 1.25, "phases": [{"name": "mha"}]}
        cache.put("report", key, value, payload={"k": 1})
        assert cache.get("report", key) == value
        assert cache.hits == 1

    def test_entry_count_and_clear(self, cache):
        for i in range(3):
            cache.put("report", stable_hash({"i": i}), {"i": i})
        assert cache.entry_count() == 3
        assert cache.clear() == 3
        assert cache.entry_count() == 0

    def test_corrupted_entry_recovers(self, cache):
        key = stable_hash({"k": "corrupt"})
        cache.put("tileseek", key, {"ok": True})
        path = cache.path_for("tileseek", key)
        path.write_text("{ not json !!!")
        with pytest.warns(CacheCorruption):
            assert cache.get("tileseek", key) is None
        assert not path.exists()
        # A fresh put works again after recovery.
        cache.put("tileseek", key, {"ok": True})
        assert cache.get("tileseek", key) == {"ok": True}

    def test_entry_missing_value_field_is_a_miss(self, cache):
        key = stable_hash({"k": "truncated"})
        path = cache.path_for("report", key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"payload": {}}))
        with pytest.warns(CacheCorruption):
            assert cache.get("report", key) is None
        assert not path.exists()

    def test_corrupted_entry_quarantined_for_inspection(self, cache):
        """The bad bytes move to <root>/quarantine/ instead of
        vanishing, and the warning names both file and cause."""
        key = stable_hash({"k": "quarantine-me"})
        cache.put("report", key, {"ok": True})
        path = cache.path_for("report", key)
        path.write_text("{ not json !!!")
        with pytest.warns(CacheCorruption) as caught:
            cache.get("report", key)
        # Quarantine names are <entry>.<pid>.<n>.json -- unique per
        # (process, call) so racing replicas never clobber evidence.
        [quarantined] = list(
            (cache.root / "quarantine").glob(f"{path.stem}.*.json")
        )
        assert quarantined.name.split(".")[1] == str(os.getpid())
        assert quarantined.read_text() == "{ not json !!!"
        message = str(caught[0].message)
        assert path.name in message
        assert "quarantine" in message

    def test_corruption_stays_a_miss_under_error_filters(self, cache):
        """With warnings escalated to errors (pytest
        filterwarnings=error, python -W error), a corrupted entry
        must still be a recoverable miss, not a hard failure -- the
        quarantined file is the durable trace."""
        import warnings

        key = stable_hash({"k": "strict-filters"})
        cache.put("report", key, {"ok": True})
        path = cache.path_for("report", key)
        path.write_text("{ not json !!!")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get("report", key) is None
        assert list(
            (cache.root / "quarantine").glob(f"{path.stem}.*.json")
        )
        # Recovery proceeds exactly as in the warning path.
        cache.put("report", key, {"ok": True})
        assert cache.get("report", key) == {"ok": True}

    def test_quarantined_entries_are_not_entries(self, cache):
        key = stable_hash({"k": "not-counted"})
        cache.put("report", key, {"ok": True})
        assert cache.entry_count() == 1
        cache.path_for("report", key).write_text("garbage")
        with pytest.warns(CacheCorruption):
            cache.get("report", key)
        assert cache.entry_count() == 0
        # clear() leaves the quarantined file for post-mortems.
        assert cache.clear() == 0
        assert (cache.root / "quarantine").exists()

    def test_concurrent_quarantine_race_preserves_evidence(
        self, cache
    ):
        """Two processes discovering the same corrupt entry at once:
        exactly one wins the ``os.replace``, the loser's
        ``FileNotFoundError`` is absorbed, both treat it as a miss,
        and the evidence lands in quarantine exactly once -- never
        clobbered, never doubled."""
        import multiprocessing

        key = stable_hash({"k": "raced"})
        cache.put("report", key, {"ok": True})
        path = cache.path_for("report", key)
        path.write_text("{ racing corruption !!!")
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2, timeout=30)
        results = context.Queue()
        workers = [
            context.Process(
                target=_race_quarantine,
                args=(str(cache.root), key, barrier, results),
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        outcomes = [results.get(timeout=60) for _ in workers]
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        # Both processes saw a clean miss, no exception escaped.
        assert outcomes == [("miss", None), ("miss", None)]
        assert not path.exists()
        quarantined = list(
            (cache.root / "quarantine").glob(f"{path.stem}.*.json")
        )
        assert len(quarantined) == 1
        assert quarantined[0].read_text() == (
            "{ racing corruption !!!"
        )

    def test_clear_reports_survivors(self, cache, monkeypatch):
        """A clear() that could not delete everything must say so:
        one CacheClearFailure warning counting and naming the
        survivors, never a silent 'clean sweep'."""
        keys = [stable_hash({"i": i}) for i in range(4)]
        for i, key in enumerate(keys):
            cache.put("report", key, {"i": i})
        blocked = {
            cache.path_for("report", keys[1]),
            cache.path_for("report", keys[2]),
        }
        real_unlink = Path.unlink

        def guarded(self, *args, **kwargs):
            if self in blocked:
                raise PermissionError(13, "injected EACCES")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", guarded)
        with pytest.warns(CacheClearFailure) as caught:
            removed = cache.clear()
        assert removed == 2
        message = str(caught[0].message)
        assert "2 of 4 entries survived" in message
        for path in blocked:
            assert path.exists()
            assert str(path) in message

    def test_clear_survivor_warning_shows_at_most_three(
        self, cache, monkeypatch
    ):
        for i in range(5):
            cache.put("report", stable_hash({"i": i}), {"i": i})

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "injected EACCES")

        monkeypatch.setattr(Path, "unlink", denied)
        with pytest.warns(CacheClearFailure) as caught:
            assert cache.clear() == 0
        message = str(caught[0].message)
        assert "5 of 5 entries survived" in message
        assert "... 2 more" in message

    def test_clear_racing_deletion_is_not_a_survivor(
        self, cache, monkeypatch
    ):
        """An entry another process removed mid-clear vanished --
        that is the goal state, not a failure to report."""
        cache.put("report", stable_hash({"k": 1}), {"ok": True})
        real_unlink = Path.unlink

        def raced(self, *args, **kwargs):
            real_unlink(self, *args, **kwargs)
            raise FileNotFoundError(2, "raced away")

        monkeypatch.setattr(Path, "unlink", raced)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.clear() == 0
        assert cache.entry_count() == 0

    def test_quarantine_fallback_deletes_and_says_so(
        self, cache, monkeypatch
    ):
        """When the quarantine move fails but deletion succeeds, the
        warning must say the evidence is gone."""
        key = stable_hash({"k": "fallback-delete"})
        cache.put("report", key, {"ok": True})
        path = cache.path_for("report", key)
        path.write_text("{ not json !!!")

        def denied(source, destination):
            raise PermissionError(13, "injected EACCES")

        monkeypatch.setattr(os, "replace", denied)
        with pytest.warns(CacheCorruption) as caught:
            assert cache.get("report", key) is None
        message = str(caught[0].message)
        assert "quarantine failed" in message
        assert "entry deleted" in message
        assert not path.exists()

    def test_quarantine_fallback_reports_undeletable_entry(
        self, cache, monkeypatch
    ):
        """EACCES on both the move and the unlink: the entry is
        still on disk and will resurface on every read -- the
        warning must distinguish that from 'deleted'."""
        key = stable_hash({"k": "undeletable"})
        cache.put("report", key, {"ok": True})
        path = cache.path_for("report", key)
        path.write_text("{ not json !!!")

        def denied(source, destination):
            raise PermissionError(13, "injected EACCES")

        real_unlink = Path.unlink

        def no_unlink(self, *args, **kwargs):
            if self == path:
                raise PermissionError(13, "injected EACCES")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(os, "replace", denied)
        monkeypatch.setattr(Path, "unlink", no_unlink)
        with pytest.warns(CacheCorruption) as caught:
            assert cache.get("report", key) is None
        message = str(caught[0].message)
        assert "quarantine failed" in message
        assert "entry still present" in message
        assert "entry deleted" not in message
        assert path.exists()

    def test_entries_are_inspectable_json(self, cache, point):
        payload = report_cache_payload(point)
        key = stable_hash(payload)
        path = cache.put("report", key, {"v": 1}, payload)
        document = json.loads(path.read_text())
        assert document["payload"]["executor"] == "unfused"
        assert document["value"] == {"v": 1}


def instance_payload(point):
    """The report key payload derived the pre-registry way, kept as
    the oracle: executor parameters read off a constructed executor
    instance rather than taken from the registry."""
    from repro.baselines.registry import named_executor
    from repro.resilience.budget import fallback_enabled, resolve_budget

    executor = named_executor(point.executor)
    params = {}
    for attr in ("tileseek_iterations", "seed", "dpipe_options"):
        if hasattr(executor, attr):
            params[attr] = getattr(executor, attr)
    payload = {
        "kind": "report",
        "salt": code_salt(),
        "executor": point.executor,
        "executor_params": params,
        "workload": workload_fingerprint(point.workload()),
        "arch": arch_fingerprint(named_architecture(point.arch)),
    }
    budget = resolve_budget()
    if budget is not None:
        payload["budget"] = budget
    if not fallback_enabled():
        payload["no_fallback"] = True
    return payload


class TestKeyIdentity:
    """The registry-derived key equals the instance-derived one for
    every registered executor, so no existing cache entry moves."""

    @pytest.mark.parametrize("budget", [None, "16"])
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_payload_matches_instance_derivation(
        self, executor, budget, monkeypatch
    ):
        if budget is None:
            monkeypatch.delenv("REPRO_BUDGET", raising=False)
        else:
            monkeypatch.setenv("REPRO_BUDGET", budget)
        point = GridPoint(
            executor=executor, model="t5", seq_len=512,
            arch="cloud", batch=4,
        )
        expected = instance_payload(point)
        actual = report_cache_payload(point)
        assert actual == expected
        assert stable_hash(actual) == stable_hash(expected)


class TestKeyInvalidation:
    def test_arch_change_changes_key(self, point):
        base = report_cache_payload(point)
        other = report_cache_payload(
            GridPoint(
                executor="unfused", model="t5", seq_len=1024,
                arch="edge", batch=4,
            )
        )
        assert stable_hash(base) != stable_hash(other)

    def test_resized_arch_changes_fingerprint(self):
        arch = named_architecture("cloud")
        resized = arch.with_2d_array(128, 128)
        assert arch_fingerprint(arch) != arch_fingerprint(resized)

    def test_mutated_fingerprint_moves_no_later_key(
        self, tmp_path, monkeypatch
    ):
        """The fingerprint memo hands out copies: a caller that
        mutates one changes neither the next fingerprint nor any
        report, tileseek or kernel key."""
        import repro.core.executor as executor_module
        from repro.dpipe.planner import clear_kernel_cache
        from repro.validate import force_validation

        transfusion = GridPoint(
            executor="transfusion", model="t5", seq_len=512,
            arch="cloud", batch=4,
        )

        def entry_keys(root):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
            monkeypatch.setattr(executor_module, "_TILING_CACHE", {})
            clear_kernel_cache()
            with force_validation(False):
                compute_report(transfusion)
            return sorted(
                path.relative_to(root).as_posix()
                for path in root.rglob("*.json")
            )

        monkeypatch.setenv("REPRO_CACHE", "1")
        arch = named_architecture("cloud")
        pristine = json.loads(json.dumps(arch_fingerprint(arch)))
        report_key = stable_hash(report_cache_payload(transfusion))
        keys = entry_keys(tmp_path / "before")

        mutated = arch_fingerprint(arch)
        mutated["name"] = "vandalised"
        mutated["array_2d"]["rows"] = 1
        mutated.clear()

        assert arch_fingerprint(arch) == pristine
        assert arch_fingerprint(named_architecture("cloud")) == pristine
        assert stable_hash(
            report_cache_payload(transfusion)
        ) == report_key
        assert entry_keys(tmp_path / "after") == keys
        assert {key.split("/")[0] for key in keys} == {
            "report", "tileseek", "dpipe-kernel",
        }
        clear_kernel_cache()

    def test_workload_shape_changes_key(self, point):
        base = report_cache_payload(point)
        bigger = report_cache_payload(
            GridPoint(
                executor="unfused", model="t5", seq_len=2048,
                arch="cloud", batch=4,
            )
        )
        assert stable_hash(base) != stable_hash(bigger)

    def test_search_params_change_key(self, monkeypatch, point):
        tf = GridPoint(
            executor="transfusion", model="t5", seq_len=1024,
            arch="cloud", batch=4,
        )
        base = report_cache_payload(tf)
        import repro.runner.chain as chain

        real = chain.executor_params

        def tweaked(name):
            params = real(name)
            if "tileseek_iterations" in params:
                params["tileseek_iterations"] = 123
            return params

        monkeypatch.setattr(chain, "executor_params", tweaked)
        assert stable_hash(base) != stable_hash(
            report_cache_payload(tf)
        )

    def test_workload_fingerprint_includes_model_shape(self):
        from repro.model.config import named_model

        fp = workload_fingerprint(
            Workload(named_model("t5"), seq_len=1024, batch=4)
        )
        assert fp["model"]["d_model"] == named_model("t5").d_model


class TestEnvironmentControl:
    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled()
        assert default_cache() is None

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled()

    def test_cache_dir_env_respected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        cache = default_cache()
        assert cache is not None
        assert cache.root == tmp_path / "c"


class TestComputeReport:
    def test_second_call_served_from_disk(
        self, cache, point, monkeypatch
    ):
        import repro.runner.chain as chain

        calls = {"n": 0}
        real = chain.named_executor

        def spy(name):
            calls["n"] += 1
            return real(name)

        monkeypatch.setattr(chain, "named_executor", spy)
        arch = named_architecture("cloud")
        first = compute_report(point, cache=cache)
        built_after_first = calls["n"]
        second = compute_report(point, cache=cache)
        # The second call builds no executor at all: the report came
        # off disk, and its key comes from the registry's parameters.
        assert built_after_first == 1
        assert calls["n"] == built_after_first
        assert cache.hits == 1
        assert first.latency_seconds(arch) == second.latency_seconds(
            arch
        )
        assert [p.name for p in first.phases] == [
            p.name for p in second.phases
        ]

    def test_corrupted_report_entry_recomputes(self, cache, point):
        arch = named_architecture("cloud")
        first = compute_report(point, cache=cache)
        payload = report_cache_payload(point)
        path = cache.path_for("report", stable_hash(payload))
        assert path.exists()
        path.write_text("garbage")
        second = compute_report(point, cache=cache)
        assert second.latency_seconds(arch) == first.latency_seconds(
            arch
        )
        # The recomputation repaired the entry.
        assert json.loads(path.read_text())["value"]
