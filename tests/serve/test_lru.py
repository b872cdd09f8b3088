"""SaltedLRU unit tests: eviction, size bound, salt invalidation.

The serving LRU must never outlive the code that produced its
entries: a simulated ``src/repro`` edit (an injected salt change)
drops every stale entry on access, exactly like the disk cache's
code-salt keying and the journal's salt-checked lines.
"""

from __future__ import annotations

from repro.serve.app import ServeApp
from repro.serve.lru import SaltedLRU
from repro.runner.errors import SweepConfigError
from repro.runner.pool import InlineWorkerPool
from tests.serve.conftest import doc_of, plan_request

import pytest


class MutableSalt:
    """An injectable stand-in for ``code_salt()``."""

    def __init__(self, value: str = "salt-a") -> None:
        self.value = value

    def __call__(self) -> str:
        return self.value


class TestEviction:
    def test_size_bound_is_hard(self):
        lru = SaltedLRU(3, salt=MutableSalt())
        for index in range(10):
            lru.put(f"k{index}", f"body{index}")
        assert len(lru) == 3
        assert lru.evictions == 7

    def test_least_recently_used_goes_first(self):
        lru = SaltedLRU(2, salt=MutableSalt())
        lru.put("a", "A")
        lru.put("b", "B")
        assert lru.get("a") == "A"  # refresh a: b is now LRU
        lru.put("c", "C")
        assert lru.get("b") is None
        assert lru.get("a") == "A"
        assert lru.get("c") == "C"

    def test_overwrite_refreshes_recency(self):
        lru = SaltedLRU(2, salt=MutableSalt())
        lru.put("a", "A")
        lru.put("b", "B")
        lru.put("a", "A2")
        lru.put("c", "C")
        assert lru.get("a") == "A2"
        assert lru.get("b") is None

    def test_zero_capacity_disables(self):
        lru = SaltedLRU(0, salt=MutableSalt())
        lru.put("a", "A")
        assert lru.get("a") is None
        assert len(lru) == 0

    def test_negative_capacity_is_a_config_error(self):
        with pytest.raises(SweepConfigError):
            SaltedLRU(-1)


class TestSaltInvalidation:
    def test_stale_entries_reject_after_code_edit(self):
        salt = MutableSalt("before-edit")
        lru = SaltedLRU(8, salt=salt)
        lru.put("k", "stale-body")
        assert lru.get("k") == "stale-body"
        salt.value = "after-edit"  # simulated src/repro edit
        assert lru.get("k") is None
        assert lru.invalidations == 1
        assert len(lru) == 0
        lru.put("k", "fresh-body")
        assert lru.get("k") == "fresh-body"

    def test_counters(self):
        salt = MutableSalt()
        lru = SaltedLRU(8, salt=salt)
        assert lru.get("missing") is None
        lru.put("k", "body")
        lru.get("k")
        stats = lru.stats()
        assert stats == {
            "capacity": 8, "size": 1, "hits": 1, "misses": 1,
            "evictions": 0, "invalidations": 0,
        }


class TestStatsOverTheWire:
    def test_hit_miss_stats_surface_in_stats_response(self):
        app = ServeApp(InlineWorkerPool(), pressure=0)
        try:
            doc_of(app, plan_request())   # miss + search
            doc_of(app, plan_request())   # hit
            stats = doc_of(app, {"op": "stats", "id": "s1"})
        finally:
            app.close()
        assert stats["ok"] is True
        assert stats["id"] == "s1"
        assert stats["lru"]["hits"] == 1
        assert stats["lru"]["misses"] == 1
        assert stats["lru"]["size"] == 1
        assert stats["searches"] == 1
        assert stats["pool"]["serial"] is True

    def test_salt_invalidation_end_to_end(self, monkeypatch):
        """A simulated src/repro edit drops the app's cached body."""
        salt = MutableSalt("v1")
        app = ServeApp(
            InlineWorkerPool(), lru=SaltedLRU(8, salt=salt),
            pressure=0,
        )
        try:
            doc_of(app, plan_request())
            assert app.searches == 1
            doc_of(app, plan_request())
            assert app.searches == 1  # served from the LRU
            salt.value = "v2"
            doc_of(app, plan_request())
            assert app.searches == 2  # stale entry rejected
            assert app.lru.invalidations == 1
        finally:
            app.close()
