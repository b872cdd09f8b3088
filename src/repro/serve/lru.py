"""Code-salt-keyed in-memory LRU for serialized response bodies.

The serving layer answers repeat questions from memory before
touching the worker pool or the content-addressed disk cache.  Two
properties keep that safe:

* **Code-salt keying.**  Every entry records the
  :func:`~repro.runner.cache.code_salt` (the SHA-256 of the
  ``src/repro`` tree) current when it was stored.  A lookup whose
  entry carries a different salt drops the entry and reports a miss
  -- an edited planner can never serve a pre-edit plan, the same
  invalidation contract the disk cache and the sweep journal already
  honor.
* **Size bounding.**  Capacity is a hard entry count; inserting past
  it evicts the least-recently-used entry.  The server's memory is
  bounded no matter how many distinct points clients ask about.

Values are the *canonical response bodies* (strings), not live
objects -- a hit is returned byte-for-byte, which is what makes
cached responses trivially identical to freshly computed ones.

Hit/miss/eviction/invalidation counters are kept on the cache and
surfaced by the server's ``stats`` op (and its HTTP ``/stats``
endpoint).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.runner.cache import code_salt


class SaltedLRU:
    """A size-bounded, code-salt-checked LRU of response bodies.

    Args:
        capacity: Maximum entries; ``0`` disables the cache (every
            ``get`` misses, ``put`` is a no-op).
        salt: The current-salt provider, injectable so tests can
            simulate a ``src/repro`` edit without touching the tree.
    """

    def __init__(
        self,
        capacity: int,
        salt: Callable[[], str] = code_salt,
    ) -> None:
        if capacity < 0:
            from repro.runner.errors import SweepConfigError

            raise SweepConfigError(
                f"LRU capacity must be >= 0, got {capacity}"
            )
        self.capacity = capacity
        self._salt = salt
        self._entries: "OrderedDict[str, Tuple[str, str]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str) -> Optional[str]:
        """The cached body, or ``None`` -- refreshing recency on a hit.

        An entry stored under a different code salt is dropped (the
        ``invalidations`` counter records it) and reported as a miss.
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        salt, body = entry
        if salt != self._salt():
            del self._entries[fingerprint]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return body

    def put(self, fingerprint: str, body: str) -> None:
        """Store ``body`` under the current code salt, evicting LRU
        entries past capacity."""
        if self.capacity == 0:
            return
        self._entries[fingerprint] = (self._salt(), body)
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()

    def stats(self) -> Dict[str, Any]:
        """The counters surfaced by the server's ``stats`` op."""
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
