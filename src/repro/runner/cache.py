"""Content-addressed persistent result cache for sweep runs.

Every paper figure re-prices the same (executor, model, sequence,
architecture) grid, and :mod:`scripts.reproduce_all` spawns one
benchmark process per figure -- without a persistent cache each
process pays the full TileSeek + DPipe planning cost from scratch.
This module keys each result by a stable content hash of *everything
that determines it*:

* the executor name and its search parameters,
* the full workload shape (model config, sequence, batch, masking),
* the full architecture spec (arrays, buffer, DRAM, energy model),
* any warm-start assignments injected into the tiling search, and
* a code-version salt (a hash of the ``repro`` source tree), so any
  change to the cost model or schedulers invalidates every entry
  automatically.

Values are the JSON documents produced by
:mod:`repro.core.serialize` (:class:`~repro.sim.stats.RunReport` and
:class:`~repro.tileseek.search.TileSeekResult` round-trip exactly, so
a cache hit is byte-identical to a recomputation).  The DPipe planner
also persists its ``n_epochs``-free schedule kernels here (kind
``"dpipe-kernel"``, see :mod:`repro.dpipe.planner`), so a fresh
process skips the branch-and-bound searches for layers any earlier
run has already planned.

Resource-exhaustion resilience (disk tier):

* **Byte budget.** ``REPRO_CACHE_MAX_BYTES`` caps the cache's
  on-disk footprint; every successful write (and ``repro cache gc``)
  runs a deterministic GC that evicts entries oldest-mtime-first
  (lexical relative-path tie-break) until the cache fits.  Eviction
  is concurrency-safe without locks: each victim is atomically
  renamed aside first and restored if a racing writer refreshed the
  entry in between, so two racing processes never double-count a
  delete, never deadlock, and a ``put`` racing a ``gc`` on the same
  key always leaves a valid entry behind.
* **Brownout.** ``ENOSPC``/``EDQUOT`` on any write flips the cache
  (per root, process-wide) into *brownout*: writes are skipped --
  cold results recompute, reads still serve -- and every
  ``BROWNOUT_PROBE_WRITES`` skipped writes one probe write re-tries
  the disk, exiting brownout on success.  Both transitions are
  appended (best-effort) to ``<root>/brownout.jsonl`` and surfaced
  as :class:`~repro.runner.errors.CacheBrownout` warnings; writes
  stay tmpfile + ``os.replace`` atomic throughout, so a full disk
  can tear a temp file but never a live entry.

Environment variables:

* ``REPRO_CACHE_DIR`` -- cache root (default
  ``~/.cache/repro-transfusion``).
* ``REPRO_CACHE`` -- set to ``0``/``off``/``false`` to disable the
  persistent layer entirely (in-process memoization still applies).
* ``REPRO_CACHE_MAX_BYTES`` -- byte budget enforced by the GC
  (unset means uncapped, the historical behavior).
"""

from __future__ import annotations

import dataclasses
import enum
import errno
import hashlib
import itertools
import json
import os
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.runner.errors import (
    CacheBrownout,
    CacheClearFailure,
    CacheCorruption,
)
from repro.settings import armed_faults, env_bool, env_int

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE = "REPRO_CACHE"
ENV_CACHE_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIR = "quarantine"

#: Monotonic per-process counter making quarantine filenames unique:
#: two quarantines of the same entry name (same process or -- via the
#: pid component -- concurrent processes) never collide or clobber
#: each other's evidence.
_quarantine_counter = itertools.count()

#: Monotonic per-process counter making GC trash filenames unique
#: (same contract as the quarantine counter: racing evictors never
#: collide).
_gc_counter = itertools.count()

#: JSONL file (under the cache root) recording brownout transitions.
BROWNOUT_JOURNAL = "brownout.jsonl"

#: Skipped writes between brownout re-probes: after this many
#: cache-off misses the next ``put`` attempts the disk again.
BROWNOUT_PROBE_WRITES = 16

#: The errno values that mean "out of space", not "broken cache".
_BROWNOUT_ERRNOS = (errno.ENOSPC, getattr(errno, "EDQUOT", errno.ENOSPC))

#: Brownout state per cache root, process-wide so every
#: :class:`PlanCache` instance over the same directory (the default
#: cache is re-resolved per call site) shares one disk verdict.
#: Value: writes left to skip before the next probe.
_brownouts: Dict[str, int] = {}

#: Bump to invalidate every cache entry across a format change.
CACHE_SCHEMA = "1"

_code_salt: Optional[str] = None


def code_salt() -> str:
    """Hash of the installed ``repro`` source tree (plus the schema
    version).

    Any edit to any module under ``src/repro`` -- cost model, search,
    scheduler -- changes the salt and therefore every cache key, so
    stale results can never leak across code versions.  Computed once
    per process (~1 MB of source, a few milliseconds).
    """
    global _code_salt
    if _code_salt is None:
        import repro

        digest = hashlib.sha256()
        digest.update(CACHE_SCHEMA.encode())
        digest.update(repro.__version__.encode())
        package_root = os.path.dirname(os.path.realpath(repro.__file__))
        # Every module's relative path (ordered component by component)
        # and bytes.  Every plan process pays this walk; os.walk costs
        # half of what pathlib's rglob does.
        for parts in sorted(
            os.path.relpath(os.path.join(directory, name), package_root)
            .split(os.sep)
            for directory, _, names in os.walk(package_root)
            for name in names
            if name.endswith(".py")
        ):
            digest.update(os.path.join(*parts).encode())
            with open(os.path.join(package_root, *parts), "rb") as handle:
                digest.update(handle.read())
        _code_salt = digest.hexdigest()
    return _code_salt


def _jsonable(value: Any) -> Any:
    """Fallback encoder for key payloads (enums, dataclasses, sets)."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(
        f"cannot hash {type(value).__name__} into a cache key"
    )


def resolve_cache_max_bytes(
    max_bytes: Optional[int] = None,
) -> Optional[int]:
    """The cache byte budget: argument, else
    ``REPRO_CACHE_MAX_BYTES``, else ``None`` (uncapped)."""
    if max_bytes is not None:
        return max_bytes
    return env_int(
        ENV_CACHE_MAX_BYTES, "a cache byte budget", minimum=1
    )


def brownout_active(root: Union[str, Path]) -> bool:
    """Whether the cache at ``root`` is in write brownout."""
    return str(root) in _brownouts


def _warn(warning: Warning) -> None:
    """Surface a cache warning, swallowing its own escalation.

    Under error warning filters (pytest ``filterwarnings = error``,
    ``python -W error``) ``warnings.warn`` raises the instance
    itself; every cache condition warned about here is recoverable
    (entries are recomputable), so the escalation is swallowed and
    the warning text stays the durable trace.
    """
    try:
        warnings.warn(warning, stacklevel=3)
    except type(warning):
        pass


def stable_hash(payload: Mapping[str, Any]) -> str:
    """Deterministic SHA-256 over a canonical JSON rendering."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"),
        default=_jsonable,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def workload_fingerprint(workload: Any) -> Dict[str, Any]:
    """JSON-safe identity of a workload (model shapes included).

    Two models with the same *name* but different shapes must never
    share cache entries, so the full :class:`ModelConfig` is part of
    the fingerprint.
    """
    return dataclasses.asdict(workload)


#: Canonical JSON of each architecture spec fingerprinted so far,
#: keyed by the (frozen, hashable) spec's value.  Holding text rather
#: than the dict means no caller can corrupt the memo.
_ARCH_FINGERPRINTS: Dict[Any, str] = {}


def arch_fingerprint(arch: Any) -> Dict[str, Any]:
    """JSON-safe identity of an architecture spec.

    The full spec content is hashed -- arrays, buffer, DRAM, clock,
    word size and energy model -- so resized (:meth:`with_2d_array`)
    or sensitivity-scaled variants never collide with the presets
    they were derived from.  The spec is rendered once per distinct
    value; every call returns a fresh dict the caller may mutate.
    """
    rendered = _ARCH_FINGERPRINTS.get(arch)
    if rendered is None:
        fingerprint = dataclasses.asdict(arch)
        for key in ("array_2d", "array_1d", "buffer", "dram"):
            fingerprint[key]["kind"] = fingerprint[key]["kind"].value
        rendered = json.dumps(fingerprint)
        _ARCH_FINGERPRINTS[arch] = rendered
    return json.loads(rendered)


class PlanCache:
    """A content-addressed on-disk cache of serialized results.

    Entries live under ``<root>/<kind>/<key[:2]>/<key>.json`` as
    pretty-printed JSON holding the key payload (for inspection) and
    the serialized value.  Writes are atomic (temp file + rename);
    corrupted or truncated entries are moved to
    ``<root>/quarantine/`` on read -- surfacing a
    :class:`~repro.runner.errors.CacheCorruption` warning and leaving
    the bad bytes inspectable -- and treated as misses, so a killed
    process can never poison later runs.

    Args:
        root: Cache directory.  ``None`` resolves ``REPRO_CACHE_DIR``
            and falls back to ``~/.cache/repro-transfusion``.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is None:
            root = os.environ.get(ENV_CACHE_DIR) or (
                Path.home() / ".cache" / "repro-transfusion"
            )
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.brownout_skips = 0

    def path_for(self, kind: str, key: str) -> Path:
        """Entry path for one (kind, key) pair."""
        return self.root / kind / key[:2] / f"{key}.json"

    def get(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        """The stored value document, or ``None`` on miss.

        A corrupted entry (unreadable, invalid JSON, or missing the
        value field) is quarantined with a
        :class:`~repro.runner.errors.CacheCorruption` warning and
        reported as a miss.
        """
        path = self.path_for(kind, key)
        try:
            document = json.loads(path.read_text())
            value = document["value"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as error:
            self.quarantine(path, error)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def quarantine(self, path: Path, error: Exception) -> None:
        """Move a corrupted entry aside and surface a warning.

        The bad file is preserved under ``<root>/quarantine/`` for
        post-mortem inspection (falling back to deletion if the move
        itself fails), and a
        :class:`~repro.runner.errors.CacheCorruption` warning names
        both the entry and the parse error -- silent data loss is
        how cost-model bugs hide.

        Quarantine filenames are ``<entry>.<pid>.<n>`` -- unique per
        (process, call) -- so two processes racing on the same corrupt
        entry, or the same entry corrupted and quarantined twice,
        never clobber earlier evidence.  The loser of a race finds
        the entry already gone (the winner moved it) and reports
        that, rather than deleting or overwriting anything.
        """
        detail = f"{type(error).__name__}: {error}"
        destination = self.root / QUARANTINE_DIR / (
            f"{path.stem}.{os.getpid()}."
            f"{next(_quarantine_counter)}{path.suffix}"
        )
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
            detail = f"{detail} (quarantined to {destination})"
        except FileNotFoundError:
            # A concurrent reader already quarantined (or a writer
            # already replaced) this entry; its evidence is safe
            # elsewhere and there is nothing left to move.
            detail = (
                f"{detail} (already quarantined by a concurrent "
                f"process)"
            )
        except OSError as move_error:
            # The move can fail without the entry being gone (a
            # read-only cache dir, a full quarantine volume).  Fall
            # back to deletion, and -- crucially -- say which of the
            # two outcomes happened: an undeletable corrupt entry
            # stays on disk and will surface again on every read.
            try:
                path.unlink()
                detail = (
                    f"{detail} (quarantine failed: {move_error}; "
                    f"entry deleted)"
                )
            except OSError as unlink_error:
                detail = (
                    f"{detail} (quarantine failed: {move_error}; "
                    f"entry still present: {unlink_error})"
                )
        _warn(CacheCorruption(path, detail))

    def put(
        self,
        kind: str,
        key: str,
        value: Dict[str, Any],
        payload: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Store ``value`` under ``(kind, key)`` atomically.

        Args:
            kind: Entry namespace (``"report"`` / ``"tileseek"`` /
                ``"dpipe-kernel"``).
            key: Content hash from :func:`stable_hash`.
            value: JSON-safe serialized result.
            payload: The key payload, archived alongside the value so
                entries stay human-inspectable.

        During brownout (a previous write hit ``ENOSPC``/``EDQUOT``)
        the write is skipped -- a cache-off miss -- except for the
        periodic probe that re-tries the disk; the returned path may
        then not exist.  A write that hits the disk limit itself
        enters brownout instead of raising: cached results are
        always recomputable, so a full disk degrades, never crashes.
        """
        path = self.path_for(kind, key)
        if not self._admit_write():
            return path
        write_index = self.writes
        self.writes += 1
        document = {"payload": dict(payload or {}), "value": value}
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        rule = None
        try:
            plan = armed_faults()
            if plan:
                rule = plan.fire_io(write=write_index)
            path.parent.mkdir(parents=True, exist_ok=True)
            temp.write_text(
                json.dumps(document, indent=2, sort_keys=True,
                           default=_jsonable)
                + "\n"
            )
            os.replace(temp, path)
        except OSError as error:
            if error.errno not in _BROWNOUT_ERRNOS:
                raise
            # Out of space: drop the (possibly torn) temp file --
            # the live entry was never touched -- and brown out.
            try:
                temp.unlink()
            except OSError:
                pass
            self._enter_brownout(path, error)
            return path
        self._exit_brownout(path)
        if rule is not None and rule.kind == "cache-evict":
            # Injected eviction: the entry vanishes right after the
            # write, as if a concurrent GC chose it as a victim.
            try:
                path.unlink()
            except OSError:
                pass
        max_bytes = resolve_cache_max_bytes()
        if max_bytes is not None:
            self.gc(max_bytes)
        return path

    def _entries(self):
        """Live entry files (quarantined files are not entries)."""
        if not self.root.exists():
            return
        for entry in self.root.rglob("*.json"):
            relative = entry.relative_to(self.root)
            if relative.parts and relative.parts[0] == QUARANTINE_DIR:
                continue
            yield entry

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Entries that cannot be deleted (permissions, a racing
        process holding the directory) are *reported*: one
        :class:`~repro.runner.errors.CacheClearFailure` warning
        names the survivors, instead of a silent "clean sweep" that
        left stale entries to serve later reads.
        """
        removed = 0
        survivors = []
        for entry in self._entries():
            try:
                entry.unlink()
                removed += 1
            except FileNotFoundError:
                # A racing clear/GC already removed it: not a
                # survivor, just not ours to count.
                continue
            except OSError:
                survivors.append(entry)
        if survivors:
            shown = ", ".join(str(path) for path in survivors[:3])
            if len(survivors) > 3:
                shown = f"{shown}, ... {len(survivors) - 3} more"
            _warn(CacheClearFailure(
                self.root,
                f"{len(survivors)} of "
                f"{removed + len(survivors)} entries survived "
                f"deletion ({shown})",
            ))
        return removed

    # ------------------------------------------------------------------
    # Disk pressure: byte budget, GC, brownout, scrub
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Disk usage and pressure state, JSON-safe.

        The payload behind ``repro cache stats`` and the serve
        layer's ``/healthz`` enrichment: entry/byte totals, the
        configured budget, the quarantine population and whether the
        root is in write brownout.
        """
        entries = 0
        total = 0
        for _, _, _, size, _ in self._scan():
            entries += 1
            total += size
        quarantined = 0
        quarantine_root = self.root / QUARANTINE_DIR
        if quarantine_root.exists():
            quarantined = sum(
                1 for item in quarantine_root.iterdir()
                if item.is_file()
            )
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total,
            "max_bytes": resolve_cache_max_bytes(),
            "quarantined": quarantined,
            "brownout": brownout_active(self.root),
        }

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, Any]:
        """Evict oldest entries until the cache fits ``max_bytes``.

        Deterministic: victims are chosen oldest-``st_mtime_ns``
        first with the relative POSIX path as tie-break, quarantined
        files are never candidates, and the same directory state
        always evicts the same entries.  Concurrency-safe without
        locks: see :meth:`_evict` -- racing GCs never double-count a
        victim, and a racing ``put`` on a victim's key keeps its
        fresh entry.

        Args:
            max_bytes: Budget override; defaults to
                ``REPRO_CACHE_MAX_BYTES``.  ``None`` with the env
                unset is a no-op scan.

        Returns:
            A JSON-safe summary: entries/bytes removed and the
            bytes believed to remain.
        """
        cap = resolve_cache_max_bytes(max_bytes)
        scanned = sorted(
            self._scan(),
            key=lambda item: (item[0], item[1]),
        )
        total = sum(size for _, _, _, size, _ in scanned)
        removed = 0
        freed = 0
        if cap is not None:
            for mtime_ns, _, entry, size, inode in scanned:
                if total - freed <= cap:
                    break
                evicted = self._evict(entry, (inode, mtime_ns))
                if evicted:
                    removed += 1
                    freed += evicted
        return {
            "removed": removed,
            "freed_bytes": freed,
            "bytes": total - freed,
            "max_bytes": cap,
        }

    def scrub(self) -> Dict[str, int]:
        """Read-validate every entry, quarantining corrupt ones.

        The ``repro cache scrub`` verb and the overload-chaos CI
        assertion that a storm plus a mid-storm disk-full left zero
        torn entries: every surviving file must parse and carry a
        value document.
        """
        checked = 0
        quarantined = 0
        for entry in list(self._entries()):
            checked += 1
            try:
                json.loads(entry.read_text())["value"]
            except FileNotFoundError:
                # Raced away by GC/clear mid-scrub: nothing to
                # validate, nothing corrupt.
                checked -= 1
            except (OSError, ValueError, KeyError, TypeError) as error:
                self.quarantine(entry, error)
                quarantined += 1
        return {"checked": checked, "quarantined": quarantined}

    def _scan(self) -> Iterable[Tuple[int, str, Path, int, int]]:
        """``(mtime_ns, relative posix path, path, size, inode)`` per
        live entry, tolerating files vanishing mid-scan."""
        for entry in self._entries():
            try:
                stat = entry.stat()
            except OSError:
                continue
            yield (
                stat.st_mtime_ns,
                entry.relative_to(self.root).as_posix(),
                entry,
                stat.st_size,
                stat.st_ino,
            )

    def _evict(self, entry: Path, expected: Tuple[int, int]) -> int:
        """Remove one GC victim; returns the bytes freed (0 if the
        eviction was skipped or lost a race).

        ``expected`` is the victim's ``(st_ino, st_mtime_ns)`` as the
        GC's scan saw it.  The victim is atomically renamed to a
        unique trash name first.  Whatever inode sat at the entry
        path moves in one step, so two racing GCs can never both
        count the same victim (the loser's rename finds nothing), and
        if a racing ``put`` replaced the entry *after* this GC
        scanned it, the fresh entry is detected and restored -- a
        ``put`` racing a ``gc`` on the same key always leaves the old
        or the new valid entry, never neither.  The inode is what
        identifies the fresh file: a ``put`` landing within one
        timestamp tick of the scanned write can carry an equal mtime,
        but it is a new file (written to a temp name, then renamed
        over the entry) and so a new inode.
        """
        trash = entry.with_name(
            f".{entry.name}.{os.getpid()}."
            f"{next(_gc_counter)}.gc"
        )
        try:
            os.rename(entry, trash)
        except OSError:
            # Already evicted (or quarantined) by a racing process.
            return 0
        try:
            moved = trash.stat()
        except OSError:
            return 0
        if (moved.st_ino, moved.st_mtime_ns) != expected:
            # We grabbed a racing writer's *fresh* entry -- put it
            # back (clobbering nothing newer than itself: replace
            # is atomic, and any third writer's entry is identical
            # content under the same key anyway).
            try:
                os.replace(trash, entry)
            except OSError:
                pass
            return 0
        size = moved.st_size
        try:
            trash.unlink()
        except OSError:
            return 0
        return size

    # ------------------------------------------------------------------
    # Brownout state machine
    # ------------------------------------------------------------------
    @property
    def brownout(self) -> bool:
        """Whether this cache's root is in write brownout."""
        return brownout_active(self.root)

    def _admit_write(self) -> bool:
        """Whether a ``put`` may touch the disk right now.

        Outside brownout: always.  Inside: skip (and count) writes
        until the probe countdown reaches zero, then admit one probe
        write -- its success exits brownout, its failure re-enters
        with a fresh countdown.
        """
        key = str(self.root)
        left = _brownouts.get(key)
        if left is None:
            return True
        if left > 0:
            _brownouts[key] = left - 1
            self.brownout_skips += 1
            return False
        return True

    def _enter_brownout(self, path: Path, error: OSError) -> None:
        key = str(self.root)
        probing = key in _brownouts
        _brownouts[key] = BROWNOUT_PROBE_WRITES
        detail = f"{type(error).__name__}: {error}"
        if not probing:
            self._journal_brownout("brownout", path, detail)
            _warn(CacheBrownout(
                path,
                f"{detail}; cache writes suspended, probing every "
                f"{BROWNOUT_PROBE_WRITES} writes",
            ))

    def _exit_brownout(self, path: Path) -> None:
        key = str(self.root)
        if _brownouts.pop(key, None) is not None:
            self._journal_brownout(
                "recovered", path, "probe write succeeded"
            )

    def _journal_brownout(
        self, event: str, path: Path, detail: str
    ) -> None:
        """Best-effort append to ``<root>/brownout.jsonl``.

        Under a genuinely full disk this append can itself fail --
        that is fine, the warning and the ``stats()``/healthz state
        still carry the signal; under *injected* disk-full faults
        the disk is healthy and the line always lands.
        """
        from repro.runner.journal import append_line

        entry = {
            "v": 1,
            "ts": time.time(),
            "event": event,
            "entry": str(path),
            "detail": detail,
        }
        try:
            append_line(
                str(self.root / BROWNOUT_JOURNAL),
                json.dumps(entry, sort_keys=True),
            )
        except OSError:
            pass


def cache_enabled() -> bool:
    """Whether the persistent layer is enabled (``REPRO_CACHE``)."""
    return env_bool(ENV_CACHE, default=True)


def default_cache() -> Optional[PlanCache]:
    """The environment-configured cache, or ``None`` when disabled."""
    if not cache_enabled():
        return None
    return PlanCache()
