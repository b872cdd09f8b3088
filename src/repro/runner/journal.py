"""Sweep journal: checkpoint completed grid points for resume.

A sweep that dies halfway -- killed process, crashed worker, power
loss -- should not have to re-derive what it already finished.  The
engine appends one JSON line per completed point to a journal file::

    {"v": 1, "fingerprint": ..., "key": ..., "point": {...}}

``fingerprint`` identifies the point (its full :class:`GridPoint`
fields); ``key`` is the content-address of the
point's report in the persistent :class:`~repro.runner.cache.PlanCache`.
On ``run_grid(..., resume=True)`` the engine reloads the journal and
serves any chain whose every point is journaled *and* still present
in the cache straight from disk -- no executor is even constructed.

Provably infeasible points (no tiling fits the buffer; see
:class:`~repro.runner.errors.InfeasiblePoint`) are terminal too, but
have no cache entry to point at.  They get their own line shape --
``"infeasible"`` (the serialized diagnosis) instead of ``"key"`` --
so resume can skip them without re-deriving the proof, and journals
written by older code versions are unaffected (their loader keyed on
``"key"`` and skips the new lines).

Staleness is rejected explicitly: every line records the
:func:`~repro.runner.cache.code_salt` of the source tree that wrote
it, and :meth:`SweepJournal.load` drops lines whose salt differs
from the current tree's.  (Merely storing salted cache keys would
not be enough -- old-salt cache entries are never evicted, so a
stale journaled key would still *hit* the stale entry.  The salt
check makes an edited source tree recompute instead.)

Appends are single ``write`` calls of complete lines, flushed and
``fsync``-ed before the file is closed, so a journal truncated by a
crash (or a killed server) loses at most its torn final line --
which the loaders skip with a
:class:`~repro.runner.errors.JournalTruncation` warning instead of
raising (see :func:`append_line` / :func:`warn_truncation`, shared
with the serve journal).
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.runner.cache import PlanCache, code_salt, stable_hash
from repro.runner.errors import JournalTruncation


def append_line(path: Union[str, os.PathLike], line: str) -> None:
    """Append one complete journal line durably.

    One ``write`` of the full line, then ``flush`` + ``os.fsync``
    before close: a process killed at any instant leaves either the
    whole line on disk or (at worst) one torn tail the loaders skip
    -- never a buffered line that silently evaporated with the
    process.  Parent directories are created as needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line if line.endswith("\n") else line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def warn_truncation(path: Any, detail: str) -> None:
    """Surface a skipped torn trailing line as a warning.

    Under error warning filters (``python -W error``, pytest
    ``filterwarnings = error``) ``warn()`` raises the instance
    itself; a torn tail must stay recoverable -- the journal before
    it is intact -- so the escalation is swallowed, mirroring the
    cache-quarantine discipline.
    """
    try:
        warnings.warn(
            JournalTruncation(path, detail), stacklevel=3
        )
    except JournalTruncation:
        pass


def tolerant_lines(path: Union[str, os.PathLike]):
    """Parse a JSONL journal, skipping what a crash could tear.

    Yields every well-formed JSON-object line.  A final line that
    does not parse is a torn append from a killed writer: it is
    skipped with a :class:`JournalTruncation` warning.  Malformed
    lines elsewhere are skipped silently (the historical behavior --
    they are schema noise, not crash evidence).  A missing file
    yields nothing.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        return
    lines = text.splitlines()
    for position, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError as error:
            if position == len(lines) - 1:
                warn_truncation(path, str(error))
            continue
        if isinstance(entry, dict):
            yield entry

#: Journal schema version; bump on incompatible line-format changes.
JOURNAL_VERSION = 1


def point_fingerprint(point: Any) -> str:
    """Stable identity of one sweep point within a journal."""
    return stable_hash({"point": dataclasses.asdict(point)})


class SweepJournal:
    """Append-only journal of completed sweep points.

    Args:
        path: Journal file (created on first record; parent
            directories are created as needed).
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)

    def record(self, point: Any, key: Optional[str]) -> None:
        """Append one completed point.

        Points priced with the cache disabled have no key and are not
        journaled -- there is nothing on disk to resume them from.
        """
        if key is None:
            return
        line = json.dumps({
            "v": JOURNAL_VERSION,
            "salt": code_salt(),
            "fingerprint": point_fingerprint(point),
            "key": key,
            "point": dataclasses.asdict(point),
        }, sort_keys=True)
        append_line(self.path, line)

    def record_infeasible(
        self, point: Any, diagnosis: Dict[str, Any]
    ) -> None:
        """Append one provably infeasible point.

        ``diagnosis`` is the serialized
        :class:`~repro.runner.errors.InfeasiblePoint` document (see
        :func:`repro.core.serialize.failure_to_dict`).  The line
        carries ``"infeasible"`` instead of ``"key"`` -- there is no
        cache entry behind an infeasible point -- which older
        loaders skip harmlessly.
        """
        line = json.dumps({
            "v": JOURNAL_VERSION,
            "salt": code_salt(),
            "fingerprint": point_fingerprint(point),
            "infeasible": diagnosis,
            "point": dataclasses.asdict(point),
        }, sort_keys=True)
        append_line(self.path, line)

    def _entries(self) -> Sequence[Dict[str, Any]]:
        """Well-formed current-version, current-salt journal lines.

        A torn trailing line (a writer killed mid-append) is skipped
        with a :class:`~repro.runner.errors.JournalTruncation`
        warning; everything before it is intact and loads normally.
        """
        salt = code_salt()
        return [
            entry for entry in tolerant_lines(self.path)
            if entry.get("v") == JOURNAL_VERSION
            and entry.get("salt") == salt
        ]

    def load(self) -> Dict[str, str]:
        """``{fingerprint: cache key}`` for every journaled point.

        Missing files load as empty; malformed or torn lines (a crash
        mid-append), lines from other schema versions, lines without
        a cache key (infeasible records -- see
        :meth:`load_infeasible`), and lines written by a different
        code version (salt mismatch) are skipped -- the worst outcome
        of a bad or stale journal line is recomputing one point,
        never serving a stale report.
        """
        completed: Dict[str, str] = {}
        for entry in self._entries():
            try:
                completed[entry["fingerprint"]] = entry["key"]
            except (KeyError, TypeError):
                continue
        return completed

    def load_infeasible(self) -> Dict[str, Dict[str, Any]]:
        """``{fingerprint: serialized diagnosis}`` for every journaled
        infeasible point (same staleness filtering as :meth:`load`)."""
        infeasible: Dict[str, Dict[str, Any]] = {}
        for entry in self._entries():
            try:
                diagnosis = entry["infeasible"]
            except (KeyError, TypeError):
                continue
            if isinstance(diagnosis, dict):
                infeasible[entry["fingerprint"]] = diagnosis
        return infeasible

    def clear(self) -> None:
        """Delete the journal file (a completed sweep's checkpoint
        has nothing left to resume)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def default_journal_path(
    points: Sequence[Any],
    root: Union[str, os.PathLike, None] = None,
) -> Path:
    """Canonical journal location for one sweep definition.

    Keyed by a stable hash over the full point list (order included),
    under ``<cache root>/journal/`` -- so
    ``sweep --resume`` finds the previous run's journal from the grid
    definition alone, and different sweeps never share a journal.
    """
    grid_hash = stable_hash({
        "points": [dataclasses.asdict(point) for point in points],
    })
    base = PlanCache(root).root
    return base / "journal" / f"{grid_hash}.jsonl"
