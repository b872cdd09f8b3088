"""Append-only JSONL journal of served requests.

One line per response, recording *how* the answer was produced --
``search`` / ``lru`` / ``coalesced`` / ``error`` / ``overloaded``
(a bounded-admission rejection, status ``overloaded``, distinct
from fault-path errors) -- plus the request fingerprint,
provenance, status and pool generation.  The journal is
operational telemetry (CI uploads it as an artifact after the serve
battery), never an input: response bytes are fully determined by the
request, so journal timestamps do not threaten determinism.

Crash safety (the fleet contract): every line is flushed and
``fsync``-ed at write time through the sweep journal's
:func:`~repro.runner.journal.append_line`, so a replica killed
mid-storm loses at most the single line it was appending -- and
:meth:`ServeJournal.load` skips that torn tail with a
:class:`~repro.runner.errors.JournalTruncation` warning instead of
raising, which is what lets the fleet battery audit a dead replica's
journal.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Union

from repro.runner.cache import code_salt
from repro.runner.journal import append_line, tolerant_lines

#: Journal line schema version.
JOURNAL_VERSION = 1


class ServeJournal:
    """A durably-appended JSONL journal at ``path``.

    Args:
        path: Journal file; parent directories are created.  Lines
            are appended, so one journal can span server restarts.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._lines = 0

    def record(
        self,
        op: str,
        source: str,
        fingerprint: Optional[str] = None,
        status: Optional[str] = None,
        provenance: Optional[str] = None,
        generation: Optional[int] = None,
        shed: bool = False,
        learned: bool = False,
        saved: int = 0,
    ) -> None:
        """Append one response line (flushed and fsynced).

        ``learned``/``saved`` record the learned-warm-start outcome
        of a cold miss (prediction found / search units not spent);
        like ``shed`` they are emitted only when set, so journals of
        learn-off deployments keep their pre-learn line bytes.
        """
        self._lines += 1
        entry: Dict[str, Any] = {
            "v": JOURNAL_VERSION,
            "seq": self._lines,
            "ts": time.time(),
            "salt": code_salt(),
            "op": op,
            "source": source,
        }
        if fingerprint is not None:
            entry["fingerprint"] = fingerprint
        if status is not None:
            entry["status"] = status
        if provenance is not None:
            entry["provenance"] = provenance
        if generation is not None:
            entry["generation"] = generation
        if shed:
            entry["shed"] = True
        if learned:
            entry["learned"] = True
        if saved:
            entry["saved"] = saved
        append_line(
            self.path, json.dumps(entry, sort_keys=True)
        )

    def load(self) -> List[Dict[str, Any]]:
        """Every well-formed line, in append order.

        A missing file loads as empty.  A torn trailing line -- the
        one a killed replica was mid-append on -- is skipped with a
        :class:`~repro.runner.errors.JournalTruncation` warning, so
        post-mortem auditors (the fleet battery, the CI chaos job)
        can always read everything the replica durably served.
        """
        return [
            entry for entry in tolerant_lines(self.path)
            if entry.get("v") == JOURNAL_VERSION
        ]
