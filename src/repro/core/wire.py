"""Canonical JSON wire forms shared by the CLI, the server and caches.

:func:`canonical_json` is the one rendering every byte-compared
document goes through (response bodies, learned-corpus hashes), and
:func:`point_to_dict` is a grid point's wire form.  Kept apart from
:mod:`repro.core.serialize`, which round-trips reports, plans, sweeps
and audits: a plan answered from the disk cache renders its body
without loading any of that.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict


def canonical_json(document: Dict[str, Any]) -> str:
    """The canonical wire rendering used by the serving layer.

    Sorted keys, compact separators, ``repr``-rendered floats: the
    same document always serializes to the same bytes, and a
    ``loads``/``dumps`` round-trip is a fixed point -- which is what
    lets the server stamp a correlation id into a cached body
    without perturbing anything else.
    """
    return json.dumps(
        document, sort_keys=True, separators=(",", ":")
    )


def point_to_dict(point: Any) -> Dict[str, Any]:
    """One :class:`~repro.runner.chain.GridPoint` in wire form."""
    return dataclasses.asdict(point)
