"""Corpus extraction: mine searches already paid for into a dataset.

Every completed sweep leaves two artifacts behind: ``tileseek``
entries in the content-addressed :class:`~repro.runner.cache.PlanCache`
(payload = the full workload/arch fingerprints, value = the winning
assignment and its reward) and sweep-journal lines pointing back at
them.  :func:`extract_corpus` walks both and produces a
deterministic, deduplicated dataset of normalized shape/arch features
-> best tiling, the training set for :mod:`repro.learn.predictor`.

Determinism is the design constraint, not an afterthought:

* Features are a fixed, alphabetized vector (:data:`FEATURE_ORDER`)
  of ``log2``-scaled dimensions and 0/1 flags -- pure functions of
  the fingerprints, independent of dict ordering or hash seeds.
* Records are keyed by a :func:`~repro.runner.cache.stable_hash` of
  their features; duplicates collapse to the best reward (ties to the
  lexically smallest assignment), an order-independent fold -- so any
  file enumeration order and any ``PYTHONHASHSEED`` produce the same
  corpus.
* The corpus document is canonical JSON (sorted keys, compact
  separators) stamped with the :func:`~repro.runner.cache.code_salt`
  of the tree that wrote it, mirroring every other on-disk artifact.

Unusable inputs are *counted*, never fatal: entries from another code
salt, malformed documents, infeasible results and journal lines whose
cache entry has been evicted each increment a named skip counter (and
surface a swallowed :class:`CorpusSkip` warning where the skip is
noteworthy), so corpus extraction survives the messy cache directory
of a long-lived deployment.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.arch.spec import ArchitectureSpec, named_architecture
from repro.model.workload import Workload
from repro.runner.cache import (
    PlanCache,
    arch_fingerprint,
    code_salt,
    stable_hash,
    workload_fingerprint,
)
from repro.runner.errors import SweepConfigError

#: Corpus schema version; bump on incompatible record-format changes.
CORPUS_VERSION = 1

#: Document ``kind`` stamped into every corpus file.
CORPUS_KIND = "learn-corpus"

#: The normalized feature vector, in fixed (alphabetical) order.
#: Dimensions are ``log2``-scaled -- tiling factors respond to the
#: *magnitude* of a dimension, so 512 -> 1024 should be as near as
#: 1024 -> 2048 -- and flags are 0.0/1.0.
FEATURE_ORDER: Tuple[str, ...] = (
    "array_cols",
    "array_rows",
    "batch",
    "buffer_words",
    "causal",
    "d_model",
    "e_head",
    "ffn_hidden",
    "heads",
    "kv_heads",
    "kv_len",
    "lanes_1d",
    "layers",
    "project_kv",
    "seq_len",
)

#: Skip-counter names (every extraction reports all of them).
SKIP_OTHER_SALT = "other_salt"
SKIP_MALFORMED = "malformed"
SKIP_INFEASIBLE = "infeasible"
SKIP_UNMATCHED = "unmatched"

_SKIP_KEYS = (
    SKIP_INFEASIBLE, SKIP_MALFORMED, SKIP_OTHER_SALT, SKIP_UNMATCHED,
)


class CorpusSkip(UserWarning):
    """One unusable cache entry or journal line skipped during
    extraction (counted in the corpus's ``skipped`` tally)."""


def _warn_skip(subject: Any, detail: str) -> None:
    """Surface one skip as a warning without ever escalating.

    Under error warning filters (``python -W error``) ``warn()``
    raises the instance itself; a skip is recoverable by design --
    the record is simply not mined -- so the escalation is swallowed,
    mirroring the cache-quarantine discipline.
    """
    try:
        warnings.warn(
            CorpusSkip(f"{subject}: {detail}"), stacklevel=3
        )
    except CorpusSkip:
        pass


def _log2(value: Any) -> float:
    return math.log2(float(value)) if float(value) > 0 else 0.0


def features_from_fingerprints(
    workload_fp: Mapping[str, Any], arch_fp: Mapping[str, Any]
) -> Dict[str, float]:
    """The normalized feature vector of one (workload, arch) pair,
    computed from their cache fingerprints.

    Must stay the exact float-for-float mirror of
    :func:`features_for` -- records mined from cache payloads and
    records synthesized from live objects land on the same feature
    key or deduplication silently breaks.
    """
    model = workload_fp["model"]
    heads = model["heads"]
    kv_heads = model.get("kv_heads") or heads
    seq_len = workload_fp["seq_len"]
    kv_len = workload_fp.get("kv_seq_len") or seq_len
    word_bytes = arch_fp["word_bytes"]
    buffer_words = arch_fp["buffer"]["capacity_bytes"] // word_bytes
    features = {
        "array_cols": _log2(arch_fp["array_2d"]["cols"]),
        "array_rows": _log2(arch_fp["array_2d"]["rows"]),
        "batch": _log2(workload_fp["batch"]),
        "buffer_words": _log2(buffer_words),
        "causal": 1.0 if workload_fp["causal"] else 0.0,
        "d_model": _log2(model["d_model"]),
        "e_head": _log2(model["e_head"]),
        "ffn_hidden": _log2(model["ffn_hidden"]),
        "heads": _log2(heads),
        "kv_heads": _log2(kv_heads),
        "kv_len": _log2(kv_len),
        "lanes_1d": _log2(arch_fp["array_1d"]["cols"]),
        "layers": _log2(model["layers"]),
        "project_kv": 1.0 if workload_fp.get("project_kv", True)
        else 0.0,
        "seq_len": _log2(seq_len),
    }
    assert tuple(sorted(features)) == FEATURE_ORDER
    return features


def features_for(
    workload: Workload, arch: ArchitectureSpec
) -> Dict[str, float]:
    """The normalized feature vector of one live (workload, arch)
    pair (same floats as :func:`features_from_fingerprints`)."""
    return features_from_fingerprints(
        workload_fingerprint(workload), arch_fingerprint(arch)
    )


def feature_key(features: Mapping[str, float]) -> str:
    """Content address of one feature vector (the dedup key)."""
    return stable_hash({"features": dict(features)})


def record_for(
    workload: Workload, arch: ArchitectureSpec, result: Any
) -> Dict[str, Any]:
    """Synthesize one corpus record from a live
    :class:`~repro.tileseek.search.TileSeekResult` (what the mining
    paths reconstruct from cache documents)."""
    features = features_for(workload, arch)
    return {
        "assignment": [
            int(v) for v in result.stats.best_assignment
        ],
        "features": features,
        "key": feature_key(features),
        "reward": float(result.stats.best_reward),
    }


@dataclass(frozen=True)
class Corpus:
    """One extracted training set, plus its skip bookkeeping.

    ``records`` are sorted by feature key and individually hold
    ``{key, features, assignment, reward}``; ``skipped`` counts the
    inputs extraction could not use.
    """

    salt: str
    records: Tuple[Dict[str, Any], ...]
    skipped: Mapping[str, int]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "v": CORPUS_VERSION,
            "kind": CORPUS_KIND,
            "salt": self.salt,
            "records": [dict(r) for r in self.records],
            "skipped": {
                name: int(self.skipped.get(name, 0))
                for name in _SKIP_KEYS
            },
        }

    def to_json(self) -> str:
        """Canonical byte rendering (sorted keys, compact
        separators): the same inputs always produce the same file."""
        from repro.core.wire import canonical_json

        return canonical_json(self.to_dict())


def corpus_hash(corpus: Corpus) -> str:
    """Content address of the corpus's training content (records
    only -- skip counts are diagnostics, not training data)."""
    return stable_hash({
        "records": [dict(r) for r in corpus.records],
        "salt": corpus.salt,
    })


def _mine_tileseek_document(
    document: Any,
    subject: Any,
    salt: str,
    records: List[Dict[str, Any]],
    skipped: Dict[str, int],
    count_other_salt: bool = True,
) -> bool:
    """Fold one ``{"payload", "value"}`` tileseek cache document into
    ``records``.  Returns whether a record was appended."""
    if not isinstance(document, dict):
        skipped[SKIP_MALFORMED] += 1
        _warn_skip(subject, "not a JSON object")
        return False
    payload = document.get("payload")
    value = document.get("value")
    if not isinstance(payload, dict) or not isinstance(value, dict):
        skipped[SKIP_MALFORMED] += 1
        _warn_skip(subject, "missing payload/value")
        return False
    if payload.get("salt") != salt:
        if count_other_salt:
            skipped[SKIP_OTHER_SALT] += 1
        return False
    try:
        assessment = value["assessment"]
        stats = value["stats"]
        if not assessment["feasible"]:
            skipped[SKIP_INFEASIBLE] += 1
            return False
        assignment = [int(v) for v in stats["best_assignment"]]
        reward = float(stats["best_reward"])
        features = features_from_fingerprints(
            payload["workload"], payload["arch"]
        )
    except (KeyError, TypeError, ValueError) as error:
        skipped[SKIP_MALFORMED] += 1
        _warn_skip(subject, f"unusable document: {error}")
        return False
    records.append({
        "assignment": assignment,
        "features": features,
        "key": feature_key(features),
        "reward": reward,
    })
    return True


def _scan_cache(
    cache: PlanCache,
    salt: str,
    records: List[Dict[str, Any]],
    skipped: Dict[str, int],
) -> None:
    """Mine every ``tileseek`` entry under the cache root.

    The walk is sorted, but nothing depends on it: the dedup fold is
    order-independent, so the corpus is byte-identical whatever order
    the filesystem returns entries in.
    """
    root = Path(cache.root) / "tileseek"
    if not root.is_dir():
        return
    for path in sorted(root.rglob("*.json")):
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            skipped[SKIP_MALFORMED] += 1
            _warn_skip(path, f"unreadable cache entry: {error}")
            continue
        _mine_tileseek_document(
            document, path, salt, records, skipped
        )


def _journal_chains(
    entries: Iterable[Mapping[str, Any]],
    path: Any,
    salt: str,
    skipped: Dict[str, int],
) -> List[Tuple[Any, bool]]:
    """Validate journal lines into ``(point, warm flag)`` pairs.

    Other-salt lines are skipped with a counted warning (stale
    journals are expected around code edits, and their cache keys
    would be stale too); malformed lines are counted likewise.
    """
    from repro.runner.chain import GridPoint
    from repro.runner.journal import (
        JOURNAL_VERSION,
        point_fingerprint,
    )

    mined: List[Tuple[Any, bool]] = []
    for entry in entries:
        if entry.get("v") != JOURNAL_VERSION:
            skipped[SKIP_MALFORMED] += 1
            _warn_skip(path, "journal line without a known version")
            continue
        if entry.get("salt") != salt:
            skipped[SKIP_OTHER_SALT] += 1
            _warn_skip(
                path, "journal line written by another code version"
            )
            continue
        if "key" not in entry:
            # Infeasible verdicts have no tiling to learn from.
            skipped[SKIP_INFEASIBLE] += 1
            continue
        point_doc = entry.get("point")
        try:
            point = GridPoint(**point_doc)
        except TypeError:
            skipped[SKIP_MALFORMED] += 1
            _warn_skip(path, "journal line with unusable point")
            continue
        warm = entry.get("fingerprint") == point_fingerprint(
            point, True
        )
        mined.append((point, warm))
    return mined


def _scan_journal(
    path: Union[str, os.PathLike],
    cache: PlanCache,
    salt: str,
    records: List[Dict[str, Any]],
    skipped: Dict[str, int],
) -> None:
    """Mine one sweep journal's completed points.

    The journal names *report* cache keys, not tileseek ones, so each
    point's tiling entry is recovered by reconstructing the executor's
    tileseek payload -- threading warm-started chains forward exactly
    the way :func:`~repro.runner.chain._run_chain` does -- and
    looking it up in the cache.  Points whose tiling entry is gone
    (evicted, cache cleared) count as ``unmatched``.
    """
    from repro.baselines.registry import named_executor
    from repro.runner.chain import _chains
    from repro.runner.journal import tolerant_lines

    mined = _journal_chains(
        tolerant_lines(path), path, salt, skipped
    )
    if not mined:
        return
    warm_flags = {point: warm for point, warm in mined}
    for chain in _chains([point for point, _ in mined]):
        warm: Tuple[Tuple[int, ...], ...] = ()
        for point in chain:
            try:
                executor = named_executor(point.executor)
                workload = point.workload()
                arch = named_architecture(point.arch)
            except (KeyError, ValueError) as error:
                skipped[SKIP_UNMATCHED] += 1
                _warn_skip(path, f"unknown point {point}: {error}")
                continue
            iterations = getattr(
                executor, "tileseek_iterations", None
            )
            seed = getattr(executor, "seed", None)
            if iterations is None or seed is None:
                # Closed-form executors run no tiling search; there
                # is nothing to learn from them.
                skipped[SKIP_UNMATCHED] += 1
                continue
            candidates = [warm] if warm_flags[point] else [()]
            if () not in candidates:
                candidates.append(())
            document = None
            for warm_try in candidates:
                payload = {
                    "kind": "tileseek",
                    "salt": salt,
                    "workload": workload_fingerprint(workload),
                    "arch": arch_fingerprint(arch),
                    "iterations": iterations,
                    "seed": seed,
                    "warm_start": [list(a) for a in warm_try],
                }
                value = cache.get(
                    "tileseek", stable_hash(payload)
                )
                if value is not None:
                    document = {"payload": payload, "value": value}
                    break
            if document is None:
                skipped[SKIP_UNMATCHED] += 1
                _warn_skip(
                    path,
                    f"no cached tiling behind journaled {point}",
                )
                continue
            if _mine_tileseek_document(
                document, path, salt, records, skipped
            ):
                warm = (tuple(
                    int(v)
                    for v in document["value"]["stats"]
                    ["best_assignment"]
                ),)


def _dedup(
    records: Sequence[Dict[str, Any]],
) -> Tuple[Dict[str, Any], ...]:
    """Collapse records onto unique feature keys, order-independently.

    Best reward wins; exact reward ties break to the lexically
    smallest assignment, so the fold commutes and the corpus bytes do
    not depend on mining order.
    """
    best: Dict[str, Dict[str, Any]] = {}
    for record in records:
        current = best.get(record["key"])
        if current is None or (
            record["reward"], [-v for v in record["assignment"]]
        ) > (
            current["reward"], [-v for v in current["assignment"]]
        ):
            best[record["key"]] = record
    return tuple(best[key] for key in sorted(best))


def extract_corpus(
    cache: Optional[PlanCache] = None,
    journals: Sequence[Union[str, os.PathLike]] = (),
) -> Corpus:
    """Mine the plan cache (and optional sweep journals) into a
    :class:`Corpus`.

    Args:
        cache: The plan cache to mine; ``None`` resolves the
            environment default.  Extraction needs the persistent
            layer -- with ``REPRO_CACHE=0`` there is nothing to mine.
        journals: Sweep-journal files whose completed points should
            also be mined (their tiling entries are recovered from
            the same cache; lines from other code versions are
            skipped with a counted warning).
    """
    if cache is None:
        from repro.runner.cache import default_cache

        cache = default_cache()
    if cache is None:
        raise SweepConfigError(
            "corpus extraction needs the persistent plan cache "
            "(REPRO_CACHE=0 disables it)"
        )
    salt = code_salt()
    records: List[Dict[str, Any]] = []
    skipped: Dict[str, int] = {name: 0 for name in _SKIP_KEYS}
    _scan_cache(cache, salt, records, skipped)
    for journal in journals:
        _scan_journal(journal, cache, salt, records, skipped)
    return Corpus(
        salt=salt, records=_dedup(records), skipped=skipped
    )
