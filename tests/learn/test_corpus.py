"""Corpus extraction: determinism, deduplication, skip resilience.

The extractor's contract is byte-level: any cache enumeration order
and any ``PYTHONHASHSEED`` must produce the identical corpus
document, and unusable inputs (foreign salts, corrupt files,
infeasible results, evicted entries behind journal lines) are counted
-- never fatal, even under ``python -W error``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.arch.spec import cloud_architecture
from repro.learn.corpus import (
    SKIP_INFEASIBLE,
    SKIP_MALFORMED,
    SKIP_OTHER_SALT,
    SKIP_UNMATCHED,
    extract_corpus,
    feature_key,
    features_for,
    record_for,
)
from repro.runner.cache import PlanCache, code_salt, stable_hash
from repro.runner.errors import SweepConfigError
from tests.learn.conftest import (
    ITERATIONS,
    put_entries,
    search_entry,
    tiny_workload,
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: Subprocess extractor: mines the cache dir in argv[1] and prints
#: the canonical corpus bytes.
EXTRACT_SCRIPT = """
import sys
from repro.learn.corpus import extract_corpus
from repro.runner.cache import PlanCache

sys.stdout.write(extract_corpus(PlanCache(sys.argv[1])).to_json())
"""


@pytest.fixture(scope="module")
def entries():
    """Three real entries over two distinct feature vectors: the
    warm-started re-search of the first point shares its features, so
    the dedup fold must collapse the pair."""
    base = [
        search_entry(tiny_workload(seq)) for seq in (128, 256)
    ]
    warm = tuple(
        int(v) for v in base[1][2].stats.best_assignment
    )
    base.append(search_entry(tiny_workload(128), warm=(warm,)))
    return base


def test_corpus_bytes_independent_of_entry_order(tmp_path, entries):
    cache_a = put_entries(tmp_path / "a", entries)
    cache_b = put_entries(tmp_path / "b", list(reversed(entries)))
    corpus_a = extract_corpus(cache_a)
    corpus_b = extract_corpus(cache_b)
    assert corpus_a.to_json() == corpus_b.to_json()
    # Two feature vectors despite three entries: the duplicate pair
    # collapsed, keeping the better reward.
    assert len(corpus_a.records) == 2
    keys = [record["key"] for record in corpus_a.records]
    assert keys == sorted(keys)
    best = max(
        entries[0][1]["stats"]["best_reward"],
        entries[2][1]["stats"]["best_reward"],
    )
    duplicated_key = feature_key(
        features_for(tiny_workload(128), cloud_architecture())
    )
    folded = {r["key"]: r for r in corpus_a.records}[duplicated_key]
    assert folded["reward"] == best


def test_corpus_bytes_independent_of_hash_seed(tmp_path, entries):
    cache = put_entries(tmp_path / "cache", entries)
    expected = extract_corpus(cache).to_json()
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        completed = subprocess.run(
            [sys.executable, "-c", EXTRACT_SCRIPT,
             str(cache.root)],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1] == expected


def test_mined_record_mirrors_live_record(tmp_path):
    """Records mined from cache fingerprints must be float-for-float
    identical to records synthesized from the live objects."""
    workload = tiny_workload(128)
    entry = search_entry(workload)
    cache = put_entries(tmp_path, [entry])
    corpus = extract_corpus(cache)
    assert list(corpus.records) == [
        record_for(workload, cloud_architecture(), entry[2])
    ]
    assert corpus.salt == code_salt()


def test_other_salt_entries_counted_not_mined(tmp_path, entries):
    cache = put_entries(tmp_path, entries)
    stale_payload = dict(entries[0][0], salt="0" * 64)
    cache.put(
        "tileseek", stable_hash(stale_payload),
        entries[0][1], stale_payload,
    )
    corpus = extract_corpus(cache)
    assert corpus.skipped[SKIP_OTHER_SALT] == 1
    assert len(corpus.records) == 2


def test_broken_entries_survive_error_warning_filter(
    tmp_path, entries
):
    cache = put_entries(tmp_path, entries)
    junk_dir = Path(cache.root) / "tileseek" / "zz"
    junk_dir.mkdir(parents=True)
    (junk_dir / "notjson.json").write_text("{torn", encoding="utf-8")
    (junk_dir / "hollow.json").write_text(
        json.dumps({"value": {}}), encoding="utf-8"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corpus = extract_corpus(cache)
    assert corpus.skipped[SKIP_MALFORMED] == 2
    assert len(corpus.records) == 2
    # Every skip class is always reported, as an int.
    assert set(corpus.to_dict()["skipped"]) == {
        SKIP_INFEASIBLE, SKIP_MALFORMED, SKIP_OTHER_SALT,
        SKIP_UNMATCHED,
    }


def test_infeasible_results_skipped(tmp_path, entries):
    cache = put_entries(tmp_path, entries)
    payload = dict(entries[0][0], iterations=7)
    value = json.loads(json.dumps(entries[0][1]))
    value["assessment"]["feasible"] = False
    cache.put("tileseek", stable_hash(payload), value, payload)
    corpus = extract_corpus(cache)
    assert corpus.skipped[SKIP_INFEASIBLE] == 1
    assert len(corpus.records) == 2


def test_extraction_requires_the_plan_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    with pytest.raises(SweepConfigError):
        extract_corpus()


def _journal_line(path, **fields):
    entry = {"v": 1, "salt": code_salt()}
    entry.update(fields)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def test_journal_lines_validated_not_trusted(tmp_path):
    """Every malformed/foreign/unmatched journal line lands in a skip
    counter; none of them crashes extraction, even under ``-W
    error``."""
    cache = PlanCache(tmp_path / "cache")
    journal = tmp_path / "sweep.jsonl"
    point = {
        "executor": "transfusion", "model": "t5", "seq_len": 128,
        "arch": "cloud", "batch": 4, "causal": False,
    }
    _journal_line(journal, v=99, key="k", point=point)
    _journal_line(
        journal, salt="0" * 64, key="k", point=point,
        fingerprint="f",
    )
    _journal_line(journal, infeasible="overflow", point=point)
    _journal_line(
        journal, key="k", point={"bogus": 1}, fingerprint="f"
    )
    # Valid line for a closed-form executor: no tiling search ran.
    _journal_line(
        journal, key="k", point=dict(point, executor="unfused"),
        fingerprint="f",
    )
    # Valid line whose tiling entry was never cached (evicted).
    _journal_line(journal, key="k", point=point, fingerprint="f")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corpus = extract_corpus(cache, journals=[journal])
    assert corpus.records == ()
    assert corpus.skipped[SKIP_MALFORMED] == 2
    assert corpus.skipped[SKIP_OTHER_SALT] == 1
    assert corpus.skipped[SKIP_INFEASIBLE] == 1
    assert corpus.skipped[SKIP_UNMATCHED] == 2


def test_journal_mining_matches_cache_scan(tmp_path):
    """A real warm-started sweep's journal mines cleanly: every line
    resolves to its cached tiling (warm chains threaded forward the
    way the sweep engine ran them) and adds nothing the cache scan
    did not already fold in."""
    from repro.runner import GridPoint, run_grid

    points = [
        GridPoint(
            executor="transfusion", model="t5", seq_len=seq,
            arch="cloud", batch=4,
        )
        for seq in (128, 256)
    ]
    cache_dir = tmp_path / "cache"
    journal = tmp_path / "sweep.jsonl"
    run_grid(
        points, jobs=1, cache_dir=cache_dir,
        journal=journal, warm_start=True,
    )
    cache = PlanCache(cache_dir)
    with_journal = extract_corpus(cache, journals=[journal])
    cache_only = extract_corpus(cache)
    assert with_journal.skipped[SKIP_UNMATCHED] == 0
    assert len(with_journal.records) == 2
    assert with_journal.to_json() == cache_only.to_json()
