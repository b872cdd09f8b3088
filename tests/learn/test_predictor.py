"""kNN predictor: determinism, persistence, salt invalidation.

The model is a plan-cache artifact like any other: same corpus in,
byte-identical file out; a stale-salt or unknown-version document is
ignored at load -- never served.
"""

from __future__ import annotations

import pytest

from repro.arch.spec import cloud_architecture
from repro.learn import (
    ENV_LEARN,
    ENV_LEARN_K,
    learn_enabled,
    learn_k,
    model_signature,
    predictions_for,
)
from repro.learn.corpus import corpus_hash, extract_corpus
from repro.learn.predictor import (
    DEFAULT_K,
    MODEL_KIND,
    KNNPredictor,
    load_model,
    model_cache_key,
    save_model,
)
from repro.runner.cache import PlanCache
from repro.runner.errors import SweepConfigError
from tests.learn.conftest import (
    put_entries,
    search_entry,
    tiny_workload,
)


def fake_record(key, assignment, seq=1.0, reward=1.0):
    return {
        "assignment": list(assignment),
        "features": {"seq_len": seq},
        "key": key,
        "reward": reward,
    }


def test_exact_ties_break_on_record_key_lexically():
    predictor = KNNPredictor([
        fake_record("bb", (2, 2, 2, 2, 2)),
        fake_record("aa", (1, 1, 1, 1, 1)),
    ])
    assert predictor.predict({"seq_len": 1.0}, k=2) == (
        (1, 1, 1, 1, 1), (2, 2, 2, 2, 2),
    )


def test_neighbors_ordered_by_distance():
    predictor = KNNPredictor([
        fake_record("aa", (1, 1, 1, 1, 1), seq=8.0),
        fake_record("bb", (2, 2, 2, 2, 2), seq=2.0),
    ])
    assert predictor.predict({"seq_len": 2.5}, k=2) == (
        (2, 2, 2, 2, 2), (1, 1, 1, 1, 1),
    )


def test_predictions_are_distinct_assignments():
    """Several neighbors voting for one tiling yield one candidate."""
    predictor = KNNPredictor([
        fake_record("aa", (1, 1, 1, 1, 1), seq=1.0),
        fake_record("bb", (1, 1, 1, 1, 1), seq=2.0),
        fake_record("cc", (3, 3, 3, 3, 3), seq=3.0),
    ])
    assert predictor.predict({"seq_len": 1.0}, k=3) == (
        (1, 1, 1, 1, 1), (3, 3, 3, 3, 3),
    )


def test_k_is_validated():
    records = [fake_record("aa", (1, 1, 1, 1, 1))]
    with pytest.raises(ValueError):
        KNNPredictor(records, k=0)
    with pytest.raises(ValueError):
        KNNPredictor(records).predict({"seq_len": 1.0}, k=0)


def test_model_bytes_reproducible_across_record_order(tmp_path):
    records = [
        fake_record("bb", (2, 2, 2, 2, 2)),
        fake_record("aa", (1, 1, 1, 1, 1)),
    ]
    path_a = save_model(
        KNNPredictor(records), PlanCache(tmp_path / "a")
    )
    path_b = save_model(
        KNNPredictor(list(reversed(records))),
        PlanCache(tmp_path / "b"),
    )
    assert path_a.read_bytes() == path_b.read_bytes()


def test_fit_save_load_round_trip(tmp_path):
    workload = tiny_workload(128)
    cache = put_entries(tmp_path, [search_entry(workload)])
    corpus = extract_corpus(cache)
    predictor = KNNPredictor.fit(corpus, k=2)
    assert predictor.corpus == corpus_hash(corpus)
    save_model(predictor, cache)
    loaded = load_model(cache)
    assert loaded is not None
    assert loaded.k == 2
    assert loaded.corpus == predictor.corpus
    arch = cloud_architecture()
    assert loaded.predict_for(workload, arch) == (
        predictor.predict_for(workload, arch)
    )


def test_stale_salt_document_never_loads(tmp_path):
    cache = put_entries(
        tmp_path, [search_entry(tiny_workload(128))]
    )
    predictor = KNNPredictor.fit(extract_corpus(cache))
    # A foreign-salt model lands in a different slot: unreachable.
    save_model(
        KNNPredictor(predictor.records, salt="0" * 64), cache
    )
    assert load_model(cache) is None
    # A foreign process writing a stale-salt document into the
    # *current* slot is caught by the stored-salt re-check.
    document = dict(predictor.to_dict(), salt="0" * 64)
    cache.put(
        MODEL_KIND, model_cache_key(), document,
        payload={"kind": MODEL_KIND},
    )
    assert load_model(cache) is None
    # Unknown schema versions are ignored the same way.
    cache.put(
        MODEL_KIND, model_cache_key(),
        dict(predictor.to_dict(), v=99),
        payload={"kind": MODEL_KIND},
    )
    assert load_model(cache) is None
    # The genuine artifact loads.
    save_model(predictor, cache)
    assert load_model(cache) is not None


def test_learn_knobs_resolve(monkeypatch):
    monkeypatch.delenv(ENV_LEARN, raising=False)
    monkeypatch.delenv(ENV_LEARN_K, raising=False)
    assert learn_enabled() is False
    assert learn_k() == DEFAULT_K
    monkeypatch.setenv(ENV_LEARN, "1")
    assert learn_enabled() is True
    monkeypatch.setenv(ENV_LEARN, "off")
    assert learn_enabled() is False
    monkeypatch.setenv(ENV_LEARN_K, "5")
    assert learn_k() == 5
    monkeypatch.setenv(ENV_LEARN_K, "0")
    with pytest.raises(SweepConfigError):
        learn_k()


def test_predictions_for_end_to_end(tmp_path, monkeypatch):
    workload = tiny_workload(128)
    arch = cloud_architecture()
    cache = put_entries(tmp_path, [search_entry(workload)])
    predictor = KNNPredictor.fit(extract_corpus(cache))
    save_model(predictor, cache)
    monkeypatch.delenv(ENV_LEARN, raising=False)
    assert predictions_for(workload, arch, cache) == ()
    assert model_signature(cache) is None
    monkeypatch.setenv(ENV_LEARN, "1")
    predicted = predictions_for(workload, arch, cache)
    assert predicted == predictor.predict_for(workload, arch, k=3)
    assert predicted
    assert model_signature(cache) == predictor.corpus
    monkeypatch.setenv(ENV_LEARN_K, "1")
    assert len(predictions_for(workload, arch, cache)) == 1


def test_predictions_empty_without_model(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_LEARN, "1")
    cache = PlanCache(tmp_path / "empty")
    assert predictions_for(
        tiny_workload(128), cloud_architecture(), cache
    ) == ()
    assert model_signature(cache) is None
