"""``benchmarks/results/BENCH_framework.json`` accumulates across
benchmark sessions: each session merges its records in by key."""

import json

from benchmarks.conftest import merge_perf_records


def test_sessions_with_different_keys_keep_both(tmp_path):
    path = tmp_path / "BENCH_framework.json"
    merge_perf_records(path, {"first": {"speedup_ratio": 2.0}})
    merge_perf_records(path, {"second": {"speedup_ratio": 3.0}})
    assert json.loads(path.read_text()) == {
        "first": {"speedup_ratio": 2.0},
        "second": {"speedup_ratio": 3.0},
    }


def test_a_rerun_key_takes_the_newer_record(tmp_path):
    path = tmp_path / "BENCH_framework.json"
    merge_perf_records(path, {"gate": {"speedup_ratio": 2.0},
                              "other": {"speedup_ratio": 5.0}})
    merge_perf_records(path, {"gate": {"speedup_ratio": 4.0}})
    assert json.loads(path.read_text()) == {
        "gate": {"speedup_ratio": 4.0},
        "other": {"speedup_ratio": 5.0},
    }
