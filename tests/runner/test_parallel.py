"""Tests for the parallel sweep engine (serial/parallel equivalence)."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.serialize import report_to_dict
from repro.runner.cache import PlanCache
from repro.runner.chain import GridPoint, _chains, resolve_jobs
from repro.runner.parallel import run_grid
from repro.runner.result import SweepResult


def small_grid():
    """Four points, two chains (one per executor family)."""
    return [
        GridPoint(executor=name, model="t5", seq_len=seq,
                  arch="cloud", batch=4)
        for name in ("unfused", "transfusion")
        for seq in (2048, 1024)
    ]


def rendered(reports):
    """Canonical byte rendering of a run_grid result."""
    return [
        (point, json.dumps(report_to_dict(report), sort_keys=True))
        for point, report in reports.items()
    ]


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestChains:
    def test_grouped_by_family_sequence_ascending(self):
        chains = _chains(small_grid())
        assert len(chains) == 2
        for chain in chains:
            assert len({p.family() for p in chain}) == 1
            assert [p.seq_len for p in chain] == sorted(
                p.seq_len for p in chain
            )

    def test_duplicates_dropped(self):
        point = GridPoint(executor="unfused", model="t5",
                          seq_len=1024, arch="cloud", batch=4)
        assert _chains([point, point]) == [[point]]


class TestRunGrid:
    def test_result_preserves_input_order(self, tmp_path):
        points = small_grid()
        reports = run_grid(points, jobs=1,
                           cache_dir=tmp_path / "c")
        assert list(reports) == points

    def test_parallel_matches_serial_byte_identical(self, tmp_path):
        points = small_grid()
        serial = run_grid(points, jobs=1,
                          cache_dir=tmp_path / "serial")
        parallel = run_grid(points, jobs=4,
                            cache_dir=tmp_path / "parallel")
        assert rendered(serial) == rendered(parallel)

    def test_cache_disabled_writes_nothing(self, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        points = small_grid()[:2]
        run_grid(points, jobs=1, use_cache=False)
        assert PlanCache(tmp_path / "c").entry_count() == 0

    def test_warm_rerun_served_from_cache(self, tmp_path):
        points = small_grid()
        cache_dir = tmp_path / "c"
        cold = run_grid(points, jobs=1, cache_dir=cache_dir)
        entries = PlanCache(cache_dir).entry_count()
        assert entries > 0
        warm = run_grid(points, jobs=1, cache_dir=cache_dir)
        assert rendered(cold) == rendered(warm)
        # The rerun added no new entries: every point hit.
        assert PlanCache(cache_dir).entry_count() == entries

    def test_duplicates_collapse_to_one_entry(self, tmp_path):
        point = GridPoint(executor="unfused", model="t5",
                          seq_len=1024, arch="cloud", batch=4)
        reports = run_grid([point, point], jobs=1,
                           cache_dir=tmp_path / "c")
        assert list(reports) == [point]

class TestSweepResultEquality:
    def test_value_equality_with_plain_dict(self):
        """run_grid used to return a plain dict; existing call sites
        comparing the result to a {point: report} dict must keep
        getting value equality (Mapping's __eq__ mixin), not
        identity."""
        point = GridPoint(executor="unfused", model="t5",
                          seq_len=512, arch="cloud", batch=4)
        result = SweepResult([point], {point: "report"},
                             {point: "ok"}, {})
        assert result == {point: "report"}
        assert {point: "report"} == result
        assert result != {point: "other"}
        assert result != {}


class TestCrossProcessDeterminism:
    def test_report_identical_across_hash_seeds(self):
        """Reports must not depend on PYTHONHASHSEED: truncated
        schedule enumeration used to explore hash-ordered successor
        sets, making cold results vary per process (and poisoning
        the persistent cache with whichever variant ran first)."""
        script = (
            "import json\n"
            "from repro.runner.chain import GridPoint, "
            "compute_report\n"
            "from repro.core.serialize import report_to_dict\n"
            "p = GridPoint(executor='transfusion', model='t5', "
            "seq_len=1024, arch='cloud', batch=4)\n"
            "r = compute_report(p, cache=None)\n"
            "print(json.dumps(report_to_dict(r), sort_keys=True))\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ)
            env.update({
                "PYTHONHASHSEED": seed,
                "REPRO_CACHE": "0",
                "PYTHONPATH": "src",
            })
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
