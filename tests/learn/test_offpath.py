"""With ``REPRO_LEARN`` unset (or 0) the tree is byte-identical to
one without :mod:`repro.learn`: no payload key, no report key, no
stdout difference -- the feature is invisible until opted into.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.arch.spec import cloud_architecture
from repro.core.executor import TransFusionExecutor, _TILING_CACHE
from repro.learn import ENV_LEARN
from repro.learn.corpus import extract_corpus
from repro.learn.predictor import KNNPredictor, save_model
from repro.runner import GridPoint
from repro.runner.cache import PlanCache, default_cache
from repro.runner.chain import report_cache_payload
from tests.learn.conftest import ITERATIONS, tiny_workload

SRC = Path(__file__).resolve().parents[2] / "src"


def _tileseek_payloads(root):
    payloads = []
    for path in sorted(Path(root, "tileseek").rglob("*.json")):
        payloads.append(
            json.loads(path.read_text(encoding="utf-8"))["payload"]
        )
    return payloads


def test_tiling_payload_untouched_until_opt_in(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv(ENV_LEARN, raising=False)
    workload = tiny_workload(128)
    arch = cloud_architecture()
    executor = TransFusionExecutor(tileseek_iterations=ITERATIONS)
    executor.tiling(workload, arch)
    cold = _tileseek_payloads(tmp_path)
    assert len(cold) == 1
    assert "learned" not in cold[0]
    # Fit a model on that very search, opt in, and search again:
    # the prediction-seeded search is a *new* artifact.
    save_model(
        KNNPredictor.fit(extract_corpus(PlanCache(tmp_path))),
        default_cache(),
    )
    monkeypatch.setenv(ENV_LEARN, "1")
    _TILING_CACHE.clear()
    TransFusionExecutor(
        tileseek_iterations=ITERATIONS
    ).tiling(workload, arch)
    payloads = _tileseek_payloads(tmp_path)
    assert len(payloads) == 2
    assert cold[0] in payloads
    seeded = [p for p in payloads if p != cold[0]]
    assert seeded and seeded[0]["learned"]


def test_report_payload_untouched_until_opt_in(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    point = GridPoint(
        executor="transfusion", model="t5", seq_len=128,
        arch="cloud", batch=4,
    )
    monkeypatch.delenv(ENV_LEARN, raising=False)
    off = report_cache_payload(point)
    assert "learn" not in off
    monkeypatch.setenv(ENV_LEARN, "0")
    assert report_cache_payload(point) == off
    # Opted in without a fitted model: still a distinct artifact.
    monkeypatch.setenv(ENV_LEARN, "1")
    on = report_cache_payload(point)
    assert on["learn"] is None
    assert dict(on, learn=None) != off


def test_plan_stdout_byte_identical_with_learn_off(tmp_path):
    """``repro plan`` with ``REPRO_LEARN`` unset and with it set to
    ``0`` produce identical bytes (from identical fresh caches)."""
    outputs = []
    for label, learn in (("unset", None), ("zero", "0")):
        env = dict(os.environ)
        env.pop(ENV_LEARN, None)
        if learn is not None:
            env[ENV_LEARN] = learn
        env["REPRO_CACHE_DIR"] = str(tmp_path / label)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "plan", "--json",
             "--model", "t5", "--seq", "256", "--arch", "cloud",
             "--batch", "4", "--budget", "64"],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]
