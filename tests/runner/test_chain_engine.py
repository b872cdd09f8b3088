"""One chain engine under ``run_grid`` and ``ServeApp``.

Serial ``run_grid``, parallel ``run_grid`` and the server all run
chains through :mod:`repro.runner.chain` and map a chain's exception
through one :func:`~repro.runner.chain.chain_failure`: the same raised
exception comes back as the same typed failure -- class, chain id,
attempt and fields -- on every path.  A parallel sweep holds one
process pool for all its retry rounds and respawns it only when a
round lost a worker.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.runner.parallel as parallel
import repro.serve.app as app_module
from repro.core.serialize import failure_to_dict
from repro.runner.chain import GridPoint, _run_chain, chain_layout
from repro.runner.errors import (
    InjectedHang,
    InjectedWorkerExit,
    PointFailure,
)
from repro.runner.parallel import run_grid
from repro.runner.pool import InlineWorkerPool
from repro.serve.app import ServeApp
from repro.serve.protocol import execute_chain
from tests.serve.conftest import doc_of

#: Two chains of two points each; chain 1 (bert) is the one that fails.
GRID = [
    GridPoint(executor="unfused", model=model, seq_len=seq,
              arch="cloud", batch=4)
    for model in ("t5", "bert") for seq in (512, 1024)
]
FAILING_CHAIN = 1

#: What the failing chain raises in the current test.  A module
#: global, so forked pool workers inherit it.
RAISED = {}


def failing_run_chain(chain, chain_index=0, *args, **kwargs):
    """``_run_chain``, except that chain 1 raises ``RAISED["error"]``.

    Module level, so the pool can pickle it by reference.
    """
    if chain_index == FAILING_CHAIN:
        raise RAISED["error"]
    return _run_chain(chain, chain_index, *args, **kwargs)


def failing_execute_chain(chain, budget, no_fallback, chain_index=0,
                          *args):
    """``execute_chain``, except that chain 1 raises."""
    if chain_index == FAILING_CHAIN:
        raise RAISED["error"]
    return execute_chain(chain, budget, no_fallback, chain_index, *args)


#: What the failing chain raises, and the failure type every path
#: must report for it.
CASES = {
    "broken-pool": (
        lambda: BrokenProcessPool("worker died"), "WorkerCrash"
    ),
    "worker-exit": (
        lambda: InjectedWorkerExit("injected exit"), "WorkerCrash"
    ),
    "hang": (lambda: InjectedHang("injected hang"), "ChainTimeout"),
    "sweep-error": (
        lambda: PointFailure(
            "elsewhere", FAILING_CHAIN, 0, "Raised", "passed through"
        ),
        "PointFailure",
    ),
    "value-error": (lambda: ValueError("bad value"), "PointFailure"),
}


def grid_failure(tmp_path, jobs):
    result = run_grid(GRID, jobs=jobs, cache_dir=tmp_path / "cache",
                      strict=False)
    chains, _ = chain_layout(GRID)
    failing = chains[FAILING_CHAIN]
    assert set(result.failures) == set(failing)
    assert all(result.statuses[p] == "ok" for p in chains[0])
    return failure_to_dict(result.failures[failing[0]])


def served_failure():
    app = ServeApp(InlineWorkerPool(), pressure=0)
    try:
        document = doc_of(app, {
            "op": "sweep",
            "points": [dataclasses.asdict(p) for p in GRID],
        })
    finally:
        app.close()
    assert document["ok"] is False
    return document["error"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_path_maps_a_chain_failure_the_same_way(
    name, tmp_path, monkeypatch
):
    make_error, expected = CASES[name]
    monkeypatch.setitem(RAISED, "error", make_error())
    monkeypatch.setattr(parallel, "_run_chain", failing_run_chain)
    monkeypatch.setattr(
        app_module, "execute_chain", failing_execute_chain
    )
    serial = grid_failure(tmp_path / "serial", jobs=1)
    pooled = grid_failure(tmp_path / "parallel", jobs=2)
    served = served_failure()
    assert serial == pooled == served
    assert serial["type"] == expected
    assert serial["chain_index"] == FAILING_CHAIN
    assert serial["attempt"] == 0
    if name == "sweep-error":
        # A SweepError is the failure itself, not re-wrapped.
        assert serial["error_type"] == "Raised"
    if name == "value-error":
        assert serial["error_type"] == "ValueError"


@pytest.fixture
def pools_built(monkeypatch):
    """Every ``ProcessPoolExecutor`` constructed during the test."""
    built = []
    real_init = ProcessPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
    return built


def test_a_retried_crash_reuses_the_sweeps_one_pool(
    tmp_path, monkeypatch, pools_built
):
    monkeypatch.setenv("REPRO_FAULTS", "crash:chain=0,attempt=0")
    result = run_grid(GRID, jobs=2, cache_dir=tmp_path / "c",
                      retries=1)
    assert result.ok
    assert len(pools_built) == 1


def test_a_hung_chain_respawns_the_pool_once(
    tmp_path, monkeypatch, pools_built
):
    monkeypatch.setenv(
        "REPRO_FAULTS", "hang:chain=0,attempt=0,seconds=30"
    )
    result = run_grid(GRID, jobs=2, cache_dir=tmp_path / "c",
                      timeout=0.75, retries=1)
    assert result.ok
    assert len(pools_built) == 2
