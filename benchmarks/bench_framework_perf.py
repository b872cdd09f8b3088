"""Performance of the framework itself (multi-round timings).

The paper's workflow runs TileSeek + DPipe per (model, sequence,
architecture) point; a practical reproduction must keep those searches
fast.  These benchmarks time the hot paths with real repetition so
regressions in the schedulers or the evaluator show up as timing
drift, not just wrong results.

Absolute wall-clock assertions only fire when ``REPRO_BENCH_STRICT``
is set to a truthy value -- shared CI runners are too noisy for hard
latency ceilings by default.  Relative assertions (the cache
speedup ratio below) always apply.
"""

import json
import os
import random
import time

import numpy as np

from repro.arch.spec import cloud_architecture
from repro.core.serialize import tileseek_result_to_dict
from repro.dpipe.planner import plan_cascade
from repro.einsum.builders import attention_cascade
from repro.einsum.evaluator import evaluate_cascade
from repro.model.config import named_model
from repro.model.workload import Workload
from repro.sim.mapping import inner_tile_extents
from repro.tileseek.evaluate import assess_tiling, reward_for
from repro.tileseek.search import FACTOR_ORDER, TileSeek

STRICT = os.environ.get("REPRO_BENCH_STRICT", "").lower() in (
    "1", "on", "true", "yes"
)


def _mha_planning_inputs():
    arch = cloud_architecture()
    model = named_model("llama3")
    extents = model.extents()
    extents.update({"p": 65536, "m0": 65536, "m1": 1})
    cascade = attention_cascade()
    tile = inner_tile_extents("mha", extents, arch.array_2d)
    return arch, cascade, tile


def test_dpipe_planning_speed(benchmark, perf_log):
    """The production path: fused search + kernel memo (after the
    first round every call is a memo hit)."""
    arch, cascade, tile = _mha_planning_inputs()

    plan = benchmark(
        plan_cascade, cascade, "mha", tile, arch, 4096
    )
    assert plan.total_seconds > 0
    perf_log("dpipe_planning_memoized", {
        "mean_seconds": benchmark.stats["mean"],
        "min_seconds": benchmark.stats["min"],
    })
    # Planning one layer must stay well under a second.
    if STRICT:
        assert benchmark.stats["mean"] < 1.0


def test_fused_planner_speedup_over_legacy(benchmark, perf_log,
                                           monkeypatch):
    """Fused branch-and-bound search vs. the legacy enumerate-then-
    score planner, both cold (the kernel memo is cleared every round
    and the persistent cache disabled, so the ratio measures the
    search itself, not caching).

    The ratio assertion is unconditional: it is relative, so runner
    noise cancels out.  The plans must also be identical -- speed
    without byte-identity would be a regression, not a win.
    """
    from repro.dpipe.planner import clear_kernel_cache
    from repro.validate import force_validation
    from tests.oracles.dpipe_legacy import plan_cascade_legacy

    monkeypatch.setenv("REPRO_CACHE", "0")
    arch, cascade, tile = _mha_planning_inputs()

    with force_validation(False):
        legacy_timings = []
        for _ in range(3):
            start = time.perf_counter()
            legacy_plan = plan_cascade_legacy(
                cascade, "mha", tile, arch, 4096
            )
            legacy_timings.append(time.perf_counter() - start)
        legacy_seconds = min(legacy_timings)

        def fused_cold():
            clear_kernel_cache()
            return plan_cascade(cascade, "mha", tile, arch, 4096)

        plan = benchmark(fused_cold)

    assert plan == legacy_plan
    fused_seconds = benchmark.stats["min"]
    ratio = legacy_seconds / fused_seconds
    perf_log("fused_planner_speedup", {
        "legacy_seconds": legacy_seconds,
        "fused_cold_seconds": fused_seconds,
        "speedup_ratio": ratio,
        "workload": "llama3/cloud mha, n_epochs=4096",
    })
    assert ratio >= 3.0, (
        f"fused planner only {ratio:.2f}x faster than legacy"
    )


def test_tileseek_search_speed(benchmark):
    arch = cloud_architecture()
    workload = Workload(named_model("llama3"), seq_len=65536,
                        batch=64)

    def search():
        return TileSeek(iterations=400, seed=0).search(
            workload, arch
        )

    result = benchmark(search)
    assert result.feasible
    if STRICT:
        assert benchmark.stats["mean"] < 2.0


def _reference_search_inputs():
    arch = cloud_architecture()
    workload = Workload(named_model("llama3"), seq_len=65536,
                        batch=64)
    return workload, arch


def test_tileseek_batched_evaluator_throughput(benchmark, perf_log):
    """Vectorized candidate pricing (the NumPy kernel kept in
    ``tests/oracles/tileseek_numpy.py``) vs. a scalar loop over the
    same candidates.

    The ratio assertion is unconditional and mirrors the fused-planner
    gate: relative, so runner noise cancels out.  The batched rewards
    must also be bitwise equal to the scalar ones -- speed without
    byte-identity would be a regression, not a win.
    """
    from tests.oracles.tileseek_numpy import BatchedTilingEvaluator

    workload, arch = _reference_search_inputs()
    searcher = TileSeek(iterations=400, seed=0)
    grid = searcher.candidate_grid(workload, arch)
    fixed = searcher.fixed_factors(arch)
    rng = random.Random(0)
    candidates = [
        tuple(rng.choice(grid[name]) for name in FACTOR_ORDER)
        for _ in range(20000)
    ]
    evaluator = BatchedTilingEvaluator(
        workload, arch, m0=fixed["m0"], rows=fixed["rows"]
    )
    minimal = tuple(min(grid[name]) for name in FACTOR_ORDER)
    reference = evaluator.assessment_at(
        evaluator.assess(evaluator.matrix_from([minimal])), 0
    ).dram_words

    scalar_timings = []
    for _ in range(3):
        start = time.perf_counter()
        scalar_rewards = [
            reward_for(
                assess_tiling(
                    searcher._config_from(candidate, fixed),
                    workload, arch,
                ),
                reference,
            )
            for candidate in candidates
        ]
        scalar_timings.append(time.perf_counter() - start)
    scalar_seconds = min(scalar_timings)

    def batched():
        matrix = evaluator.matrix_from(candidates)
        return evaluator.price(matrix, reference)

    rewards, _ = benchmark(batched)
    assert list(rewards) == scalar_rewards
    batched_seconds = benchmark.stats["min"]
    ratio = scalar_seconds / batched_seconds
    perf_log("batched_vs_scalar_speedup", {
        "candidates": len(candidates),
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "scalar_candidates_per_second": (
            len(candidates) / scalar_seconds
        ),
        "batched_candidates_per_second": (
            len(candidates) / batched_seconds
        ),
        "speedup_ratio": ratio,
        "workload": "llama3/cloud seq=65536 batch=64",
    })
    assert ratio >= 10.0, (
        f"batched evaluator only {ratio:.2f}x faster than scalar"
    )


def test_tileseek_search_throughput(benchmark, perf_log):
    """Full single-point search: the production search vs. the
    retained scalar oracle, byte-identical results required.

    The oracle prices every leaf with ``assess_tiling``; the product
    prices leaves from hoisted constants, assesses only the reference
    and the winner, bisects each prefix's Table-2 prune once, and
    uses the slotted UCB1 selection.  The gate is a conservative
    floor.
    """
    from tests.oracles.tileseek_scalar import search_scalar

    workload, arch = _reference_search_inputs()
    searcher = TileSeek(iterations=400, seed=0)

    scalar_timings = []
    for _ in range(3):
        start = time.perf_counter()
        scalar_result = search_scalar(searcher, workload, arch)
        scalar_timings.append(time.perf_counter() - start)
    scalar_seconds = min(scalar_timings)

    result = benchmark(searcher.search, workload, arch)
    assert json.dumps(tileseek_result_to_dict(result)) == (
        json.dumps(tileseek_result_to_dict(scalar_result))
    )
    batched_seconds = benchmark.stats["min"]
    ratio = scalar_seconds / batched_seconds
    evaluations = result.stats.evaluations
    perf_log("tileseek_search_throughput", {
        "iterations": result.stats.iterations,
        "evaluations": evaluations,
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "scalar_candidates_per_second": (
            evaluations / scalar_seconds
        ),
        "batched_candidates_per_second": (
            evaluations / batched_seconds
        ),
        "scalar_search_units_per_second": (
            result.stats.iterations / scalar_seconds
        ),
        "batched_search_units_per_second": (
            result.stats.iterations / batched_seconds
        ),
        "speedup_ratio": ratio,
        "workload": "llama3/cloud seq=65536 batch=64",
    })
    assert ratio >= 1.5, (
        f"search only {ratio:.2f}x faster than the scalar oracle"
    )


def test_tileseek_search_cpu(perf_log):
    """The product search's CPU time per search over 100 seeded fresh
    workloads: every model, the four named architectures, and drawn
    sequence length, batch and causality, one search each at the
    default 400 iterations.  Records the p50 (CPU time, so other
    processes on a shared host do not count); no gate.
    """
    from repro.arch.spec import named_architecture
    from repro.model.config import MODEL_ZOO

    models = sorted(MODEL_ZOO)
    archs = ("cloud", "edge", "edge32", "edge64")
    rng = random.Random(20)
    points = []
    while len(points) < 100:
        point = (
            models[len(points) % len(models)],
            archs[len(points) // len(models) % len(archs)],
            rng.choice((512, 2048, 4096, 8192, 16384, 65536, 1 << 20)),
            rng.choice((1, 4, 16, 64)), rng.random() < 0.5,
        )
        if point not in points:
            points.append(point)
    samples = []
    for model, arch, seq, batch, causal in points:
        workload = Workload(named_model(model), seq_len=seq,
                            batch=batch, causal=causal)
        architecture = named_architecture(arch)
        start = time.process_time()
        result = TileSeek().search(workload, architecture)
        samples.append(time.process_time() - start)
        assert result.feasible
    samples.sort()
    perf_log("tileseek_search_cpu", {
        "tileseek_search_ms_p50": samples[len(samples) // 2] * 1e3,
        "tileseek_search_ms_mean": sum(samples) / len(samples) * 1e3,
        "searches": len(samples),
        "workload": "TileSeek().search over 100 seeded fresh points "
                    "(all models x cloud/edge/edge32/edge64, drawn "
                    "seq/batch/causal), CPU time",
    })


def test_cascade_evaluator_speed(benchmark):
    rng = np.random.default_rng(0)
    extents = {"h": 4, "e": 32, "f": 32, "p": 64, "m1": 8,
               "m0": 32}
    inputs = {
        "Q": rng.normal(size=(4, 32, 64)),
        "BK": rng.normal(size=(4, 32, 8, 32)),
        "BV": rng.normal(size=(4, 32, 8, 32)),
    }
    cascade = attention_cascade()

    out = benchmark(evaluate_cascade, cascade, inputs, extents)
    assert np.all(np.isfinite(out["AV"]))


def test_full_executor_run_speed(benchmark):
    from repro.baselines.registry import named_executor

    arch = cloud_architecture()
    workload = Workload(named_model("llama3"), seq_len=65536,
                        batch=64)
    executor = named_executor("transfusion")
    executor.run(workload, arch)  # warm the tiling cache

    report = benchmark(executor.run, workload, arch)
    assert report.latency_seconds(arch) > 0
    if STRICT:
        assert benchmark.stats["mean"] < 1.0


def test_sweep_cache_warm_speedup(benchmark, tmp_path):
    """A warm ``run_grid`` rerun must beat the cold run by >= 10x."""
    from repro.runner import GridPoint, run_grid

    points = [
        GridPoint(executor=name, model="t5", seq_len=seq,
                  arch="cloud", batch=4)
        for name in ("unfused", "transfusion")
        for seq in (1024, 2048)
    ]
    cache_dir = tmp_path / "sweep-cache"

    start = time.perf_counter()
    cold = run_grid(points, jobs=1, cache_dir=cache_dir)
    cold_seconds = time.perf_counter() - start

    warm = benchmark(run_grid, points, jobs=1, cache_dir=cache_dir)
    arch = cloud_architecture()
    assert [r.latency_seconds(arch) for r in warm.values()] == [
        r.latency_seconds(arch) for r in cold.values()
    ]
    # The ratio assertion is unconditional: it is relative, so runner
    # noise cancels out.
    assert benchmark.stats["mean"] < cold_seconds / 10.0


def test_capped_cache_warm_speedup(benchmark, perf_log, tmp_path,
                                   monkeypatch):
    """Byte-capped cache, same warm-vs-cold gate: the GC that runs
    after every write (PR 10) must not evict the working set under a
    reasonable budget, and its scan cost must not eat the cache win.

    The cap is sized to the measured working set with modest
    headroom -- tight enough that the GC actually runs on every
    write, loose enough that the grid's own entries all survive --
    and the warm rerun must still beat the cold run by >= 10x.
    """
    from repro.runner import GridPoint, run_grid
    from repro.runner.cache import PlanCache

    points = [
        GridPoint(executor=name, model="t5", seq_len=seq,
                  arch="cloud", batch=4)
        for name in ("unfused", "transfusion")
        for seq in (1024, 2048)
    ]
    # Size the budget from an uncapped cold run of the same grid.
    sizing_dir = tmp_path / "sizing-cache"
    run_grid(points, jobs=1, cache_dir=sizing_dir)
    working_set = PlanCache(sizing_dir).stats()["bytes"]
    budget = int(working_set * 1.25)
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", str(budget))

    cache_dir = tmp_path / "capped-cache"
    start = time.perf_counter()
    cold = run_grid(points, jobs=1, cache_dir=cache_dir)
    cold_seconds = time.perf_counter() - start
    stats = PlanCache(cache_dir).stats()
    assert stats["bytes"] <= budget
    assert stats["entries"] > 0

    warm = benchmark(run_grid, points, jobs=1, cache_dir=cache_dir)
    arch = cloud_architecture()
    assert [r.latency_seconds(arch) for r in warm.values()] == [
        r.latency_seconds(arch) for r in cold.values()
    ]
    warm_seconds = benchmark.stats["mean"]
    ratio = cold_seconds / warm_seconds
    perf_log("capped_cache_warm_speedup", {
        "points": len(points),
        "working_set_bytes": working_set,
        "budget_bytes": budget,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup_ratio": ratio,
        "workload": "t5/cloud sweep, 2 executors x 2 seqs",
    })
    assert ratio >= 10.0, (
        f"capped warm rerun only {ratio:.2f}x faster than cold"
    )


def test_plan_miss_speed(perf_log, tmp_path, monkeypatch):
    """Served-miss latency: in-process ``execute_request`` over seeded
    fresh points, after one plan per (model, arch) has warmed the
    in-process memos, against an empty disk cache -- the cost a
    long-running server pays per cache miss.

    Records the per-request p50 and, per miss, the CPU milliseconds
    spent in the TileSeek search, the DPipe kernel build and cache
    puts, plus the kernel builds and the distinct kernel keys (one per
    planning table, caps and budget) they built; the two are equal,
    so no table's kernel is ever built twice.  The ceiling only
    applies under ``REPRO_BENCH_STRICT``.
    """
    import repro.dpipe.planner as planner
    from repro.model.config import MODEL_ZOO
    from repro.runner.cache import PlanCache, stable_hash
    from repro.serve.protocol import execute_request, parse_request
    from repro.validate import force_validation

    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cpu = {"tileseek": 0.0, "kernel_build": 0.0, "cache_put": 0.0}

    def cpu_timed(owner, name, key):
        inner = getattr(owner, name)

        def timed(*args, **kwargs):
            start = time.process_time()
            try:
                return inner(*args, **kwargs)
            finally:
                cpu[key] += time.process_time() - start

        monkeypatch.setattr(owner, name, timed)

    cpu_timed(TileSeek, "search", "tileseek")
    cpu_timed(planner, "_build_kernel", "kernel_build")
    cpu_timed(PlanCache, "put", "cache_put")
    built = []
    timed_build = planner._build_kernel

    def recorded_build(skeleton, table, options, *args, **kwargs):
        built.append((skeleton, table, options,
                      kwargs.get("units_limit")))
        return timed_build(skeleton, table, options, *args, **kwargs)

    monkeypatch.setattr(planner, "_build_kernel", recorded_build)
    models = sorted(MODEL_ZOO)
    archs = ("cloud", "edge", "edge32", "edge64")

    def request(index, model, arch, seq, batch, causal):
        return parse_request({
            "op": "plan", "id": f"miss{index}",
            "point": {
                "model": model, "arch": arch, "seq_len": seq,
                "batch": batch, "causal": causal,
                "executor": "transfusion",
            },
        })

    warm = {(model, arch, 1024, 4, False)
            for model in models for arch in archs}
    rng = random.Random(19)
    fresh = []
    while len(fresh) < 40:
        point = (
            rng.choice(models), rng.choice(archs),
            rng.choice((512, 2048, 4096, 8192, 16384, 65536)),
            rng.choice((1, 4, 16, 64)), rng.random() < 0.5,
        )
        if point not in warm and point not in fresh:
            fresh.append(point)
    samples = []
    with force_validation(False):
        for index, point in enumerate(sorted(warm)):
            execute_request(request(index, *point))
        cpu.update(dict.fromkeys(cpu, 0.0))
        built.clear()
        for index, point in enumerate(fresh):
            start = time.perf_counter()
            response = execute_request(request(index, *point))
            samples.append(time.perf_counter() - start)
            assert response["ok"], response
    samples.sort()
    p50_ms = samples[len(samples) // 2] * 1e3
    built_keys = [
        stable_hash(planner._kernel_payload(
            skeleton, table, options, "", units_limit
        ))
        for skeleton, table, options, units_limit in built
    ]
    perf_log("plan_miss_speed", {
        "plan_miss_ms_p50": p50_ms,
        "plan_miss_ms_mean": sum(samples) / len(samples) * 1e3,
        **{
            f"{key}_cpu_ms_per_miss": seconds / len(samples) * 1e3
            for key, seconds in cpu.items()
        },
        "kernel_builds_per_miss": len(built_keys) / len(samples),
        "distinct_tables_per_miss": (
            len(set(built_keys)) / len(samples)
        ),
        "points": len(samples),
        "workload": "execute_request, transfusion, fresh seeded "
                    "points after one plan per (model, arch)",
    })
    assert len(built_keys) == len(set(built_keys))
    if STRICT:
        assert p50_ms < 100.0
