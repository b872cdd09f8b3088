"""The DPipe planner: bipartition search + DP scheduling per layer.

``plan_cascade`` is DPipe's top-level entry: given a sub-layer cascade,
an inner tile and an epoch count it

1. DP-schedules a single epoch (array load balancing without
   pipelining) as the fallback plan,
2. enumerates valid bipartitions, DP-schedules each epoch-interleaved
   window over up to ``max_orders`` topological orders, and
3. returns the plan with the smallest end-to-end makespan
   ``t_G1 + (n_epochs - 1) * t_window + t_G2``.

The returned plan carries busy time and compute-load splits per PE
array so executors can report utilization and energy.

Three performance layers sit between the public API and the DP:

* **Fused search** -- every candidate-order evaluation goes through
  :func:`repro.dpipe.search.fused_best_order`, a branch-and-bound DFS
  that schedules shared order prefixes once and prunes against the
  incumbent (byte-identical winners; see that module's docstring).
* **Kernel memoization** -- everything scheduled here depends only on
  the cascade, its planning :class:`LatencyTable` (seconds on both
  arrays plus loads) and the search caps; layer, tile and arch enter
  only through that table, and ``n_epochs`` merely scales totals.
  ``plan_cascade`` therefore computes an ``n_epochs``-free *schedule
  kernel* (per-epoch periods, fill/drain makespans, per-epoch
  busy/load splits and the winning orders), keys it by the table's
  content, and caches it in-process across layers, tiles, executors
  and sweep points, plus persistently through
  :mod:`repro.runner.cache` (kind ``dpipe-kernel``, salted by the
  code version).  Tiles that differ only in extents no op reads at
  epoch granularity (``m0`` always) price to the same table and so
  share one kernel.  Building a
  :class:`DPipePlan` from a cached kernel replays the exact legacy
  float expressions, so plans are byte-identical to a from-scratch
  search.  When validation is enabled the memo is bypassed and the
  kernel rebuilt with the schedule auditor armed, so ``repro
  validate`` always replays real DP passes.
* **Per-cascade skeletons** -- the DAG, the paired window, each
  bipartition's window DAG and fill/drain DP inputs, and the cascade's
  fragment of the kernel key depend on the cascade alone, so they are
  built once per cascade instance and shared by every tile; so is each
  tile's finished kernel hex key, so a repeated tile builds no table.
  A kernel build does only table-dependent work: the searches and the
  DPs.

The original enumerate-then-score planner is kept verbatim, outside
the package, as the differential reference (``tests/oracles/``); the
property suite and ``benchmarks/bench_framework_perf.py`` assert
fused == legacy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.arch.pe import PEArrayKind
from repro.arch.spec import ArchitectureSpec
from repro.dpipe.latency import LatencyTable, build_latency_table
from repro.dpipe.options import DPipeOptions
from repro.dpipe.pipeline import (
    ROOT,
    WindowSchedule,
    best_window_schedule,
    best_window_schedule_ex,
    build_paired_window,
    build_window,
    subgraph_order,
)
from repro.dpipe.scheduler import ARRAYS, dp_schedule
from repro.dpipe.search import fused_best_order_ex
from repro.resilience.budget import (
    PROVENANCE_COMPLETE,
    Budget,
    resolve_budget,
    worst_provenance,
)
from repro.einsum.cascade import Cascade
from repro.graph.dag import ComputationDAG
from repro.graph.partition import Bipartition, enumerate_bipartitions
from repro.validate.config import validation_enabled


@dataclass(frozen=True)
class DPipePlan:
    """A complete DPipe schedule for one sub-layer.

    Attributes:
        layer: Sub-layer kind.
        n_epochs: Inner-tile epochs covering the problem.
        epoch_seconds: Steady-state seconds per epoch.
        total_seconds: End-to-end makespan across all epochs.
        busy_seconds: Busy time per array, totalled over all epochs.
        load_split: Compute load (scalar ops) per array, totalled.
        bipartition: The winning bipartition (None = unpipelined).
        window_order: The winning topological order of the window.
        pipelined: Whether epoch interleaving beat the fallback.
        provenance: How the schedule searches behind this plan ended:
            ``complete``, ``budget_exhausted`` (anytime incumbents
            under a spent ``REPRO_BUDGET``) or ``fallback:<rung>``.
    """

    layer: str
    n_epochs: int
    epoch_seconds: float
    total_seconds: float
    busy_seconds: Mapping[PEArrayKind, float]
    load_split: Mapping[PEArrayKind, float]
    bipartition: Optional[Bipartition] = None
    window_order: Tuple[str, ...] = field(default_factory=tuple)
    pipelined: bool = False
    provenance: str = PROVENANCE_COMPLETE


def _pinned_table(
    cascade: Cascade, table: LatencyTable
) -> LatencyTable:
    """Forbid cross-array placement: natural array keeps its latency,
    the other becomes prohibitively slow (ablation mode)."""
    seconds: Dict[Tuple[str, PEArrayKind], float] = {}
    for op in cascade.all_ops:
        natural = (
            PEArrayKind.ARRAY_2D
            if op.is_gemm_like
            else PEArrayKind.ARRAY_1D
        )
        for kind in ARRAYS:
            base = table.latency(op.name, kind)
            seconds[(op.name, kind)] = (
                base if kind is natural else base * 1e9
            )
    return LatencyTable(seconds=seconds, loads=dict(table.loads))


def _planning_table(
    cascade: Cascade,
    layer: str,
    tile: Mapping[str, int],
    arch: ArchitectureSpec,
    options: DPipeOptions,
) -> LatencyTable:
    """The latency table the search prices candidates with."""
    table = build_latency_table(cascade, layer, tile, arch)
    if not options.enable_dp_assignment:
        table = _pinned_table(cascade, table)
    return table


# ----------------------------------------------------------------------
# Schedule kernels: everything n_epochs-free about a layer's search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SingleKernel:
    """Best single-epoch schedule (the unpipelined fallback)."""

    makespan: float
    busy: Mapping[PEArrayKind, float]
    load: Mapping[PEArrayKind, float]


@dataclass(frozen=True)
class _StaticKernel:
    """FuseMax-style static pipeline (per-array latency sums)."""

    period: float
    fill: float
    sums: Mapping[PEArrayKind, float]
    loads: Mapping[PEArrayKind, float]


@dataclass(frozen=True)
class _PairedKernel:
    """Two whole consecutive epochs priced as one DP problem."""

    pair_makespan: float
    busy: Mapping[PEArrayKind, float]
    load: Mapping[PEArrayKind, float]


@dataclass(frozen=True)
class _WindowKernel:
    """One bipartition's window search outcome + fill/drain terms."""

    bipartition: Bipartition
    order: Tuple[str, ...]
    period: float
    fill: float
    drain: float
    busy: Mapping[PEArrayKind, float]
    load: Mapping[PEArrayKind, float]


@dataclass(frozen=True)
class _PipelineKernel:
    static: _StaticKernel
    paired: _PairedKernel
    windows: Tuple[_WindowKernel, ...]


@dataclass(frozen=True)
class _CascadeKernel:
    """The n_epochs-free factor of ``plan_cascade``.

    ``single`` is always present; ``pipeline`` is populated lazily
    (only plans with ``enable_pipelining`` and ``n_epochs >= 2`` need
    it, and building it is the expensive part).  ``provenance``
    aggregates the worst outcome over every internal search the kernel
    ran (complete kernels -- the only ones built without a budget --
    keep the default, so serialization stays byte-identical).
    """

    single: _SingleKernel
    pipeline: Optional[_PipelineKernel]
    provenance: str = PROVENANCE_COMPLETE


#: In-process kernel memo, one kernel per distinct planning table:
#: key is the content hash of everything the kernel depends on
#: (cascade, latency table, search caps, assignment mode, unit
#: budget, code salt).  ``objective`` and
#: ``enable_pipelining`` are deliberately excluded -- the objective
#: only reweighs candidates at plan-construction time and pipelining
#: only gates which kernel half is consulted -- so energy/EDP sweeps
#: and ablation variants share kernels.
_KERNEL_CACHE: Dict[str, _CascadeKernel] = {}


class _WindowSkeleton:
    """One bipartition's latency-free structure: its window DAG and
    the fill (``G1``) and drain (``G2``) subgraphs' DP inputs."""

    __slots__ = ("bipartition", "window", "fill", "drain")

    def __init__(
        self, dag: ComputationDAG, bipartition: Bipartition
    ) -> None:
        self.bipartition = bipartition
        self.window = build_window(dag, bipartition)
        self.fill = subgraph_order(dag, bipartition.first)
        self.drain = subgraph_order(dag, bipartition.second)


class _Skeleton:
    """Everything a kernel build needs that depends on the cascade
    alone: its DAG, paired window, bipartition windows (per
    ``max_bipartitions`` cap), the ``asdict(cascade)`` fragment of the
    kernel key, and ``keys``, the memo from a (layer, tile, arch,
    options) tuple to the hex key of its table's kernel.  Tile, arch
    and options only enter through the latency table and that memo,
    so a skeleton is shared by every plan of its cascade."""

    __slots__ = ("cascade", "dag", "paired", "fragment", "keys",
                 "_windows")

    def __init__(self, cascade: Cascade) -> None:
        self.cascade = cascade
        self.dag = ComputationDAG.from_cascade(cascade)
        self.paired = build_paired_window(self.dag, cascade)
        self.fragment = dataclasses.asdict(cascade)
        self.keys: Dict[Tuple[Any, ...], str] = {}
        self._windows: Dict[int, Tuple[_WindowSkeleton, ...]] = {}

    def windows(self, limit: int) -> Tuple[_WindowSkeleton, ...]:
        """The first ``limit`` bipartitions' window skeletons."""
        windows = self._windows.get(limit)
        if windows is None:
            windows = tuple(
                _WindowSkeleton(self.dag, bipartition)
                for bipartition in enumerate_bipartitions(
                    self.dag, limit=limit
                )
            )
            self._windows[limit] = windows
        return windows


#: Per-cascade skeletons, keyed by ``id(cascade)``.  Each entry holds
#: its cascade, so an id cannot be reused while the entry lives.  The
#: einsum builders are memoised, so a process plans a handful of
#: cascade instances and this stays small.
_SKELETONS: Dict[int, _Skeleton] = {}


def _skeleton(cascade: Cascade) -> _Skeleton:
    skeleton = _SKELETONS.get(id(cascade))
    if skeleton is None:
        skeleton = _Skeleton(cascade)
        _SKELETONS[id(cascade)] = skeleton
    return skeleton


def clear_kernel_cache() -> None:
    """Drop every in-process planning memo (tests and benchmarks):
    kernels, per-cascade skeletons with their key memos, and the
    memoised einsum builders -- a real cold start."""
    from repro.einsum import builders

    _KERNEL_CACHE.clear()
    _SKELETONS.clear()
    for builder in builders.SUBLAYER_BUILDERS.values():
        builder.cache_clear()


def kernel_cache_size() -> int:
    """Number of kernels currently memoized in-process."""
    return len(_KERNEL_CACHE)


def _table_fragment(table: LatencyTable) -> Dict[str, Any]:
    """The kernel key's rendering of a planning table: sorted
    ``[op, array, seconds]`` triples plus ``{op: load}``.

    ``stable_hash`` renders floats by ``repr``, so two tables share a
    fragment exactly when every latency and load is the same float.
    """
    return {
        "seconds": sorted(
            [name, kind.value, seconds]
            for (name, kind), seconds in table.seconds.items()
        ),
        "loads": dict(table.loads),
    }


def _kernel_payload(
    skeleton: _Skeleton,
    table: LatencyTable,
    options: DPipeOptions,
    salt: str,
    units_limit: Optional[int] = None,
) -> Dict[str, Any]:
    payload = {
        "kind": "dpipe-kernel",
        "salt": salt,
        "cascade": skeleton.fragment,
        "table": _table_fragment(table),
        "max_bipartitions": options.max_bipartitions,
        "max_orders": options.max_orders,
        "enable_dp_assignment": options.enable_dp_assignment,
    }
    if units_limit is not None:
        # Only budgeted kernels grow the key, so a degraded kernel
        # never answers an unbudgeted request (or vice versa).
        payload["budget"] = units_limit
    return payload


def _split_to_list(
    split: Mapping[PEArrayKind, float]
) -> List[List[Any]]:
    return [[kind.value, split[kind]] for kind in ARRAYS]


def _split_from_list(items: List[List[Any]]) -> Dict[PEArrayKind, float]:
    # Reconstruction preserves ARRAYS insertion order, so later
    # ``.items()`` float accumulation iterates exactly as the legacy
    # dicts built from ``{kind: 0.0 for kind in ARRAYS}`` did.
    return {PEArrayKind(kind): value for kind, value in items}


def _kernel_to_dict(kernel: _CascadeKernel) -> Dict[str, Any]:
    """JSON-safe kernel serialization (floats round-trip exactly)."""
    document: Dict[str, Any] = {
        "single": {
            "makespan": kernel.single.makespan,
            "busy": _split_to_list(kernel.single.busy),
            "load": _split_to_list(kernel.single.load),
        },
        "pipeline": None,
    }
    if kernel.provenance != PROVENANCE_COMPLETE:
        # Conditional: complete kernels serialize exactly as before.
        document["provenance"] = kernel.provenance
    if kernel.pipeline is not None:
        pipe = kernel.pipeline
        document["pipeline"] = {
            "static": {
                "period": pipe.static.period,
                "fill": pipe.static.fill,
                "sums": _split_to_list(pipe.static.sums),
                "loads": _split_to_list(pipe.static.loads),
            },
            "paired": {
                "pair_makespan": pipe.paired.pair_makespan,
                "busy": _split_to_list(pipe.paired.busy),
                "load": _split_to_list(pipe.paired.load),
            },
            "windows": [
                {
                    "first": sorted(window.bipartition.first),
                    "second": sorted(window.bipartition.second),
                    "order": list(window.order),
                    "period": window.period,
                    "fill": window.fill,
                    "drain": window.drain,
                    "busy": _split_to_list(window.busy),
                    "load": _split_to_list(window.load),
                }
                for window in pipe.windows
            ],
        }
    return document


def _kernel_from_dict(document: Mapping[str, Any]) -> _CascadeKernel:
    single = _SingleKernel(
        makespan=document["single"]["makespan"],
        busy=_split_from_list(document["single"]["busy"]),
        load=_split_from_list(document["single"]["load"]),
    )
    pipeline = None
    if document.get("pipeline") is not None:
        pipe = document["pipeline"]
        pipeline = _PipelineKernel(
            static=_StaticKernel(
                period=pipe["static"]["period"],
                fill=pipe["static"]["fill"],
                sums=_split_from_list(pipe["static"]["sums"]),
                loads=_split_from_list(pipe["static"]["loads"]),
            ),
            paired=_PairedKernel(
                pair_makespan=pipe["paired"]["pair_makespan"],
                busy=_split_from_list(pipe["paired"]["busy"]),
                load=_split_from_list(pipe["paired"]["load"]),
            ),
            windows=tuple(
                _WindowKernel(
                    bipartition=Bipartition(
                        first=frozenset(window["first"]),
                        second=frozenset(window["second"]),
                    ),
                    order=tuple(window["order"]),
                    period=window["period"],
                    fill=window["fill"],
                    drain=window["drain"],
                    busy=_split_from_list(window["busy"]),
                    load=_split_from_list(window["load"]),
                )
                for window in pipe["windows"]
            ),
        )
    return _CascadeKernel(
        single=single,
        pipeline=pipeline,
        provenance=document.get("provenance", PROVENANCE_COMPLETE),
    )


def _build_kernel(
    skeleton: _Skeleton,
    table: LatencyTable,
    options: DPipeOptions,
    with_pipeline: bool,
    units_limit: Optional[int] = None,
) -> _CascadeKernel:
    """Run the fused searches and record their n_epochs-free results.

    The searches read the tile, layer and architecture only through
    ``table`` (the :func:`_planning_table`), so the kernel is a pure
    function of the skeleton, the table, the search caps and the
    budget -- exactly what :func:`_kernel_payload` keys it by.

    ``units_limit`` caps the *total* DFS node visits across every
    internal search of this kernel with one shared
    :class:`~repro.resilience.budget.Budget`: the searches run
    serially in a fixed order, so the cut point -- and therefore the
    (possibly degraded) kernel -- is identical on every host.
    """
    cascade, dag = skeleton.cascade, skeleton.dag
    units = Budget(units_limit) if units_limit is not None else None

    _, single, single_prov = fused_best_order_ex(
        dag, table, options.max_orders, units=units
    )
    provenance = single_prov
    single_kernel = _SingleKernel(
        makespan=single.makespan,
        busy=dict(single.busy_seconds),
        load=single.load_split(table),
    )
    if not with_pipeline:
        return _CascadeKernel(
            single=single_kernel, pipeline=None,
            provenance=provenance,
        )

    sums: Dict[PEArrayKind, float] = {kind: 0.0 for kind in ARRAYS}
    loads: Dict[PEArrayKind, float] = {kind: 0.0 for kind in ARRAYS}
    for op in cascade.all_ops:
        natural = (
            PEArrayKind.ARRAY_2D
            if op.is_gemm_like
            else PEArrayKind.ARRAY_1D
        )
        sums[natural] += table.latency(op.name, natural)
        loads[natural] += table.load(op.name)
    static = _StaticKernel(
        period=max(sums.values()),
        fill=min(sums.values()),
        sums=sums,
        loads=loads,
    )

    _, paired_best, paired_prov = fused_best_order_ex(
        skeleton.paired, table, options.max_orders,
        zero_latency={ROOT}, units=units,
    )
    provenance = worst_provenance(provenance, paired_prov)
    paired = _PairedKernel(
        pair_makespan=paired_best.makespan,
        busy=dict(paired_best.busy_seconds),
        load=paired_best.load_split(table),
    )

    windows: List[_WindowKernel] = []
    for part in skeleton.windows(options.max_bipartitions):
        window, window_prov = best_window_schedule_ex(
            dag, part.bipartition, table, options.max_orders,
            units=units, window=part.window,
        )
        provenance = worst_provenance(provenance, window_prov)
        windows.append(_WindowKernel(
            bipartition=part.bipartition,
            order=window.order,
            period=window.period_seconds,
            fill=dp_schedule(*part.fill, table).makespan,
            drain=dp_schedule(*part.drain, table).makespan,
            busy=dict(window.schedule.busy_seconds),
            load=window.schedule.load_split(table),
        ))
    return _CascadeKernel(
        single=single_kernel,
        pipeline=_PipelineKernel(
            static=static, paired=paired, windows=tuple(windows)
        ),
        provenance=provenance,
    )


def _cached_kernel(
    skeleton: _Skeleton,
    layer: str,
    tile: Mapping[str, int],
    arch: ArchitectureSpec,
    options: DPipeOptions,
    with_pipeline: bool,
    units_limit: Optional[int] = None,
) -> _CascadeKernel:
    """The memoized kernel, consulting memory then the plan cache."""
    from repro.runner.cache import (
        code_salt,
        default_cache,
        stable_hash,
    )

    salt = code_salt()
    # The hex key is a pure function of these (the arch and tile by
    # value), so a repeated tile neither rebuilds its table nor
    # rehashes it.
    memo_key = (
        layer, tuple(sorted(tile.items())), arch,
        options.max_bipartitions, options.max_orders,
        options.enable_dp_assignment, units_limit, salt,
    )
    table: Optional[LatencyTable] = None
    key = skeleton.keys.get(memo_key)
    if key is None:
        table = _planning_table(
            skeleton.cascade, layer, tile, arch, options
        )
        key = stable_hash(_kernel_payload(
            skeleton, table, options, salt, units_limit=units_limit
        ))
        skeleton.keys[memo_key] = key

    def satisfies(kernel: Optional[_CascadeKernel]) -> bool:
        return kernel is not None and (
            kernel.pipeline is not None or not with_pipeline
        )

    kernel = _KERNEL_CACHE.get(key)
    if satisfies(kernel):
        return kernel  # type: ignore[return-value]
    cache = default_cache()
    if cache is not None:
        document = cache.get("dpipe-kernel", key)
        if document is not None:
            loaded = _kernel_from_dict(document)
            if satisfies(loaded):
                _KERNEL_CACHE[key] = loaded
                return loaded
    if table is None:
        table = _planning_table(
            skeleton.cascade, layer, tile, arch, options
        )
    kernel = _build_kernel(
        skeleton, table, options, with_pipeline,
        units_limit=units_limit,
    )
    _KERNEL_CACHE[key] = kernel
    if cache is not None:
        payload = _kernel_payload(
            skeleton, table, options, salt, units_limit=units_limit
        )
        cache.put("dpipe-kernel", key, _kernel_to_dict(kernel),
                  payload)
    return kernel


def _plan_from_kernel(
    kernel: _CascadeKernel,
    layer: str,
    n_epochs: int,
    options: DPipeOptions,
    arch: ArchitectureSpec,
) -> DPipePlan:
    """Scale a kernel by ``n_epochs`` and pick the winning candidate.

    Every float expression below matches the legacy plan construction
    term for term (same addition and multiplication order), so a plan
    built from a cached kernel is byte-identical to one built by
    ``plan_cascade_legacy``.
    """
    def compute_energy_pj(plan: DPipePlan) -> float:
        return arch.energy.pe_energy_pj(
            plan.load_split[PEArrayKind.ARRAY_2D],
            plan.load_split[PEArrayKind.ARRAY_1D],
        )

    def score(plan: DPipePlan) -> float:
        if options.objective == "latency":
            return plan.total_seconds
        if options.objective == "energy":
            return compute_energy_pj(plan)
        return plan.total_seconds * compute_energy_pj(plan)  # edp

    single = kernel.single
    best_plan = DPipePlan(
        layer=layer,
        n_epochs=n_epochs,
        epoch_seconds=single.makespan,
        total_seconds=n_epochs * single.makespan,
        busy_seconds={
            kind: n_epochs * single.busy[kind] for kind in ARRAYS
        },
        load_split={
            kind: n_epochs * load
            for kind, load in single.load.items()
        },
        pipelined=False,
        provenance=kernel.provenance,
    )
    if not options.enable_pipelining or n_epochs < 2:
        return best_plan

    pipe = kernel.pipeline
    assert pipe is not None  # caller requested the pipeline half
    static = pipe.static
    candidates = [DPipePlan(
        layer=layer,
        n_epochs=n_epochs,
        epoch_seconds=static.period,
        total_seconds=n_epochs * static.period + static.fill,
        busy_seconds={
            kind: n_epochs * static.sums[kind] for kind in ARRAYS
        },
        load_split={
            kind: n_epochs * static.loads[kind] for kind in ARRAYS
        },
        pipelined=True,
        provenance=kernel.provenance,
    )]
    paired = pipe.paired
    period = paired.pair_makespan / 2.0
    candidates.append(DPipePlan(
        layer=layer,
        n_epochs=n_epochs,
        epoch_seconds=period,
        total_seconds=single.makespan + (n_epochs - 1) * period,
        busy_seconds={
            kind: n_epochs * paired.busy[kind] / 2.0
            for kind in ARRAYS
        },
        load_split={
            kind: n_epochs * load / 2.0
            for kind, load in paired.load.items()
        },
        pipelined=True,
        provenance=kernel.provenance,
    ))
    for window in pipe.windows:
        total = (
            window.fill
            + (n_epochs - 1) * window.period
            + window.drain
        )
        candidates.append(DPipePlan(
            layer=layer,
            n_epochs=n_epochs,
            epoch_seconds=window.period,
            total_seconds=total,
            busy_seconds={
                kind: n_epochs * window.busy[kind]
                for kind in ARRAYS
            },
            load_split={
                kind: n_epochs * load
                for kind, load in window.load.items()
            },
            bipartition=window.bipartition,
            window_order=window.order,
            pipelined=True,
        ))
    for candidate in candidates:
        if score(candidate) < score(best_plan):
            best_plan = candidate
    return best_plan


def plan_cascade(
    cascade: Cascade,
    layer: str,
    tile: Mapping[str, int],
    arch: ArchitectureSpec,
    n_epochs: int,
    options: DPipeOptions = DPipeOptions(),
) -> DPipePlan:
    """Produce the best DPipe schedule for one sub-layer.

    Runs the fused branch-and-bound search over an interned DAG and
    memoizes the ``n_epochs``-free schedule kernel (in-process and
    through the persistent plan cache), keyed by the cascade's
    latency table rather than the tile, so repeated sweep points,
    different epoch counts over the same layer and tiles that price
    to the same table all skip the search.  Plans are byte-identical
    to :func:`plan_cascade_legacy`.

    Args:
        cascade: The sub-layer's Einsum cascade.
        layer: Sub-layer kind (Table-1 mapping selection).
        tile: Inner-tile extents (one epoch's work).
        arch: Target architecture.
        n_epochs: Epochs needed to cover the full problem.
        options: Search budget / ablation switches.

    Returns:
        The minimum-makespan plan found.
    """
    if n_epochs <= 0:
        raise ValueError("n_epochs must be positive")
    with_pipeline = options.enable_pipelining and n_epochs >= 2
    # The anytime unit budget (REPRO_BUDGET / REPRO_DEADLINE) caps
    # each kernel build's total DFS node visits; budgeted kernels get
    # distinct cache keys, so degraded results never masquerade as
    # complete ones (or vice versa).
    units_limit = resolve_budget()
    skeleton = _skeleton(cascade)
    if validation_enabled():
        # Auditors must see real DP passes, not cached floats: rebuild
        # the kernel with the schedule auditor armed (every winning
        # search pass and every fill/drain DP is replay-checked).
        kernel = _build_kernel(
            skeleton,
            _planning_table(cascade, layer, tile, arch, options),
            options, with_pipeline, units_limit=units_limit,
        )
    else:
        kernel = _cached_kernel(
            skeleton, layer, tile, arch, options, with_pipeline,
            units_limit=units_limit,
        )
    return _plan_from_kernel(kernel, layer, n_epochs, options, arch)


def plan_window_schedule(
    cascade: Cascade,
    layer: str,
    tile: Mapping[str, int],
    arch: ArchitectureSpec,
    plan: DPipePlan,
    options: DPipeOptions = DPipeOptions(),
) -> Optional[WindowSchedule]:
    """The :class:`WindowSchedule` behind a plan's winning bipartition.

    Consumers that render or inspect a plan's steady-state window (the
    CLI ``inspect`` command) go through here so they price the window
    with exactly the planner's fused search and options -- the two
    code paths cannot drift.  Returns ``None`` for unpipelined plans
    or pipelined plans without a bipartition window (static / paired
    winners).
    """
    if plan.bipartition is None:
        return None
    dag = ComputationDAG.from_cascade(cascade)
    table = _planning_table(cascade, layer, tile, arch, options)
    return best_window_schedule(
        dag, plan.bipartition, table, options.max_orders
    )
