"""Differential tests: fused branch-and-bound search vs. legacy
enumerate-then-score.

The fused search (:mod:`repro.dpipe.search`) must be *byte-identical*
to materializing topological orders and DP-scheduling each from
scratch -- same winning order, same float end times, same busy totals
-- including under the ``max_orders`` cap (pruned branches still count
toward the budget) and with a zero-latency virtual ROOT.  These
property tests drive both implementations over seeded random DAGs and
latency tables and compare every field.
"""

import random

import pytest

from repro.arch.pe import PEArrayKind
from repro.dpipe.latency import LatencyTable
from repro.dpipe.pipeline import ROOT, best_window_schedule, build_window
from repro.dpipe.scheduler import dp_schedule
from repro.dpipe.search import (
    InternedProblem,
    _FusedSearch,
    fused_best_order,
)
from repro.graph.dag import ComputationDAG
from repro.graph.partition import enumerate_bipartitions
from repro.graph.toposort import (
    all_topological_orders,
    critical_path_order,
)
from tests.oracles.dpipe_legacy import (
    _window_weights,
    legacy_window_schedule,
    walk_skipped_leaves,
)

TWO_D = PEArrayKind.ARRAY_2D
ONE_D = PEArrayKind.ARRAY_1D


def random_dag(rng: random.Random, n_nodes: int,
               edge_prob: float) -> ComputationDAG:
    """A random DAG over ``op0..opN`` with forward edges only."""
    names = [f"op{i}" for i in range(n_nodes)]
    edges = set()
    for j in range(n_nodes):
        for i in range(j):
            if rng.random() < edge_prob:
                edges.add((names[i], names[j]))
    return ComputationDAG(nodes=tuple(names), edges=frozenset(edges))


def random_layered_dag(rng: random.Random) -> ComputationDAG:
    """A random layered DAG (every layer fully feeds the next) with a
    single source and sink, so each prefix of layers is weakly
    connected and a valid bipartition always exists."""
    n_inner = rng.randint(1, 2)
    widths = [1] + [rng.randint(1, 2) for _ in range(n_inner)] + [1]
    layers = []
    total = 0
    for width in widths:
        layers.append([f"op{total + i}" for i in range(width)])
        total += width
    edges = set()
    for upper, lower in zip(layers, layers[1:]):
        for u in upper:
            for v in lower:
                edges.add((u, v))
    names = tuple(n for layer in layers for n in layer)
    return ComputationDAG(nodes=names, edges=frozenset(edges))


def random_table(rng: random.Random,
                 dag: ComputationDAG) -> LatencyTable:
    """Random latencies drawn from a small set so makespan ties are
    common (ties exercise the first-found-winner rule)."""
    choices = (1.0, 1.0, 2.0, 3.0, 5.0, 0.25)
    seconds = {}
    loads = {}
    for name in dag.nodes:
        seconds[(name, 0)] = rng.choice(choices)
        seconds[(name, 1)] = rng.choice(choices)
        loads[name] = rng.choice((1.0, 4.0))
    return LatencyTable(seconds=seconds, loads=loads)


def legacy_best(dag, table, limit, zero_latency=frozenset(),
                extra_orders=()):
    """The reference search: materialize orders, DP each from
    scratch, keep the first strict minimum."""
    preds = dag.pred_map()
    candidates = list(all_topological_orders(dag, limit=limit))
    candidates.extend(extra_orders)
    best = None
    best_order = None
    for order in candidates:
        result = dp_schedule(order, preds, table,
                             zero_latency=set(zero_latency))
        if best is None or result.makespan < best.makespan:
            best = result
            best_order = tuple(order)
    return best_order, best


def assert_identical(fused, reference):
    """Every observable field, including dict iteration order (the
    planner accumulates floats in that order)."""
    f_order, f_res = fused
    l_order, l_res = reference
    assert f_order == l_order
    assert f_res.makespan == l_res.makespan
    assert f_res.assignment == l_res.assignment
    assert f_res.end_times == l_res.end_times
    assert f_res.busy_seconds == l_res.busy_seconds
    assert list(f_res.end_times) == list(l_res.end_times)
    assert list(f_res.assignment) == list(l_res.assignment)


class TestFusedEqualsLegacy:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_dags_unlimited(self, seed):
        rng = random.Random(seed)
        dag = random_dag(rng, rng.randint(1, 7),
                         rng.choice((0.15, 0.4, 0.7)))
        table = random_table(rng, dag)
        limit = 10_000  # effectively uncapped at this size
        assert_identical(
            fused_best_order(dag, table, limit),
            legacy_best(dag, table, limit),
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_random_dags_capped(self, seed):
        """The cap must bite exactly as in the legacy search: pruned
        branches still consume budget, so both paths stop after the
        same enumerated prefix."""
        rng = random.Random(1000 + seed)
        dag = random_dag(rng, rng.randint(3, 7),
                         rng.choice((0.1, 0.3)))
        table = random_table(rng, dag)
        for limit in (1, 2, 3, 7, 20):
            assert_identical(
                fused_best_order(dag, table, limit),
                legacy_best(dag, table, limit),
            )

    @pytest.mark.parametrize("seed", range(25))
    def test_windows_with_zero_latency_root(self, seed):
        """ROOT-joined epoch windows: zero-latency node plus epoch
        prefixes stripped during interning."""
        rng = random.Random(2000 + seed)
        dag = random_layered_dag(rng)
        table = random_table(rng, dag)
        bipartitions = enumerate_bipartitions(dag, limit=3)
        assert bipartitions, "layered DAGs always bipartition"
        for bipartition in bipartitions:
            window = build_window(dag, bipartition)
            for limit in (2, 48):
                assert_identical(
                    fused_best_order(window, table, limit,
                                     zero_latency={ROOT}),
                    legacy_best(window, table, limit,
                                zero_latency={ROOT}),
                )

    @pytest.mark.parametrize("seed", range(25))
    def test_extra_orders_match_legacy_append(self, seed):
        """The critical-path candidate is appended after enumeration
        and can only win with a strictly smaller makespan."""
        rng = random.Random(3000 + seed)
        dag = random_dag(rng, rng.randint(2, 6), 0.3)
        table = random_table(rng, dag)
        weights = {
            node: min(table.latency(node, TWO_D),
                      table.latency(node, ONE_D))
            for node in dag.nodes
        }
        extra = (critical_path_order(dag, weights),)
        for limit in (1, 5, 100):
            assert_identical(
                fused_best_order(dag, table, limit,
                                 extra_orders=extra),
                legacy_best(dag, table, limit, extra_orders=extra),
            )

    @pytest.mark.parametrize("seed", range(15))
    def test_window_schedule_wrapper(self, seed):
        """End-to-end: best_window_schedule (fused) equals
        legacy_window_schedule on random DAGs."""
        rng = random.Random(4000 + seed)
        dag = random_layered_dag(rng)
        table = random_table(rng, dag)
        for bipartition in enumerate_bipartitions(dag, limit=4):
            fused = best_window_schedule(dag, bipartition, table, 48)
            legacy = legacy_window_schedule(dag, bipartition, table,
                                            48)
            assert fused.order == legacy.order
            assert fused.schedule == legacy.schedule


class TestSearchEdgeCases:
    def test_invalid_limit_rejected(self):
        dag = random_dag(random.Random(0), 3, 0.5)
        table = random_table(random.Random(0), dag)
        with pytest.raises(ValueError, match="positive"):
            fused_best_order(dag, table, 0)

    def test_single_node(self):
        dag = ComputationDAG(nodes=("a",), edges=frozenset())
        table = LatencyTable(
            seconds={("a", 0): 2.0, ("a", 1): 3.0},
            loads={"a": 1.0},
        )
        order, result = fused_best_order(dag, table, 48)
        assert order == ("a",)
        assert result.makespan == 2.0
        assert result.assignment["a"] is TWO_D

    def test_chain_has_one_order(self):
        dag = ComputationDAG(
            nodes=("a", "b", "c"),
            edges=frozenset({("a", "b"), ("b", "c")}),
        )
        table = LatencyTable(
            seconds={(n, k): 1.0 for n in "abc"
                     for k in (0, 1)},
            loads={n: 1.0 for n in "abc"},
        )
        order, result = fused_best_order(dag, table, 48)
        assert order == ("a", "b", "c")
        assert result.makespan == 3.0

    def test_antichain_prunes_but_finds_optimum(self):
        """Wide antichain: thousands of orders share the optimum; the
        fused search must return the first-enumerated winner."""
        names = tuple(f"op{i}" for i in range(6))
        dag = ComputationDAG(nodes=names, edges=frozenset())
        table = LatencyTable(
            seconds={(n, k): 1.0 for n in names
                     for k in (0, 1)},
            loads={n: 1.0 for n in names},
        )
        assert_identical(
            fused_best_order(dag, table, 720),
            legacy_best(dag, table, 720),
        )

    def test_tail_bound_is_admissible(self):
        """The pruning bound never exceeds the true best makespan of
        any completion (checked indirectly: capped and uncapped
        searches agree with legacy on a tie-heavy DAG)."""
        rng = random.Random(99)
        for _ in range(10):
            dag = random_dag(rng, 6, 0.2)
            table = random_table(rng, dag)
            problem = InternedProblem(dag, table)
            # tail_min is a min-over-arrays critical path: for every
            # topological order, makespan >= max over nodes of
            # tail_min at that node's scheduling time.
            for order in all_topological_orders(dag, limit=50):
                result = dp_schedule(order, dag.pred_map(), table)
                index = {n: i for i, n in enumerate(problem.names)}
                root_tail = max(
                    problem.tail_min[index[n]] for n in dag.nodes
                ) if dag.nodes else 0.0
                assert result.makespan >= root_tail - 1e-12


def builder_windows():
    """Every DAG the planner searches for the builder cascades: each
    cascade's single-epoch DAG, its paired window and its bipartition
    windows, taken from the planner's skeletons (the instances whose
    structures the product memoises)."""
    from repro.dpipe.options import DPipeOptions
    from repro.dpipe.planner import _skeleton
    from repro.einsum.builders import (
        attention_cascade,
        ffn_cascade,
        layernorm_cascade,
        qkv_cascade,
    )

    limit = DPipeOptions().max_bipartitions
    for layer, cascade in (
        ("qkv", qkv_cascade()),
        ("qkv", qkv_cascade(kv_cost_fraction=0.25)),
        ("mha", attention_cascade()),
        ("mha", attention_cascade(masked=True)),
        ("layernorm", layernorm_cascade()),
        ("ffn", ffn_cascade()),
        ("ffn", ffn_cascade("silu")),
    ):
        skeleton = _skeleton(cascade)
        yield layer, cascade, "dag", skeleton.dag
        yield layer, cascade, "paired", skeleton.paired
        for part in skeleton.windows(limit):
            yield layer, cascade, "window", part.window


def placed_sets(problem):
    """One prefix (ids) per set of nodes a DFS prefix can place."""
    preds = problem.preds
    seen = {0: ()}
    frontier = [0]
    while frontier:
        deeper = []
        for mask in frontier:
            prefix = seen[mask]
            for v in range(len(problem.names)):
                bit = 1 << v
                if mask & bit or any(
                    not mask >> p & 1 for p in preds[v]
                ):
                    continue
                if mask | bit not in seen:
                    seen[mask | bit] = prefix + (v,)
                    deeper.append(mask | bit)
        frontier = deeper
    return list(seen.values())


def uniform_table(dag):
    """Unit latencies on both arrays (the count ignores latencies)."""
    from repro.dpipe.scheduler import _strip_epoch

    bases = {_strip_epoch(n) for n in dag.nodes}
    return LatencyTable(
        seconds={(b, k): 1.0 for b in bases for k in (0, 1)},
        loads={b: 1.0 for b in bases},
    )


class TestSkippedLeafCount:
    def test_memoised_count_consumes_the_cap_like_the_walk(self):
        """For every prefix of every builder cascade's windows, the
        memoised count of a pruned prefix's leaves spends the cap
        exactly as the enumeration walk it replaces: same budget
        left, same keep-going answer."""
        checked = 0
        for _, _, _, dag in builder_windows():
            problem = InternedProblem(dag, uniform_table(dag),
                                      zero_latency={ROOT})
            for prefix in placed_sets(problem):
                for limit, budget in (
                    (1, 1), (7, 7), (48, 48), (48, 7), (48, 1),
                ):
                    search = _FusedSearch(problem, limit)
                    search.order = list(prefix)
                    search.budget = budget
                    keep_going = search._count_skipped()
                    assert (search.budget, keep_going) == (
                        walk_skipped_leaves(problem, prefix, budget)
                    ), (dag.nodes, prefix, limit, budget)
                    checked += 1
        assert checked > 10000

    def test_count_is_memoised_on_the_structure(self):
        dag = random_layered_dag(random.Random(5))
        problem = InternedProblem(dag, random_table(random.Random(5),
                                                    dag))
        leaves = problem.structure.leaves(0, 48)
        assert leaves == min(48, len(all_topological_orders(dag)))
        assert problem.structure.extensions[48][0] == leaves
        # A second table over the same DAG shares the memo.
        again = InternedProblem(dag, random_table(random.Random(6),
                                                  dag))
        assert again.structure is problem.structure


class TestCriticalPathIds:
    @staticmethod
    def _assert_same(window, table):
        problem = InternedProblem(window, table, zero_latency={ROOT})
        ids = problem.structure.critical_path(problem.tail_min)
        assert tuple(problem.names[v] for v in ids) == (
            critical_path_order(window, _window_weights(window, table))
        )

    def test_equals_critical_path_order_on_every_window(self):
        """The id-space critical-path order equals
        ``critical_path_order`` under ``_window_weights`` on every
        builder cascade window, over several tiles per layer."""
        from repro.arch.spec import cloud_architecture, edge_architecture
        from repro.dpipe.latency import build_latency_table
        from repro.model.config import named_model
        from repro.sim.mapping import inner_tile_extents

        checked = 0
        for layer, cascade, kind, dag in builder_windows():
            if kind != "window":
                continue
            for arch in (cloud_architecture(), edge_architecture()):
                for model in ("bert", "llama3"):
                    for seq in (8, 4096):
                        extents = named_model(model).extents()
                        extents.update({"p": seq, "m0": seq, "m1": 1})
                        tile = inner_tile_extents(layer, extents,
                                                  arch.array_2d)
                        table = build_latency_table(cascade, layer,
                                                    tile, arch)
                        self._assert_same(dag, table)
                        checked += 1
        assert checked > 100

    @pytest.mark.parametrize("seed", range(40))
    def test_ties_break_by_name_on_random_windows(self, seed):
        """Tie-heavy random latencies: equal tails fall back to the
        name order, as ``critical_path_order`` sorts them.  Nodes are
        renamed in shuffled order, so the name order is not the id
        (insertion) order."""
        rng = random.Random(7000 + seed)
        layered = random_layered_dag(rng)
        shuffled = [f"op{i}" for i in range(len(layered.nodes))]
        rng.shuffle(shuffled)
        rename = dict(zip(layered.nodes, shuffled))
        dag = ComputationDAG(
            nodes=tuple(rename[n] for n in layered.nodes),
            edges=frozenset(
                (rename[u], rename[v]) for u, v in layered.edges
            ),
        )
        table = random_table(rng, dag)
        for bipartition in enumerate_bipartitions(dag, limit=4):
            self._assert_same(build_window(dag, bipartition), table)
