"""TileSeek returns the exact optimum of its own candidate grid.

The product takes the optimum as the best point of the
maximal-feasible-``p`` line (DESIGN.md §10); the brute-force oracle
(``tests/oracles/tileseek_exact.py``) prices every ``(b, p)`` pair, and
:class:`ExhaustiveTilingSearch` every full ``[b, d, m1, p, s]`` point.
"""

from __future__ import annotations

import pytest

from repro.arch.spec import named_architecture
from repro.model.config import MODEL_ZOO, named_model
from repro.model.workload import Workload
from repro.tileseek.baseline_search import ExhaustiveTilingSearch
from repro.tileseek.search import TileSeek
from tests.oracles.tileseek_exact import (
    CENSUS_PINNED,
    census_points,
    exact_optimum,
)


def test_census_matches_brute_force_oracle():
    points = census_points()
    assert len(points) >= 600
    assert set(CENSUS_PINNED) <= set(points)
    assert {point[0] for point in points} == set(MODEL_ZOO)
    assert {point[1] for point in points} == {
        "cloud", "edge", "edge32", "edge64",
    }
    assert {point[4] for point in points} == {False, True}
    misses = []
    certified = 0
    for model, arch_name, seq_len, batch, causal in points:
        arch = named_architecture(arch_name)
        workload = Workload(
            named_model(model), seq_len=seq_len, batch=batch,
            causal=causal,
        )
        searcher = TileSeek()
        result = searcher.search(workload, arch)
        words, _ = exact_optimum(searcher, workload, arch)
        if result.assessment.dram_words != words:
            misses.append((model, arch_name, seq_len, batch, causal))
        certified += result.stats.iterations == 0
    assert misses == []
    # Most points never reach the MCTS; some still do.
    assert len(points) // 2 < certified < len(points)


@pytest.mark.parametrize("model, arch_name, seq_len, batch", [
    ("t5", "edge", 64, 2),
    ("trxl", "cloud", 128, 2),
    ("bert", "cloud", 128, 4),
])
def test_companions_only_buy_feasibility(
    model, arch_name, seq_len, batch
):
    """Over the full five-factor grid, the least traffic is already
    reached with minimal ``d``, ``m1`` and ``s``: the exhaustive
    optimum equals the ``(b, p)`` oracle's and the product's."""
    arch = named_architecture(arch_name)
    workload = Workload(
        named_model(model), seq_len=seq_len, batch=batch
    )
    exhaustive = ExhaustiveTilingSearch().search(workload, arch)
    words, _ = exact_optimum(TileSeek(), workload, arch)
    product = TileSeek().search(workload, arch)
    assert exhaustive.assessment.dram_words == words
    assert product.assessment.dram_words == words
    # These grids are small enough to run the MCTS.
    assert product.stats.iterations > 0
