"""A brute-force exact solver for TileSeek's candidate grid.

The reference for the production search's certificate
(:meth:`repro.tileseek.search.TileSeek.search`), which takes the
grid optimum as the best point of the maximal-feasible-``p`` line.
This module assumes none of that: it prices *every* ``(b, p)`` pair
of the grid through :func:`assess_tiling`, each paired with the
minimal ``(d, m1, s)``, and keeps the least DRAM traffic over the
feasible ones.  No monotone shortcut, no bisection.  The census test
(``tests/tileseek/test_exactness.py``) and
``benchmarks/bench_framework_perf.py`` compare the product against
it.  No production path imports this module.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.arch.spec import ArchitectureSpec
from repro.model.config import MODEL_ZOO
from repro.model.workload import Workload
from repro.tileseek.evaluate import assess_tiling
from repro.tileseek.search import TileSeek


def exact_optimum(
    searcher: TileSeek, workload: Workload, arch: ArchitectureSpec
) -> Tuple[Optional[float], Optional[Tuple[int, ...]]]:
    """The least DRAM words over the grid, and the first assignment
    (in ascending ``b``, then ``p``) that attains it.

    Returns ``(None, None)`` when no grid point fits the buffer.
    """
    grid = searcher.candidate_grid(workload, arch)
    fixed = searcher.fixed_factors(arch)
    d, m1, s = min(grid["d"]), min(grid["m1"]), min(grid["s"])
    best_words: Optional[float] = None
    best: Optional[Tuple[int, ...]] = None
    for b in grid["b"]:
        for p in grid["p"]:
            assignment = (b, d, m1, p, s)
            assessment = assess_tiling(
                searcher._config_from(assignment, fixed),
                workload, arch,
            )
            if not assessment.feasible:
                continue
            if best_words is None or assessment.dram_words < best_words:
                best_words = assessment.dram_words
                best = assignment
    return best_words, best


#: Census points the exactness checks always include: the worst miss
#: of the pre-certificate search (2.22x the optimum's DRAM words) and
#: the three unbudgeted golden-corpus points it missed.
CENSUS_PINNED: Tuple[Tuple[str, str, int, int, bool], ...] = (
    ("bert", "cloud", 512, 16, True),
    ("bert", "cloud", 512, 4, False),
    ("t5", "cloud", 512, 4, False),
    ("t5", "cloud", 1024, 4, False),
)


def census_points(
    count: int = 600, seed: int = 2026
) -> List[Tuple[str, str, int, int, bool]]:
    """``count`` distinct seeded ``(model, arch, seq_len, batch,
    causal)`` points: every model zoo entry, all four architecture
    presets, power-of-two sequences from 512 to 1 M tokens and
    batches from 1 to 64, causal or not.  :data:`CENSUS_PINNED`
    leads the list."""
    rng = random.Random(seed)
    models = sorted(MODEL_ZOO)
    archs = ("cloud", "edge", "edge32", "edge64")
    points = list(CENSUS_PINNED)
    seen = set(points)
    while len(points) < count:
        point = (
            rng.choice(models), rng.choice(archs),
            1 << rng.randint(9, 20), 1 << rng.randint(0, 6),
            rng.random() < 0.5,
        )
        if point not in seen:
            seen.add(point)
            points.append(point)
    return points
