"""Golden-corpus regression: frozen reports must reproduce exactly.

Every corpus point (3 models x 2 architectures x 2 sequence lengths,
fused executor) is re-priced and its canonical JSON rendering diffed
byte for byte against the checked-in snapshot.  A mismatch means the
cost model changed: either fix the regression or, for an intentional
change, regenerate with ``python scripts/update_golden.py`` and
explain the numbers in the commit.
"""

from __future__ import annotations

import json

import pytest

from repro.runner.chain import compute_report
from repro.validate.golden import (
    GOLDEN_ARCHS,
    GOLDEN_DEGRADED_BUDGET,
    GOLDEN_MODELS,
    GOLDEN_SEQS,
    golden_degraded_document,
    golden_degraded_filename,
    golden_degraded_points,
    golden_dir,
    golden_document,
    golden_filename,
    golden_points,
    render_golden,
)


class TestCorpusShape:
    def test_grid_is_three_by_two_by_two(self):
        points = golden_points()
        assert len(points) == (
            len(GOLDEN_MODELS) * len(GOLDEN_ARCHS) * len(GOLDEN_SEQS)
        ) == 12
        assert len({golden_filename(p) for p in points}) == 12

    def test_no_stray_snapshots(self):
        expected = {golden_filename(p) for p in golden_points()}
        expected |= {
            golden_degraded_filename(p)
            for p in golden_degraded_points()
        }
        on_disk = {p.name for p in golden_dir().glob("*.json")}
        assert on_disk == expected


@pytest.mark.parametrize(
    "point", golden_points(), ids=golden_filename
)
class TestGoldenSnapshots:
    def test_matches_snapshot_byte_for_byte(self, point):
        path = golden_dir() / golden_filename(point)
        assert path.exists(), (
            f"missing snapshot {path.name}; run "
            f"scripts/update_golden.py"
        )
        # Auditors run in place during pricing (REPRO_VALIDATE=1 is
        # the suite default), so a corrupt re-pricing raises before
        # the diff.
        report = compute_report(point)
        rendered = render_golden(golden_document(point, report))
        assert rendered == path.read_text(), (
            f"{path.name} drifted from the frozen corpus; if the "
            f"model change is intentional, regenerate via "
            f"scripts/update_golden.py"
        )

    def test_snapshot_is_canonical_json(self, point):
        path = golden_dir() / golden_filename(point)
        document = json.loads(path.read_text())
        assert (
            json.dumps(document, indent=2, sort_keys=True) + "\n"
            == path.read_text()
        )
        assert document["point"]["model"] == point.model
        assert {ph["name"] for ph in document["report"]["phases"]} \
            == {"qkv", "mha", "layernorm", "ffn"}
        # Healthy snapshots never carry a provenance key (complete
        # searches serialize byte-identically to the pre-budget era).
        assert "provenance" not in document["report"]


@pytest.mark.parametrize(
    "point", golden_degraded_points(), ids=golden_degraded_filename
)
class TestDegradedSnapshots:
    """The fallback ladder's output is frozen like any other plan:
    the same budget must reproduce the same degraded report, byte
    for byte, on any host at any parallelism."""

    def test_matches_snapshot_byte_for_byte(
        self, point, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_BUDGET", str(GOLDEN_DEGRADED_BUDGET)
        )
        path = golden_dir() / golden_degraded_filename(point)
        assert path.exists(), (
            f"missing snapshot {path.name}; run "
            f"scripts/update_golden.py"
        )
        report = compute_report(point)
        rendered = render_golden(
            golden_degraded_document(point, report)
        )
        assert rendered == path.read_text(), (
            f"{path.name} drifted from the frozen degraded corpus; "
            f"if the ladder change is intentional, regenerate via "
            f"scripts/update_golden.py"
        )

    def test_snapshot_is_labeled_degraded(self, point):
        path = golden_dir() / golden_degraded_filename(point)
        document = json.loads(path.read_text())
        assert document["budget"] == GOLDEN_DEGRADED_BUDGET
        provenance = document["report"]["provenance"]
        assert provenance != "complete"
        assert (
            provenance == "budget_exhausted"
            or provenance.startswith("fallback:")
        )
