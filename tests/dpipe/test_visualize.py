"""Tests for schedule timelines and Gantt rendering."""

import pytest

from repro.arch.pe import PEArrayKind
from repro.dpipe.latency import LatencyTable
from repro.dpipe.scheduler import dp_schedule
from repro.dpipe.visualize import (
    OpInterval,
    array_occupancy,
    render_gantt,
    schedule_timeline,
)

TWO_D = PEArrayKind.ARRAY_2D
ONE_D = PEArrayKind.ARRAY_1D


def table(entries):
    seconds = {}
    loads = {}
    for name, (t2, t1) in entries.items():
        seconds[(name, 0)] = t2
        seconds[(name, 1)] = t1
        loads[name] = 1.0
    return LatencyTable(seconds=seconds, loads=loads)


@pytest.fixture
def simple_schedule():
    t = table({"a": (1.0, 5.0), "b": (5.0, 2.0), "c": (1.0, 3.0)})
    result = dp_schedule(["a", "b", "c"], {"c": {"a"}}, t)
    return result, t


class TestTimeline:
    def test_intervals_match_latencies(self, simple_schedule):
        result, t = simple_schedule
        timeline = schedule_timeline(result, t)
        for interval in timeline:
            expected = t.latency(interval.name, interval.array)
            assert interval.duration == pytest.approx(expected)

    def test_sorted_by_start(self, simple_schedule):
        result, t = simple_schedule
        timeline = schedule_timeline(result, t)
        starts = [iv.start for iv in timeline]
        assert starts == sorted(starts)

    def test_zero_latency_nodes_omitted(self):
        t = table({"a": (1.0, 1.0)})
        result = dp_schedule(
            ["ROOT", "a"], {"a": {"ROOT"}}, t,
            zero_latency={"ROOT"},
        )
        timeline = schedule_timeline(result, t,
                                     zero_latency={"ROOT"})
        assert [iv.name for iv in timeline] == ["a"]

    def test_per_array_intervals_disjoint(self, simple_schedule):
        result, t = simple_schedule
        timeline = schedule_timeline(result, t)
        for kind in (TWO_D, ONE_D):
            spans = sorted(
                (iv.start, iv.end)
                for iv in timeline
                if iv.array is kind
            )
            for (s1, e1), (s2, _) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-12

    def test_occupancy_sums_durations(self, simple_schedule):
        result, t = simple_schedule
        timeline = schedule_timeline(result, t)
        busy = array_occupancy(timeline)
        assert sum(busy.values()) == pytest.approx(
            sum(iv.duration for iv in timeline)
        )


class TestGantt:
    def test_render_contains_all_ops(self, simple_schedule):
        result, t = simple_schedule
        text = render_gantt(schedule_timeline(result, t))
        for name in ("a", "b", "c"):
            assert name in text

    def test_glyphs_encode_arrays(self):
        intervals = [
            OpInterval("x", TWO_D, 0.0, 1.0),
            OpInterval("y", ONE_D, 0.0, 1.0),
        ]
        text = render_gantt(intervals)
        lines = text.splitlines()
        assert "#" in lines[1] and "=" not in lines[1]
        assert "=" in lines[2] and "#" not in lines[2]

    def test_empty_schedule(self):
        assert "empty" in render_gantt([])

    def test_width_validated(self):
        with pytest.raises(ValueError):
            render_gantt([OpInterval("x", TWO_D, 0.0, 1.0)],
                         width=2)

    def test_bars_proportional_to_duration(self):
        intervals = [
            OpInterval("short", TWO_D, 0.0, 1.0),
            OpInterval("long", TWO_D, 1.0, 9.0),
        ]
        text = render_gantt(intervals, width=90)
        lines = text.splitlines()
        assert lines[2].count("#") > 5 * lines[1].count("#")
