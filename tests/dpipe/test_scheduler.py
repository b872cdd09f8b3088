"""Tests for the Eq. 43-46 DP scheduler, including schedule-validity
property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.pe import PEArrayKind
from repro.dpipe.latency import LatencyTable
from repro.dpipe.scheduler import ARRAYS, dp_schedule

TWO_D = PEArrayKind.ARRAY_2D
ONE_D = PEArrayKind.ARRAY_1D


def table(entries):
    """entries: {op: (seconds_2d, seconds_1d)}."""
    seconds = {}
    loads = {}
    for name, (t2, t1) in entries.items():
        seconds[(name, 0)] = t2
        seconds[(name, 1)] = t1
        loads[name] = 1.0
    return LatencyTable(seconds=seconds, loads=loads)


class TestBasicScheduling:
    def test_single_op_picks_faster_array(self):
        t = table({"a": (2.0, 5.0)})
        result = dp_schedule(["a"], {}, t)
        assert result.assignment["a"] is TWO_D
        assert result.makespan == 2.0

    def test_dependency_delays_start(self):
        t = table({"a": (1.0, 1.0), "b": (1.0, 1.0)})
        result = dp_schedule(
            ["a", "b"], {"b": {"a"}}, t
        )
        assert result.end_times["b"] == 2.0

    def test_independent_ops_balance_across_arrays(self):
        # Three equal ops: 2D, 1D, then 2D again -> makespan 2, not 3.
        t = table({f"op{i}": (1.0, 1.0) for i in range(3)})
        result = dp_schedule(
            [f"op{i}" for i in range(3)], {}, t
        )
        assert result.makespan == 2.0
        kinds = set(result.assignment.values())
        assert kinds == {TWO_D, ONE_D}

    def test_eq45_prefers_earliest_completion_not_raw_speed(self):
        # op1 occupies 2D until t=10; op2 is 2x slower on 1D but
        # finishes earlier there (6 < 10 + 3).
        t = table({"big": (10.0, 100.0), "small": (3.0, 6.0)})
        result = dp_schedule(["big", "small"], {}, t)
        assert result.assignment["small"] is ONE_D
        assert result.makespan == 10.0

    def test_tie_breaks_to_2d(self):
        t = table({"a": (1.0, 1.0)})
        result = dp_schedule(["a"], {}, t)
        assert result.assignment["a"] is TWO_D

    def test_zero_latency_root(self):
        t = table({"a": (1.0, 2.0)})
        result = dp_schedule(
            ["ROOT", "a"], {"a": {"ROOT"}}, t,
            zero_latency={"ROOT"},
        )
        assert result.makespan == 1.0

    def test_epoch_prefixes_resolve_to_base_latency(self):
        t = table({"a": (1.0, 2.0)})
        result = dp_schedule(["cur.a", "nxt.a"], {}, t)
        assert result.makespan == 2.0  # one on each array

    def test_load_split_ignores_root(self):
        t = table({"a": (1.0, 2.0)})
        result = dp_schedule(
            ["ROOT", "a"], {"a": {"ROOT"}}, t,
            zero_latency={"ROOT"},
        )
        split = result.load_split(t)
        assert split[TWO_D] == 1.0
        assert split[ONE_D] == 0.0

    def test_busy_seconds_sum_to_assigned_latencies(self):
        t = table({"a": (1.0, 9.0), "b": (9.0, 2.0)})
        result = dp_schedule(["a", "b"], {}, t)
        total_busy = sum(result.busy_seconds.values())
        assert total_busy == pytest.approx(1.0 + 2.0)


class TestScheduleValidityProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        lat=st.data(),
    )
    def test_schedule_respects_deps_and_resources(self, n, lat):
        names = [f"op{i}" for i in range(n)]
        entries = {
            name: (
                lat.draw(st.floats(0.1, 10.0)),
                lat.draw(st.floats(0.1, 10.0)),
            )
            for name in names
        }
        # Chain-ish random deps: op_i may depend on any earlier op.
        preds = {}
        for i, name in enumerate(names):
            if i and lat.draw(st.booleans()):
                preds[name] = {names[lat.draw(
                    st.integers(0, i - 1)
                )]}
        t = table(entries)
        result = dp_schedule(names, preds, t)
        # (1) Every op finishes after its dependencies.
        for name, deps in preds.items():
            for dep in deps:
                lat_s = entries[name][
                    0 if result.assignment[name] is TWO_D else 1
                ]
                start = result.end_times[name] - lat_s
                assert start >= result.end_times[dep] - 1e-9
        # (2) No PE array is double-booked: per-array intervals are
        # disjoint (ends are monotone in schedule order per array).
        for kind in ARRAYS:
            ends = [
                result.end_times[name]
                for name in names
                if result.assignment[name] is kind
            ]
            assert ends == sorted(ends)
        # (3) Makespan is the max end time and bounded below by the
        # critical resource.
        assert result.makespan == pytest.approx(
            max(result.end_times.values())
        )
        best_total = sum(
            min(entries[name]) for name in names
        )
        assert result.makespan >= best_total / len(ARRAYS) - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 10**6))
    def test_makespan_never_worse_than_serial_best_array(
        self, n, seed
    ):
        import random

        gen = random.Random(seed)
        names = [f"op{i}" for i in range(n)]
        entries = {
            name: (gen.uniform(0.1, 5.0), gen.uniform(0.1, 5.0))
            for name in names
        }
        t = table(entries)
        result = dp_schedule(names, {}, t)
        serial = sum(min(entries[name]) for name in names)
        assert result.makespan <= serial + 1e-9
