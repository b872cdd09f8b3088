"""Tests for deterministic search budgets and provenance algebra."""

from __future__ import annotations

import pytest

from repro.resilience.budget import (
    PROVENANCE_BUDGET_EXHAUSTED,
    PROVENANCE_COMPLETE,
    RUNG_FIRST_ORDER,
    UNITS_PER_SECOND,
    Budget,
    fallback_enabled,
    fallback_provenance,
    is_degraded,
    resolve_budget,
    worst_provenance,
)


class TestBudget:
    def test_performs_exactly_limit_units(self):
        budget = Budget(3)
        charges = [budget.charge() for _ in range(5)]
        assert charges == [True, True, True, False, False]
        assert budget.spent == 3
        assert budget.exhausted()
        assert budget.remaining == 0

    def test_unlimited_counts_but_never_exhausts(self):
        budget = Budget(None)
        assert all(budget.charge() for _ in range(10))
        assert budget.spent == 10
        assert not budget.exhausted()
        assert budget.remaining is None

    def test_multi_unit_charge(self):
        budget = Budget(5)
        assert budget.charge(4)
        assert budget.remaining == 1
        # The gating is before the unit runs: one more charge is
        # granted, then the budget reads exhausted.
        assert budget.charge(4)
        assert not budget.charge()


class TestResolveBudget:
    def test_default_is_unbudgeted(self, monkeypatch):
        monkeypatch.delenv("REPRO_BUDGET", raising=False)
        monkeypatch.delenv("REPRO_DEADLINE", raising=False)
        assert resolve_budget() is None

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET", "100")
        assert resolve_budget(7) == 7
        assert resolve_budget() == 100

    def test_deadline_maps_once_through_fixed_rate(self, monkeypatch):
        monkeypatch.delenv("REPRO_BUDGET", raising=False)
        monkeypatch.setenv("REPRO_DEADLINE", "0.01")
        assert resolve_budget() == int(0.01 * UNITS_PER_SECOND)

    def test_tighter_of_budget_and_deadline_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET", "5")
        monkeypatch.setenv("REPRO_DEADLINE", "1.0")
        assert resolve_budget() == 5
        monkeypatch.setenv("REPRO_BUDGET", str(10 * UNITS_PER_SECOND))
        assert resolve_budget() == UNITS_PER_SECOND

    def test_nonpositive_deadline_ignored(self, monkeypatch):
        monkeypatch.delenv("REPRO_BUDGET", raising=False)
        monkeypatch.setenv("REPRO_DEADLINE", "0")
        assert resolve_budget() is None


class TestProvenance:
    def test_severity_order(self):
        fallback = fallback_provenance(RUNG_FIRST_ORDER)
        assert worst_provenance(
            PROVENANCE_COMPLETE, PROVENANCE_BUDGET_EXHAUSTED
        ) == PROVENANCE_BUDGET_EXHAUSTED
        assert worst_provenance(
            PROVENANCE_BUDGET_EXHAUSTED, fallback, PROVENANCE_COMPLETE
        ) == fallback

    def test_ties_keep_first(self):
        first = fallback_provenance(RUNG_FIRST_ORDER)
        second = fallback_provenance("another_rung")
        assert worst_provenance(first, second) == first

    def test_empty_is_complete(self):
        assert worst_provenance() == PROVENANCE_COMPLETE

    def test_is_degraded(self):
        assert not is_degraded(PROVENANCE_COMPLETE)
        assert is_degraded(PROVENANCE_BUDGET_EXHAUSTED)
        assert is_degraded(fallback_provenance(RUNG_FIRST_ORDER))


class TestFallbackToggle:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_FALLBACK", raising=False)
        assert fallback_enabled()

    @pytest.mark.parametrize("value", ["1", "on", "yes"])
    def test_disabled_by_env(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NO_FALLBACK", value)
        assert not fallback_enabled()

    @pytest.mark.parametrize("value", ["0", "off", ""])
    def test_falsy_values_keep_it_enabled(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NO_FALLBACK", value)
        assert fallback_enabled()
