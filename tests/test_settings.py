"""Tests for the consolidated ``REPRO_*`` settings module.

Every environment knob resolves through :mod:`repro.settings`; these
tests pin the parsing semantics the scattered hand-rolled parsers
historically implemented (blank == unset, typed errors naming the
variable, opt-out boolean flags) so the consolidation cannot drift.
"""

from __future__ import annotations

import pytest

from repro.runner.errors import SweepConfigError
from repro.settings import (
    FALSY_VALUES,
    KNOWN_SETTINGS,
    config_error,
    env_bool,
    env_float,
    env_int,
    raw_value,
)

VAR = "REPRO_TEST_SETTING"


class TestRawValue:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(VAR, raising=False)
        assert raw_value(VAR) is None

    def test_blank_is_none(self, monkeypatch):
        monkeypatch.setenv(VAR, "   ")
        assert raw_value(VAR) is None

    def test_stripped(self, monkeypatch):
        monkeypatch.setenv(VAR, "  7 ")
        assert raw_value(VAR) == "7"


class TestEnvInt:
    def test_unset_and_blank_resolve_none(self, monkeypatch):
        monkeypatch.delenv(VAR, raising=False)
        assert env_int(VAR) is None
        monkeypatch.setenv(VAR, "")
        assert env_int(VAR) is None

    def test_parses(self, monkeypatch):
        monkeypatch.setenv(VAR, " 42 ")
        assert env_int(VAR) == 42

    def test_malformed_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv(VAR, "soon")
        with pytest.raises(SweepConfigError) as err:
            env_int(VAR, "an integer worker count")
        assert VAR in str(err.value)
        assert "an integer worker count" in str(err.value)
        assert "'soon'" in str(err.value)

    def test_minimum_enforced(self, monkeypatch):
        monkeypatch.setenv(VAR, "0")
        with pytest.raises(SweepConfigError) as err:
            env_int(VAR, "a search unit budget", minimum=1)
        assert ">= 1" in str(err.value)
        monkeypatch.setenv(VAR, "1")
        assert env_int(VAR, minimum=1) == 1


class TestEnvFloat:
    def test_unset_resolves_none(self, monkeypatch):
        monkeypatch.delenv(VAR, raising=False)
        assert env_float(VAR) is None

    def test_parses(self, monkeypatch):
        monkeypatch.setenv(VAR, "2.5")
        assert env_float(VAR) == 2.5

    def test_malformed_raises_config_error(self, monkeypatch):
        monkeypatch.setenv(VAR, "fast")
        with pytest.raises(SweepConfigError) as err:
            env_float(VAR, "a number of seconds")
        assert f"{VAR} must be a number of seconds" in str(err.value)


class TestEnvBool:
    @pytest.mark.parametrize("default", [True, False])
    def test_unset_and_blank_take_default(self, monkeypatch, default):
        monkeypatch.delenv(VAR, raising=False)
        assert env_bool(VAR, default=default) is default
        monkeypatch.setenv(VAR, "  ")
        assert env_bool(VAR, default=default) is default

    @pytest.mark.parametrize("value", FALSY_VALUES + ("OFF", "No "))
    def test_falsy_spellings(self, monkeypatch, value):
        monkeypatch.setenv(VAR, value)
        assert env_bool(VAR, default=True) is False

    @pytest.mark.parametrize("value", ["1", "on", "yes", "anything"])
    def test_everything_else_is_true(self, monkeypatch, value):
        monkeypatch.setenv(VAR, value)
        assert env_bool(VAR, default=False) is True


class TestRegistry:
    def test_config_error_is_sweep_config_error(self):
        error = config_error("bad knob")
        assert isinstance(error, SweepConfigError)
        assert isinstance(error, ValueError)
        assert str(error) == "bad knob"

    def test_known_settings_cover_the_resilience_knobs(self):
        for name in ("REPRO_BUDGET", "REPRO_DEADLINE",
                     "REPRO_NO_FALLBACK", "REPRO_JOBS",
                     "REPRO_CACHE", "REPRO_VALIDATE"):
            assert name in KNOWN_SETTINGS


class TestConsumersUseTypedErrors:
    """The re-pointed call sites keep their historical messages."""

    def test_jobs(self, monkeypatch):
        from repro.runner.chain import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(SweepConfigError) as err:
            resolve_jobs()
        assert (
            "REPRO_JOBS must be an integer worker count, got 'many'"
            in str(err.value)
        )

    def test_timeout(self, monkeypatch):
        from repro.runner.faults import resolve_timeout

        monkeypatch.setenv("REPRO_TIMEOUT", "later")
        with pytest.raises(SweepConfigError) as err:
            resolve_timeout(None)
        assert (
            "REPRO_TIMEOUT must be a number of seconds, got 'later'"
            in str(err.value)
        )

    def test_budget(self, monkeypatch):
        from repro.resilience.budget import resolve_budget

        monkeypatch.setenv("REPRO_BUDGET", "tiny")
        with pytest.raises(SweepConfigError):
            resolve_budget()
        monkeypatch.setenv("REPRO_BUDGET", "0")
        with pytest.raises(SweepConfigError):
            resolve_budget()
