"""Typed ``REPRO_*`` environment-variable settings.

Every knob the framework reads from the environment resolves through
this module, so malformed values fail the same way everywhere: a
:class:`~repro.runner.errors.SweepConfigError` naming the variable,
the expected type and the offending value -- never a bare
``ValueError`` out of ``int()`` three frames deep in a worker.

The module is deliberately standard-library-only at import time (it
is imported by :mod:`repro.validate.config`, which sits under the
scheduler hot paths); the error type is imported lazily at raise
time, which is cycle-safe because raising only ever happens at call
time, long after the package finished importing.

Known settings (see :data:`KNOWN_SETTINGS` for the registry):

=====================  ================================================
variable               meaning
=====================  ================================================
``REPRO_JOBS``         sweep worker processes (int >= 1)
``REPRO_TIMEOUT``      per-chain timeout seconds (float; <= 0 off)
``REPRO_RETRIES``      extra attempts per failed chain (int >= 0)
``REPRO_BACKOFF``      base retry backoff seconds (float)
``REPRO_FAULTS``       deterministic fault-injection spec
``REPRO_CACHE``        persistent cache on/off (default on)
``REPRO_CACHE_DIR``    persistent cache root directory
``REPRO_CACHE_MAX_BYTES`` persistent cache byte budget (int >= 1);
                       unset means uncapped, the historical
                       behavior.  Enforced by an oldest-first GC
                       after every write and by ``repro cache gc``
``REPRO_VALIDATE``     invariant auditors on/off (default off)
``REPRO_BUDGET``       per-search deterministic unit budget (int >= 1)
``REPRO_DEADLINE``     advisory soft deadline seconds, mapped to a
                       unit budget once at search entry
``REPRO_NO_FALLBACK``  disable the graceful-degradation ladder
``REPRO_BENCH_STRICT`` fail benchmarks outside their paper bands
``REPRO_SCALAR_EVAL``  force TileSeek's scalar evaluation oracle
                       (the batched NumPy path is the default)
``REPRO_LEARN``        consult the learned warm-start predictor on
                       cold searches (default off; off is
                       byte-identical to a tree without it)
``REPRO_LEARN_K``      neighbors per learned prediction (int >= 1;
                       default 3)
=====================  ================================================

Serving knobs (``repro serve``; resolved in :mod:`repro.serve.app`
and :mod:`repro.cli.serve`):

==========================  ===========================================
variable                    meaning
==========================  ===========================================
``REPRO_SERVE_LRU``         response-body LRU capacity in entries
                            (int >= 0; 0 disables; default 256)
``REPRO_SERVE_PRESSURE``    in-flight searches at which load shedding
                            starts (int >= 0; 0 disables; default 8)
``REPRO_SERVE_SHED_BUDGET`` degraded search-unit budget applied while
                            shedding (int >= 1; default 4096)
``REPRO_SERVE_TIMEOUT``     wall-clock bound per worker-pool request
                            in seconds (float; unset/<= 0 off)
``REPRO_SERVE_QUEUE``       bounded admission: in-flight searches at
                            which new searches are rejected with a
                            typed ``ServerOverloaded`` body (int;
                            unset/0 means unbounded -- the
                            historical behavior)
``REPRO_SERVE_RETRY_MS``    base of the deterministic
                            ``retry_after_ms`` hint in overload
                            rejections (int >= 1; default 100)
``REPRO_SERVE_HOST``        default bind host (default 127.0.0.1)
``REPRO_SERVE_PORT``        default bind port (default 8734)
==========================  ===========================================

Fleet knobs (``repro fleet`` and the failover client; resolved in
:mod:`repro.serve.fleet` and :mod:`repro.serve.client`):

=============================  ========================================
variable                       meaning
=============================  ========================================
``REPRO_FLEET_REPLICAS``       replica servers the supervisor runs
                               (int >= 1; default 3)
``REPRO_FLEET_PROBE_INTERVAL`` seconds between health probes
                               (float > 0; default 1.0)
``REPRO_FLEET_PROBE_TIMEOUT``  seconds before an unanswered probe
                               marks a replica wedged (float > 0;
                               default 5.0)
``REPRO_FLEET_MAX_RESTARTS``   restarts per replica before it is
                               abandoned (int >= 0; default 5)
``REPRO_FLEET_BACKOFF``        base seconds of the seeded bounded
                               restart backoff (float; default 0.1)
``REPRO_FLEET_ATTEMPT_TIMEOUT`` per-attempt client deadline in
                               seconds for failover calls (float > 0;
                               default 30)
``REPRO_FLEET_INDEX``          replica index, exported by the
                               supervisor into each replica (int >=
                               0; arms ``replica=`` fault matchers)
``REPRO_FLEET_BREAKER``        consecutive unreachable attempts that
                               open a replica's circuit breaker
                               (int; 0 disables; default 3)
``REPRO_FLEET_BREAKER_COOLDOWN`` base seconds an open breaker waits
                               before its seeded half-open probe
                               (float > 0; default 1.0)
``REPRO_FLEET_RETRY_BUDGET``   overload retries per fleet call when
                               a replica answers ``ServerOverloaded``
                               with a ``retry_after_ms`` hint
                               (int >= 0; default 2)
=============================  ========================================
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.runner.faults import FaultPlan

#: The deterministic fault-injection spec (:func:`armed_faults`).
ENV_FAULTS = "REPRO_FAULTS"

#: Values read as "false" by :func:`env_bool` (after strip+lower).
FALSY_VALUES: Tuple[str, ...] = ("0", "off", "false", "no")

#: The registry of recognized settings: ``name -> (type, summary)``.
KNOWN_SETTINGS: Dict[str, Tuple[str, str]] = {
    "REPRO_JOBS": ("int", "sweep worker processes"),
    "REPRO_TIMEOUT": ("float", "per-chain timeout in seconds"),
    "REPRO_RETRIES": ("int", "extra attempts per failed chain"),
    "REPRO_BACKOFF": ("float", "base retry backoff in seconds"),
    "REPRO_FAULTS": ("spec", "deterministic fault-injection spec"),
    "REPRO_CACHE": ("bool", "persistent result cache on/off"),
    "REPRO_CACHE_DIR": ("path", "persistent cache root"),
    "REPRO_CACHE_MAX_BYTES": (
        "int", "persistent cache byte budget (GC-enforced)"
    ),
    "REPRO_VALIDATE": ("bool", "invariant auditors on/off"),
    "REPRO_BUDGET": ("int", "per-search deterministic unit budget"),
    "REPRO_DEADLINE": ("float", "advisory soft deadline in seconds"),
    "REPRO_NO_FALLBACK": ("bool", "disable the degradation ladder"),
    "REPRO_BENCH_STRICT": ("bool", "fail benchmarks out of band"),
    "REPRO_SCALAR_EVAL": (
        "bool", "force the scalar TileSeek evaluation oracle"
    ),
    "REPRO_LEARN": (
        "bool", "learned warm-start predictor on/off"
    ),
    "REPRO_LEARN_K": (
        "int", "neighbors per learned prediction"
    ),
    "REPRO_SERVE_LRU": (
        "int", "serving response-body LRU capacity (entries)"
    ),
    "REPRO_SERVE_PRESSURE": (
        "int", "in-flight searches that trigger load shedding"
    ),
    "REPRO_SERVE_SHED_BUDGET": (
        "int", "degraded unit budget applied while shedding"
    ),
    "REPRO_SERVE_TIMEOUT": (
        "float", "wall-clock bound per served request in seconds"
    ),
    "REPRO_SERVE_QUEUE": (
        "int", "bounded admission: in-flight searches before "
               "typed overload rejection"
    ),
    "REPRO_SERVE_RETRY_MS": (
        "int", "base milliseconds of the retry_after_ms hint"
    ),
    "REPRO_SERVE_HOST": ("str", "default serve bind host"),
    "REPRO_SERVE_PORT": ("int", "default serve bind port"),
    "REPRO_FLEET_REPLICAS": (
        "int", "replica servers the fleet supervisor runs"
    ),
    "REPRO_FLEET_PROBE_INTERVAL": (
        "float", "seconds between supervisor health probes"
    ),
    "REPRO_FLEET_PROBE_TIMEOUT": (
        "float", "seconds before an unanswered probe means wedged"
    ),
    "REPRO_FLEET_MAX_RESTARTS": (
        "int", "restarts per replica before it is abandoned"
    ),
    "REPRO_FLEET_BACKOFF": (
        "float", "base seconds of the seeded restart backoff"
    ),
    "REPRO_FLEET_ATTEMPT_TIMEOUT": (
        "float", "per-attempt client deadline for failover calls"
    ),
    "REPRO_FLEET_INDEX": (
        "int", "replica index exported by the fleet supervisor"
    ),
    "REPRO_FLEET_BREAKER": (
        "int", "consecutive failures that open a replica breaker"
    ),
    "REPRO_FLEET_BREAKER_COOLDOWN": (
        "float", "base seconds before an open breaker half-opens"
    ),
    "REPRO_FLEET_RETRY_BUDGET": (
        "int", "overload retries per fleet call"
    ),
}


def config_error(message: str) -> Exception:
    """A :class:`SweepConfigError` to raise for a malformed setting.

    Imported lazily so this module stays dependency-free at import
    time (the taxonomy lives in :mod:`repro.runner.errors`).
    """
    from repro.runner.errors import SweepConfigError

    return SweepConfigError(message)


def raw_value(name: str) -> Optional[str]:
    """The stripped environment value, or ``None`` when unset/blank.

    A variable set to the empty string behaves like an unset one for
    the numeric getters (both mean "use the default"), matching the
    historical hand-rolled parsers.
    """
    value = os.environ.get(name, "").strip()
    return value or None


def env_int(
    name: str,
    describe: str = "an integer",
    minimum: Optional[int] = None,
) -> Optional[int]:
    """Parse an integer setting; ``None`` when unset.

    Raises:
        SweepConfigError: Naming the variable, the expected shape
            (``describe``) and the offending value.
    """
    value = raw_value(name)
    if value is None:
        return None
    try:
        number = int(value)
    except ValueError:
        raise config_error(
            f"{name} must be {describe}, got {value!r}"
        ) from None
    if minimum is not None and number < minimum:
        raise config_error(
            f"{name} must be {describe} >= {minimum}, got {number}"
        )
    return number


def env_float(
    name: str, describe: str = "a number"
) -> Optional[float]:
    """Parse a float setting; ``None`` when unset."""
    value = raw_value(name)
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        raise config_error(
            f"{name} must be {describe}, got {value!r}"
        ) from None


def armed_faults() -> Optional["FaultPlan"]:
    """The parsed ``REPRO_FAULTS`` plan, or ``None`` when it is unset.

    The one place that reads the variable: the parser and
    :class:`~repro.runner.faults.FaultPlan` are imported only when a
    spec is present, so a run without fault injection never loads
    them.  Parsed on every call -- tests toggle the variable between
    sweeps.
    """
    spec = raw_value(ENV_FAULTS)
    if spec is None:
        return None
    from repro.runner.faults import parse_faults

    return parse_faults(spec)


def env_bool(
    name: str,
    default: bool,
    falsy: Tuple[str, ...] = FALSY_VALUES,
) -> bool:
    """Parse a boolean flag; unset or blank resolves to ``default``.

    Any set, non-blank value outside ``falsy`` (case-insensitive)
    reads as true -- flags are opt-out by value, not by spelling.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if not value:
        return default
    return value not in falsy
