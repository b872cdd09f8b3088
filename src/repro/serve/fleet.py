"""Fleet supervisor: K babysat replica servers over one shared cache.

``repro fleet`` launches K ``repro serve`` subprocesses against one
content-addressed :class:`~repro.runner.cache.PlanCache` root and
keeps them alive:

* **Spawn**: each replica is ``python -m repro serve --port 0`` with
  ``REPRO_FLEET_INDEX=i`` in its environment; its stderr goes to a
  per-replica log file the supervisor scans for the ``SERVING host
  port`` ready line.  The first assigned port becomes the replica's
  *sticky* identity -- restarts rebind the same port, so the
  consistent-hash routing of :mod:`repro.serve.router` (and every
  client's failover order) survives replica churn.
* **Probe**: every ``probe_interval`` seconds the supervisor checks
  ``process.poll()`` (crash) and ``GET /healthz`` (wedge).  The
  health body carries pool generation, in-flight count and LRU
  counters -- the supervisor journals them, and flags a replica
  whose code salt disagrees with the fleet's (a salt-split fleet
  would break the any-replica-same-bytes contract).
* **Restart**: crashed or wedged replicas are killed first (the
  kill-before-shutdown discipline of the sweep engine: a wedged
  process would otherwise be joined forever), then respawned after a
  seeded deterministic backoff
  (:func:`~repro.runner.faults.backoff_seconds` keyed on the replica
  index).  A replica that exhausts ``max_restarts`` is abandoned
  (``gave-up`` journal event); the fleet keeps serving on survivors.
* **Journal**: one fsynced JSONL line per supervision event
  (:func:`~repro.runner.journal.append_line`), so a killed
  supervisor leaves an intact, replayable account of what it did.

Fault injection composes: ``REPRO_FAULTS`` is inherited by every
replica, and the ``replica-kill``/``replica-hang``/``replica-slow``
kinds match on ``replica=<REPRO_FLEET_INDEX>`` and ``request=<n-th
served request>`` -- a whole-replica crash at a deterministic moment
mid-storm.  Note that a restarted replica's request counter starts
over, so request-count triggers can re-fire if the storm is long
enough; CI sets the trigger beyond what any single restarted replica
will serve again.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple

from repro.runner.errors import FleetUnavailable, SweepConfigError
from repro.runner.faults import ENV_FLEET_INDEX, backoff_seconds
from repro.runner.journal import append_line
from repro.settings import env_float, env_int

ENV_FLEET_REPLICAS = "REPRO_FLEET_REPLICAS"
ENV_FLEET_PROBE_INTERVAL = "REPRO_FLEET_PROBE_INTERVAL"
ENV_FLEET_PROBE_TIMEOUT = "REPRO_FLEET_PROBE_TIMEOUT"
ENV_FLEET_MAX_RESTARTS = "REPRO_FLEET_MAX_RESTARTS"
ENV_FLEET_BACKOFF = "REPRO_FLEET_BACKOFF"

DEFAULT_REPLICAS = 3
DEFAULT_PROBE_INTERVAL = 1.0
DEFAULT_PROBE_TIMEOUT = 5.0
DEFAULT_MAX_RESTARTS = 5
DEFAULT_BACKOFF = 0.05

#: How long one spawn may take to print its ready line before the
#: supervisor concludes the start failed (generous: a replica-slow
#: injection or a cold interpreter still fits).
READY_TIMEOUT = 30.0

#: Consecutive failed health probes before a live process is
#: declared wedged.  Two strikes keeps one dropped packet or one
#: slow GC pause from triggering a restart.
WEDGE_PROBES = 2

#: Supervisor journal schema version.
FLEET_JOURNAL_VERSION = 1


def probe_health(
    host: str, port: int, timeout: float
) -> Dict[str, Any]:
    """One ``GET /healthz`` round trip; raises ``OSError`` on any
    network failure (including the probe deadline expiring)."""
    connection = http.client.HTTPConnection(
        host, port, timeout=timeout
    )
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        return json.loads(response.read().decode("utf-8"))
    except http.client.HTTPException as error:
        raise ConnectionError(
            f"{type(error).__name__}: {error}"
        ) from error
    finally:
        connection.close()


class ReplicaProcess:
    """One supervised ``repro serve`` subprocess.

    Holds the sticky port, the restart budget, and the stderr log
    the ready line is scanned from.  All process control (spawn,
    kill, ready-wait) lives here; the supervision *policy* lives in
    :class:`FleetSupervisor`.
    """

    def __init__(
        self,
        index: int,
        host: str,
        log_path: Path,
        cache_dir: str = "",
        journal_path: str = "",
        jobs: Optional[int] = None,
        extra_env: Optional[Dict[str, str]] = None,
    ) -> None:
        self.index = index
        self.host = host
        self.log_path = Path(log_path)
        self.cache_dir = cache_dir
        self.journal_path = journal_path
        self.jobs = jobs
        self.extra_env = dict(extra_env or {})
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.restarts = 0
        self.failed = False
        self.failed_probes = 0
        self._log_offset = 0

    @property
    def endpoint(self) -> Optional[str]:
        if self.port is None:
            return None
        return f"{self.host}:{self.port}"

    def command(self) -> List[str]:
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host,
            "--port", str(self.port or 0),
        ]
        if self.jobs is not None:
            argv += ["--jobs", str(self.jobs)]
        if self.cache_dir:
            argv += ["--cache-dir", self.cache_dir]
        if self.journal_path:
            argv += ["--journal", self.journal_path]
        return argv

    def spawn(self) -> None:
        """Start the subprocess; stderr goes to the replica log."""
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env[ENV_FLEET_INDEX] = str(self.index)
        env.update(self.extra_env)
        with self.log_path.open("ab") as log:
            self._log_offset = log.tell()
            self.process = subprocess.Popen(
                self.command(),
                stdout=subprocess.DEVNULL,
                stderr=log,
                env=env,
            )
        self.failed_probes = 0

    def wait_ready(
        self, timeout: float = READY_TIMEOUT
    ) -> Tuple[bool, str]:
        """Block until this spawn's ``SERVING`` line appears.

        Scans only log bytes written by the current spawn (restarts
        append to the same file).  Returns ``(ok, detail)``; on
        success the sticky port is recorded.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self._new_log_lines():
                if line.startswith("SERVING "):
                    parts = line.split()
                    self.port = int(parts[2])
                    return True, ""
            if (
                self.process is not None
                and self.process.poll() is not None
            ):
                return (
                    False,
                    f"exited rc={self.process.returncode} "
                    f"before ready",
                )
            time.sleep(0.02)
        return False, f"no ready line within {timeout}s"

    def _new_log_lines(self) -> List[str]:
        try:
            with self.log_path.open("rb") as log:
                log.seek(self._log_offset)
                chunk = log.read()
        except FileNotFoundError:
            return []
        text = chunk.decode("utf-8", "replace")
        # Only consume complete lines; a torn tail is re-read next
        # poll once the child finishes writing it.
        complete, newline, _ = text.rpartition("\n")
        if not newline:
            return []
        self._log_offset += len(complete.encode("utf-8")) + 1
        return complete.splitlines()

    def alive(self) -> bool:
        return (
            self.process is not None
            and self.process.poll() is None
        )

    def kill(self, grace: float = 2.0) -> None:
        """Terminate, then kill -- never join a wedged process."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class FleetSupervisor:
    """Launch and babysit K replicas over one shared cache.

    The blocking entry point is :meth:`run`; tests drive the same
    machinery stepwise via :meth:`start`, :meth:`supervise_once` and
    :meth:`shutdown`.
    """

    def __init__(
        self,
        replicas: Optional[int] = None,
        host: str = "127.0.0.1",
        cache_dir: str = "",
        journal_dir: str = "",
        jobs: Optional[int] = None,
        probe_interval: Optional[float] = None,
        probe_timeout: Optional[float] = None,
        max_restarts: Optional[int] = None,
        backoff: Optional[float] = None,
        extra_env: Optional[Dict[str, str]] = None,
    ) -> None:
        if replicas is None:
            replicas = env_int(
                ENV_FLEET_REPLICAS, "a replica count", minimum=1
            )
        self.count = (
            replicas if replicas is not None else DEFAULT_REPLICAS
        )
        if self.count < 1:
            raise SweepConfigError(
                f"a fleet needs at least one replica, got "
                f"{self.count}"
            )
        self.probe_interval = _resolve(
            probe_interval, ENV_FLEET_PROBE_INTERVAL,
            DEFAULT_PROBE_INTERVAL, "a number of seconds",
        )
        self.probe_timeout = _resolve(
            probe_timeout, ENV_FLEET_PROBE_TIMEOUT,
            DEFAULT_PROBE_TIMEOUT, "a number of seconds",
        )
        self.backoff = _resolve(
            backoff, ENV_FLEET_BACKOFF,
            DEFAULT_BACKOFF, "a number of seconds",
        )
        if max_restarts is None:
            max_restarts = env_int(
                ENV_FLEET_MAX_RESTARTS, "a restart count",
                minimum=0,
            )
        self.max_restarts = (
            max_restarts if max_restarts is not None
            else DEFAULT_MAX_RESTARTS
        )
        self.journal_dir = (
            Path(journal_dir) if journal_dir else None
        )
        self.salt: Optional[str] = None
        self.replicas: List[ReplicaProcess] = []
        for index in range(self.count):
            if self.journal_dir is not None:
                log = self.journal_dir / f"replica-{index}.log"
                journal = str(
                    self.journal_dir / f"replica-{index}.jsonl"
                )
            else:
                import tempfile

                log = Path(tempfile.mkdtemp(
                    prefix="repro-fleet-"
                )) / f"replica-{index}.log"
                journal = ""
            self.replicas.append(ReplicaProcess(
                index, host,
                log_path=log,
                cache_dir=cache_dir,
                journal_path=journal,
                jobs=jobs,
                extra_env=extra_env,
            ))

    # -- journal -------------------------------------------------------

    @property
    def journal_path(self) -> Optional[Path]:
        if self.journal_dir is None:
            return None
        return self.journal_dir / "supervisor.jsonl"

    def record(self, event: str, **fields: Any) -> None:
        if self.journal_path is None:
            return
        entry = {"v": FLEET_JOURNAL_VERSION, "event": event}
        entry.update(fields)
        append_line(
            self.journal_path,
            json.dumps(entry, sort_keys=True),
        )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn every replica and wait for each ready line.

        A replica that cannot start within its restart budget is
        abandoned; if *no* replica comes up the typed
        :class:`FleetUnavailable` carries every attempt.
        """
        failures: List[Tuple[str, str]] = []
        for replica in self.replicas:
            if not self._start_replica(replica):
                failures.append((
                    f"replica-{replica.index}",
                    "never became ready",
                ))
        if not self.live_replicas():
            raise FleetUnavailable(failures)

    def _start_replica(self, replica: ReplicaProcess) -> bool:
        while True:
            replica.spawn()
            self.record(
                "spawn", replica=replica.index,
                restarts=replica.restarts,
                port=replica.port,
            )
            ok, detail = replica.wait_ready()
            if ok:
                self.record(
                    "ready", replica=replica.index,
                    endpoint=replica.endpoint,
                )
                return True
            replica.kill()
            self.record(
                "start-failed", replica=replica.index,
                detail=detail,
            )
            if not self._consume_restart(replica):
                return False

    def _consume_restart(self, replica: ReplicaProcess) -> bool:
        """Charge one restart; ``False`` once the budget is gone."""
        if replica.restarts >= self.max_restarts:
            replica.failed = True
            self.record(
                "gave-up", replica=replica.index,
                restarts=replica.restarts,
            )
            return False
        replica.restarts += 1
        pause = backoff_seconds(
            f"replica-{replica.index}",
            replica.restarts - 1,
            self.backoff,
        )
        if pause > 0:
            time.sleep(pause)
        return True

    def live_replicas(self) -> List[ReplicaProcess]:
        return [
            replica for replica in self.replicas
            if not replica.failed and replica.port is not None
        ]

    def endpoints(self) -> Tuple[str, ...]:
        """The routable endpoint set (abandoned replicas excluded).

        Temporarily-down replicas stay listed: their sticky port
        makes them reappear at the same address after restart, and
        clients fail over around them in the meantime -- endpoint
        churn would reshuffle every fingerprint's preference order.
        """
        return tuple(
            replica.endpoint for replica in self.live_replicas()
            if replica.endpoint is not None
        )

    def supervise_once(self) -> List[Dict[str, Any]]:
        """One supervision pass; returns the events it acted on."""
        events: List[Dict[str, Any]] = []
        for replica in self.replicas:
            if replica.failed:
                continue
            if not replica.alive():
                code = (
                    replica.process.returncode
                    if replica.process else None
                )
                self.record(
                    "crash", replica=replica.index,
                    returncode=code,
                )
                events.append({
                    "event": "crash",
                    "replica": replica.index,
                    "returncode": code,
                })
                self._restart(replica)
                continue
            try:
                health = probe_health(
                    replica.host, replica.port or 0,
                    self.probe_timeout,
                )
            except (OSError, ValueError) as error:
                replica.failed_probes += 1
                self.record(
                    "probe-failed", replica=replica.index,
                    failures=replica.failed_probes,
                    detail=f"{type(error).__name__}: {error}",
                )
                if replica.failed_probes >= WEDGE_PROBES:
                    events.append({
                        "event": "wedge",
                        "replica": replica.index,
                    })
                    self.record("wedge", replica=replica.index)
                    self._restart(replica)
                continue
            replica.failed_probes = 0
            self._check_salt(replica, health)
            vitals = {
                "generation": health.get("generation"),
                "inflight": health.get("inflight"),
                "requests": health.get("requests"),
            }
            # Disk-pressure passthrough: only journaled while a
            # replica actually reports cache brownout, so healthy
            # fleets keep their historical line bytes.
            cache_health = health.get("cache")
            if (
                isinstance(cache_health, dict)
                and cache_health.get("brownout")
            ):
                vitals["cache_brownout"] = True
                events.append({
                    "event": "cache-brownout",
                    "replica": replica.index,
                })
            self.record(
                "healthy", replica=replica.index, **vitals
            )
        return events

    def _check_salt(
        self, replica: ReplicaProcess, health: Dict[str, Any]
    ) -> None:
        salt = health.get("salt")
        if salt is None:
            return
        if self.salt is None:
            self.salt = salt
        elif salt != self.salt:
            # A salt split means replicas answer from different
            # code: same fingerprint, different bytes.  Journal it
            # loudly; the validate auditors treat it as fatal.
            self.record(
                "salt-mismatch", replica=replica.index,
                expected=self.salt, got=salt,
            )

    def _restart(self, replica: ReplicaProcess) -> None:
        replica.kill()
        if self._consume_restart(replica):
            if self._start_replica(replica):
                self.record(
                    "restarted", replica=replica.index,
                    endpoint=replica.endpoint,
                    restarts=replica.restarts,
                )

    def run(self, ready: Optional[TextIO] = None) -> int:
        """Start the fleet and supervise until interrupted."""
        self.start()
        if ready is not None:
            ready.write(
                "FLEET SERVING "
                + ",".join(self.endpoints()) + "\n"
            )
            ready.flush()
        try:
            while True:
                time.sleep(self.probe_interval)
                self.supervise_once()
                if not self.live_replicas():
                    self.record("fleet-dead")
                    return 1
        except KeyboardInterrupt:
            return 0
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Kill every replica (terminate, then kill)."""
        for replica in self.replicas:
            replica.kill()
        self.record("shutdown")


def _resolve(
    value: Optional[float],
    env_name: str,
    default: float,
    describe: str,
) -> float:
    if value is None:
        value = env_float(env_name, describe)
    if value is None:
        return default
    if value < 0:
        raise SweepConfigError(
            f"{env_name} must be {describe} >= 0, got {value}"
        )
    return float(value)
