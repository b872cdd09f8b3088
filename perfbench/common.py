"""Shared plumbing: the checkout layout, a scrubbed environment,
process timing, summary statistics and result provenance."""

from __future__ import annotations

import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: The benchmark's own directory and the checkout root it runs from.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

#: Everything a run writes lives under this checkout-local directory.
OUT_DIR = ROOT / ".perfbench_out"

#: Environment variable naming the directory traced processes write
#: their span files into (never a ``REPRO_*`` knob).
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Samples that must lie beyond a percentile for it to count as the
#: reported ``tail``.
TAIL_BEYOND = 10


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in holds no program to run."""


def require_checkout() -> None:
    """Refuse to run without the program's sources beside us."""
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC / "repro" / "__init__.py", GOLDEN)
        if not path.exists()
    ]
    if missing:
        raise CheckoutError(
            "not a checkout of the planner: missing "
            + ", ".join(missing)
        )


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scrub_environment() -> Dict[str, str]:
    """Drop every inherited ``REPRO_*`` knob from this process.

    Returns the removed variables so the run can report them.
    """
    removed = {
        key: os.environ.pop(key)
        for key in sorted(os.environ)
        if key.startswith("REPRO_")
    }
    return removed


def child_env(
    cache_dir: Optional[Path] = None,
    extra: Optional[Mapping[str, str]] = None,
) -> Dict[str, str]:
    """The environment every spawned program process gets.

    No ``REPRO_*`` variable survives except the cache location the
    benchmark owns; temporary files stay inside the checkout.
    """
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != TRACE_DIR_ENV
    }
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(own_dir("tmp"))
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.update(extra or {})
    return env


def own_dir(*parts: str) -> Path:
    """A directory under :data:`OUT_DIR`, created on demand."""
    path = OUT_DIR.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def fresh_dir(*parts: str) -> Path:
    """An empty directory under :data:`OUT_DIR`."""
    import shutil

    path = OUT_DIR.joinpath(*parts)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def kill_group(pid: int) -> None:
    """SIGKILL what is left of the process group ``pid`` leads."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def timed_process(
    argv: Sequence[str],
    env: Mapping[str, str],
    timeout: float = 120.0,
) -> Tuple[float, float, int, bytes, bytes]:
    """Run one process to completion.

    Returns ``(wall seconds, peak RSS MB, exit code, stdout,
    stderr)``.  Wall time runs from just before the spawn to the
    reap; the peak RSS is the kernel's account of the reaped child.
    A process still running after ``timeout`` seconds is killed.
    """
    with open(own_dir("tmp") / "stderr.bin", "w+b") as err:
        start = time.perf_counter()
        process = subprocess.Popen(
            list(argv), env=dict(env), cwd=str(ROOT),
            stdout=subprocess.PIPE, stderr=err, start_new_session=True,
        )
        watchdog = threading.Timer(
            timeout, kill_group, (process.pid,)
        )
        watchdog.start()
        try:
            out = process.stdout.read()
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            watchdog.cancel()
            kill_group(process.pid)
            process.stdout.close()
        wall = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        error_text = err.read()
    return (
        wall, usage.ru_maxrss / 1024.0, process.returncode, out,
        error_text,
    )


def setup_probe(
    module: str, env: Mapping[str, str], repeats: int
) -> List[float]:
    """Fresh-interpreter seconds from spawn to ``import module`` done.

    Each probe starts a new interpreter that imports ``module`` and
    then writes one line; the clock stops when that line arrives, so
    interpreter start-up counts and interpreter tear-down does not.
    """
    code = (
        f"import {module}, sys; sys.stdout.write('ready\\n'); "
        "sys.stdout.flush()"
    )
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-c", code], env=dict(env),
            cwd=str(ROOT), stdout=subprocess.PIPE,
        )
        line = process.stdout.readline()
        samples.append(time.perf_counter() - start)
        process.stdout.close()
        process.wait(timeout=60)
        if line.strip() != b"ready" or process.returncode != 0:
            raise RuntimeError(f"import {module} failed")
    return samples


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def tail_percentile(count: int) -> Optional[int]:
    """The highest whole percentile with ``TAIL_BEYOND`` samples
    beyond it, or ``None`` when the sample is too small.

    The ``q``-th percentile is the nearest-rank sample: rank
    ``ceil(q * n / 100)`` of ``n`` sorted samples, which leaves
    ``n - rank`` samples beyond it.
    """
    best = None
    for q in range(1, 100):
        rank = math.ceil(q * count / 100)
        if count - rank >= TAIL_BEYOND:
            best = q
    return best


def percentile(values: Sequence[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[int]]:
    """``(value, percentile)`` of the tail rule, ``(None, None)`` when
    fewer than ``TAIL_BEYOND + 1`` samples exist."""
    q = tail_percentile(len(values))
    if q is None:
        return None, None
    return percentile(values, q), q


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timing_summary(values: Sequence[float]) -> Dict[str, object]:
    """Median, tail, its percentile and the sample count."""
    value, q = tail(values)
    return {
        "p50": median(values),
        "tail": value,
        "tail_pct": q,
        "n": len(values),
    }


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance() -> Dict[str, object]:
    """Where and on what a result was measured."""
    use_checkout_sources()
    import numpy

    from repro.runner.cache import code_salt

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "code_salt": code_salt(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "platform": platform.platform(),
    }


def write_json(path: Path, document: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
