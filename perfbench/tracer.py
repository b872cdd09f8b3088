"""In-memory spans around the program's public calls.

:func:`install` wraps one public function or method per layer
boundary with a span recorder: name, start and end on the shared
monotonic clock, the parent span and the request id.  Nothing inside
``src/`` changes; wrappers only observe arguments and results, so
traced and untraced runs return the same bytes.

Spans stay in the recording process's memory.  Work submitted to a
``ProcessPoolExecutor`` (the serve tier's ``WorkerPool`` and
``run_grid``'s per-sweep pools both use one) runs inside
:func:`traced_call`, which records the worker-side span with its
submit-to-start wait and writes that worker's spans to the trace
directory when the task ends -- fork-started workers are killed
rather than exited, so nothing later could flush them.  The
launching process writes its own spans when it finishes
(:func:`flush`).  :func:`load_spans` merges every file and
:func:`chrome_trace` renders the Chrome trace-event format.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    """One timed call; ``attrs`` holds counts measured at the call."""

    __slots__ = ("name", "start", "end", "sid", "parent", "rid", "attrs")

    def __init__(
        self, name: str, sid: str, parent: Optional[str],
        rid: Optional[str],
    ) -> None:
        self.name = name
        self.sid = sid
        self.parent = parent
        self.rid = rid
        self.attrs: Dict[str, Any] = {}
        self.start = time.monotonic_ns()
        self.end = 0

    def document(self) -> Dict[str, Any]:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "sid": self.sid, "parent": self.parent, "rid": self.rid,
            "pid": int(self.sid.split(".")[0]), "attrs": self.attrs,
        }


class Tracer:
    """Span storage for one process; reset in every forked child."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: List[Span] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._ids = itertools.count()
        self._flushes = itertools.count()

    def begin(self, name: str, rid: Optional[str] = None) -> Span:
        parent = _CURRENT.get()
        if rid is None and parent is not None:
            rid = parent.rid
        return Span(
            name, f"{self.pid}.{next(self._ids)}",
            parent.sid if parent is not None else None, rid,
        )

    def finish(self, span: Span) -> None:
        span.end = time.monotonic_ns()
        self.spans.append(span)

    def flush(self) -> None:
        """Append this process's spans to its own file and forget them."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / (
            f"spans-{self.pid}-{next(self._flushes)}.jsonl"
        )
        spans, self.spans = self.spans, []
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps(span.document()) + "\n")


TRACER: Optional[Tracer] = None


def annotate(key: str, value: Any) -> None:
    """Set an attribute on the innermost open span, if any."""
    span = _CURRENT.get()
    if span is not None:
        span.attrs[key] = value


def _wrap_sync(
    name: Any, fn: Callable, after: Optional[Callable] = None
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        if tracer is None:
            return fn(*args, **kwargs)
        span = tracer.begin(name(args) if callable(name) else name)
        token = _CURRENT.set(span)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result
        except BaseException as error:
            span.attrs["error"] = type(error).__name__
            raise
        finally:
            _CURRENT.reset(token)
            tracer.finish(span)

    return wrapper


def _wrap_async(
    name: str, fn: Callable, rid_of: Callable[[Any], Optional[str]]
) -> Callable:
    @functools.wraps(fn)
    async def wrapper(self, document, *args, **kwargs):
        tracer = TRACER
        if tracer is None:
            return await fn(self, document, *args, **kwargs)
        span = tracer.begin(name, rid_of(document))
        token = _CURRENT.set(span)
        try:
            return await fn(self, document, *args, **kwargs)
        finally:
            _CURRENT.reset(token)
            tracer.finish(span)

    return wrapper


def _patch_function(module: Any, attr: str, wrapper: Callable) -> None:
    """Replace a module function and every ``from``-import of it."""
    original = getattr(module, attr)
    for name, loaded in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = getattr(loaded, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                setattr(loaded, key, wrapper)


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------
def _executor_name(args: tuple) -> str:
    return (
        "executor.run" if args[0].name == "transfusion"
        else "baselines.run"
    )


def _after_search(span: Span, args: tuple, result: Any) -> None:
    span.attrs["iterations"] = result.stats.iterations
    span.attrs["evaluations"] = result.stats.evaluations


def _after_get(span: Span, args: tuple, result: Any) -> None:
    span.attrs["kind"] = args[1]
    span.attrs["hit"] = result is not None


def _after_put(span: Span, args: tuple, result: Any) -> None:
    span.attrs["kind"] = args[1]
    try:
        span.attrs["bytes"] = Path(result).stat().st_size
    except OSError:
        span.attrs["bytes"] = 0


def _after_lru(span: Span, args: tuple, result: Any) -> None:
    if result is not None:
        annotate("source", "lru")


def _after_admit(span: Span, args: tuple, result: Any) -> None:
    if not result[0]:
        annotate("source", "coalesced")


def _request_id(document: Any) -> Optional[str]:
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except ValueError:
            return None
    if isinstance(document, dict) and "id" in document:
        return str(document["id"])
    return None


def _annotating(fn: Callable, after: Callable) -> Callable:
    """A wrapper that records no span, only marks the current one."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if TRACER is not None:
            after(None, args, result)
        return result

    return wrapper


def _pool_submit(fn: Callable) -> Callable:
    """``WorkerPool.submit``: a span from submit until the result."""

    @functools.wraps(fn)
    def wrapper(self, job, *args):
        tracer = TRACER
        if tracer is None:
            return fn(self, job, *args)
        annotate("source", "search")
        span = tracer.begin("pool.request")
        token = _CURRENT.set(span)
        try:
            future = fn(self, job, *args)
        finally:
            _CURRENT.reset(token)
        future.add_done_callback(lambda _: tracer.finish(span))
        return future

    return wrapper


def _executor_submit(fn: Callable) -> Callable:
    """``ProcessPoolExecutor.submit``: run the job in :func:`traced_call`."""

    @functools.wraps(fn)
    def wrapper(self, job, /, *args, **kwargs):
        if TRACER is None:
            return fn(self, job, *args, **kwargs)
        parent = _CURRENT.get()
        meta = (
            time.monotonic_ns(),
            parent.sid if parent is not None else None,
            parent.rid if parent is not None else None,
            "pool.exec"
            if parent is not None and parent.name == "pool.request"
            else "parallel.chain",
        )
        return fn(self, traced_call, meta, job, *args, **kwargs)

    return wrapper


def traced_call(meta: tuple, job: Callable, *args, **kwargs) -> Any:
    """Worker side of a traced pool job (module level: picklable)."""
    submitted, parent, rid, name = meta
    tracer = TRACER
    span = Span(name, f"{tracer.pid}.{next(tracer._ids)}", parent, rid)
    span.attrs["wait_ns"] = span.start - submitted
    token = _CURRENT.set(span)
    try:
        return job(*args, **kwargs)
    finally:
        _CURRENT.reset(token)
        tracer.finish(span)
        tracer.flush()


def install(out_dir: Path) -> Tracer:
    """Wrap every layer boundary and start recording spans."""
    global TRACER
    import repro.cli  # noqa: F401  (loads what a plan loads)
    import repro.core.serialize as serialize
    import repro.dpipe.planner  # noqa: F401
    import repro.dpipe.search as dsearch
    import repro.runner.parallel as parallel
    import repro.serve.app  # noqa: F401
    import repro.serve.protocol as protocol
    from repro.baselines.base import ExecutorBase
    from repro.runner.cache import PlanCache
    from repro.runner.pool import WorkerPool
    from repro.serve.app import ServeApp
    from repro.serve.coalesce import Coalescer
    from repro.serve.lru import SaltedLRU
    from repro.tileseek.search import TileSeek

    ExecutorBase.run = _wrap_sync(_executor_name, ExecutorBase.run)
    TileSeek.search = _wrap_sync(
        "tileseek.search", TileSeek.search, _after_search
    )
    PlanCache.get = _wrap_sync("cache.get", PlanCache.get, _after_get)
    PlanCache.put = _wrap_sync("cache.put", PlanCache.put, _after_put)
    for module, attr, name in (
        (repro.dpipe.planner, "plan_cascade", "dpipe.plan_cascade"),
        (dsearch, "fused_best_order_ex", "dpipe.search"),
        (parallel, "run_grid", "parallel.run_grid"),
        (serialize, "report_to_dict", "serialize.report_to_dict"),
        (protocol, "canonical_body", "serialize.canonical_body"),
    ):
        _patch_function(
            module, attr, _wrap_sync(name, getattr(module, attr))
        )
    ServeApp.handle = _wrap_async(
        "serve.handle", ServeApp.handle, _request_id
    )
    SaltedLRU.get = _annotating(SaltedLRU.get, _after_lru)
    Coalescer.admit = _annotating(Coalescer.admit, _after_admit)
    WorkerPool.submit = _pool_submit(WorkerPool.submit)
    WorkerPool.respawn = _wrap_sync("pool.respawn", WorkerPool.respawn)
    ProcessPoolExecutor.submit = _executor_submit(
        ProcessPoolExecutor.submit
    )
    TRACER = Tracer(out_dir)
    os.register_at_fork(after_in_child=TRACER._reset)
    return TRACER


@contextlib.contextmanager
def span(name: str):
    """Record the enclosed block as one span (parent of inner calls)."""
    opened = TRACER.begin(name)
    token = _CURRENT.set(opened)
    try:
        yield opened
    finally:
        _CURRENT.reset(token)
        TRACER.finish(opened)


def record(name: str, start: int, end: int) -> None:
    """Record an already-timed span (e.g. the CLI's own import)."""
    done = TRACER.begin(name)
    done.start, done.end = start, end
    TRACER.spans.append(done)


def flush() -> None:
    if TRACER is not None:
        TRACER.flush()


def load_spans(directory: Path) -> List[Dict[str, Any]]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def chrome_trace(
    spans: Iterable[Dict[str, Any]], metadata: Dict[str, Any]
) -> Dict[str, Any]:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    spans = list(spans)
    origin = min((s["start"] for s in spans), default=0)
    events = [
        {
            "name": span["name"], "ph": "X", "pid": span["pid"],
            "tid": 0,
            "ts": (span["start"] - origin) / 1000.0,
            "dur": (span["end"] - span["start"]) / 1000.0,
            "args": dict(
                span["attrs"], sid=span["sid"], parent=span["parent"],
                rid=span["rid"],
            ),
        }
        for span in spans
    ]
    return {"traceEvents": events, "otherData": metadata}
