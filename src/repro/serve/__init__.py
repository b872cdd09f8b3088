"""Planning-as-a-service: the asyncio scheduling server.

``repro serve`` turns the sweep engine into a long-lived service so
repeat planning questions stop paying process startup, cold
in-process memos and disk-cache traversal.  The layers, outermost
first:

* :mod:`repro.serve.transport` -- stdlib-asyncio HTTP (``POST
  /v1``, ``GET /stats``, ``GET /healthz``) and a newline-delimited
  JSON stdio mode for deterministic test harnesses.
* :mod:`repro.serve.app` -- :class:`ServeApp`: admission control
  (deadline -> deterministic search-unit budget, load shedding by
  budget degradation), the coalescing LRU front, typed error
  responses, pool respawn on worker crashes, journaling.
* :mod:`repro.serve.lru` / :mod:`repro.serve.coalesce` -- the
  code-salt-keyed response-body cache and the in-flight request
  table that lets N identical concurrent requests share one search.
* :mod:`repro.serve.protocol` -- request/response schemas plus the
  execution + rendering helpers *shared with the CLI*, which is what
  makes served plans byte-identical to cold CLI plans.
* :mod:`repro.serve.journal` -- the append-only JSONL response
  journal CI uploads as an artifact (fsynced per line, so a killed
  server's journal replays cleanly).
* :mod:`repro.serve.client` -- :func:`remote_call`, the thin HTTP
  client behind ``plan --remote``.

Execution happens on the reusable pools of
:mod:`repro.runner.pool`; everything a response contains --
provenance, typed failures, Table-2 infeasibility diagnoses --
reuses the PR 3-6 primitives unchanged.
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.serve.app": ("ServeApp",),
    "repro.serve.client": ("remote_call",),
    "repro.serve.coalesce": ("Coalescer",),
    "repro.serve.journal": ("ServeJournal",),
    "repro.serve.lru": ("SaltedLRU",),
    "repro.serve.protocol": (
        "PROTOCOL_VERSION", "ServeProtocolError", "ServeRequest",
        "canonical_body", "deadline_units", "effective_budget",
        "error_response", "execute_request", "parse_request",
        "request_fingerprint",
    ),
    "repro.serve.transport": (
        "serve_http", "serve_stdio", "start_http_server",
    ),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
