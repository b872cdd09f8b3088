"""Shared fixtures for the serving test battery.

Serving tests run the app on the inline pool by default: execution
stays in-process (monkeypatched architectures and counting hooks are
visible to the jobs) and the fault harness takes its deterministic
serial paths.  A handful of tests opt into a real process pool to
exercise the ``BrokenProcessPool`` machinery.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

import repro.runner.chain as chain
from repro.arch.spec import named_architecture
from repro.runner.chain import GridPoint
from repro.runner.pool import InlineWorkerPool
from repro.serve.app import ServeApp

#: The canonical small grid point the battery plans.
POINT = {
    "executor": "transfusion", "model": "t5", "seq_len": 512,
    "arch": "cloud", "batch": 4,
}


def plan_request(**overrides):
    """A plan request document for :data:`POINT`."""
    document = {"op": "plan", "point": dict(POINT), "budget": 64}
    document.update(overrides)
    return document


def grid_point(**overrides):
    values = dict(POINT)
    values.update(overrides)
    return GridPoint(**values)


def run(coroutine):
    """Drive one coroutine to completion on a fresh event loop."""
    return asyncio.run(coroutine)


def body_of(app, document):
    """Serve one request synchronously; returns the body string."""
    return run(app.handle(json.dumps(document)))


def doc_of(app, document):
    """Serve one request synchronously; returns the parsed body."""
    return json.loads(body_of(app, document))


@pytest.fixture
def app():
    """A ServeApp on the inline pool, shedding disabled."""
    application = ServeApp(InlineWorkerPool(), pressure=0)
    yield application
    application.close()


def tiny_buffer(arch):
    """The same architecture with a buffer nothing can fit in."""
    return dataclasses.replace(
        arch,
        buffer=dataclasses.replace(
            arch.buffer, capacity_bytes=4096
        ),
    )


@pytest.fixture
def shrunken_edge(monkeypatch):
    """Make ``edge`` infeasible for every model, keep ``cloud`` real
    (the sweep-engine idiom from tests/runner/test_infeasible.py)."""

    def lookup(name):
        arch = named_architecture(name)
        return tiny_buffer(arch) if name == "edge" else arch

    monkeypatch.setattr(chain, "named_architecture", lookup)
