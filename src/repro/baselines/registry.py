"""Executor registry.

Maps the names used throughout the evaluation (figures, benchmarks,
examples) to executor classes and their constructor parameters.  The
registry is the single place those parameters live:
:func:`named_executor` constructs executors from them, and
:func:`executor_params` hands the same values to the report cache key
(:func:`repro.runner.chain.report_cache_payload`), so a key never
needs an executor instance.  Executor modules are imported on first
construction, which keeps this module -- and a disk-cache hit -- free
of numpy and the search stack.
"""

from __future__ import annotations

import importlib
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Tuple

from repro.dpipe.options import DPipeOptions

if TYPE_CHECKING:
    from repro.baselines.base import ExecutorBase

#: Executor name -> (defining module, class name, constructor
#: parameters).  The parameters are exactly what identifies the
#: executor in a report cache key.
_SPECS: Dict[str, Tuple[str, str, Dict[str, Any]]] = {
    "unfused": ("repro.baselines.unfused", "UnfusedExecutor", {}),
    "flat": ("repro.baselines.flat", "FlatExecutor", {}),
    "fusemax": ("repro.baselines.fusemax", "FuseMaxExecutor", {}),
    "fusemax+lf": (
        "repro.baselines.fusemax_layerfuse",
        "FuseMaxLayerFuseExecutor", {},
    ),
    "transfusion": (
        "repro.core.executor", "TransFusionExecutor",
        {
            "tileseek_iterations": 400,
            "seed": 0,
            "dpipe_options": DPipeOptions(),
        },
    ),
}


def _spec(name: str) -> Tuple[str, str, Dict[str, Any]]:
    key = name.lower()
    if key not in _SPECS:
        raise KeyError(
            f"unknown executor {name!r}; choose from {sorted(_SPECS)}"
        )
    return _SPECS[key]


def executor_params(name: str) -> Dict[str, Any]:
    """The constructor parameters of a registered executor."""
    return dict(_spec(name)[2])


def named_executor(name: str) -> "ExecutorBase":
    """Instantiate an executor by registry name."""
    module, cls, params = _spec(name)
    return getattr(importlib.import_module(module), cls)(**params)


def preload_executors() -> None:
    """Import every registered executor's module in this process.

    Processes that fork workers call this first: a fork-started
    worker inherits the parent's imported modules, so neither it nor
    a respawned replacement pays the executor-stack import again.
    """
    for module, _, _ in _SPECS.values():
        importlib.import_module(module)


#: Executor name -> zero-argument factory.
EXECUTORS: Dict[str, Callable[[], "ExecutorBase"]] = {
    name: partial(named_executor, name) for name in _SPECS
}
