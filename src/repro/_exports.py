"""Lazy package exports (PEP 562 module ``__getattr__``).

A package ``__init__`` that imported its submodules eagerly would make
every ``import repro.<package>.<module>`` pay for the whole package --
for :mod:`repro.runner` or :mod:`repro.serve` that is numpy, the
executors and both searches.  Packages instead declare which module
defines each exported name and resolve it on first access, so a
disk-cache hit loads only the modules it actually touches.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package``.

    Args:
        package: The package's ``__name__``.
        exports: ``{defining module: exported names}``.

    The returned function imports the defining module on first
    access and caches the value in the package namespace, so later
    lookups are plain attribute reads.
    """
    owners: Dict[str, str] = {
        name: module
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


def export_names(exports: Mapping[str, Sequence[str]]) -> list:
    """The sorted ``__all__`` for an ``exports`` mapping."""
    return sorted(
        name for names in exports.values() for name in names
    )
