"""Public-API surface tests.

Every symbol a package exports in ``__all__`` must import, and every
public callable/class must carry a docstring -- the contract a
downstream user relies on.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.arch",
    "repro.baselines",
    "repro.core",
    "repro.dpipe",
    "repro.einsum",
    "repro.experiments",
    "repro.graph",
    "repro.metrics",
    "repro.model",
    "repro.reference",
    "repro.runner",
    "repro.serve",
    "repro.sim",
    "repro.tileseek",
]

MODULES = [
    "repro.cli",
    "repro.cli.cache",
    "repro.cli.compare",
    "repro.cli.compile",
    "repro.cli.decode",
    "repro.cli.figures",
    "repro.cli.fleet",
    "repro.cli.inspect",
    "repro.cli.learn",
    "repro.cli.plan",
    "repro.cli.serve",
    "repro.cli.stack",
    "repro.cli.sweep",
    "repro.cli.validate",
    "repro.core.serialize",
    "repro.core.wire",
    "repro.core.stack",
    "repro.dpipe.visualize",
    "repro.arch.technology",
    "repro.sim.des",
    "repro.sim.loopnest",
    "repro.sim.mapper",
    "repro.sim.layer_pipeline",
    "repro.sim.registers",
    "repro.sim.roofline",
    "repro.sim.traffic",
    "repro.experiments.ablations",
    "repro.experiments.batch_sweep",
    "repro.experiments.decode",
    "repro.experiments.sensitivity",
    "repro.runner.cache",
    "repro.runner.chain",
    "repro.runner.errors",
    "repro.runner.faults",
    "repro.runner.parallel",
    "repro.runner.pool",
    "repro.runner.result",
    "repro.serve.app",
    "repro.serve.client",
    "repro.serve.coalesce",
    "repro.serve.journal",
    "repro.serve.lru",
    "repro.serve.protocol",
    "repro.serve.transport",
    "repro.tileseek.baseline_search",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert getattr(module, name, None) is not None, (
            f"{package}.{name} in __all__ but not importable"
        )


@pytest.mark.parametrize("module_name", PACKAGES + MODULES)
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    for name, item in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(item) or inspect.isfunction(item)):
            continue
        if getattr(item, "__module__", None) != module_name:
            continue  # re-export documented at its home
        assert inspect.getdoc(item), (
            f"{module_name}.{name} lacks a docstring"
        )


def test_top_level_lazy_exports():
    import repro

    assert repro.TransFusion is not None
    assert repro.compare_executors is not None
    assert repro.__version__
