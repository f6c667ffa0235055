"""The package names the benchmark reaches from outside.

`benchmarks/tracing.py` wraps package functions and methods by name,
and `benchmarks/run.py` calls the package's public functions, among
them `build_index`, `FeatureIndex.names()` and `len(index)`.  The
benchmark runs against the package as it is, so a name removed or
renamed here breaks it; these tests fail first.
"""

import importlib.util
import sys
from pathlib import Path

import borrowings
import borrowings.cli
from conftest import synthetic_corpus

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every attribute of the package's modules and of their classes,
    keyed by (owner, name)."""
    modules = [
        module
        for name, module in sys.modules.items()
        if name == "borrowings" or name.startswith("borrowings.")
    ]
    classes = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__.startswith("borrowings")
    }
    return {
        (owner, name): value
        for owner in [*modules, *classes]
        for name, value in list(vars(owner).items())
    }


def test_tracing_installs_and_uninstall_restores_every_original(monkeypatch):
    tracing = load_tracing(monkeypatch)
    before = bindings()
    tracer = tracing.install(tracing.Recorder())
    try:
        during = bindings()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        assert wrapped
        for key in wrapped:
            assert during[key].__wrapped__ is before[key]
        owner_names = {(getattr(owner, "__name__", ""), name) for owner, name in wrapped}
        assert ("borrowings.features", "windowed_attributes") in owner_names
        assert ("borrowings.crf", "encode_training_set") in owner_names
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_the_package_calls_the_benchmark_makes_exist():
    for name in (
        "FeatureConfig", "TrainConfig", "build_index", "load_model",
        "read_corpus", "save_model", "train",
    ):
        assert callable(getattr(borrowings, name)), name
    assert callable(borrowings.cli.run)
    index = borrowings.build_index(synthetic_corpus(5, seed=1), borrowings.FeatureConfig())
    assert isinstance(index, borrowings.FeatureIndex)
    names = index.names()
    assert len(index) == len(names) > 0
    assert all(isinstance(name, str) for name in names)
