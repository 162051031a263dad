"""The benchmark's tracer (perfbench/tracing.py) wraps program functions by
name.  A refactor that drops one of those names would crash a traced run,
so every name it targets must resolve to a callable."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_targets(monkeypatch):
    """TARGETS of perfbench/tracing.py, loaded without registering the
    module or writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    targets = traced_targets(monkeypatch)
    names = {(module, attr) for module, attr, _ in targets}
    assert {("neighborgen.tensor", "take"),
            ("neighborgen.tensor", "Tensor.backward"),
            ("neighborgen.sample", "build_schedule"),
            ("neighborgen.train", "build_schedule")} <= names
    for module, attr, _ in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module}.{attr} is not a callable"
