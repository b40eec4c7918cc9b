"""The benchmark's tracer wraps rollbound functions by name: each of its
targets must still exist, or a deletion silently breaks the traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_to_a_callable():
    targets = _tracing_module().TARGETS
    assert targets
    missing = []
    for target in targets:
        module, name = target.split(".")
        fn = getattr(importlib.import_module(f"rollbound.{module}"), name, None)
        if not callable(fn):
            missing.append(target)
    assert missing == []
