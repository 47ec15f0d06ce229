"""The benchmark's tracer wraps package functions by name; a function that
is renamed or removed silently drops its per-layer metrics, so every name
it lists must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS
    unresolved = [
        f"{module}.{function}"
        for module, function, _, _ in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(f"gencayley.{module}"), function, None))
    ]
    assert not unresolved
