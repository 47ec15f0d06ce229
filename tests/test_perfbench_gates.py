"""The benchmark's output gates at toy scale: every workload runs in-process
through the public API and no operation fails, so a change that breaks a
census, scan, probe, transport or product check fails here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling speed.py by plain name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("name", ["census", "census-par", "crosscheck", "constructions"])
def test_workload_gates_hold_at_toy_scale(workloads, name):
    prepare, run = workloads.WORKLOADS[name]
    scale = workloads.SCALES["toy"]
    outcome = run(prepare(7, scale), scale)
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.failures
