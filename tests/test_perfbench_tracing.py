"""The benchmark's tracer wraps package functions by name; a function that
is renamed or removed silently drops its per-layer metrics, and one whose
arguments move drops its count, so every name it lists must resolve and
every count must be taken."""

import importlib
import importlib.util
import sys
from pathlib import Path

import gencayley
from gencayley import census, kernels, verify

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_exist():
    tracing = _load_tracing()
    assert tracing.FUNCTIONS
    unresolved = [
        f"{module}.{function}"
        for module, function, _, _ in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(f"gencayley.{module}"), function, None))
    ]
    assert not unresolved


def test_every_traced_count_is_taken(monkeypatch):
    # the tracer takes each count from the call's arguments or result
    # (len(args[2]) for scan_subgroup_codes): a signature change that moves
    # them lands the function in Tracer.broken and drops its metric
    tracing = _load_tracing()
    originals = {
        id(getattr(importlib.import_module(f"gencayley.{module}"), function))
        for module, function, _, _ in tracing.FUNCTIONS
    }
    # every binding the tracer replaces is set back when the test ends
    for name, mod in list(sys.modules.items()):
        if name == "gencayley" or name.startswith("gencayley."):
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    monkeypatch.setattr(mod, attr, value)
    tracer = tracing.Tracer()
    tracer.install()

    z4 = gencayley.build_group("cyclic:4")
    ctx = gencayley.involution_contexts(z4)[0]
    subs = gencayley.enumerate_subgroups(z4)
    graph = gencayley.build_graph(gencayley.subset_from_orbit_mask(ctx, 0b11))
    gencayley.enumerate_automorphisms(z4)
    for sub in subs:
        gencayley.decide_subgroup_pc(sub, ctx)
        gencayley.decide_subgroup_tpc(sub, ctx)
    kernels.scan_subgroup_codes(ctx.orbit_lanes, "perfect", [s.mask for s in subs])
    kernels.scan_check_routes(
        4, z4.table, z4.inv, ctx.alpha.perm, graph.subset.elements, graph.nbr_masks, [0b0101]
    )
    kernels.scan_codes(graph.nbr_masks, "total")
    gencayley.emit_report(census.census_records(4))
    for suite in (verify.suite_pc_oracle, verify.suite_tpc_oracle, verify.suite_mode_agreement):
        assert suite(4).ok

    counted = {fid for fid, entry in enumerate(tracing.FUNCTIONS) if entry[3] is not None}
    called = {span[3] for span in tracer.spans}
    names = [f"{module}.{function}" for module, function, _, _ in tracing.FUNCTIONS]
    assert not tracer.missing
    assert [names[fid] for fid in sorted(counted - called)] == []
    assert [names[fid] for fid in sorted(tracer.broken)] == []
    assert tracer.metrics()[1] == []
