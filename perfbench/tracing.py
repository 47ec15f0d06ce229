"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``gencayley`` modules from the
outside. Each wrapper replaces the function object under every name a
loaded public ``gencayley`` module binds it to, so calls between modules
are seen too: ``gencayley.census.decide_subgroup_pc`` and
``gencayley.codes.decide_subgroup_pc`` become the same wrapper, as do
``gencayley.codes.build_graph`` and ``gencayley.graphs.build_graph``.

Every call records a span ``(id, parent id, root id, function, start,
end)``; spans of one top-level call share its root id. A function's self
time is the sum of its spans' durations minus the time covered by their
child spans in the same process. Work counts (calls, and per function a
count such as the subsets a kernel scanned) are taken at the same
boundary. Everything stays in memory until :meth:`Tracer.metrics`.

Pool workers forked while tracing keep recording; each writes its spans
to ``child_dir`` when it exits and the parent merges them, so
``census_records(..., workers=2)`` is traced in both processes. A
function a later version of the package no longer has is listed in
``Tracer.missing`` and its metrics are left out.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing.util
import os
import pickle
import sys
import time
from pathlib import Path

# (module, function, metrics reported, count taken from (args, kwargs, result))
FUNCTIONS = [
    ("groups", "build_group", ("calls", "self_s"), None),
    ("groups", "direct_product", ("calls", "self_s"), None),
    ("groups", "enumerate_subgroups", ("calls", "self_s"), None),
    ("groups", "cosets", ("calls", "self_s"), None),
    ("groups", "subgroup", ("calls", "self_s"), None),
    ("automorphisms", "enumerate_automorphisms", ("calls", "self_s", "listed"),
     lambda a, k, r: len(r)),
    ("automorphisms", "alpha_context", ("calls", "self_s"), None),
    ("automorphisms", "product_automorphism", ("calls", "self_s"), None),
    ("graphs", "build_graph", ("calls", "self_s"), None),
    ("codes", "decide_subgroup_pc", ("calls", "self_s", "success_ratio"),
     lambda a, k, r: int(r.success)),
    ("codes", "decide_subgroup_tpc", ("calls", "self_s", "success_ratio"),
     lambda a, k, r: int(r.success)),
    ("codes", "is_perfect_code", ("calls", "self_s"), None),
    ("codes", "is_total_perfect_code", ("calls", "self_s"), None),
    ("codes", "transport_automorphism", ("calls", "self_s"), None),
    ("codes", "transport_conjugate", ("calls", "self_s"), None),
    ("codes", "verify_product_codes", ("calls", "self_s"), None),
    ("codes", "restrict_to_normalizer", ("calls", "self_s"), None),
    ("kernels", "scan_subgroup_codes", ("calls", "self_s", "subgroups"),
     lambda a, k, r: len(a[2])),
    ("kernels", "scan_check_routes", ("calls", "self_s", "x_masks"),
     lambda a, k, r: len(a[6])),
    ("kernels", "scan_codes", ("calls", "self_s", "subsets"),
     lambda a, k, r: 1 << len(a[0])),
    ("census", "census_records", ("self_s",), None),
    ("census", "emit_report", ("self_s", "bytes"), lambda a, k, r: len(r.encode())),
    ("verify", "suite_pc_oracle", ("self_s", "cases"), lambda a, k, r: r.cases),
    ("verify", "suite_tpc_oracle", ("self_s", "cases"), lambda a, k, r: r.cases),
    ("verify", "suite_mode_agreement", ("self_s", "cases"), lambda a, k, r: r.cases),
]

UNITS = {"calls": "count", "self_s": "s", "success_ratio": "ratio", "bytes": "bytes"}

OVERHEAD_METRIC = "trace.overhead_ratio"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for module, function, metrics, _ in FUNCTIONS:
        for what in metrics:
            out[f"{module}.{function}.{what}"] = UNITS.get(what, "count")
    out[OVERHEAD_METRIC] = "ratio"
    return out


class Tracer:
    def __init__(self, functions=FUNCTIONS):
        self.functions = functions
        self.spans: list[tuple] = []  # (id, parent, root, function index, start, end)
        self.stack: list[tuple[int, int]] = []  # open spans as (id, root)
        self.counts = [0] * len(functions)
        self.broken: set[int] = set()  # functions whose count could not be taken
        self.missing: list[str] = []
        self.next_id = _first_id()
        self.child_dir: Path | None = None
        self.children: list[tuple] = []  # (spans, counts, broken) per pool worker

    def install(self) -> None:
        """Replace every traced function by its wrapper, wherever it is bound."""
        for fid, (module, function, _, _) in enumerate(self.functions):
            try:
                original = getattr(importlib.import_module(f"gencayley.{module}"), function)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{function}")
                continue
            wrapper = self._wrap(fid, original)
            for name, mod in list(sys.modules.items()):
                if not (name == "gencayley" or name.startswith("gencayley.")):
                    continue
                if any(part.startswith("_") for part in name.split(".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, fid: int, fn):
        count = self.functions[fid][3]
        spans, stack, counts, broken = self.spans, self.stack, self.counts, self.broken
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent, root = stack[-1] if stack else (0, sid)
            stack.append((sid, root))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, root, fid, t0, t1))
            if count is not None and fid not in broken:
                try:
                    counts[fid] += count(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    broken.add(fid)
            return result

        return wrapper

    # -- pool workers -----------------------------------------------------

    def collect_forked_children(self, directory: Path) -> None:
        """Have processes forked from now on write their spans to ``directory``."""
        self.child_dir = Path(directory)
        multiprocessing.util.register_after_fork(self, Tracer._start_child)

    def _start_child(self) -> None:
        del self.spans[:]
        self.counts[:] = [0] * len(self.counts)
        # open spans of the parent process stay the parents of new ones
        self.next_id = _first_id()
        multiprocessing.util.Finalize(self, self._write_child, exitpriority=10)

    def _write_child(self) -> None:
        path = self.child_dir / f"child-{os.getpid()}.pickle"
        with open(path, "wb") as fh:
            pickle.dump((self.spans, self.counts, sorted(self.broken)), fh)

    def merge_children(self) -> None:
        """Load the spans written by exited pool workers (see above)."""
        if self.child_dir is None:
            return
        for path in sorted(self.child_dir.glob("child-*.pickle")):
            with open(path, "rb") as fh:
                self.children.append(pickle.load(fh))  # written by this program
            path.unlink()

    # -- results ----------------------------------------------------------

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics summed over this process and its pool workers,
        and the names of the metrics that could not be measured."""
        n = len(self.functions)
        calls, self_s = [0] * n, [0.0] * n
        counts, broken = [0] * n, set()
        for spans, part_counts, part_broken in [(self.spans, self.counts, self.broken)] + self.children:
            _self_times(spans, calls, self_s)
            counts = [a + b for a, b in zip(counts, part_counts)]
            broken.update(part_broken)
        missing = list(self.missing)
        out = {}
        for fid, (module, function, metrics, _) in enumerate(self.functions):
            if f"{module}.{function}" in self.missing:
                continue
            for what in metrics:
                name = f"{module}.{function}.{what}"
                if what == "calls":
                    out[name] = calls[fid]
                elif what == "self_s":
                    out[name] = self_s[fid]
                elif fid in broken:
                    missing.append(name)
                elif what == "success_ratio":
                    out[name] = counts[fid] / calls[fid] if calls[fid] else 0.0
                else:
                    out[name] = counts[fid]
        return out, missing

    def dump_spans(self, path: Path) -> None:
        """Write every span as a tab-separated line: pid, id, parent, root,
        function, start and end in seconds."""
        names = [f"{m}.{f}" for m, f, _, _ in self.functions]
        with open(path, "w") as fh:
            fh.write("pid\tid\tparent\troot\tfunction\tstart\tend\n")
            for spans in [self.spans] + [spans for spans, _, _ in self.children]:
                for sid, parent, root, fid, t0, t1 in spans:
                    fh.write(f"{sid >> 40}\t{sid}\t{parent}\t{root}\t{names[fid]}\t{t0:.9f}\t{t1:.9f}\n")


def _first_id() -> int:
    """Span ids carry the process id, so they stay unique across processes."""
    return (os.getpid() << 40) + 1


def _self_times(spans, calls: list[int], self_s: list[float]) -> None:
    covered: dict[int, float] = {}
    for sid, parent, _, _, t0, t1 in spans:
        covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
    for sid, _, _, fid, t0, t1 in spans:
        calls[fid] += 1
        self_s[fid] += (t1 - t0) - covered.get(sid, 0.0)
