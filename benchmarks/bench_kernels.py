#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Times the three hot kernels on representative instances and prints a table
with the speedups. The compiled code scans loop over every subset; the
pure-Python ones are pruned searches with the same output. Usage:

    python benchmarks/bench_kernels.py [--repeat 3]
"""

import argparse
import random
import time

from gencayley import _kernels_py, build_graph, build_group, enumerate_subgroups
from gencayley.verify import _contexts, _mul_flat, _orbit_translate_masks

try:
    from gencayley import _kernels
except ImportError:
    _kernels = None


def _best(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench(repeat: int) -> None:
    cases = []

    # code scan of an order-16 graph
    g16 = build_group("abelian:2,2,2,2")
    ctx16 = _contexts(g16)[0][1]
    from gencayley import enumerate_subsets

    subset16 = max(enumerate_subsets(ctx16), key=lambda s: s.size)
    graph16 = build_graph(subset16)
    cases.append(
        (
            f"scan_codes        n=16 S-size={subset16.size}",
            lambda impl: impl.scan_codes(graph16.nbr_masks, 0),
        )
    )

    # connection-set existence scan over all subgroups of the same group
    h_masks = [s.mask for s in enumerate_subgroups(g16)]
    trans = _orbit_translate_masks(ctx16)
    m = len(ctx16.tau_orbits)
    cases.append(
        (
            f"scan_subgroup     n=16 orbits={m} subgroups={len(h_masks)}",
            lambda impl: impl.scan_subgroup_codes(trans, m, h_masks, 16, 0),
        )
    )

    # batched criterion evaluation on an order-12 graph
    g12 = build_group("dihedral:6")
    ctx12 = _contexts(g12)[0][1]
    subset12 = max(enumerate_subsets(ctx12), key=lambda s: s.size)
    graph12 = build_graph(subset12)
    rng = random.Random(0)
    xms = [rng.getrandbits(12) for _ in range(20000)]
    args12 = (
        12,
        _mul_flat(g12),
        g12.inv,
        ctx12.alpha.perm,
        subset12.elements,
        graph12.nbr_masks,
        xms,
    )
    cases.append(
        (
            f"scan_check_routes  n=12 X-batch={len(xms)}",
            lambda impl: impl.scan_check_routes(*args12),
        )
    )

    print(f"{'kernel':44} {'pure (s)':>10} {'compiled (s)':>13} {'speedup':>9}")
    for label, runner in cases:
        pure = _best(lambda: runner(_kernels_py), repeat)
        if _kernels is None:
            print(f"{label:44} {pure:10.4f} {'unavailable':>13} {'-':>9}")
            continue
        compiled = _best(lambda: runner(_kernels), repeat)
        assert runner(_kernels) == runner(_kernels_py), "kernel results diverge"
        print(f"{label:44} {pure:10.4f} {compiled:13.4f} {pure / compiled:8.1f}x")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    bench(parser.parse_args().repeat)
