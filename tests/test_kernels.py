"""Compiled and pure kernels must be interchangeable; the pure searches must
return exactly what the literal 2^n scans in ``oracles`` return, and both
must match the definition-level oracles."""

import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from gencayley import (
    _kernels_py,
    alpha_context,
    automorphism_from_perm,
    build_graph,
    build_group,
    catalog,
    enumerate_subgroups,
    enumerate_subsets,
    inversion_automorphism,
    kernels,
    subset_from_orbit_mask,
)
from gencayley.kernels import backend
from gencayley.verify import _contexts, _mul_flat, _orbit_translate_masks

from oracles import codes_by_definition, scan_codes_bruteforce, scan_subgroup_codes_bruteforce

KERNELS_C = Path(__file__).resolve().parent.parent / "src" / "gencayley" / "_kernels.c"


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernels: an installed build, else the shipped C source
    built into a temporary directory. The build is loaded without an entry
    in ``sys.modules``, so the active backend does not change."""
    try:
        from gencayley import _kernels

        return _kernels
    except ImportError:
        pass
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not Path(include, "Python.h").exists():
        pytest.skip("extension not built, and no gcc and Python.h to build it")
    target = tmp_path_factory.mktemp("kernels") / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [gcc, "-shared", "-fPIC", "-O2", f"-I{include}", str(KERNELS_C), "-o", str(target)],
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        pytest.fail(f"building {KERNELS_C.name} failed:\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("gencayley._kernels", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _instances(max_order=8):
    out = []
    for spec in ("cyclic:6", "cyclic:8", "V4", "dihedral:3", "dihedral:4", "abelian:2,4"):
        group = build_group(spec)
        if group.order > max_order:
            continue
        for _, ctx in _contexts(group):
            for subset in enumerate_subsets(ctx):
                out.append((group, ctx, subset))
    return out


def _random_mask(rng, n, density):
    return sum(1 << i for i in range(n) if rng.random() < density)


def test_backend_reports_something():
    assert backend() in ("compiled", "python")


def test_scan_codes_matches_definition_oracle():
    for group, ctx, subset in _instances():
        graph = build_graph(subset)
        for kind, name in ((0, "perfect"), (1, "total")):
            masks = _kernels_py.scan_codes(graph.nbr_masks, kind)
            expect = {
                frozenset(c) for c in codes_by_definition(graph.adjacency, name)
            }
            got = {
                frozenset(v for v in range(group.order) if m >> v & 1) for m in masks
            }
            assert got == expect


def test_scan_codes_matches_bruteforce_on_random_graphs():
    # arbitrary neighbor masks: asymmetric, self-loops, isolated and free
    # vertices, and bits above n, which neither scan may read
    rng = random.Random(1)
    found = 0
    for _ in range(800):
        n = rng.randint(0, 9)
        density = rng.choice((0.05, 0.15, 0.3, 0.6))
        nbr = [_random_mask(rng, n, density) for _ in range(n)]
        if rng.random() < 0.5:
            for v in range(n):
                for w in range(n):
                    if nbr[v] >> w & 1:
                        nbr[w] |= 1 << v
        if rng.random() < 0.2:
            nbr = [m | rng.getrandbits(4) << n for m in nbr]
        for kind in (0, 1):
            got = _kernels_py.scan_codes(nbr, kind)
            assert got == scan_codes_bruteforce(nbr, kind), (nbr, kind)
            found += len(got)
    assert found > 500


def test_scan_subgroup_codes_matches_bruteforce_on_random_translates():
    # arbitrary translate masks: asymmetric, several elements per vertex,
    # orbits that overlap or repeat each other, the empty H and all of G
    rng = random.Random(2)
    found = 0
    for _ in range(800):
        n = rng.randint(0, 9)
        m = rng.randint(0, 6)
        width = rng.choice((1, 2, 3))
        trans = []
        for o in range(m):
            if o and rng.random() < 0.2:
                trans.extend(trans[(o - 1) * n : o * n])
                continue
            for _ in range(n):
                t = 0
                if n and rng.random() < 0.7:
                    for _ in range(rng.randint(1, width)):
                        t |= 1 << rng.randrange(n)
                trans.append(t)
        h_masks = [0, (1 << n) - 1] + [_random_mask(rng, n, 0.4) for _ in range(4)]
        for kind in (0, 1):
            got = _kernels_py.scan_subgroup_codes(trans, m, h_masks, n, kind)
            assert got == scan_subgroup_codes_bruteforce(trans, m, h_masks, n, kind), (
                trans, m, h_masks, n, kind,
            )
            found += sum(r > 0 for r in got)
    assert found > 500


def test_kernels_match_bruteforce_on_catalog_to_order_8():
    for group in catalog(8):
        h_masks = [s.mask for s in enumerate_subgroups(group)]
        for _, ctx in _contexts(group):
            trans = _orbit_translate_masks(ctx)
            m = len(ctx.tau_orbits)
            for kind in (0, 1):
                assert _kernels_py.scan_subgroup_codes(
                    trans, m, h_masks, group.order, kind
                ) == scan_subgroup_codes_bruteforce(trans, m, h_masks, group.order, kind)
            for subset in enumerate_subsets(ctx):
                nbr = build_graph(subset).nbr_masks
                for kind in (0, 1):
                    assert _kernels_py.scan_codes(nbr, kind) == scan_codes_bruteforce(nbr, kind)


def test_compiled_build_leaves_backend_alone(compiled):
    if sys.modules.get("gencayley._kernels") is not compiled:  # built by the fixture
        assert "gencayley._kernels" not in sys.modules
        assert kernels.scan_codes is not compiled.scan_codes


def test_compiled_scan_codes_matches_pure(compiled):
    for group, ctx, subset in _instances():
        graph = build_graph(subset)
        for kind in (0, 1):
            assert compiled.scan_codes(graph.nbr_masks, kind) == _kernels_py.scan_codes(
                graph.nbr_masks, kind
            )


def test_compiled_scan_subgroup_codes_matches_pure(compiled):
    for group in catalog(16):
        h_masks = [s.mask for s in enumerate_subgroups(group)]
        for _, ctx in _contexts(group):
            trans = _orbit_translate_masks(ctx)
            for kind in (0, 1):
                got = compiled.scan_subgroup_codes(
                    trans, len(ctx.tau_orbits), h_masks, group.order, kind
                )
                want = _kernels_py.scan_subgroup_codes(
                    trans, len(ctx.tau_orbits), h_masks, group.order, kind
                )
                assert got == want


def test_compiled_scan_check_routes_matches_pure(compiled):
    rng = random.Random(0)
    for group, ctx, subset in _instances():
        graph = build_graph(subset)
        n = group.order
        xms = [rng.getrandbits(n) for _ in range(64)] + [0, (1 << n) - 1]
        args = (
            n,
            _mul_flat(group),
            group.inv,
            ctx.alpha.perm,
            subset.elements,
            graph.nbr_masks,
            xms,
        )
        assert compiled.scan_check_routes(*args) == _kernels_py.scan_check_routes(*args)


@pytest.mark.parametrize("n", [63, 64])
def test_compiled_scan_check_routes_matches_pure_at_full_width(compiled, n):
    # order 64 fills the 64-bit masks, so the all-vertices mask has no spare
    # bit; order 63 is the control just below it
    group = build_group(f"cyclic:{n}")
    rng = random.Random(n)
    identity = automorphism_from_perm(group, range(n))
    for alpha in (inversion_automorphism(group)[0], identity):
        ctx = alpha_context(group, alpha)
        for _ in range(10):
            subset = subset_from_orbit_mask(ctx, rng.getrandbits(len(ctx.tau_orbits)))
            graph = build_graph(subset)
            xms = [rng.getrandbits(n) for _ in range(20)] + [0, (1 << n) - 1]
            args = (
                n,
                _mul_flat(group),
                group.inv,
                ctx.alpha.perm,
                subset.elements,
                graph.nbr_masks,
                xms,
            )
            assert compiled.scan_check_routes(*args) == _kernels_py.scan_check_routes(*args)
