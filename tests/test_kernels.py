"""The pure searches must return exactly what the literal scans in
``oracles`` return, and both must match the definition-level oracles; the
batched route kernel must return, bit for bit, the verdicts of the route
table ``graphs.ROUTES``."""

import dataclasses
import random
import re

import pytest

from gencayley import (
    ThresholdError,
    alpha_context,
    automorphism_from_perm,
    build_graph,
    build_group,
    catalog,
    enumerate_involutory_automorphisms,
    enumerate_subgroups,
    enumerate_subsets,
    inversion_automorphism,
    involution_contexts,
    kernels,
    orbit_translate_masks,
    subset_from_orbit_mask,
)
from gencayley import codes
from gencayley._bits import elems
from gencayley.kernels import CODE_KINDS
from gencayley.verify import CONSISTENT_VERDICTS, reference_verdict

from oracles import codes_by_definition, scan_codes_bruteforce, scan_subgroup_codes_bruteforce


def _instances(max_order=8):
    out = []
    for spec in ("cyclic:6", "cyclic:8", "V4", "dihedral:3", "dihedral:4", "abelian:2,4"):
        group = build_group(spec)
        if group.order > max_order:
            continue
        for ctx in involution_contexts(group):
            for subset in enumerate_subsets(ctx):
                out.append((group, ctx, subset))
    return out


def _random_mask(rng, n, density):
    return sum(1 << i for i in range(n) if rng.random() < density)


def test_backend_reports_something():
    assert kernels.backend() == "python"


def test_scan_codes_matches_definition_oracle():
    for group, ctx, subset in _instances():
        graph = build_graph(subset)
        for kind in CODE_KINDS:
            masks = kernels.scan_codes(graph.nbr_masks, kind)
            adjacency = [elems(m) for m in graph.nbr_masks]
            expect = {frozenset(c) for c in codes_by_definition(adjacency, kind)}
            got = {
                frozenset(v for v in range(group.order) if m >> v & 1) for m in masks
            }
            assert got == expect


def test_scan_codes_matches_bruteforce_on_random_graphs():
    # arbitrary neighbor masks: asymmetric, self-loops, isolated and free
    # vertices; bits above n are refused
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
        high = nbr
        if rng.random() < 0.2:
            high = [m | rng.getrandbits(4) << n for m in nbr]
        for kind in CODE_KINDS:
            if high != nbr:
                with pytest.raises(ValueError, match="neighbor mask .* outside"):
                    kernels.scan_codes(high, kind)
            got = kernels.scan_codes(nbr, kind)
            assert got == scan_codes_bruteforce(nbr, kind), (nbr, kind)
            found += len(got)
    assert found > 500


def _scan(trans, h_masks, n, kind):
    """The subgroup-code kernel on the brute force's arguments: the lanes
    of the translates, then the scan of the H masks."""
    return kernels.scan_subgroup_codes(kernels.orbit_lanes(trans, n), kind, h_masks)


def _random_translates(rng, n, m, width):
    """m orbits of n translate masks, disjoint at each vertex as
    ``orbit_translate_masks`` gives them: asymmetric, up to ``width``
    elements per vertex, and some orbits empty at some vertices."""
    trans = [0] * (m * n)
    for v in range(n):
        free = rng.sample(range(n), n)  # the elements no orbit shows v yet
        for o in rng.sample(range(m), m):
            if free and rng.random() < 0.7:
                k = rng.randint(1, width)
                trans[o * n + v] = sum(1 << e for e in free[:k])
                del free[:k]
    return trans


def test_scan_subgroup_codes_matches_bruteforce_on_random_translates():
    # arbitrary disjoint translate masks: asymmetric, several elements per
    # vertex, the empty H and all of G
    rng = random.Random(2)
    found = 0
    for _ in range(800):
        n = rng.randint(1, 9)
        m = rng.randint(0, 6)
        trans = _random_translates(rng, n, m, rng.choice((1, 2, 3)))
        h_masks = [0, (1 << n) - 1] + [_random_mask(rng, n, 0.4) for _ in range(4)]
        for kind in CODE_KINDS:
            got = _scan(trans, h_masks, n, kind)
            assert got == scan_subgroup_codes_bruteforce(trans, h_masks, n, kind), (
                trans, m, h_masks, n, kind,
            )
            found += sum(r > 0 for r in got)
    assert found > 500


def test_scan_subgroup_codes_matches_bruteforce_on_wide_layouts():
    # n up to 17 and m up to 10: the orbit lanes hold m*n bits, past 64.
    # One case in two plants a code for a random H in four orbits: the
    # last vertex in the top bit of the fourth's field alone, every other
    # needy vertex from exactly one of the first three. Every case has an
    # empty orbit, the empty H and all of G.
    rng = random.Random(3)
    found = planted = widest = 0
    for case in range(40):
        n = rng.randint(10, 17)
        m = rng.randint(7, 10)
        widest = max(widest, m * n)
        full = (1 << n) - 1
        trans = _random_translates(rng, n, m, 2)
        hm = _random_mask(rng, n, 0.3) or 1
        orbits = rng.sample(range(m), m)
        if case % 4 < 2:
            planted += 1
            needy = full if case % 2 else full & ~hm  # planted for each kind in turn
            for v in range(n):
                chosen = rng.choice(orbits[:3]) if v < n - 1 else orbits[3]
                e = rng.choice([e for e in range(n) if hm >> e & 1])
                used = 1 << e  # e is shown v by the chosen orbit, or by none
                for o in orbits[4:]:
                    trans[o * n + v] &= ~used
                    used |= trans[o * n + v]
                for o in orbits[:4]:
                    t = _random_mask(rng, n, 0.1) & ~hm & ~used
                    if needy >> v & 1 and o == chosen:
                        t |= 1 << e
                    trans[o * n + v] = t
                    used |= t
        empty = orbits[4]
        trans[empty * n : empty * n + n] = [0] * n
        h_masks = [0, full, hm] + [_random_mask(rng, n, 0.3) for _ in range(3)]
        for kind in CODE_KINDS:
            got = _scan(trans, h_masks, n, kind)
            assert got == scan_subgroup_codes_bruteforce(trans, h_masks, n, kind), (
                trans, m, h_masks, n, kind,
            )
            found += sum(r > 0 for r in got)
            if case % 4 < 2 and kind == CODE_KINDS[case % 2]:
                assert got[2] != -1, (trans, m, hm, n, kind)  # the planted code
    assert widest > 64 and planted == 20
    assert found >= planted


def test_orbit_translate_masks_are_disjoint_at_every_vertex():
    # alpha(g)*o for distinct tau-orbits o are disjoint, left multiplication
    # being injective: the contract scan_subgroup_codes checks and relies on
    contexts = 0
    for group in catalog(24):
        n = group.order
        for ctx in involution_contexts(group):
            contexts += 1
            trans = orbit_translate_masks(ctx)
            for v in range(n):
                shown = 0
                for t in trans[v::n]:  # orbit by orbit
                    assert not shown & t, (group.id, ctx.alpha.perm, v)
                    shown |= t
    assert contexts == 667


def test_scan_subgroup_codes_matches_bruteforce_on_order_16_contexts():
    # each order-16 catalog group with its involution of the most orbits
    # (14 for Z2xZ2xZ4, 10 for Z2^4), and two more of Z2^4's with 10
    cases = 0
    for group in catalog(16):
        if group.order != 16:
            continue
        h_masks = [s.mask for s in enumerate_subgroups(group)]
        contexts = involution_contexts(group)
        most = max(len(ctx.tau_orbits) for ctx in contexts)
        tops = [ctx for ctx in contexts if len(ctx.tau_orbits) == most]
        for ctx in tops[:3] if group.id == "Z2xZ2xZ2xZ2" else tops[:1]:
            trans = orbit_translate_masks(ctx)
            for kind in CODE_KINDS:
                assert _scan(
                    trans, h_masks, 16, kind
                ) == scan_subgroup_codes_bruteforce(trans, h_masks, 16, kind), (
                    group.id, ctx.alpha.perm, kind,
                )
                cases += 1
    assert cases == 16


@pytest.mark.parametrize("m", [0, 1])
def test_scan_subgroup_codes_matches_bruteforce_with_at_most_one_orbit(m):
    # no orbit leaves the prefix fold empty, and one orbit needs no shift;
    # H={e} and H=G, for both kinds
    rng = random.Random(4 + m)
    outcomes = set()
    for _ in range(200):
        n = rng.randint(1, 9)
        trans = _random_translates(rng, n, m, rng.choice((1, 2)))
        h_masks = [0b1, (1 << n) - 1]
        for kind in CODE_KINDS:
            got = _scan(trans, h_masks, n, kind)
            assert got == scan_subgroup_codes_bruteforce(trans, h_masks, n, kind), (
                trans, m, n, kind,
            )
            outcomes.update(got)
    # the one orbit gives all three answers; none gives only the empty set
    assert outcomes == ({-1, 0, 1} if m else {-1, 0})


@pytest.mark.parametrize("kind", CODE_KINDS, ids=["0", "1"])  # ids: the kind's index
@pytest.mark.parametrize(
    "trans, h_masks, message",
    [
        ([], [0b1, 0b1111, 1 << 4], "H mask 0x10 has an element outside 0..3"),
        ([0b10, 0b01, 0b1000, 1 << 4], [0b1, 0b1111], "translate mask 0x10 has an element"),
        ([0b10, 0b01, 0b1000, 0b100], [0b1111, -1], "H mask -0x1 has an element"),
        ([0b10, 0b01, 0b1000, 0b100] * 2, [0b1, 0b1111], "orbits 0 and 1 overlap at vertex 0"),
    ],
    ids=["no-orbit-H", "one-orbit-translate", "one-orbit-H", "two-orbits-overlap"],
)
def test_scan_subgroup_codes_rejects_before_any_answer(kind, trans, h_masks, message):
    # the leading H masks alone would be answered, with or without a search
    with pytest.raises(ValueError, match=message):
        _scan(trans, h_masks, 4, kind)


@pytest.mark.parametrize(
    "trans_bad, h_masks, message",
    [
        (-1, [0b0101], "translate mask -0x1 has an element outside 0..3"),
        (1 << 4, [0b0101], "translate mask 0x10 has an element outside 0..3"),
        (None, [0b0101, 1 << 6, -1], "H mask 0x40 has an element outside 0..3"),
        (None, [0b0101, -1], "H mask -0x1 has an element outside 0..3"),
    ],
    ids=["negative-translate", "translate-above-n", "H-above-n", "negative-H"],
)
def test_scan_subgroup_codes_rejects_masks_outside_the_group(trans_bad, h_masks, message):
    # a negative translate mask once sent the bit loop on forever, and
    # out-of-range H masks gave answers; nothing is searched now. The two
    # orbits are disjoint at every vertex, so the lanes are built and the
    # H masks reach their check
    trans = [0b0001, 0b0010, 0b0100, 0b1000, 0b0010, 0b0001, 0b1000, 0b0100]
    if trans_bad is not None:
        trans[5] = trans_bad
    with pytest.raises(ValueError, match=message):
        _scan(trans, h_masks, 4, "perfect")


@pytest.mark.parametrize(
    "trans, n, message",
    [
        ([0b0001, 0b0010, 0b0100, 0b1000] * 2, 4, "orbits 0 and 1 overlap at vertex 0"),
        ([0b001, 0b010, 0b100, 0b100, 0, 0, 0, 0, 0b110], 3, "orbits 0 and 2 overlap at vertex 2"),
    ],
    ids=["repeated-orbit", "one-shared-element"],
)
def test_scan_subgroup_codes_rejects_overlapping_translates(trans, n, message):
    # two orbits showing one vertex the same element: the search's one-int
    # state would count that element twice
    with pytest.raises(ValueError, match=f"translates of {message}"):
        _scan(trans, [0b1], n, "perfect")


def _code_scan(kind="perfect", nbr=(0b10, 0b01)):
    return kernels.scan_codes(list(nbr), kind)


def _subgroup_scan(kind="perfect", trans=(0b10, 0b01), h_masks=(0b1,)):
    return kernels.scan_subgroup_codes(kernels.orbit_lanes(list(trans), 2), kind, list(h_masks))


def _route_scan(nbr=(0b10, 0b01), x_masks=(0b1,), n=2):
    # Z2 with the identity automorphism and S = {1}
    return kernels.scan_check_routes(
        n, [[0, 1], [1, 0]], (0, 1), (0, 1), (1,), list(nbr), list(x_masks)
    )


def _kind_refused(kind):
    return re.escape(f"kind must be one of ('perfect', 'total'), got {kind!r}")


# (label, scan, keyword, name in the message) of every mask argument
_MASK_ARGS = (
    ("code-scan", _code_scan, "nbr", "neighbor"),
    ("lanes", _subgroup_scan, "trans", "translate"),
    ("subgroup-scan", _subgroup_scan, "h_masks", "H"),
    ("route-scan", _route_scan, "nbr", "neighbor"),
    ("route-scan", _route_scan, "x_masks", "X"),
)


# (id, call, message): the one input contract of the kernels. Code kinds go
# by name, every mask argument is an int inside 0..n-1, and the orbit count
# divides out of the translates. Each call was once answered, or refused
# with another message
_CONTRACT = [
    ("short-translates", lambda: _scan([1, 2, 4], [0b0011], 4, "perfect"),
     "trans_masks holds 3 masks, not a multiple of n = 4"),
    ("lanes-of-order-0", lambda: kernels.orbit_lanes([], 0), "n must be at least 1, got 0"),
    # every order argument takes the package's one size rule: a float order
    # once raised a bare TypeError, and an order of 0 a table-length message
    ("lanes-n-not-an-int", lambda: kernels.orbit_lanes([0, 0], 2.0),
     re.escape("n must be an int, got 2.0")),
    ("route-scan-n-not-an-int", lambda: _route_scan(n=2.0), re.escape("n must be an int, got 2.0")),
    ("route-scan-of-order-0", lambda: _route_scan(n=0), "n must be at least 1, got 0"),
    ("subgroup-scan-kind", lambda: _subgroup_scan(7), _kind_refused(7)),
    ("code-scan-kind", lambda: _code_scan(5), _kind_refused(5)),
    *[
        (f"{label}-kind-{kind}", lambda scan=scan, kind=kind: scan(kind), _kind_refused(kind))
        for label, scan in (("code-scan", _code_scan), ("subgroup-scan", _subgroup_scan))
        for kind in (0, 1, True, 1.0, "pc", None)
    ],
    *[
        (
            f"{label}-{arg}={bad:#x}",
            lambda scan=scan, arg=arg, bad=bad: scan(**{arg: (0b01, bad)}),
            re.escape(f"{what} mask {bad:#x} has an element outside 0..1"),
        )
        for label, scan, arg, what in _MASK_ARGS
        for bad in (-1, 1 << 2)
    ],
    # a mask that is not an int: 4.0 once reached the message's hex format,
    # and the others a bare TypeError
    *[
        (
            f"{label}-{arg}={bad!r}",
            lambda scan=scan, arg=arg, bad=bad: scan(**{arg: (bad, 0b01)}),
            re.escape(f"{what} mask {bad!r} is not an int"),
        )
        for label, scan, arg, what in _MASK_ARGS
        for bad in (4.0, 0.5, "a", None, b"x", 1j)
    ],
    ("code-scan-every-nbr-above-n", lambda: kernels.scan_codes([0b100, 0b100], "total"),
     "neighbor mask 0x4 has an element outside 0..1"),
]


@pytest.mark.parametrize(
    "call, message", [case[1:] for case in _CONTRACT], ids=[case[0] for case in _CONTRACT]
)
def test_kernels_reject_bad_shapes_and_kinds(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "scan, arg", [m[1:3] for m in _MASK_ARGS], ids=[f"{m[0]}-{m[2]}" for m in _MASK_ARGS]
)
def test_kernels_read_a_bool_mask_as_its_int(scan, arg):
    # a bool is an int, and every mask argument reads True as 1 until the
    # argument policy decides bools for every argument at once
    assert scan(**{arg: (True, 0b01)}) == scan(**{arg: (1, 0b01)})


def test_code_kinds_have_one_home():
    assert kernels.CODE_KINDS == ("perfect", "total")
    assert not hasattr(codes, "CODE_KINDS")


def test_scan_subgroup_codes_takes_only_packed_lanes():
    # three translates would unpack as (n, num_orbits, lanes) unchecked
    with pytest.raises(TypeError, match="lanes must come from orbit_lanes, got list"):
        kernels.scan_subgroup_codes([0b01, 0b10, 0b11], "perfect", [0b1])
    lanes = kernels.orbit_lanes([0b10, 0b01], 2)
    assert lanes == (2, 1, (0b10, 0b01))
    assert kernels.scan_subgroup_codes(lanes, "total", [0b11]) == [1]


def test_kernels_match_bruteforce_on_catalog_to_order_8():
    for group in catalog(8):
        h_masks = [s.mask for s in enumerate_subgroups(group)]
        for ctx in involution_contexts(group):
            trans = orbit_translate_masks(ctx)
            for kind in CODE_KINDS:
                assert _scan(
                    trans, h_masks, group.order, kind
                ) == scan_subgroup_codes_bruteforce(trans, h_masks, group.order, kind)
            for subset in enumerate_subsets(ctx):
                nbr = build_graph(subset).nbr_masks
                for kind in CODE_KINDS:
                    assert kernels.scan_codes(nbr, kind) == scan_codes_bruteforce(nbr, kind)


def _kernel_verdicts(graph, x_masks):
    group = graph.group
    return kernels.scan_check_routes(
        group.order,
        group.table,
        group.inv,
        graph.context.alpha.perm,
        graph.subset.elements,
        graph.nbr_masks,
        x_masks,
    )


def _table_verdicts(graph, x_masks):
    return [reference_verdict(graph, xm) for xm in x_masks]


def test_scan_check_routes_matches_table_on_catalog_to_order_8():
    calls = masks = 0
    for group in catalog(8):
        x_masks = list(range(1 << group.order))
        for ctx in involution_contexts(group):
            for subset in enumerate_subsets(ctx):
                graph = build_graph(subset)
                assert _kernel_verdicts(graph, x_masks) == _table_verdicts(graph, x_masks), (
                    group.id, ctx.alpha.perm, subset.elements,
                )
                calls += 1
                masks += len(x_masks)
    assert (calls, masks) == (617, 148_808)


# order 64 fills a 64-bit lane, so the all-vertices mask has no spare bit;
# order 63 is the control just below it, and D16 (order 32) is non-abelian
# and fills a 32-bit lane
@pytest.mark.parametrize("spec", ["cyclic:63", "cyclic:64", "dihedral:16"])
def test_scan_check_routes_matches_table_on_random_sets(spec):
    group = build_group(spec)
    n = group.order
    rng = random.Random(spec)
    alphas = [automorphism_from_perm(group, range(n))]
    if group.is_abelian:
        alphas.append(inversion_automorphism(group)[0])
    else:
        alphas += rng.sample(enumerate_involutory_automorphisms(group), 2)
    subgroups = [h.mask for h in enumerate_subgroups(group)]
    verdicts = set()
    for alpha in alphas:
        ctx = alpha_context(group, alpha)
        for _ in range(10):
            subset = subset_from_orbit_mask(ctx, rng.getrandbits(len(ctx.tau_orbits)))
            x_masks = [0, (1 << n) - 1] + subgroups
            x_masks += [rng.getrandbits(n) for _ in range(10)]
            x_masks += [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(10)]
            x_masks += [sum(1 << x for x in rng.sample(range(n), 2)) for _ in range(5)]
            graph = build_graph(subset)
            got = _kernel_verdicts(graph, x_masks)
            assert got == _table_verdicts(graph, x_masks), (alpha.perm, subset.elements)
            verdicts.update(got)
            # neighbor masks unrelated to S make the graph routes disagree
            # with the others, which they can only do from their own table
            noise = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
            noisy = dataclasses.replace(graph, nbr_masks=tuple(noise))
            assert _kernel_verdicts(noisy, x_masks) == _table_verdicts(noisy, x_masks), (
                alpha.perm, subset.elements, noise,
            )
    assert len(verdicts) >= 6  # the X masks pass and fail several checks


# orders 9 and 10 are the largest the mode-agreement suite scans for every
# X, each X in a 16-bit lane with spare bits; every X is compared, on a few
# connection sets
@pytest.mark.parametrize("spec", ["abelian:3,3", "dihedral:5"])
def test_scan_check_routes_matches_table_on_every_x_across_a_byte(spec):
    group = build_group(spec)
    x_masks = list(range(1 << group.order))
    for ctx in involution_contexts(group)[:2]:
        subsets = list(enumerate_subsets(ctx))
        for subset in (subsets[len(subsets) // 2], subsets[-1]):
            graph = build_graph(subset)
            assert _kernel_verdicts(graph, x_masks) == _table_verdicts(graph, x_masks), (
                ctx.alpha.perm, subset.elements,
            )


# elements 7 and 8 in every X, on either side of the lowest byte of its
# lane, and D8 (order 16) filling its 16-bit lane
def test_scan_check_routes_matches_table_with_bits_7_and_8_set():
    group = build_group("dihedral:8")
    n = group.order
    rng = random.Random(16)
    edge = 1 << 7 | 1 << 8
    x_masks = [edge, edge | 0x7F, edge | 0xFE00] + [edge | rng.getrandbits(n) for _ in range(40)]
    for ctx in involution_contexts(group)[:3]:
        subset = subset_from_orbit_mask(ctx, rng.getrandbits(len(ctx.tau_orbits)))
        graph = build_graph(subset)
        assert _kernel_verdicts(graph, x_masks) == _table_verdicts(graph, x_masks), (
            ctx.alpha.perm, subset.elements,
        )
        noise = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
        noisy = dataclasses.replace(graph, nbr_masks=tuple(noise))
        assert _kernel_verdicts(noisy, x_masks) == _table_verdicts(noisy, x_masks), (
            ctx.alpha.perm, subset.elements, noise,
        )


def _all_ones_graph(spec):
    """The graph of the largest connection set under the identity
    automorphism, with every neighbor mask replaced by all ones: the full X
    then counts n in every graph row."""
    group = build_group(spec)
    n = group.order
    ctx = alpha_context(group, automorphism_from_perm(group, range(n)))
    graph = build_graph(subset_from_orbit_mask(ctx, (1 << len(ctx.tau_orbits)) - 1))
    return dataclasses.replace(graph, nbr_masks=((1 << n) - 1,) * n)


# a lane is 16 bits up to order 16, 32 up to order 32 and 64 up to order
# 64: an order on each side of each switch, every lane count reaching n
@pytest.mark.parametrize("spec", ["cyclic:16", "cyclic:17", "dihedral:16", "cyclic:33", "cyclic:64"])
def test_scan_check_routes_matches_table_at_the_lane_edges(spec):
    graph = _all_ones_graph(spec)
    n = graph.group.order
    full = (1 << n) - 1
    rng = random.Random(spec)
    x_masks = [0, full, full ^ 1, full >> 1, 1, 1 << n - 1] + [rng.getrandbits(n) for _ in range(20)]
    assert _kernel_verdicts(graph, x_masks) == _table_verdicts(graph, x_masks)
    assert _kernel_verdicts(graph, [full]) == _table_verdicts(graph, [full])
    assert _kernel_verdicts(graph, []) == []


def test_scan_check_routes_keeps_lanes_apart():
    # at order 64 an X fills its lane and the full X counts 64 in every
    # graph row; a carry or borrow between lanes would make a verdict
    # depend on the X beside it
    graph = _all_ones_graph("cyclic:64")
    full = (1 << 64) - 1
    rng = random.Random(64)
    x_masks = [full, 0, full, 1 << 63, full ^ 1 << 63, 1, full]
    x_masks += [rng.getrandbits(64) for _ in range(10)] + [rng.getrandbits(64) & rng.getrandbits(64) for _ in range(10)]
    batch = _kernel_verdicts(graph, x_masks)
    assert batch == _table_verdicts(graph, x_masks)
    assert _kernel_verdicts(graph, x_masks[::-1]) == batch[::-1]
    assert [_kernel_verdicts(graph, [xm])[0] for xm in x_masks] == batch


def test_scan_check_routes_refuses_orders_above_64():
    group = build_group("cyclic:65")
    with pytest.raises(ThresholdError, match="route kernel limited to order <= 64, got 65"):
        kernels.scan_check_routes(65, group.table, group.inv, range(65), (1, 64), [0] * 65, [1])


@pytest.mark.parametrize("bad", [1 << 6, 1 << 40, -1])
def test_scan_check_routes_rejects_x_outside_the_group(bad):
    graph = build_graph(next(enumerate_subsets(involution_contexts(build_group("cyclic:6"))[0])))
    with pytest.raises(ValueError, match=f"X mask {bad:#x} has an element outside 0..5"):
        _kernel_verdicts(graph, [0, 3, bad, 1 << 7])


def _z4_full_graph():
    """Z4 with inversion, tau-orbits {1} and {3}, and S = {1,3}."""
    group = build_group("cyclic:4")
    ctx = alpha_context(group, inversion_automorphism(group)[0])
    return build_graph(subset_from_orbit_mask(ctx, 0b11))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("s_elems", (-1, 1), "s_elems: element -1 is not an int in 0..3"),
        ("s_elems", (1, 4), "s_elems: element 4 is not an int in 0..3"),
        ("s_elems", (1, 1.0), "s_elems: element 1.0 is not an int in 0..3"),
        ("s_elems", (1, 1, 3), "s_elems repeats an element: \\(1, 1, 3\\)"),
        ("nbr_masks", 3, "nbr_masks holds 3 entries, expected n = 4"),
        ("nbr_masks", 5, "nbr_masks holds 5 entries, expected n = 4"),
        ("nbr_masks", (0b1010, 1 << 4, 0b1010, 0b0101), "neighbor mask 0x10 has an element outside 0..3"),
        ("nbr_masks", (0b1010, -1, 0b1010, 0b0101), "neighbor mask -0x1 has an element outside 0..3"),
        ("table", 3, "table holds 3 entries, expected n = 4"),
        ("inv_perm", 5, "inv_perm holds 5 entries, expected n = 4"),
        ("alpha_perm", 3, "alpha_perm holds 3 entries, expected n = 4"),
    ],
)
def test_scan_check_routes_rejects_malformed_sets_and_tables(monkeypatch, field, value, message):
    # on Z4 with inversion S=(-1, 1) was read as (3, 1), S=(1, 1, 3) gave
    # other verdicts than S=(1, 3), and S=(1, 4) raised a bare IndexError;
    # nothing is packed now, so a lane built would fail the test
    graph = _z4_full_graph()
    group = graph.group
    args = {
        "table": group.table,
        "inv_perm": group.inv,
        "alpha_perm": graph.context.alpha.perm,
        "s_elems": graph.subset.elements,
        "nbr_masks": graph.nbr_masks,
    }
    assert args["s_elems"] == (1, 3)
    if isinstance(value, int):  # a row count: cut or pad the argument
        value = (list(args[field]) * 2)[:value]
    args[field] = value

    def packed(*_):
        raise AssertionError("a lane was packed")

    monkeypatch.setattr(kernels, "array", packed)
    with pytest.raises(ValueError, match=message):
        kernels.scan_check_routes(
            4, args["table"], args["inv_perm"], args["alpha_perm"], args["s_elems"],
            args["nbr_masks"], [0b0001, 0b0101, 0b1111],
        )


def test_verdict_lookup_matches_group_check():
    def verdict_consistent(verdict: int) -> bool:
        """The per-check set comparison the lookup replaced."""
        for route_bits in (
            (kernels.AMO_GRAPH, kernels.AMO_TRANSLATES, kernels.AMO_PRODUCTSET),
            (kernels.DOM_GRAPH, kernels.DOM_TRANSLATES),
            (kernels.IND_GRAPH, kernels.IND_ALGEBRAIC),
            (kernels.PC_GRAPH, kernels.PC_PARTITION, kernels.PC_ALGEBRAIC),
            (kernels.TPC_GRAPH, kernels.TPC_PARTITION, kernels.TPC_ALGEBRAIC),
        ):
            vals = {bool(verdict & b) for b in route_bits}
            if len(vals) != 1:
                return False
        return True

    assert len(CONSISTENT_VERDICTS) == 32
    for verdict in range(1 << 13):
        assert (verdict in CONSISTENT_VERDICTS) == verdict_consistent(verdict), verdict
