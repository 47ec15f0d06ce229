import dataclasses
import random
import re

import pytest

import gencayley.codes as codes_module
from gencayley import (
    GenCayleyError,
    SubsetInvalidError,
    ThresholdError,
    alpha_context,
    build_graph,
    build_group,
    catalog,
    cosets,
    enumerate_involutory_automorphisms,
    enumerate_subsets,
    export_dot,
    group_from_table,
    inversion_automorphism,
    involution_contexts,
    is_perfect_code,
    is_total_perfect_code,
    subgroup,
    subset_from_orbit_mask,
    subset_violation,
    validate_subset,
)

from gencayley._bits import elems
from gencayley.graphs import CHECKS, ROUTES, evaluate

from oracles import (
    amo_productset_by_loop,
    amo_translates_by_repeat_scan,
    cayley_edges,
    connection_sets_by_filter,
    gc_edges_by_rule,
    ind_algebraic_by_loop,
    route_verdicts_by_sets,
)


def edges(graph):
    return {frozenset(e) for e in graph.edges()}


def test_validate_subset_examples(z6_ctx, v4_swap_ctx):
    assert validate_subset(z6_ctx, [1, 5]).elements == (1, 5)
    with pytest.raises(SubsetInvalidError) as err:
        validate_subset(z6_ctx, [2])
    assert err.value.reason == "omega-intersection" and err.value.witness == 2
    with pytest.raises(SubsetInvalidError) as err:
        validate_subset(v4_swap_ctx, [2])  # one generator alone is not tau-closed
    assert err.value.reason == "tau-closure"
    assert validate_subset(z6_ctx, []).elements == ()


def sorted_order_violation(ctx, elements):
    """The validity rules read off the definition, checked in ascending
    element order: the first out-of-range element, else the first loop-set
    element, else the first element whose tau-partner is missing."""
    elems = sorted(set(elements))
    n = ctx.group.order
    for reason, bad in (
        ("out-of-range", lambda s: not 0 <= s < n),
        ("omega-intersection", lambda s: s in ctx.omega),
        ("tau-closure", lambda s: ctx.tau_perm[s] not in elems),
    ):
        for s in elems:
            if bad(s):
                return (reason, s)
    return None


@pytest.mark.parametrize("spec", ["cyclic:6", "V4", "dihedral:4"])
def test_validators_name_the_smallest_offender(spec):
    # validate_subset, subset_violation and the witness certificate share one
    # validator; unsorted, repeated and several out-of-range elements included
    group = build_group(spec)
    rng = random.Random(spec)
    for ctx in involution_contexts(group):
        dec = cosets(subgroup(group, [0]), "right")
        for _ in range(300):
            elements = [rng.randrange(-3, group.order + 3) for _ in range(rng.randrange(6))]
            expected = sorted_order_violation(ctx, elements)
            assert subset_violation(ctx, elements) == expected
            for validate in (
                validate_subset,
                lambda c, xs: codes_module._certify_transversal(c, xs, dec, False),
            ):
                try:
                    validate(ctx, elements)
                except SubsetInvalidError as err:
                    assert (err.reason, err.witness) == expected
                except GenCayleyError:  # a valid set that is no transversal
                    assert expected is None
                else:
                    assert expected is None


def test_enumerate_subsets_counts(z6_ctx, v4_swap_ctx):
    subsets = [s.elements for s in enumerate_subsets(z6_ctx)]
    assert len(subsets) == 8 and 1 << len(z6_ctx.tau_orbits) == 8
    assert [s.elements for s in enumerate_subsets(v4_swap_ctx)] == [(), (1, 2)]


@pytest.mark.parametrize("spec", ["cyclic:4", "cyclic:6", "V4", "cyclic:8", "dihedral:3"])
def test_enumerate_subsets_matches_filter_oracle(spec):
    group = build_group(spec)
    for ctx in involution_contexts(group):
        listed = {s.elements for s in enumerate_subsets(ctx)}
        assert listed == connection_sets_by_filter(ctx)


@pytest.mark.parametrize("mask", [-1, 1 << 10, 0b1000001, 0b1000, 1.0, 2.5])
def test_orbit_masks_out_of_range_are_refused(z6_ctx, mask):
    # three orbits, so the masks are 0..7: -1 read as all of them, 1 << 10
    # as none and 0b1000001 as {1} before the range check
    assert z6_ctx.tau_orbits == ((1,), (3,), (5,))
    with pytest.raises(ValueError, match=re.escape(f"orbit mask {mask!r} is not an int in 0..7")):
        subset_from_orbit_mask(z6_ctx, mask)


def test_enumerate_subsets_threshold():
    # under the identity map every element of Z2^5 but e is its own
    # tau-orbit: 31 orbits, over the bound of 20
    group = build_group("abelian:2,2,2,2,2")
    identity = enumerate_involutory_automorphisms(group, include_identity=True)[0]
    ctx = alpha_context(group, identity)
    assert len(ctx.tau_orbits) == 31
    with pytest.raises(ThresholdError, match="31 tau-orbits exceeds the enumeration bound 20"):
        next(enumerate_subsets(ctx))


def test_matching_graph(z6_ctx):
    graph = build_graph(validate_subset(z6_ctx, [1]))
    assert edges(graph) == {frozenset(e) for e in [(0, 1), (2, 5), (3, 4)]}
    assert graph.degree == 1


def test_complete_bipartite(z6_ctx):
    graph = build_graph(validate_subset(z6_ctx, [1, 3, 5]))
    want = {frozenset((a, b)) for a in (0, 2, 4) for b in (1, 3, 5)}
    assert edges(graph) == want


def test_v4_four_cycle(v4_swap_ctx):
    graph = build_graph(validate_subset(v4_swap_ctx, [1, 2]))
    assert edges(graph) == {
        frozenset((0, 1)),
        frozenset((0, 2)),
        frozenset((3, 1)),
        frozenset((3, 2)),
    }


@pytest.mark.parametrize("spec", ["cyclic:6", "cyclic:8", "dihedral:4", "V4", "abelian:2,4"])
def test_graphs_match_edge_rule_oracle(spec):
    group = build_group(spec)
    for ctx in involution_contexts(group):
        for subset in enumerate_subsets(ctx):
            graph = build_graph(subset)
            assert edges(graph) == gc_edges_by_rule(group, ctx.alpha.perm, subset.elements)


def test_graph_masks_and_adjacency_follow_the_definition():
    # vertex g is joined to alpha(g) * s for every s in S; edges() lists
    # each edge once, from its lower end, in ascending order
    for group in catalog(8):
        for ctx in involution_contexts(group):
            for subset in enumerate_subsets(ctx):
                graph = build_graph(subset)
                adjacency = [elems(m) for m in graph.nbr_masks]
                expected_edges = []
                for g in range(group.order):
                    nbrs = {group.table[ctx.alpha.perm[g]][s] for s in subset.elements}
                    assert graph.nbr_masks[g] == sum(1 << h for h in nbrs)
                    assert adjacency[g] == tuple(sorted(nbrs))
                    expected_edges += [(g, h) for h in sorted(nbrs) if g < h]
                assert graph.edges() == expected_edges


def test_replaced_masks_derive_their_own_adjacency(z6_ctx):
    # edges() reads the masks of its own graph, whatever built them
    graph = build_graph(validate_subset(z6_ctx, [1, 5]))
    other = dataclasses.replace(graph, nbr_masks=(0b110, 0, 0, 0, 0, 1))
    assert [elems(m) for m in other.nbr_masks] == [(1, 2), (), (), (), (), (0,)]
    assert other.edges() == [(0, 1), (0, 2)]
    assert [elems(m) for m in graph.nbr_masks] == [(1, 5), (0, 4), (3, 5), (2, 4), (1, 3), (0, 2)]
    assert graph.edges() == [(0, 1), (0, 5), (1, 4), (2, 3), (2, 5), (3, 4)]


def test_identity_alpha_gives_cayley_graph():
    group = build_group("dihedral:4")
    identity = enumerate_involutory_automorphisms(group, include_identity=True)[0]
    ctx = alpha_context(group, identity)
    for subset in enumerate_subsets(ctx):
        graph = build_graph(subset)
        assert edges(graph) == cayley_edges(group, subset.elements)


def _holds(check, graph, X):
    """The verdict of ``check`` on X, which every mode must give alike."""
    verdicts = {evaluate(check, graph, X, mode) for mode in CHECKS[check]}
    assert len(verdicts) == 1, (check, X)
    return verdicts.pop()


def test_check_at_most_one(z6_ctx):
    g1 = build_graph(validate_subset(z6_ctx, [1]))
    assert _holds("at-most-one", g1, [0, 2, 4])
    assert _holds("at-most-one", g1, [])
    # with S={1,5} no vertex has two neighbors inside {0,1}: the two
    # candidate common neighbors fail the edge rule, so the answer is True
    # (frozen from the neighbor-count scan, which all routes must match)
    g15 = build_graph(validate_subset(z6_ctx, [1, 5]))
    assert _holds("at-most-one", g15, [0, 1])
    assert not _holds("at-most-one", g15, [0, 2, 4])  # vertex 1 sees 0 and 2


def test_check_dominates(z6_ctx):
    g1 = build_graph(validate_subset(z6_ctx, [1]))
    assert _holds("dominates", g1, [0, 2, 4])
    assert _holds("dominates", g1, range(6))
    assert not _holds("dominates", g1, [0])  # vertex 3 has no neighbor in {0}


def test_check_independent(z6_ctx):
    g1 = build_graph(validate_subset(z6_ctx, [1]))
    assert _holds("independent", g1, [0, 2, 4])
    assert _holds("independent", g1, [3])
    assert not _holds("independent", g1, [0, 1])


@pytest.mark.parametrize(
    "check, modes",
    [
        ("at-most-one", "('graph', 'cosets', 'product-set')"),
        ("dominates", "('graph', 'translates')"),
        ("independent", "('graph', 'algebraic')"),
        ("perfect", "('graph', 'partition', 'algebraic')"),
        ("total", "('graph', 'partition', 'algebraic')"),
    ],
)
def test_unknown_mode_names_the_modes_of_its_check(z6_ctx, check, modes):
    graph = build_graph(validate_subset(z6_ctx, [1]))
    public = {
        "perfect": is_perfect_code,
        "total": is_total_perfect_code,
    }
    for mode in ("sets", ["graph"]):
        message = re.escape(f"mode must be one of {modes}, got {mode!r}")
        with pytest.raises(ValueError, match=message):
            evaluate(check, graph, [0, 3], mode)
        if check in public:
            with pytest.raises(ValueError, match=message):
                public[check](graph, [0, 3], mode)
    # the graph route is every check's default
    assert evaluate(check, graph, [0, 3]) == ROUTES[CHECKS[check]["graph"]](graph, 0b1001)


@pytest.mark.parametrize("check", ["bogus", None, ["perfect"], "", "Perfect", 7])
def test_unknown_check_names_the_five_checks(z6_ctx, check):
    # a name CHECKS does not hold was once a KeyError, and an unhashable
    # one a TypeError
    graph = build_graph(validate_subset(z6_ctx, [1]))
    message = re.escape(
        "check must be one of ('at-most-one', 'dominates', 'independent', 'perfect', 'total'),"
        f" got {check!r}"
    )
    for mode in ("graph", "sets", ["graph"]):
        with pytest.raises(ValueError, match=message):
            evaluate(check, graph, [0, 3], mode)


def _three_pass_perfect(graph, xmask):
    # independent, dominating and at most one neighbor in X, by the graph routes
    return all(
        ROUTES[CHECKS[check]["graph"]](graph, xmask)
        for check in ("independent", "dominates", "at-most-one")
    )


@pytest.mark.parametrize(
    "check, mode, reference, holds",
    [
        ("perfect", "graph", _three_pass_perfect, 1835),
        ("at-most-one", "cosets", amo_translates_by_repeat_scan, 43714),
        ("at-most-one", "product-set", amo_productset_by_loop, 43714),
        ("independent", "algebraic", ind_algebraic_by_loop, 30946),
    ],
    ids=["perfect-graph", "at-most-one-cosets", "at-most-one-product-set", "independent-algebraic"],
)
def test_rewritten_route_is_its_reference_loop(check, mode, reference, holds):
    # the one-pass perfect-code graph route against the three graph routes
    # it joins, the counting translate route and the two routes on the
    # shared left-product loop against their earlier loops, for every X of
    # every connection set to order 8
    route = ROUTES[CHECKS[check][mode]]
    cases = count = 0
    for group in catalog(8):
        for ctx in involution_contexts(group):
            for subset in enumerate_subsets(ctx):
                graph = build_graph(subset)
                for xm in range(1 << group.order):
                    got = route(graph, xm)
                    assert got == reference(graph, xm), (
                        group.id, ctx.alpha.perm, subset.elements, xm,
                    )
                    cases += 1
                    count += got
    assert (cases, count) == (148808, holds)


def test_export_dot(v4_swap_ctx):
    graph = build_graph(validate_subset(v4_swap_ctx, [1, 2]))
    dot = export_dot(graph)
    assert dot.startswith("graph gencayley {")
    assert '0 [label="(0,0)"];' in dot
    assert "  0 -- 1;" in dot
    assert dot.count("--") == 4


def test_export_dot_escapes_names():
    # a quote or a backslash in an element name must not end the DOT string
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    names = ["e", 'a"b', "c\\d"]
    z3 = group_from_table({"name": "Z3", "order": 3, "table": table, "names": names})
    alpha, _ = inversion_automorphism(z3)
    # inversion puts every element of Z3 in the loop set, so S is empty
    dot = export_dot(build_graph(validate_subset(alpha_context(z3, alpha), [])))
    assert '  1 [label="a\\"b"];' in dot
    assert '  2 [label="c\\\\d"];' in dot


def test_routes_match_set_reference_on_catalog_to_order_6():
    # every X over every connection set; the noisy copy has neighbor masks
    # unrelated to S, so a route that reads another route's data disagrees
    rng = random.Random(6)
    seen = set()
    cases = 0
    for group in catalog(6):
        n = group.order
        for ctx in involution_contexts(group):
            for subset in enumerate_subsets(ctx):
                graph = build_graph(subset)
                noise = tuple(rng.getrandbits(n) for _ in range(n))
                for g in (graph, dataclasses.replace(graph, nbr_masks=noise)):
                    nbhd = [[w for w in range(n) if m >> w & 1] for m in g.nbr_masks]
                    for xm in range(1 << n):
                        X = [x for x in range(n) if xm >> x & 1]
                        expect = route_verdicts_by_sets(
                            group, ctx.alpha.perm, subset.elements, nbhd, X
                        )
                        got = {bit: route(g, xm) for bit, route in ROUTES.items()}
                        assert got == expect, (
                            group.id, ctx.alpha.perm, subset.elements, g.nbr_masks, X,
                        )
                        seen.update(expect.items())
                        cases += 1
    assert cases == 4496
    assert len(seen) == 2 * len(ROUTES)  # every route both holds and fails
