"""The witness re-checks build each graph once per (involution, connection
set) and still run every check on every witness, and the suites report
every violation they find, in scan order."""

import dataclasses
from collections import Counter

import pytest

import gencayley.verify as verify
from gencayley import (
    CodeWitness,
    CosetDecomposition,
    GenCayleySubset,
    GroupValidationError,
    catalog,
    census_records,
    decide_subgroup_pc,
    decide_subgroup_tpc,
    enumerate_automorphisms,
    enumerate_subgroups,
    involution_contexts,
    kernels,
    orbit_translate_masks,
    subgroup,
    transport_automorphism,
    transport_conjugate,
)
from gencayley.graphs import CHECKS, ROUTES
from oracles import conjugated_perm


@pytest.mark.parametrize(
    "suite, cases, pc_calls, tpc_calls, builds",
    [
        # builds were 344, 630, 487 and 139 with one build per witness; the
        # oracle suites made 688 and 1260 route calls with two graph-route
        # calls when the decider's S is the oracle's
        ("suite_pc_oracle", 502, 516, 0, 146),
        ("suite_tpc_oracle", 502, 0, 1094, 171),
        ("suite_census_audits", 502, 172, 315, 243),
        ("suite_abelian_criterion", 416, 139, 0, 115),
    ],
)
def test_graph_reuse_keeps_every_check(monkeypatch, suite, cases, pc_calls, tpc_calls, builds):
    # the witness re-checks run the code routes on the subgroup's mask, so
    # they are counted at the route table
    calls = Counter()
    built = set()
    build = verify.build_graph

    def counted_build(subset):
        ctx = subset.context
        built.add((ctx.group.id, ctx.alpha.perm, subset.elements))
        calls["build_graph"] += 1
        return build(subset)

    def counted_route(kind, route):
        def wrapper(graph, xmask):
            calls[kind] += 1
            return route(graph, xmask)

        return wrapper

    monkeypatch.setattr(verify, "build_graph", counted_build)
    for kind in ("perfect", "total"):
        for bit in CHECKS[kind].values():
            monkeypatch.setitem(ROUTES, bit, counted_route(kind, ROUTES[bit]))
    result = getattr(verify, suite)(8)
    assert result.ok and result.cases == cases
    assert calls["perfect"] == pc_calls
    assert calls["total"] == tpc_calls
    # one build per distinct (context, connection set), never one per witness
    assert calls["build_graph"] == len(built) == builds


def test_odd_order_suite_catches_only_subgroup_failures(monkeypatch):
    def broken(group, elements):
        raise TypeError("a bug, not a verdict")

    monkeypatch.setattr(verify, "subgroup", broken)
    with pytest.raises(TypeError, match="a bug"):
        verify.suite_odd_order_in_omega(6)

    def rejected(group, elements):
        raise GroupValidationError("subgroup-closure", (1, 1, 2))

    monkeypatch.setattr(verify, "subgroup", rejected)
    result = verify.suite_odd_order_in_omega(6)
    assert result.violations
    assert all(v.endswith(": loop set not a subgroup") for v in result.violations)


def _overlapping(masks, rep_of):
    return masks + (masks[1],), rep_of  # coset 1 listed twice


def _wrong_size(masks, rep_of):
    # cosets 1 and 2 merged into one block, which rep_of follows
    return (masks[0], masks[1] | masks[2]), tuple(min(r, 1) for r in rep_of)


def _subgroup_not_first(masks, rep_of):
    swap = {0: 1, 1: 0}
    return (masks[1], masks[0]) + masks[2:], tuple(swap.get(r, r) for r in rep_of)


def _wrong_rep(masks, rep_of):
    return masks, (rep_of[0], rep_of[2], rep_of[1]) + rep_of[3:]


def _short_union(masks, rep_of):
    return masks[:-1], rep_of  # the last coset dropped


@pytest.mark.parametrize(
    "tamper", [_overlapping, _wrong_size, _subgroup_not_first, _wrong_rep, _short_union]
)
def test_coset_partitions_report_each_broken_decomposition(monkeypatch, tamper):
    # one decomposition is broken in one way: Z6 by {0, 3} on the right,
    # whose cosets {0,3}, {1,4}, {2,5} have rep_of (0, 1, 2, 0, 1, 2)
    real = verify.cosets

    def fake(sub, side):
        dec = real(sub, side)
        if sub.parent.id == "Z6" and sub.elements == (0, 3) and side == "right":
            return CosetDecomposition(*tamper(dec.masks, dec.rep_of))
        return dec

    clean = verify.suite_coset_partitions(6)
    monkeypatch.setattr(verify, "cosets", fake)
    result = verify.suite_coset_partitions(6)
    assert clean.ok
    assert result.cases == clean.cases
    assert result.violations == ["group=Z6 H={0,3} side=right: bad partition"]


def test_graph_laws_report_a_dropped_neighbor(monkeypatch):
    # one graph of D4 loses the lowest neighbor of vertex 0, so it is no
    # longer |S|-regular; the line names its group, involution and S
    real = verify.build_graph
    tampered = []

    def dropped(subset):
        graph = real(subset)
        if not tampered and subset.context.group.id == "D4" and subset.size == 2:
            tampered.append(subset)
            masks = list(graph.nbr_masks)
            masks[0] &= masks[0] - 1
            graph = dataclasses.replace(graph, nbr_masks=tuple(masks))
        return graph

    clean = verify.suite_graph_laws(8)
    monkeypatch.setattr(verify, "build_graph", dropped)
    result = verify.suite_graph_laws(8)
    (subset,) = tampered
    group = subset.context.group
    ai = involution_contexts(group).index(subset.context)
    S = ",".join(map(str, subset.elements))
    assert clean.ok
    assert result.cases == clean.cases
    assert result.violations == [f"group=D4 alpha={ai} S={{{S}}}: graph law broken"]


def test_graph_laws_catch_a_wrong_bit_table(monkeypatch):
    # graphs read each product's bit from the group's bit rows; with every
    # row of Z4 read as the identity's, vertex g is joined to S itself, so
    # 0, outside S, has neighbors that do not have it: every nonempty S fails
    z4 = next(g for g in catalog(8) if g.id == "Z4")
    clean = verify.suite_graph_laws(8)
    monkeypatch.setitem(z4.__dict__, "bit_rows", (z4.bit_rows[0],) * 4)
    result = verify.suite_graph_laws(8)
    contexts = involution_contexts(z4)
    nonempty = sum(1 << len(ctx.tau_orbits) for ctx in contexts) - len(contexts)
    assert clean.ok
    assert result.cases == clean.cases
    assert nonempty and len(result.violations) == nonempty
    assert all(v.startswith("group=Z4 ") and v.endswith(": graph law broken") for v in result.violations)


def test_mode_agreement_reports_tampered_verdicts_in_scan_order(monkeypatch):
    clean = verify.suite_mode_agreement(7)
    real = kernels.scan_check_routes
    stride = verify.REFERENCE_STRIDE
    dom = kernels.DOM_GRAPH | kernels.DOM_TRANSLATES
    tampered = {}

    def fake(n, table, inv, alpha_perm, s_elems, nbr_masks, xms):
        verdicts = real(n, table, inv, alpha_perm, s_elems, nbr_masks, xms)
        if len(xms) > stride + 3 and not tampered:
            verdicts[stride + 3] ^= kernels.AMO_GRAPH  # inconsistent: reported
            verdicts[0] ^= dom  # consistent but wrong, recomputed: reported
            verdicts[stride] ^= dom  # the same at the next recomputed position
            verdicts[stride - 1] ^= dom  # consistent but wrong, never recomputed
            tampered.update(n=n, alpha=alpha_perm, S=s_elems, xms=xms, verdicts=verdicts)
        return verdicts

    monkeypatch.setattr(kernels, "scan_check_routes", fake)
    result = verify.suite_mode_agreement(7)
    group = next(g for g in catalog(7) if g.order == tampered["n"])
    ai = [c.alpha.perm for c in involution_contexts(group)].index(tampered["alpha"])
    xms, verdicts = tampered["xms"], tampered["verdicts"]

    def braces(items):
        return "{" + ",".join(str(x) for x in items) + "}"

    head = f"group={group.id} alpha={ai} S={braces(tampered['S'])}"
    assert clean.ok
    assert result.cases == clean.cases
    assert result.violations == [
        f"{head} X={braces(x for x in range(group.order) if xms[j] >> x & 1)}:"
        f" verdict {verdicts[j]:013b}"
        for j in (0, stride, stride + 3)
    ]


def test_code_oracle_reports_every_disagreement(monkeypatch):
    # on Z4 with inversion (orbits {1} and {3}) the perfect codes are
    # H={0,2} with S={1} and H=G with S={}; each tamper breaks one of them
    z4 = next(g for g in catalog(4) if g.id == "Z4")
    ctx = involution_contexts(z4)[0]
    real_decide, real_scan = verify.decide_subgroup_pc, kernels.scan_subgroup_codes

    def decide(sub, c):
        if c is ctx and sub.elements == (0,):  # a code the oracle does not find
            return CodeWitness(GenCayleySubset((1,), ctx, mask=0b10), None, True)
        if c is ctx and sub.elements == (0, 2):  # a witness that is no code
            return CodeWitness(GenCayleySubset((1, 3), ctx, mask=0b1010), None, True)
        return real_decide(sub, c)

    def scan(lanes, kind, h_masks):
        found = real_scan(lanes, kind, h_masks)
        if lanes.n == 4 and lanes.num_orbits == 2:
            found[-1] = 0b01  # S={1} for H=G: X=G is not independent
        return found

    monkeypatch.setattr(verify, "decide_subgroup_pc", decide)
    monkeypatch.setattr(kernels, "scan_subgroup_codes", scan)
    # an alpha(H) that is the whole group meets every nonempty witness
    # elsewhere alpha(H) stays H, which alpha preserves on every perfect code
    whole = subgroup(z4, range(4))
    monkeypatch.setattr(
        verify, "image_subgroup", lambda alpha, sub: whole if sub.parent is z4 else sub
    )
    result = verify.suite_pc_oracle(4)
    assert result.cases == 20
    assert result.violations == [
        "group=Z4 alpha=0 H={0}: decide=True oracle=False",
        "group=Z4 alpha=0 H={0,2}: decider witness S={1,3} fails",
        "group=Z4 alpha=0 H={0,2}: oracle witness breaks the invariance audit",
        "group=Z4 alpha=0 H={0,1,2,3}: oracle witness S={1} fails",
    ]


def test_tpc_oracle_reports_every_disagreement(monkeypatch):
    # D3 with its first involution (orbits {3} and {4,5}): the total
    # perfect codes are H={0,3}, {0,4}, {0,5} with S={3,4,5} and H=G with
    # S={3}. The suite compares the two witnesses by mask; a decider S
    # that differs is re-checked on its own graph
    d3 = next(g for g in catalog(6) if g.id == "D3")
    ctx = involution_contexts(d3)[0]
    assert ctx.tau_orbits == ((3,), (4, 5))
    pair = GenCayleySubset((4, 5), ctx, mask=0b110000)  # orbit mask 0b10, no code here
    real_decide, real_scan = verify.decide_subgroup_tpc, kernels.scan_subgroup_codes

    def decide(sub, c):
        if c is ctx and sub.elements == (0, 3):  # differs from the oracle's and fails
            return CodeWitness(pair, None, True)
        if c is ctx and sub.elements == (0, 4):  # equal to the oracle's, both fail
            return CodeWitness(GenCayleySubset((4, 5), ctx, mask=0b110000), None, True)
        return real_decide(sub, c)

    def scan(lanes, kind, h_masks):
        found = real_scan(lanes, kind, h_masks)
        if lanes == ctx.orbit_lanes:
            found[2] = 0b10  # H={0,4}
            found[-1] = 0b10  # H=G: a wrong oracle mask, while the decider's S={3} holds
        return found

    clean = verify.suite_tpc_oracle(6)
    monkeypatch.setattr(verify, "decide_subgroup_tpc", decide)
    monkeypatch.setattr(kernels, "scan_subgroup_codes", scan)
    result = verify.suite_tpc_oracle(6)
    assert clean.ok
    assert result.cases == clean.cases
    assert result.violations == [
        "group=D3 alpha=0 H={0,3}: decider witness S={4,5} fails",
        "group=D3 alpha=0 H={0,4}: decider witness S={4,5} fails",
        "group=D3 alpha=0 H={0,4}: oracle witness S={4,5} fails",
        "group=D3 alpha=0 H={0,1,2,3,4,5}: oracle witness S={4,5} fails",
    ]


def test_oracle_suites_build_each_contexts_lanes_once(monkeypatch):
    # the lanes are a cached property of the context: the pc suite builds
    # them once per involution, and the tpc suite reads the same ones
    contexts = [ctx for group in catalog(8) for ctx in involution_contexts(group)]
    for ctx in contexts:
        ctx.__dict__.pop("orbit_lanes", None)
    built = []
    real = kernels.orbit_lanes

    def counted(trans, n):
        built.append(n)
        return real(trans, n)

    monkeypatch.setattr(kernels, "orbit_lanes", counted)
    assert verify.suite_pc_oracle(8).ok
    assert len(built) == len(contexts) == 48
    del built[:]
    assert verify.suite_tpc_oracle(8).ok
    assert built == []


def test_context_lanes_are_the_lanes_of_its_translates():
    contexts = 0
    for group in catalog(8):
        for ctx in involution_contexts(group):
            fresh = kernels.orbit_lanes(orbit_translate_masks(ctx), group.order)
            assert ctx.orbit_lanes == fresh, (group.id, ctx.alpha.perm)
            assert ctx.orbit_lanes is ctx.orbit_lanes
            contexts += 1
    assert contexts == 48


def test_census_audits_report_every_problem(monkeypatch):
    # Z2xZ2 with the swap 1 <-> 2 (tau swaps 1 and 2, the loop set is {0,3});
    # S={1,2} is a valid connection set but a code of none of the subgroups
    v4 = next(g for g in catalog(4) if g.id == "Z2xZ2")
    ctx = involution_contexts(v4)[1]
    assert ctx.alpha.perm == (0, 2, 1, 3)
    census = census_records(4)
    real = {r.subgroup: r for r in census if r.group_id == v4.id and r.alpha_index == 1}
    crafted = {(0, 1): (1, 2), (0, 3): (1, 2)}  # H -> the S claimed for it
    tampered = [
        # claims a code the deciders refute
        dataclasses.replace(real[(0,)], is_pc=True, pc_witness=(1, 2)),
        dataclasses.replace(real[(0, 1)], is_pc=True, pc_witness=(1, 2)),
        dataclasses.replace(
            real[(0, 3)], is_pc=True, pc_witness=(1, 2), is_tpc=True, tpc_witness=(1, 2)
        ),
        # H=G is a perfect code with S={}, not with the recorded S
        dataclasses.replace(real[(0, 1, 2, 3)], pc_witness=(1, 2)),
    ]
    # the whole census, these four records replaced in place
    swap = {id(real[t.subgroup]): t for t in tampered}
    records = [swap.get(id(r), r) for r in census]

    def deciding(real_decide):
        def decide(sub, c):
            if c is ctx and sub.elements in crafted:
                elements = crafted[sub.elements]
                mask = sum(1 << s for s in elements)
                return CodeWitness(GenCayleySubset(elements, ctx, mask=mask), None, True)
            return real_decide(sub, c)

        return decide

    monkeypatch.setattr(verify, "census_records", lambda max_order: records)
    for name in ("decide_subgroup_pc", "decide_subgroup_tpc"):
        monkeypatch.setattr(verify, name, deciding(getattr(verify, name)))
    result = verify.suite_census_audits(4)
    assert result.cases == 20
    assert result.violations == [
        "group=Z2xZ2 alpha=1 H={0}: census booleans do not re-validate",
        "group=Z2xZ2 alpha=1 H={0,1}: witness fails re-validation",
        "group=Z2xZ2 alpha=1 H={0,1}: perfect-code hit without alpha(H)=H",
        "group=Z2xZ2 alpha=1 H={0,1}: witness meets alpha(H)",
        "group=Z2xZ2 alpha=1 H={0,1}: witness not a right transversal",
        "group=Z2xZ2 alpha=1 H={0,1}: witness not a left transversal",
        "group=Z2xZ2 alpha=1 H={0,3}: witness fails re-validation",
        "group=Z2xZ2 alpha=1 H={0,3}: witness not a right transversal",
        "group=Z2xZ2 alpha=1 H={0,3}: witness not a left transversal",
        "group=Z2xZ2 alpha=1 H={0,3}: alpha(s)*s inside H for s=1",
        "group=Z2xZ2 alpha=1 H={0,3}: tau(s) shares the coset of s=1",
        "group=Z2xZ2 alpha=1 H={0,3}: alpha(s)*s inside H for s=2",
        "group=Z2xZ2 alpha=1 H={0,3}: tau(s) shares the coset of s=2",
        "group=Z2xZ2 alpha=1 H={0,3}: total witness fails re-validation",
        "group=Z2xZ2 alpha=1 H={0,3}: inverse total witness not a left transversal",
        "group=Z2xZ2 alpha=1 H={0,1,2,3}: census witness differs from decider",
    ]


def _dropped_last(records):
    return records[:-1]


def _swapped(records):
    # the census ends with Z4's H={0}, H={0,2} and H=G
    records[-3], records[-2] = records[-2], records[-3]
    return records


def _extra(records):
    return records + records[-1:]


@pytest.mark.parametrize(
    "edit, expected",
    [
        (_dropped_last, ["group=Z4 alpha=0 H={0,1,2,3}: no census record"]),
        (
            _swapped,
            [
                "group=Z4 alpha=0 H={0}: census record out of order: group=Z4 alpha=0 H={0,2}",
                "group=Z4 alpha=0 H={0,2}: census record out of order: group=Z4 alpha=0 H={0}",
            ],
        ),
        (_extra, ["group=Z4 alpha=0 H={0,1,2,3}: census record past the scan"]),
    ],
    ids=["dropped", "swapped", "extra"],
)
def test_census_audits_walk_the_scan(monkeypatch, edit, expected):
    # one record per scanned pair, in scan order: 20 pairs up to order 4
    census = census_records(4)
    assert verify.suite_census_audits(4).violations == []
    monkeypatch.setattr(verify, "census_records", lambda max_order: edit(list(census)))
    result = verify.suite_census_audits(4)
    assert result.cases == 20
    assert result.violations == expected


def test_conjugating_a_transport_is_an_automorphism_transport():
    # why suite_transports has no combined form: if beta.alpha.beta^-1 fixes
    # g, then beta' = (x -> g^-1 beta(x) g) is in Aut(G) and conjugates alpha
    # to the same involution, so (g^-1 beta(H) g, g^-1 beta(S) g) is the
    # automorphism transport by beta'; beta = id is plain conjugation, see
    # test_conjugation_is_the_inner_automorphism_transport
    triples = 0
    for group in catalog(12):
        autos = enumerate_automorphisms(group)
        perms = {beta.perm for beta in autos}
        t, inv = group.table, group.inv
        for ctx in involution_contexts(group):
            for beta in autos:
                conj = conjugated_perm(beta.perm, ctx.alpha.perm)
                for g in range(group.order):
                    if conj[g] != g:
                        continue
                    triples += 1
                    perm = tuple(t[t[inv[g]][beta.perm[x]]][g] for x in range(group.order))
                    assert perm in perms
                    assert conjugated_perm(perm, ctx.alpha.perm) == conj
    assert triples == 17232


def test_conjugation_is_the_inner_automorphism_transport():
    # why suite_transports has no conjugation loop: for g fixed by alpha,
    # conjugating a code pair by g is transporting it by i_g(x) = g^-1 x g,
    # which is in Aut(G) and leaves alpha as it is
    cases = identities = 0
    for group in catalog(12):
        by_perm = {beta.perm: beta for beta in enumerate_automorphisms(group)}
        subs = enumerate_subgroups(group)
        for ctx in involution_contexts(group):
            for sub in subs:
                for kind, decide in (("perfect", decide_subgroup_pc), ("total", decide_subgroup_tpc)):
                    witness = decide(sub, ctx)
                    if not witness.success:
                        continue
                    for g in ctx.fix:
                        cases += 1
                        inner = by_perm[tuple(group.conjugate(x, g) for x in range(group.order))]
                        identities += inner.perm == tuple(range(group.order))
                        conj_sub, conj_set = transport_conjugate(sub, witness.subset, g, kind)
                        new_sub, new_set, new_ctx = transport_automorphism(
                            sub, witness.subset, inner, kind
                        )
                        assert new_sub is conj_sub
                        assert new_set.elements == conj_set.elements
                        assert new_ctx.alpha.perm == ctx.alpha.perm
    assert (cases, identities) == (2640, 2305)
