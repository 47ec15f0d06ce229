"""The witness re-checks build each graph once per (involution, connection
set) and still run every check on every witness, and the suites report
every violation they find, in scan order."""

import dataclasses
import types
from collections import Counter

import pytest

import gencayley.automorphisms as automorphisms
import gencayley.verify as verify
from gencayley import (
    Automorphism,
    CodeWitness,
    CosetDecomposition,
    GenCayleyError,
    GenCayleySubset,
    GroupValidationError,
    SubgroupHandle,
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
    validate_subset,
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


# ---------------------------------------------------------------------------
# the violation lines of the structural, abelian, product and claim suites:
# each test breaks the component a suite checks, in one place, and reads
# the one line that names it


# a loop of order 5 in which every element is its own inverse: identity and
# inverses hold, but (1*1)*2 = 2 while 1*(1*2) = 1*3 = 4
NONASSOCIATIVE_LOOP = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)
LOOP_CHANGES = {"table": NONASSOCIATIVE_LOOP, "inv": (0, 1, 2, 3, 4)}
# Z4 with its identity row's entries 1 and 2 swapped
Z4_BAD_IDENTITY = ((0, 2, 1, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))


@pytest.mark.parametrize(
    "group_id, changes, blind, expected",
    [
        ("Z5", LOOP_CHANGES, False, "associativity at (1, 1, 2)"),
        ("Z5", LOOP_CHANGES, True, "associativity at (1, 1, 2) (triple scan)"),
        ("Z4", {"table": Z4_BAD_IDENTITY}, True, "identity"),
        ("Z4", {"inv": (0, 1, 2, 3)}, True, "inverse"),
    ],
    ids=["checker", "triple-scan", "identity", "inverse"],
)
def test_group_axioms_report_a_broken_table(monkeypatch, group_id, changes, blind, expected):
    # one catalog group gets a broken table or inverse map; with the axiom
    # checker blinded, the suite's own identity, inverse and triple scans
    # must still name it
    group = next(g for g in catalog(8) if g.id == group_id)
    clean = verify.suite_group_axioms(8)
    for name, value in changes.items():
        monkeypatch.setattr(group, name, value)
    if blind:
        monkeypatch.setattr(verify, "first_axiom_violation", lambda table: None)
    result = verify.suite_group_axioms(8)
    assert clean.ok
    assert result.cases == clean.cases
    assert result.violations == [f"group={group_id}: {expected}"]


def test_subgroup_oracle_reports_a_lost_subgroup(monkeypatch):
    # the enumeration loses Z6's last subgroup, Z6 itself
    real = verify.enumerate_subgroups

    def losing(group):
        subs = real(group)
        return subs[:-1] if group.id == "Z6" else subs

    clean = verify.suite_subgroup_oracle()
    monkeypatch.setattr(verify, "enumerate_subgroups", losing)
    result = verify.suite_subgroup_oracle()
    assert clean.ok
    assert result.cases == clean.cases
    assert result.violations == ["group=Z6: enumeration 3 != oracle 4"]


@pytest.mark.parametrize(
    "group_id, elements, claimed, expected",
    [
        # S3 is not abelian, so only containment can fail there
        ("S3", (0, 1), (0,), "group=S3 H={0,1}: H not inside its normalizer"),
        ("Z6", (0, 3), (0, 3), "group=Z6 H={0,3}: abelian normalizer proper"),
    ],
)
def test_coset_partitions_check_each_normalizer(monkeypatch, group_id, elements, claimed, expected):
    # one subgroup's normalizer is replaced by a smaller subgroup
    real = verify.normalizer

    def fake(sub):
        if sub.parent.id == group_id and sub.elements == elements:
            return subgroup(sub.parent, claimed)
        return real(sub)

    clean = verify.suite_coset_partitions(6)
    monkeypatch.setattr(verify, "normalizer", fake)
    result = verify.suite_coset_partitions(6)
    assert clean.ok
    assert result.cases == clean.cases
    assert result.violations == [expected]


@pytest.mark.parametrize(
    "component, group_id, tamper, expected",
    [
        # Aut(Z5) lists inversion, its one involution, last
        (
            "enumerate_automorphisms",
            "Z5",
            lambda autos, group: autos[:-1],
            "involution list 1 != filtered Aut(G) 0 or differs in order",
        ),
        (
            "involutions_by_bijections",
            "Z5",
            lambda perms, group: [],
            "involution list 1 != bijection oracle 0",
        ),
        (
            "inversion_automorphism",
            "Z5",
            lambda found, group: (None, "equals-identity"),
            "inversion availability wrong",
        ),
        (
            "inversion_automorphism",
            "Z5",
            lambda found, group: (Automorphism(tuple(range(group.order)), group), None),
            "inversion missing from enumeration",
        ),
        (
            "inversion_automorphism",
            "S3",
            lambda found, group: (None, "equals-identity"),
            "inversion reason 'equals-identity'",
        ),
    ],
    ids=["filtered-aut", "bijections", "inversion-absent", "inversion-unlisted", "nonabelian"],
)
def test_alpha_invariants_report_a_wrong_involution_list(
    monkeypatch, component, group_id, tamper, expected
):
    real = getattr(verify, component)

    def fake(group):
        found = real(group)
        return tamper(found, group) if group.id == group_id else found

    clean = verify.suite_alpha_invariants(6)
    monkeypatch.setattr(verify, component, fake)
    result = verify.suite_alpha_invariants(6)
    assert clean.ok
    assert result.cases == clean.cases
    assert result.violations == [f"group={group_id}: {expected}"]


@pytest.mark.parametrize(
    "group_id, changes",
    [
        # Z4 under inversion: omega {0,2}, big omega {1,3}, mho empty
        ("Z4", {"omega_mask": 0b100, "mho_mask": 0b1}),
        # D3's first involution: omega {0,1,2}, big omega {3}, mho {4,5},
        # tau swaps 4 and 5
        ("D3", {"mho_mask": 0b110001}),
        ("D3", {"big_omega_mask": 0, "mho_mask": 0b111000}),
        ("D3", {"tau_perm": (0, 1, 2, 4, 5, 3)}),
        ("D3", {"tau_perm": (0, 2, 1, 3, 5, 4)}),
        ("D3", {"tau_perm": (0, 1, 3, 2, 5, 4)}),
    ],
    ids=[
        "identity-off-omega",
        "mho-meets-omega",
        "k-set",
        "tau-not-involution",
        "tau-moves-omega",
        "tau-maps-into-omega",
    ],
)
def test_alpha_invariants_report_inconsistent_derived_sets(monkeypatch, group_id, changes):
    # the first involution context of one group gets one derived set wrong
    real = verify.involution_contexts

    def fake(group):
        contexts = real(group)
        if group.id != group_id:
            return contexts
        return [dataclasses.replace(contexts[0], **changes), *contexts[1:]]

    clean = verify.suite_alpha_invariants(6)
    monkeypatch.setattr(verify, "involution_contexts", fake)
    result = verify.suite_alpha_invariants(6)
    assert clean.ok
    assert result.cases == clean.cases
    assert result.violations == [f"group={group_id} alpha=0: derived sets inconsistent"]


def test_alpha_invariants_recompute_omega_from_its_definition(monkeypatch):
    # every context gets the loop set {e}, with big omega widened to keep
    # k_set, tau and alpha consistent: only omega's definition tells
    real = automorphisms.alpha_context

    def trivial_omega(group, alpha):
        ctx = real(group, alpha)
        k_set = ctx.omega_mask | ctx.big_omega_mask
        return dataclasses.replace(ctx, omega_mask=1, big_omega_mask=k_set & ~1)

    for group in catalog(12):
        monkeypatch.setattr(group.cache, "contexts", {})  # built again, by the fake
    monkeypatch.setattr(automorphisms, "alpha_context", trivial_omega)
    result = verify.suite_alpha_invariants(12)
    assert result.cases == 122
    assert len(result.violations) == 86
    assert result.violations[0] == "group=Z3 alpha=0: derived sets inconsistent"


def _raise_no_witness(found, *args):
    raise GenCayleyError("no transversal")


def _empty_connection_set(found, sub, ctx):
    # a valid connection set of which {0,3} is no perfect code
    return validate_subset(ctx, ())


@pytest.mark.parametrize(
    "component, tamper, expected",
    [
        ("abelian_pc_criterion", lambda found, *args: not found, "criterion=False decide=True"),
        ("build_witness_abelian", _raise_no_witness, "constructive witness failed"),
        ("build_witness_abelian", _empty_connection_set, "constructive witness failed"),
        ("is_gc_transversal", lambda found, *args: False, "constructive witness failed"),
    ],
    ids=["criterion", "witness-raises", "witness-fails-route", "not-a-transversal"],
)
def test_abelian_criterion_reports_a_failed_witness(monkeypatch, component, tamper, expected):
    # Z6 under inversion with H = {0,3}, a perfect code with S = {1,5}; a
    # GenCayleyError from the constructive witness is a violation, not a raise
    real = getattr(verify, component)

    def fake(*args):
        found = real(*args)
        sub = next(a for a in args if isinstance(a, SubgroupHandle))
        if sub.parent.id == "Z6" and sub.elements == (0, 3):
            return tamper(found, *args)
        return found

    clean = verify.suite_abelian_criterion(6)
    monkeypatch.setattr(verify, component, fake)
    result = verify.suite_abelian_criterion(6)
    assert clean.ok
    assert result.cases == clean.cases
    assert result.violations == [f"group=Z6 alpha=0 H={{0,3}}: {expected}"]


@pytest.mark.parametrize("derived", ["omega_mask", "big_omega_mask"])
def test_product_identities_report_a_wrong_product_context(monkeypatch, derived):
    # the first context on Z3xZ3, the only product of order 9, with a1 the
    # identity and a2 inversion, gets element 1 of one derived set flipped
    real = verify.alpha_context
    tampered = []

    def fake(group, alpha):
        ctx = real(group, alpha)
        if group.order == 9 and not tampered:
            tampered.append(alpha.perm)
            ctx = dataclasses.replace(ctx, **{derived: getattr(ctx, derived) ^ 0b10})
        return ctx

    clean = verify.suite_product_identities(4)
    monkeypatch.setattr(verify, "alpha_context", fake)
    result = verify.suite_product_identities(4)
    assert clean.ok
    assert result.cases == clean.cases
    assert len(tampered) == 1
    assert result.violations == ["product=Z3xZ3 a1=(0, 1, 2) a2=(0, 2, 1): set identity fails"]


def test_product_codes_report_too_few_pairs(monkeypatch):
    real = verify.collect_code_pairs
    monkeypatch.setattr(verify, "collect_code_pairs", lambda kind, limit: real(kind, limit)[:-1])
    result = verify.suite_product_codes()
    assert result.cases == verify.PRODUCT_PC_PAIRS - 1
    assert result.violations == [
        "only 4 perfect-code pairs available",
        "only 2 total-code pairs available",
    ]


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("pc_product_holds", False, "augmented product set loses the perfect code"),
        ("tpc_plain_counting_ok", True, "plain product set passed under perfect-code inputs"),
        ("tpc_plain_holds", True, "plain product set passed under perfect-code inputs"),
        ("tpc_amended_evaluated", False, "total-code product form failed"),
        ("tpc_amended_holds", False, "total-code product form failed"),
    ],
)
def test_product_codes_report_a_failed_construction(monkeypatch, field, value, expected):
    # the report on the first two perfect-code pairs has one field changed
    real = verify.verify_product_codes
    calls = []

    def fake(*pairs):
        report = real(*pairs)
        calls.append(pairs)
        if len(calls) == 1:
            setattr(report, field, value)
        return report

    clean = verify.suite_product_codes()
    monkeypatch.setattr(verify, "verify_product_codes", fake)
    result = verify.suite_product_codes()
    assert clean.ok
    assert result.cases == clean.cases == len(calls)
    assert result.violations == [f"pair1=(Z4,{{0,2}}) pair2=(D3,{{0,3}}): {expected}"]


@pytest.mark.parametrize(
    "suite, expected",
    [
        ("suite_odd_order_in_omega", "group=Z3 alpha=0 H={0}: decide=True expected=False"),
        ("suite_characteristic_criterion", "group=Z3 alpha=0 H={0}: decide=True expected=False"),
    ],
)
def test_claim_suites_report_a_flipped_decision(monkeypatch, suite, expected):
    # the first perfect-code decision a claim suite checks is reported the
    # other way
    real = verify.decide_subgroup_pc
    flipped = []

    def fake(sub, ctx):
        witness = real(sub, ctx)
        if flipped:
            return witness
        flipped.append(witness)
        return types.SimpleNamespace(success=not witness.success)

    clean = getattr(verify, suite)(6)
    monkeypatch.setattr(verify, "decide_subgroup_pc", fake)
    result = getattr(verify, suite)(6)
    assert clean.ok
    assert result.cases == clean.cases
    assert result.violations == [expected]
