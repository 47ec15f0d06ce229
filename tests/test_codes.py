import ast
import dataclasses
import io
import itertools
import os
import pickle
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from gencayley import (
    CodeWitness,
    GenCayleyError,
    GenCayleySubset,
    SubsetInvalidError,
    ThresholdError,
    abelian_pc_criterion,
    alpha_context,
    alpha_preserves,
    automorphism_from_perm,
    brute_force_codes,
    build_graph,
    build_group,
    build_product_subset,
    build_product_subset_augmented,
    build_witness_abelian,
    catalog,
    cosets,
    decide_subgroup_pc,
    decide_subgroup_tpc,
    direct_product,
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    enumerate_subgroups,
    enumerate_subsets,
    image_subgroup,
    inversion_automorphism,
    involution_contexts,
    is_gc_transversal,
    is_perfect_code,
    is_total_perfect_code,
    normalizer,
    product_automorphism,
    restrict_to_normalizer,
    restrict_witness,
    subgroup,
    subgroup_closure,
    subset_violation,
    transport_automorphism,
    transport_conjugate,
    validate_subset,
    verify_product_codes,
)
import gencayley.codes as codes_module
import gencayley.verify as verify_module
from gencayley._bits import elems
from gencayley.graphs import evaluate

from oracles import (
    certify_by_two_passes,
    codes_by_definition,
    conjugated_perm,
    exists_pc_connection_set,
    refutation_reason_by_scan,
    transversal_by_dfs,
    witness_abelian_by_scan,
)


def graph_for(ctx, elems):
    return build_graph(validate_subset(ctx, elems))


# ---------------------------------------------------------------------------
# subset-level deciders


def test_is_perfect_code_examples(z6_ctx):
    g1 = graph_for(z6_ctx, [1])
    assert is_perfect_code(g1, [0, 2, 4])
    assert not is_perfect_code(g1, [0, 1])  # not independent
    g15 = graph_for(z6_ctx, [1, 5])
    assert is_perfect_code(g15, [0, 3])
    edgeless = graph_for(z6_ctx, [])
    assert is_perfect_code(edgeless, range(6))
    for mode in ("graph", "partition", "algebraic"):
        assert is_perfect_code(g1, [0, 2, 4], mode)


def test_is_total_perfect_code_examples(z6_ctx):
    bip = graph_for(z6_ctx, [1, 3, 5])
    assert is_total_perfect_code(bip, [0, 3])
    g1 = graph_for(z6_ctx, [1])
    assert not is_total_perfect_code(g1, [0, 2, 4])  # members have no member-neighbor
    assert not is_total_perfect_code(bip, [])
    assert not is_total_perfect_code(graph_for(z6_ctx, []), range(6))  # empty S


def test_brute_force_codes_matching(z6_ctx):
    g1 = graph_for(z6_ctx, [1])
    codes = brute_force_codes(g1, "perfect")
    assert len(codes) == 8  # one endpoint per matching edge
    assert (0, 2, 4) in codes
    adjacency = [elems(m) for m in g1.nbr_masks]
    assert [set(c) for c in codes] == [set(c) for c in codes_by_definition(adjacency, "perfect")]


def test_brute_force_codes_edgeless(z6_ctx):
    edgeless = graph_for(z6_ctx, [])
    assert brute_force_codes(edgeless, "perfect") == [(0, 1, 2, 3, 4, 5)]
    assert brute_force_codes(edgeless, "total") == []


def test_brute_force_codes_total(z6_ctx):
    bip = graph_for(z6_ctx, [1, 3, 5])
    codes = brute_force_codes(bip, "total")
    assert (0, 3) in codes
    assert len(codes) == 9  # one even and one odd vertex
    adjacency = [elems(m) for m in bip.nbr_masks]
    assert [set(c) for c in codes] == [set(c) for c in codes_by_definition(adjacency, "total")]


def test_brute_force_threshold():
    g24 = build_group("symmetric:4")
    ctx = involution_contexts(g24)[0]
    graph = build_graph(next(iter(enumerate_subsets(ctx))))
    with pytest.raises(ThresholdError):
        brute_force_codes(graph)


# ---------------------------------------------------------------------------
# subgroup perfect codes


def test_code_witness_keeps_only_the_read_fields():
    names = [f.name for f in dataclasses.fields(CodeWitness)]
    assert names == ["subset", "refutation", "alpha_preserves_subgroup"]


def test_decide_pc_z6(z6, z6_ctx):
    w = decide_subgroup_pc(subgroup(z6, [0, 3]), z6_ctx)
    assert w.success and w.subset.elements == (1, 5)
    w = decide_subgroup_pc(subgroup(z6, [0, 2, 4]), z6_ctx)
    assert w.success and w.subset.elements == (1,)


def test_decide_pc_refutations(z4, z4_ctx, v4, v4_swap_ctx):
    w = decide_subgroup_pc(subgroup(v4, [0, 3]), v4_swap_ctx)
    assert not w.success
    assert w.refutation == "self-paired-coset-without-big-omega-element"
    w = decide_subgroup_pc(subgroup(z4, [0]), z4_ctx)
    assert not w.success and w.refutation == "coset-inside-omega"
    w = decide_subgroup_pc(subgroup(v4, [0, 1]), v4_swap_ctx)
    assert not w.success and w.refutation == "alpha-not-preserving"


def test_decide_pc_whole_group(z6, z6_ctx):
    w = decide_subgroup_pc(subgroup(z6, range(6)), z6_ctx)
    assert w.success and w.subset.elements == ()


@pytest.mark.parametrize("spec", ["cyclic:4", "cyclic:6", "cyclic:8", "V4", "dihedral:3", "dihedral:4"])
def test_decide_pc_matches_exhaustive_search(spec):
    group = build_group(spec)
    for ctx in involution_contexts(group):
        for sub in enumerate_subgroups(group):
            decided = decide_subgroup_pc(sub, ctx).success
            assert decided == exists_pc_connection_set(ctx, sub)


def test_witnesses_are_gc_transversals(z6, z6_ctx):
    sub = subgroup(z6, [0, 3])
    w = decide_subgroup_pc(sub, z6_ctx)
    assert is_gc_transversal(z6_ctx, sub, (0,) + w.subset.elements, "right")
    assert is_gc_transversal(z6_ctx, sub, (0,) + w.subset.elements, "left")
    assert not is_gc_transversal(z6_ctx, sub, w.subset.elements, "right")  # identity missing
    # {0, 1, 2} meets each coset of {0, 3} once, but 2 = 1 + 1 lies in the loop set
    assert z6_ctx.omega == (0, 2, 4)
    assert not is_gc_transversal(z6_ctx, sub, (0, 1, 2), "right")


# ---------------------------------------------------------------------------
# abelian criterion


def test_abelian_criterion_examples(z6, z6_ctx, z4, z4_ctx):
    assert abelian_pc_criterion(subgroup(z6, [0, 3]), z6_ctx)
    assert not abelian_pc_criterion(subgroup(z4, [0]), z4_ctx)
    assert abelian_pc_criterion(subgroup(z6, range(6)), z6_ctx)  # vacuous
    with pytest.raises(GenCayleyError, match="criterion applies to abelian groups only"):
        abelian_pc_criterion(
            subgroup(build_group("dihedral:3"), [0]),
            involution_contexts(build_group("dihedral:3"))[0],
        )


def test_build_witness_abelian(z6, z6_ctx):
    s = build_witness_abelian(subgroup(z6, [0, 2, 4]), z6_ctx)
    assert s.elements in {(1,), (3,), (5,)}
    s = build_witness_abelian(subgroup(z6, [0, 3]), z6_ctx)
    assert s.size == 2
    assert is_perfect_code(build_graph(s), [0, 3])
    with pytest.raises(GenCayleyError, match="abelian perfect-code criterion not satisfied"):
        build_witness_abelian(subgroup(z6, [0]), z6_ctx)


def test_abelian_witness_matches_the_coset_scan():
    # the mask picks take the least element of each coset's intersection,
    # the same element the reference finds by scanning the sorted coset
    pairs = 0
    for group in catalog(24):
        if not group.is_abelian:
            continue
        for ctx in involution_contexts(group):
            for sub in enumerate_subgroups(group):
                if not abelian_pc_criterion(sub, ctx):
                    continue
                pairs += 1
                want = witness_abelian_by_scan(sub, ctx, cosets(sub, "right"))
                assert build_witness_abelian(sub, ctx).elements == tuple(sorted(want))
    assert pairs == 3707


def test_z2_has_no_involutory_automorphism():
    # the smallest groups admit no usable involution at all, so the
    # abelian construction has nothing to build on there
    assert enumerate_involutory_automorphisms(build_group("cyclic:2")) == []
    assert enumerate_involutory_automorphisms(build_group("cyclic:1")) == []


# ---------------------------------------------------------------------------
# subgroup total perfect codes


def test_decide_tpc_z6(z6, z6_ctx):
    w = decide_subgroup_tpc(subgroup(z6, [0, 3]), z6_ctx)
    assert w.success and w.subset.elements == (1, 3, 5)
    w = decide_subgroup_tpc(subgroup(z6, [0, 2, 4]), z6_ctx)
    assert not w.success
    w = decide_subgroup_tpc(subgroup(z6, range(6)), z6_ctx)
    assert w.success and w.subset.size == 1


def test_tpc_without_alpha_preservation(v4, v4_swap_ctx):
    # alpha exchanges the two generators, so H = <first generator> is not
    # preserved, yet it is a total perfect code: the witness is a
    # transversal of alpha(H)
    sub = subgroup(v4, [0, 2])
    w = decide_subgroup_tpc(sub, v4_swap_ctx)
    assert w.success and not w.alpha_preserves_subgroup
    assert is_total_perfect_code(build_graph(w.subset), sub.elements)


# ---------------------------------------------------------------------------
# transports


def test_transport_trivial(z6, z6_ctx):
    sub = subgroup(z6, [0, 3])
    w = decide_subgroup_pc(sub, z6_ctx)
    csub, cset = transport_conjugate(sub, w.subset, 0)
    assert csub.elements == sub.elements and cset.elements == w.subset.elements

    from gencayley import automorphism_from_perm

    identity = automorphism_from_perm(z6, tuple(range(6)))
    tsub, tset, tctx = transport_automorphism(sub, w.subset, identity)
    assert tsub.elements == sub.elements and tset.elements == w.subset.elements


def test_transport_by_inversion_fixes_z6_pair(z6, z6_ctx):
    sub = subgroup(z6, [0, 3])
    w = decide_subgroup_pc(sub, z6_ctx)
    tsub, tset, _ = transport_automorphism(sub, w.subset, z6_ctx.alpha)
    assert tsub.elements == (0, 3) and tset.elements == (1, 5)


def test_transport_requires_fixed_element(z6, z6_ctx):
    sub = subgroup(z6, [0, 3])
    w = decide_subgroup_pc(sub, z6_ctx)
    with pytest.raises(GenCayleyError, match="element 1 is not fixed by alpha"):
        transport_conjugate(sub, w.subset, 1)  # 1 is moved by inversion


def test_transport_nonabelian_hit():
    d4 = build_group("dihedral:4")
    hits = []
    for ctx in involution_contexts(d4):
        for sub in enumerate_subgroups(d4):
            w = decide_subgroup_pc(sub, ctx)
            if w.success and 0 < sub.order < d4.order:
                hits.append((sub, w.subset, ctx))
    assert hits
    from gencayley import enumerate_automorphisms

    sub, subset, ctx = hits[0]
    for g in ctx.fix:
        transport_conjugate(sub, subset, g)  # asserts re-validation internally
    for beta in enumerate_automorphisms(d4):
        transport_automorphism(sub, subset, beta)


def test_transport_total_codes(z6, z6_ctx):
    sub = subgroup(z6, [0, 3])
    w = decide_subgroup_tpc(sub, z6_ctx)
    for g in z6_ctx.fix:
        transport_conjugate(sub, w.subset, g, kind="total")
    tsub, tset, _ = transport_automorphism(sub, w.subset, z6_ctx.alpha, kind="total")
    assert tset.elements == (1, 3, 5)


def _code_hits(group):
    for ctx in involution_contexts(group):
        for sub in enumerate_subgroups(group):
            for kind, w in (
                ("perfect", decide_subgroup_pc(sub, ctx)),
                ("total", decide_subgroup_tpc(sub, ctx)),
            ):
                if w.success:
                    yield sub, w.subset, kind


@pytest.mark.parametrize("spec", ["dihedral:4", "Z2xZ4", "S3"])
def test_transports_share_one_context_per_involution(spec):
    group = build_group(spec)
    index = {a.perm: i for i, a in enumerate(enumerate_involutory_automorphisms(group))}
    reached = {}
    for sub, subset, kind in _code_hits(group):
        for beta in enumerate_automorphisms(group):
            tsub, tset, tctx = transport_automorphism(sub, subset, beta, kind)
            # reference: a context of beta.alpha.beta^-1 built afresh
            conj = conjugated_perm(beta.perm, subset.context.alpha.perm)
            fresh = alpha_context(group, automorphism_from_perm(group, conj))
            assert tctx.alpha.perm == fresh.alpha.perm
            assert (tctx.omega_mask, tctx.big_omega_mask, tctx.mho_mask, tctx.tau_perm) == (
                fresh.omega_mask, fresh.big_omega_mask, fresh.mho_mask, fresh.tau_perm
            )
            assert tsub.elements == tuple(sorted(beta.perm[h] for h in sub.elements))
            assert tset.elements == tuple(sorted(beta.perm[s] for s in subset.elements))
            # one object per involution, the one involution_contexts lists
            assert tctx is reached.setdefault(tctx.alpha.perm, tctx)
            assert tctx is involution_contexts(group)[index[tctx.alpha.perm]]
    assert len(reached) > 1


def test_warm_context_cache_keeps_every_transport_check(z6, z6_ctx):
    sub = subgroup(z6, [0, 3])
    subset = decide_subgroup_pc(sub, z6_ctx).subset
    transport_automorphism(sub, subset, z6_ctx.alpha)
    warm = dict(z6.cache.contexts)
    assert z6_ctx.alpha.perm in warm
    # an isomorphic copy of Z6 has the same perms, hence the same cache keys
    twin = build_group.__wrapped__("cyclic:6")
    assert twin is not z6
    beta = inversion_automorphism(twin)[0]
    message = "beta belongs to another group (Z6) than the one it is used with (Z6)"
    with pytest.raises(GenCayleyError, match=re.escape(message)):
        transport_automorphism(sub, subset, beta)
    edgeless = validate_subset(z6_ctx, [])  # no outside vertex is dominated
    with pytest.raises(GenCayleyError, match="not a perfect code"):
        transport_automorphism(sub, edgeless, z6_ctx.alpha)
    with pytest.raises(GenCayleyError, match="not a total code"):
        transport_automorphism(sub, subset, z6_ctx.alpha, "total")
    assert z6.cache.contexts == warm


# ---------------------------------------------------------------------------
# products


def test_product_subsets_z4(z4, z4_ctx):
    s = validate_subset(z4_ctx, [1])
    prod = direct_product(z4, z4)
    prod_ctx = alpha_context(prod, product_automorphism(z4_ctx.alpha, z4_ctx.alpha, prod))
    plain = build_product_subset(s, s, prod_ctx)
    assert plain.elements == (5,)  # (1,1)
    augmented = build_product_subset_augmented(s, s, prod_ctx)
    assert augmented.elements == (1, 4, 5)  # (0,1), (1,0), (1,1)
    assert augmented.size == 3

    empty = validate_subset(z4_ctx, [])
    assert build_product_subset(empty, empty, prod_ctx).elements == ()
    assert build_product_subset_augmented(empty, empty, prod_ctx).elements == ()

    # the augmented set is the literal union S1 x S2 u {e} x S2 u S1 x {e},
    # (a, b) numbered a * n2 + b, for every pair of connection sets of Z4
    # under inversion and D3 under one involution, in both orders
    d3 = build_group("dihedral:3")
    d3_ctx = alpha_context(d3, enumerate_involutory_automorphisms(d3)[0])
    pairs = 0
    for ctx1, ctx2 in ((z4_ctx, d3_ctx), (d3_ctx, z4_ctx)):
        prod = direct_product(ctx1.group, ctx2.group)
        prod_ctx = alpha_context(prod, product_automorphism(ctx1.alpha, ctx2.alpha, prod))
        n2 = ctx2.group.order
        for s1 in enumerate_subsets(ctx1):
            for s2 in enumerate_subsets(ctx2):
                union = (
                    {a * n2 + b for a in s1.elements for b in s2.elements}
                    | {0 * n2 + b for b in s2.elements}
                    | {a * n2 + 0 for a in s1.elements}
                )
                got = build_product_subset_augmented(s1, s2, prod_ctx)
                assert got.elements == tuple(sorted(union)), (s1.elements, s2.elements)
                pairs += 1
    assert pairs == 32


def test_verify_product_codes_z4(z4, z4_ctx):
    sub = subgroup(z4, [0, 2])
    w = decide_subgroup_pc(sub, z4_ctx)
    assert w.subset.elements == (1,)
    report = verify_product_codes((sub, w.subset), (sub, w.subset))
    assert report.pc_product_holds
    assert not report.tpc_plain_counting_ok  # 16 != 4 * 1
    assert not report.tpc_plain_holds
    assert not report.tpc_amended_evaluated


@pytest.mark.parametrize("lone", ["first", "second"])
def test_verify_product_codes_refuses_a_lone_total_pair(z6, z6_ctx, lone, monkeypatch):
    sub = subgroup(z6, [0, 3])
    code = (sub, decide_subgroup_pc(sub, z6_ctx).subset)
    total = (sub, decide_subgroup_tpc(sub, z6_ctx).subset)
    tpc_pairs = (total, None) if lone == "first" else (None, total)
    checked = []
    monkeypatch.setattr(codes_module, "_code_pair_holds", lambda *a: checked.append(a))
    # refused before any pair is checked
    with pytest.raises(ValueError, match="tpc_pair1 and tpc_pair2 must be given together"):
        verify_product_codes(code, code, *tpc_pairs)
    assert checked == []


def test_non_code_pairs_are_refused(z6, z6_ctx):
    sub = subgroup(z6, [0, 3])
    code = (sub, decide_subgroup_pc(sub, z6_ctx).subset)
    total = (sub, decide_subgroup_tpc(sub, z6_ctx).subset)
    edgeless = (sub, validate_subset(z6_ctx, []))  # no outside vertex is dominated
    with pytest.raises(GenCayleyError, match="first pair is not a perfect code"):
        verify_product_codes(edgeless, code)
    with pytest.raises(GenCayleyError, match="second pair is not a perfect code"):
        verify_product_codes(code, edgeless)
    with pytest.raises(GenCayleyError, match="first pair is not a total code"):
        verify_product_codes(code, code, code, total)
    with pytest.raises(GenCayleyError, match="second pair is not a total code"):
        verify_product_codes(code, code, total, code)
    with pytest.raises(GenCayleyError, match="input pair is not a perfect code"):
        restrict_witness(*edgeless, subgroup(z6, range(6)))
    with pytest.raises(GenCayleyError, match="input pair is not a perfect code"):
        restrict_to_normalizer(*edgeless)


@pytest.mark.parametrize(
    "entry", ["conjugate", "automorphism", "product-first", "product-total", "restrict"]
)
def test_code_pairs_from_two_groups_are_refused(z6, z6_ctx, z4_ctx, entry):
    # {1} and {1, 3} are connection sets of Z4 under inversion; paired with
    # the Z6 subgroup {0, 3} they are no code of any one graph
    sub = subgroup(z6, [0, 3])
    code = (sub, decide_subgroup_pc(sub, z6_ctx).subset)
    total = (sub, decide_subgroup_tpc(sub, z6_ctx).subset)
    foreign = (sub, validate_subset(z4_ctx, [1]))
    foreign_total = (sub, validate_subset(z4_ctx, [1, 3]))
    run = {
        "conjugate": lambda: transport_conjugate(*foreign, 0, "perfect"),
        "automorphism": lambda: transport_automorphism(*foreign, z6_ctx.alpha, "perfect"),
        "product-first": lambda: verify_product_codes(foreign, code),
        "product-total": lambda: verify_product_codes(code, code, total, foreign_total),
        "restrict": lambda: restrict_witness(*foreign, subgroup(z6, range(6))),
    }[entry]
    message = "connection set belongs to another group (Z4) than the one it is used with (Z6)"
    with pytest.raises(GenCayleyError, match=re.escape(message)):
        run()


# each entry point with its objects of two groups: the foreign object, the
# name the guard gives it, and the call on Z6's code pair
GUARD_SITES = {
    "alpha_context": ("automorphism", lambda f, home: alpha_context(home.group, f.alpha)),
    "alpha_preserves": ("automorphism", lambda f, home: alpha_preserves(f.alpha, home.sub)),
    "image_subgroup": ("automorphism", lambda f, home: image_subgroup(f.alpha, home.sub)),
    "is_gc_transversal": ("context", lambda f, home: is_gc_transversal(f.ctx, home.sub, [0, 1])),
    "decide_subgroup_pc": ("context", lambda f, home: decide_subgroup_pc(home.sub, f.ctx)),
    "decide_subgroup_tpc": ("context", lambda f, home: decide_subgroup_tpc(home.sub, f.ctx)),
    "abelian_pc_criterion": ("automorphism", lambda f, home: abelian_pc_criterion(home.sub, f.ctx)),
    "transport_conjugate": (
        "connection set", lambda f, home: transport_conjugate(home.sub, f.subset, 0)
    ),
    "transport_automorphism-pair": (
        "connection set",
        lambda f, home: transport_automorphism(home.sub, f.subset, home.ctx.alpha),
    ),
    "transport_automorphism-beta": (
        "beta", lambda f, home: transport_automorphism(*home.code, f.alpha)
    ),
    "verify_product_codes-pc": (
        "connection set", lambda f, home: verify_product_codes((home.sub, f.subset), home.code)
    ),
    "verify_product_codes-tpc": (
        "connection set",
        lambda f, home: verify_product_codes(
            home.code, home.code, home.total, (home.sub, f.total)
        ),
    ),
    "restrict_witness-pair": (
        "connection set", lambda f, home: restrict_witness(home.sub, f.subset, home.whole)
    ),
    "restrict_witness-intermediate": (
        "intermediate subgroup", lambda f, home: restrict_witness(*home.code, f.whole)
    ),
}


@pytest.mark.parametrize("site", GUARD_SITES)
@pytest.mark.parametrize("foreign", ["twin", "cyclic:4"])
def test_every_same_group_guard_names_both_groups(z6, z6_ctx, site, foreign):
    # a twin built from a second spec has Z6's id and elements but is
    # another object: the message names both ids and reads true for it too
    group = build_group.__wrapped__("cyclic:6") if foreign == "twin" else build_group(foreign)
    assert group is not z6
    alpha = inversion_automorphism(group)[0]
    ctx = alpha_context(group, alpha)
    # under inversion tau is the identity and omega the squares, so {1} and
    # {1, 3} are connection sets of both Z6 and Z4
    f = SimpleNamespace(
        alpha=alpha,
        ctx=ctx,
        subset=validate_subset(ctx, [1]),
        total=validate_subset(ctx, [1, 3]),
        whole=subgroup(group, range(group.order)),
    )
    sub = subgroup(z6, [0, 3])
    home = SimpleNamespace(
        group=z6,
        ctx=z6_ctx,
        sub=sub,
        code=(sub, decide_subgroup_pc(sub, z6_ctx).subset),
        total=(sub, decide_subgroup_tpc(sub, z6_ctx).subset),
        whole=subgroup(z6, range(6)),
    )
    what, call = GUARD_SITES[site]
    message = f"{what} belongs to another group ({group.id}) than the one it is used with (Z6)"
    with pytest.raises(GenCayleyError, match=re.escape(message)):
        call(f, home)


def test_verify_product_codes_amended(z6, z6_ctx, z4, z4_ctx):
    pc_pair = (subgroup(z4, [0, 2]), decide_subgroup_pc(subgroup(z4, [0, 2]), z4_ctx).subset)
    tpc_sub = subgroup(z6, [0, 3])
    tpc_pair = (tpc_sub, decide_subgroup_tpc(tpc_sub, z6_ctx).subset)
    report = verify_product_codes(pc_pair, pc_pair, tpc_pair, tpc_pair)
    assert report.tpc_amended_evaluated and report.tpc_amended_holds


# ---------------------------------------------------------------------------
# restriction


def test_restrict_witness_whole_group(z6, z6_ctx):
    sub = subgroup(z6, [0, 3])
    w = decide_subgroup_pc(sub, z6_ctx)
    res = restrict_witness(sub, w.subset, subgroup(z6, range(6)))
    assert res.subgroup.elements == (0, 3)
    assert res.subset.elements == (1, 5)


def test_restrict_witness_to_itself(z6, z6_ctx):
    sub = subgroup(z6, [0, 3])
    w = decide_subgroup_pc(sub, z6_ctx)
    res = restrict_witness(sub, w.subset, sub)
    assert res.subset.elements == ()  # edgeless graph on the subgroup
    assert res.group.order == 2


def test_restrict_witness_normalizer_abelian(z6, z6_ctx):
    sub = subgroup(z6, [0, 2, 4])
    w = decide_subgroup_pc(sub, z6_ctx)
    res = restrict_to_normalizer(sub, w.subset)
    assert res.group.order == 6  # abelian: the normalizer is everything


def test_restrict_witness_nonabelian_proper_normalizer():
    d4 = build_group("dihedral:4")
    for ctx in involution_contexts(d4):
        for sub in enumerate_subgroups(d4):
            w = decide_subgroup_pc(sub, ctx)
            if not w.success:
                continue
            norm = normalizer(sub)
            if sub.order < norm.order < d4.order:
                res = restrict_to_normalizer(sub, w.subset)
                assert res.group.order == norm.order
                assert is_perfect_code(
                    build_graph(res.subset), res.subgroup.elements
                )
                return
    pytest.fail("expected a hit with a proper normalizer chain in D4")


def test_restriction_lemma_on_catalog_12():
    # every perfect-code pair (H, S) restricts to every alpha-invariant K
    # between H and G: H is a perfect code of GC(K, S & K, alpha|K). The
    # restricted pair is read back into G's numbering and re-checked by a
    # neighbor count in G's table, with no route of the package
    pairs = restrictions = proper = 0
    for group in catalog(12):
        t, inv = group.table, group.inv
        subs = enumerate_subgroups(group)
        for ctx in involution_contexts(group):
            a = ctx.alpha.perm
            invariant = [k for k in subs if all(k.mask >> a[x] & 1 for x in k.elements)]
            for sub in subs:
                w = decide_subgroup_pc(sub, ctx)
                if not w.success:
                    continue
                pairs += 1
                for inter in invariant:
                    if sub.mask & ~inter.mask:
                        continue
                    res = restrict_witness(sub, w.subset, inter)
                    restrictions += 1
                    proper += sub.order < inter.order < group.order
                    back = res.element_map
                    assert back == inter.elements
                    assert [back[a_k] for a_k in res.context.alpha.perm] == [a[x] for x in back]
                    assert tuple(back[h] for h in res.subgroup.elements) == sub.elements
                    S = {back[s] for s in res.subset.elements}
                    assert S == {s for s in w.subset.elements if inter.mask >> s & 1}
                    for v in inter.elements:
                        seen = sum(t[a[inv[v]]][x] in S for x in sub.elements)
                        assert seen == (0 if sub.mask >> v & 1 else 1), (group.id, a, sub.elements, v)
    assert (pairs, restrictions, proper) == (282, 572, 94)


def test_restrict_witness_requires_invariance(v4, v4_swap_ctx):
    # the swap maps K = {0, 1} to {0, 2}; H = {0} lies in K, and the check
    # comes before the one that ({0}, {}) is no perfect code
    k = subgroup(v4, [0, 1])
    empty = validate_subset(v4_swap_ctx, [])
    with pytest.raises(GenCayleyError, match="alpha does not preserve the intermediate subgroup"):
        restrict_witness(subgroup(v4, [0]), empty, k)
    whole = subgroup(v4, range(4))
    w = decide_subgroup_pc(whole, v4_swap_ctx)
    with pytest.raises(
        GenCayleyError, match="code subgroup is not contained in the intermediate one"
    ):
        restrict_witness(whole, w.subset, k)


def _z6_pair(z6, z6_ctx):
    sub = subgroup(z6, [0, 3])
    return sub, decide_subgroup_pc(sub, z6_ctx).subset


def _z3_context():
    z3 = build_group("cyclic:3")
    return alpha_context(z3, inversion_automorphism(z3)[0])


def _restrict_with_a_failing_restricted_check(z6, z6_ctx, monkeypatch):
    """Restrict a Z6 code pair to Z6 with every code check outside Z6
    itself failing: the input pair passes, the restricted one does not."""
    pair = _z6_pair(z6, z6_ctx)
    holds = codes_module._code_pair_holds
    monkeypatch.setattr(
        codes_module, "_code_pair_holds", lambda sub, *a: sub.parent is z6 and holds(sub, *a)
    )
    restrict_witness(*pair, subgroup(z6, range(6)))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda z6, z6_ctx, mp: decide_subgroup_pc(subgroup(z6, [0, 3]), _z3_context()),
            "context belongs to another group (Z3) than the one it is used with (Z6)",
        ),
        (
            lambda z6, z6_ctx, mp: abelian_pc_criterion(subgroup(z6, [0, 3]), _z3_context()),
            "automorphism belongs to another group (Z3) than the one it is used with (Z6)",
        ),
        (
            lambda z6, z6_ctx, mp: restrict_witness(
                *_z6_pair(z6, z6_ctx), subgroup(build_group("cyclic:4"), range(4))
            ),
            "intermediate subgroup belongs to another group (Z4) than the one it is used"
            " with (Z6)",
        ),
        (_restrict_with_a_failing_restricted_check, "restricted pair is not a perfect code"),
    ],
    ids=["decide-foreign-context", "criterion-foreign-context", "restrict-foreign-k",
         "restricted-pair-fails"],
)
def test_code_inputs_are_refused(z6, z6_ctx, monkeypatch, call, message):
    with pytest.raises(GenCayleyError, match=re.escape(message)):
        call(z6, z6_ctx, monkeypatch)


# ---------------------------------------------------------------------------
# structural audits on hits


def test_pc_hits_preserve_subgroup_and_miss_image():
    for spec in ("cyclic:8", "dihedral:4", "abelian:2,4"):
        group = build_group(spec)
        for ctx in involution_contexts(group):
            for sub in enumerate_subgroups(group):
                w = decide_subgroup_pc(sub, ctx)
                if w.success:
                    assert alpha_preserves(ctx.alpha, sub)
                    image = image_subgroup(ctx.alpha, sub)
                    assert not set(w.subset.elements) & set(image.elements)


def test_image_subgroup_is_the_registered_handle_of_the_image():
    pairs = moved = 0
    for group in catalog(12):
        subs = enumerate_subgroups(group)
        for ctx in involution_contexts(group):
            for sub in subs:
                image = image_subgroup(ctx.alpha, sub)
                literal = tuple(sorted(ctx.alpha.perm[h] for h in sub.elements))
                assert image.elements == literal, (group.id, ctx.alpha.perm, sub.elements)
                assert image is subgroup(group, literal)
                pairs += 1
                moved += image is not sub
    assert (pairs, moved) == (829, 338)


def test_image_subgroup_validates_an_image_not_yet_registered():
    # a pickled group starts with an empty registry: alpha(H) is validated
    # and registered by subgroup() on first use, then found there
    v4 = pickle.loads(pickle.dumps(build_group("abelian:2,2")))
    swap = automorphism_from_perm(v4, (0, 2, 1, 3))
    sub = subgroup(v4, [0, 1])
    assert set(v4.cache.subgroups) == {0b0011}
    image = image_subgroup(swap, sub)
    assert image.elements == (0, 2) and set(v4.cache.subgroups) == {0b0011, 0b0101}
    assert image_subgroup(swap, sub) is image is subgroup(v4, [0, 2])


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda z3_ctx, z4_whole, inv4, z6_pair: is_gc_transversal(z3_ctx, z4_whole, [0]),
            "context belongs to another group (Z3) than the one it is used with (Z4)",
        ),
        (
            lambda z3_ctx, z4_whole, inv4, z6_pair: alpha_preserves(inv4, z6_pair),
            "automorphism belongs to another group (Z4) than the one it is used with (Z6)",
        ),
        (
            lambda z3_ctx, z4_whole, inv4, z6_pair: image_subgroup(inv4, z6_pair),
            "automorphism belongs to another group (Z4) than the one it is used with (Z6)",
        ),
    ],
    ids=["is_gc_transversal", "alpha_preserves", "image_subgroup"],
)
def test_subgroup_audits_refuse_another_groups_context(call, message):
    # these once answered True, and raised a misleading subgroup-inverse
    # error, by reading the perm of Z4's inversion on Z6's elements
    z3, z4, z6 = (build_group(f"cyclic:{n}") for n in (3, 4, 6))
    z3_ctx = alpha_context(z3, inversion_automorphism(z3)[0])
    inv4 = inversion_automorphism(z4)[0]
    with pytest.raises(GenCayleyError, match=re.escape(message)):
        call(z3_ctx, subgroup(z4, range(4)), inv4, subgroup(z6, [0, 3]))


def pickled_copy(sub):
    """A pickle round trip of a subgroup handle that keeps its parent group:
    a second handle of the same element set."""
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf)
    pickler.persistent_id = lambda obj: "parent" if obj is sub.parent else None
    pickler.dump(sub)
    unpickler = pickle.Unpickler(io.BytesIO(buf.getvalue()))
    unpickler.persistent_load = lambda pid: sub.parent
    return unpickler.load()


@pytest.mark.parametrize("spec", ["dihedral:4", "symmetric:4"])
def test_handle_identity_does_not_change_decisions(spec):
    # a context keeps the alpha(H) handle of the first decision of H, made
    # through either handle; the other handle must get the same answers
    group = build_group(spec)
    pairs = [(sub, pickled_copy(sub)) for sub in enumerate_subgroups(group)]
    assert all(a is not b and a.elements == b.elements for a, b in pairs)
    for alpha in enumerate_involutory_automorphisms(group):
        for decide in (decide_subgroup_pc, decide_subgroup_tpc):
            for flip in (False, True):
                ctx = alpha_context(group, alpha)
                for cached, copied in pairs:
                    first, second = (copied, cached) if flip else (cached, copied)
                    a, b = decide(first, ctx), decide(second, ctx)
                    assert a.success == b.success
                    assert (a.subset and a.subset.elements) == (b.subset and b.subset.elements)
                    assert a.refutation == b.refutation
                    assert a.alpha_preserves_subgroup == b.alpha_preserves_subgroup


# ---------------------------------------------------------------------------
# the transversal search against the reference depth-first search


def search_matches_reference(ctx, dec, first):
    """Run the search and the reference on one input and require the same
    representatives, or the same refutation reason. Returns the search's
    answer and how many choices the reference undid."""
    reps, reason = codes_module._search_transversal(ctx, dec, first)
    ref, undone = transversal_by_dfs(ctx, dec, first)
    if ref is None:
        assert (reps, reason) == (None, refutation_reason_by_scan(ctx, dec, first))
    else:
        assert reason is None and sorted(reps) == sorted(ref.values())
    return reps, reason, undone


def group_inputs(groups):
    """For each group, its subgroups with the context of every involution
    and of the identity."""
    for group in groups:
        subs = enumerate_subgroups(group)
        for alpha in enumerate_involutory_automorphisms(group, include_identity=True):
            yield subs, alpha_context(group, alpha)


def test_search_matches_reference_on_group_inputs():
    # the descent is complete on cosets of alpha(H), so the reference never
    # undoes a choice on its way to a transversal
    products = [build_group(spec) for spec in ("symmetric:3xsymmetric:3", "dihedral:3xcyclic:6")]
    cases = Counter()
    for label, groups in (("catalog", catalog(24)), ("products", products)):
        for subs, ctx in group_inputs(groups):
            for sub in subs:
                image = image_subgroup(ctx.alpha, sub)
                dec = cosets(image, "right")
                perfect = image.mask == sub.mask
                for first in (1, 0) if perfect else (0,):
                    reps, reason, undone = search_matches_reference(ctx, dec, first)
                    cases[label, reason] += 1
                    if reason is None:
                        assert undone == 0
                        codes_module._certify_transversal(ctx, reps, dec, first == 1)
    # a total code search for each pair, and a perfect code search for each
    # pair whose subgroup alpha preserves: 37,946 on catalog(24), 2,780 on
    # the two products
    assert cases == {
        ("catalog", None): 26063,
        ("catalog", codes_module.REFUTATION_OMEGA_COSET): 3909,
        ("catalog", codes_module.REFUTATION_SELF_PAIRED): 7902,
        ("catalog", codes_module.REFUTATION_EXHAUSTED): 72,
        ("products", None): 1970,
        ("products", codes_module.REFUTATION_OMEGA_COSET): 348,
        ("products", codes_module.REFUTATION_SELF_PAIRED): 324,
        ("products", codes_module.REFUTATION_EXHAUSTED): 138,
    }


def double_coset(dec, sub, x):
    """The right cosets K(xh), h in sub, of the double coset K x sub, by
    their indices in ``dec``, the right cosets of K."""
    table = sub.parent.table
    return {dec.rep_of[table[x][h]] for h in sub.elements}


def test_double_coset_lemmas_on_catalog_24():
    # the two lemmas behind the descent's completeness (codes module
    # docstring), on every (K, H)-double coset D with K = alpha(H): (i)
    # big_omega meets all right K-cosets of D or none; (ii) tau maps each
    # of them onto a set meeting every right K-coset of tau(D) and no other
    doubles = 0
    for subs, ctx in group_inputs(catalog(24)):
        tau = ctx.tau_perm
        for sub in subs:
            dec = cosets(image_subgroup(ctx.alpha, sub), "right")
            blocks = [elems(m) for m in dec.masks]
            free = set(range(dec.index))
            while free:
                x = blocks[min(free)][0]
                d = double_coset(dec, sub, x)
                free -= d
                doubles += 1
                assert len({dec.masks[c] & ctx.big_omega_mask == 0 for c in d}) == 1
                image = double_coset(dec, sub, tau[x])
                for c in d:
                    assert {dec.rep_of[tau[z]] for z in blocks[c]} == image
            if dec.masks[0] == sub.mask:
                # a perfect code's coset 0 = H is a double coset on its own
                assert double_coset(dec, sub, 0) == {0}
    assert doubles == 91280


def stand_in(n, blocks, pairs, loops):
    """A stand-in context and coset decomposition with all the search
    reads: tau exchanges each pair and fixes every other point, the loops
    (fixed points) form the loop set, and the blocks, ordered by their
    least point, are the cosets."""
    tau = list(range(n))
    for a, b in pairs:
        tau[a], tau[b] = b, a
    omega = sorted(loops)
    big_omega = [x for x in range(n) if tau[x] == x and x not in loops]
    mho = [x for x in range(n) if tau[x] != x]
    blocks = sorted(tuple(sorted(block)) for block in blocks)
    rep_of = [0] * n
    for ci, block in enumerate(blocks):
        for x in block:
            rep_of[x] = ci

    def mask(xs):
        return sum(1 << x for x in xs)

    ctx = SimpleNamespace(
        tau_perm=tuple(tau),
        omega=tuple(omega),
        big_omega=tuple(big_omega),
        mho=tuple(mho),
        omega_mask=mask(omega),
        big_omega_mask=mask(big_omega),
        mho_mask=mask(mho),
    )
    dec = SimpleNamespace(
        cosets=tuple(blocks),
        rep_of=tuple(rep_of),
        index=len(blocks),
        masks=tuple(mask(block) for block in blocks),
    )
    return ctx, dec


@pytest.mark.parametrize(
    "blocked, last, reason",
    [
        (False, "loops", codes_module.REFUTATION_OMEGA_COSET),
        (False, "pair", codes_module.REFUTATION_SELF_PAIRED),
        (True, "loops", codes_module.REFUTATION_OMEGA_COSET),
        (True, "pair", codes_module.REFUTATION_SELF_PAIRED),
    ],
)
def test_refutation_behind_a_long_first_descent(blocked, last, reason):
    # cosets {2c, 2c+1} for c < 10 each hold a tau-fixed non-loop point
    # 2c, so the descent fills all ten. Coset 10 holds one too, and
    # the descent stops at coset 11; or, when blocked, it holds two
    # tau-moved points whose partners 1 and 3 lie in the filled cosets 0
    # and 1, and the descent stops there. Either way the reason is that of
    # coset 11: two loops, or a tau-pair inside it
    blocks = [(2 * c, 2 * c + 1) for c in range(12)]
    pairs = [(1, 20), (3, 21)] if blocked else []
    loops = {2 * c + 1 for c in range(11)} - {x for pair in pairs for x in pair}
    if last == "loops":
        loops |= {22, 23}
    else:
        pairs.append((22, 23))
    ctx, dec = stand_in(24, blocks, pairs, loops)
    assert search_matches_reference(ctx, dec, 0)[1] == reason


def drop_one_pair(search):
    """A transversal search whose answers are valid connection sets that no
    longer meet every coset: the representative of the highest coset and
    its tau-partner are dropped."""

    def corrupted(ctx, dec, first):
        reps, reason = search(ctx, dec, first)
        x = max(reps, key=dec.rep_of.__getitem__)
        return [r for r in reps if r not in (x, ctx.tau_perm[x])], reason

    return corrupted


@pytest.mark.parametrize("decide", [decide_subgroup_pc, decide_subgroup_tpc])
def test_corrupted_witness_is_caught(monkeypatch, z6, z6_ctx, decide):
    sub = subgroup(z6, [0, 3])
    assert decide(sub, z6_ctx).success
    monkeypatch.setattr(
        codes_module, "_search_transversal", drop_one_pair(codes_module._search_transversal)
    )
    with pytest.raises(GenCayleyError, match="not a transversal"):
        decide(sub, z6_ctx)


def test_abelian_suite_checks_the_returned_witness(monkeypatch):
    # the empty set is a valid connection set but a code only of the whole
    # group; the stand-in skips the certificate, so only the suite's own
    # checks can see it
    assert verify_module.suite_abelian_criterion(max_order=4).ok
    monkeypatch.setattr(
        verify_module, "build_witness_abelian", lambda sub, ctx: validate_subset(ctx, ())
    )
    res = verify_module.suite_abelian_criterion(max_order=4)
    assert res.violations
    assert all(v.endswith("constructive witness failed") for v in res.violations)


def test_failed_transport_raises_and_is_reported(monkeypatch, z6, z6_ctx):
    # the re-validation is an explicit check, so it also runs under -O
    sub = subgroup(z6, [0, 3])
    subset = decide_subgroup_pc(sub, z6_ctx).subset
    assert verify_module.suite_transports(max_order=4).ok
    monkeypatch.setattr(codes_module, "_code_pair_holds", lambda sub, subset, kind: False)
    with pytest.raises(GenCayleyError, match="not a perfect code"):
        transport_conjugate(sub, subset, 0)
    with pytest.raises(GenCayleyError, match="not a perfect code"):
        transport_automorphism(sub, subset, z6_ctx.alpha)
    res = verify_module.suite_transports(max_order=4)
    assert res.cases and len(res.violations) == res.cases


# ---------------------------------------------------------------------------
# checks mean the same under python -O


def test_checks_raise_under_optimize_flag():
    # the same faults as above, in an interpreter that strips assert
    code = textwrap.dedent(
        """
        import gencayley, gencayley.codes as codes
        from test_codes import drop_one_pair
        assert False, "assert statements must be stripped"
        z6 = gencayley.build_group("cyclic:6")
        ctx = gencayley.alpha_context(z6, gencayley.inversion_automorphism(z6)[0])
        sub = gencayley.subgroup(z6, [0, 3])
        edgeless = (sub, gencayley.validate_subset(ctx, []))
        codes._search_transversal = drop_one_pair(codes._search_transversal)
        calls = [
            lambda: gencayley.decide_subgroup_pc(sub, ctx),
            lambda: gencayley.decide_subgroup_tpc(sub, ctx),
            lambda: gencayley.verify_product_codes(edgeless, edgeless),
            lambda: gencayley.restrict_witness(*edgeless, sub),
        ]
        for call in calls:
            try:
                call()
                print("returned")
            except gencayley.GenCayleyError as exc:
                print(exc)
        """
    )
    assert run_optimized(code) == [
        "witness is not a transversal of the cosets",
        "witness is not a transversal of the cosets",
        "first pair is not a perfect code",
        "input pair is not a perfect code",
    ]


def run_optimized(code: str) -> list[str]:
    """Run code under ``python -O`` with the package and this directory
    importable; its output lines."""
    package_root = Path(codes_module.__file__).parent.parent
    path = os.pathsep.join([str(package_root), str(Path(__file__).parent)])
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()


def witness_faults():
    """One input per fault class of the witness certificate, and the two
    malformed code witnesses, each with the message it must raise. On V4
    with the coordinate swap the loop set is {0, 3} and tau exchanges 1
    and 2."""
    v4 = build_group("V4")
    ctx = alpha_context(v4, automorphism_from_perm(v4, (0, 2, 1, 3)))
    certify = codes_module._certify_transversal

    def fault(elements, sub, with_identity):
        dec = cosets(subgroup(v4, sub), "right")
        return lambda: certify(ctx, elements, dec, with_identity)

    one_of_two = "a code witness has exactly one of a subset and a refutation"
    return {
        "out-of-range": (
            fault([1, 2, 4], [0, 1], False),
            "invalid connection set: out-of-range (witness element 4)",
        ),
        "loop-set": (
            fault([1, 2, 3], [0, 1], False),
            "invalid connection set: omega-intersection (witness element 3)",
        ),
        "not-tau-closed": (
            fault([1], [0, 1], False),
            "invalid connection set: tau-closure (witness element 1)",
        ),
        "coset-met-twice": (fault([1, 2], [0, 3], True), "witness meets coset 1 twice"),
        "coset-missed": (fault([1, 2], [0], True), "witness is not a transversal of the cosets"),
        "witness-both": (
            lambda: CodeWitness(GenCayleySubset((), ctx, mask=0), "x", True),
            one_of_two,
        ),
        "witness-neither": (
            lambda: CodeWitness(None, None, True),
            one_of_two,
        ),
    }


@pytest.mark.parametrize("fault", sorted(witness_faults()))
def test_certificate_rejects_each_fault(fault):
    call, message = witness_faults()[fault]
    with pytest.raises(GenCayleyError) as err:
        call()
    assert str(err.value) == message


def test_certificate_accepts_a_transversal():
    # the same context as the faults: S = {1, 2} meets both cosets of {0, 1}
    v4 = build_group("V4")
    ctx = alpha_context(v4, automorphism_from_perm(v4, (0, 2, 1, 3)))
    dec = cosets(subgroup(v4, [0, 1]), "right")
    subset = codes_module._certify_transversal(ctx, [2, 1], dec, with_identity=False)
    assert subset.elements == (1, 2) and subset.context is ctx


def test_certificate_faults_raise_under_optimize_flag():
    code = textwrap.dedent(
        """
        import gencayley
        from test_codes import witness_faults
        assert False, "assert statements must be stripped"
        for name, (call, _) in sorted(witness_faults().items()):
            try:
                call()
                print(name, "returned")
            except gencayley.GenCayleyError as exc:
                print(name, exc)
        """
    )
    expected = [f"{name} {message}" for name, (_, message) in sorted(witness_faults().items())]
    assert run_optimized(code) == expected


def certificate_outcome(certify, ctx, elements, dec, with_identity):
    """The witness's elements and mask, or the type and message of the
    certificate's fault."""
    try:
        subset = certify(ctx, elements, dec, with_identity)
    except GenCayleyError as exc:
        return type(exc), str(exc)
    return subset.elements, subset.mask


def test_certificate_matches_two_pass_reference_on_census_witnesses():
    # every witness the search returns on the census-24 pairs: 25,233 of
    # the 36,926 searches
    cases = Counter()
    for group in catalog(24):
        subs = enumerate_subgroups(group)
        for ctx in involution_contexts(group):
            for sub in subs:
                image = image_subgroup(ctx.alpha, sub)
                dec = cosets(image, "right")
                for first in (1, 0) if image.mask == sub.mask else (0,):
                    reps, _ = codes_module._search_transversal(ctx, dec, first)
                    cases[reps is not None] += 1
                    if reps is None:
                        continue
                    expected, got = (
                        certificate_outcome(certify, ctx, reps, dec, first == 1)
                        for certify in (certify_by_two_passes, codes_module._certify_transversal)
                    )
                    assert got == expected and got[0] == elems(got[1])
    assert cases == {True: 25233, False: 11693}


def certificate_fault_inputs():
    """Element lists that break the certificate in one or several ways, on
    V4 with the coordinate swap (loop set {0, 3}, tau exchanges 1 and 2),
    Z6 with inversion (loop set {0, 2, 4}, tau fixes every element) and Z8
    with the identity (loop set {0}, tau(x) = -x), where a set can meet two
    cosets twice each. Each is tried on the right cosets of every subgroup,
    with and without the identity."""
    return [
        [-1], [-1, 1, 2], [1, 2, -3, 9], [-1, "a"],  # negative: rep_of[-1] wraps
        [1.0, 2], [1.5], [2, 7.5], [7.5, 1.5], [1, 2, 2.0],  # floats
        ["1", 2], [5, "a"], ["a", 9], [1, 2, None],  # strings, None
        [True, 2], [False], [True, True, 2],  # bools count as 0 or 1
        [1, 2, 9], [9, 1, 1, 2, 2], [1, 2, 3, 1],  # out of range, repeats
        [4], [6], [10**20], [1, -10**20], [2, 2**63, -2],  # the order, huge ints
        [1, 5, 3, 0], [1], [5, 1, 1], [3, 3], [],  # loop set, tau, repeats
        [1, 2, 3, 4, 5], [5, 3, 1], [2, 1], [3],  # transversals or repeated cosets
        [7, 5, 3, 1], [1, 7, 2, 6, 3, 5, 4], [6, 2, 4], [4, 7, 1],
    ]


def test_certificate_faults_match_two_pass_reference():
    outcomes = Counter()
    for spec, perm in (
        ("V4", (0, 2, 1, 3)), ("cyclic:6", (0, 5, 4, 3, 2, 1)), ("cyclic:8", tuple(range(8)))
    ):
        group = build_group(spec)
        ctx = alpha_context(group, automorphism_from_perm(group, perm))
        for sub, elements, with_identity in itertools.product(
            enumerate_subgroups(group), certificate_fault_inputs(), (True, False)
        ):
            dec = cosets(sub, "right")
            expected = certificate_outcome(certify_by_two_passes, ctx, elements, dec, with_identity)
            for given in (list(elements), tuple(elements), (x for x in elements)):
                got = certificate_outcome(
                    codes_module._certify_transversal, ctx, given, dec, with_identity
                )
                assert got == expected, (spec, sub.elements, elements, with_identity)
            fault = expected[1] if isinstance(expected[0], type) else "ok"
            outcomes[re.sub(r"\d+", "i", fault.split(" (")[0])] += 1
    # every fault class is reached, and some inputs pass
    assert set(outcomes) == {
        "invalid connection set: not-an-integer",
        "invalid connection set: out-of-range",
        "invalid connection set: omega-intersection",
        "invalid connection set: tau-closure",
        "witness meets coset i twice",
        "witness is not a transversal of the cosets",
        "ok",
    }


def test_certificate_lets_the_producers_own_errors_through(v4_swap_ctx):
    # an error raised while producing the elements is not a fault of one
    dec = cosets(subgroup(v4_swap_ctx.group, [0, 1]), "right")
    for error in (TypeError, ValueError, IndexError):
        def produce():
            yield 1
            raise error("from the producer")

        for certify in (certify_by_two_passes, codes_module._certify_transversal):
            with pytest.raises(error, match="from the producer"):
                certify(v4_swap_ctx, produce(), dec, False)


@pytest.mark.parametrize("make", [
    lambda ctx: CodeWitness(None, "x", True),
    lambda ctx: GenCayleySubset((), ctx, 0),
], ids=["CodeWitness", "GenCayleySubset"])
def test_decision_results_are_slotted(v4_swap_ctx, make):
    # no attribute dict: a misspelled attribute cannot be set by mistake
    result = make(v4_swap_ctx)
    assert not hasattr(result, "__dict__")
    with pytest.raises(AttributeError):
        result.elemnts = ()
    assert [f.name for f in dataclasses.fields(result)] == list(type(result).__slots__)


def test_package_has_no_debug_only_code():
    # code under __debug__ and assert statements vanish with -O, so a check
    # there would not mean the same in both interpreters
    src = Path(codes_module.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert not found


def test_package_modules_use_every_import():
    # a name a module imports and never reads is left over from a deletion;
    # the package __init__ is exempt, since it imports to re-export
    src = Path(codes_module.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}:{name}" for name, line in imported.items() if name not in read]
    assert not found


def test_package_casts_no_element_with_int():
    # element indices are checked and never truncated or parsed: int() (or
    # map(int, ...)) turns text into numbers in the CLI and in the group
    # spec atoms, and nowhere else
    def is_int(node):
        return isinstance(node, ast.Name) and node.id == "int"

    src = Path(codes_module.__file__).parent
    found = [
        f"{path.name}:{getattr(top, 'name', None)}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "cli.py"
        for top in ast.parse(path.read_text()).body
        if (path.name, getattr(top, "name", None)) != ("groups.py", "_build_atom")
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (
            is_int(node.func)
            or (isinstance(node.func, ast.Name) and node.func.id == "map" and is_int(node.args[0]))
        )
    ]
    assert not found


# ---------------------------------------------------------------------------
# element indices and code kinds: one check each, nothing cast

# on Z6: two values that are not ints and two ints outside 0..5, with the
# connection set validator's reason for each
BAD_ELEMENTS = {2.5: "not-an-integer", "1": "not-an-integer", 6: "out-of-range", -1: "out-of-range"}


def element_entry_points():
    """Every public entry point that takes element indices other than a
    connection set, on Z6 with inversion; each puts its argument where an
    element index goes."""
    z6 = build_group("cyclic:6")
    ctx = alpha_context(z6, inversion_automorphism(z6)[0])
    graph = graph_for(ctx, [1, 5])
    sub = subgroup(z6, [0, 3])
    subset = decide_subgroup_pc(sub, ctx).subset
    return {
        "subgroup": lambda x: subgroup(z6, [0, x]),
        "subgroup_closure": lambda x: subgroup_closure(z6, [x]),
        "is_perfect_code": lambda x: is_perfect_code(graph, [0, x]),
        "is_total_perfect_code": lambda x: is_total_perfect_code(graph, [0, x]),
        # the three neighborhood checks of graphs.CHECKS, run by evaluate
        "check_at_most_one": lambda x: evaluate("at-most-one", graph, [0, x]),
        "check_dominates": lambda x: evaluate("dominates", graph, [0, x]),
        "check_independent": lambda x: evaluate("independent", graph, [0, x]),
        "is_gc_transversal": lambda x: is_gc_transversal(ctx, sub, [0, x]),
        "transport_conjugate": lambda x: transport_conjugate(sub, subset, x),
    }


@pytest.mark.parametrize("value", list(BAD_ELEMENTS))
@pytest.mark.parametrize("entry", sorted(element_entry_points()))
def test_element_indices_are_checked_never_cast(entry, value):
    with pytest.raises(ValueError) as err:
        element_entry_points()[entry](value)
    assert repr(value) in str(err.value).split()


@pytest.mark.parametrize("value", list(BAD_ELEMENTS))
def test_connection_set_elements_are_checked_never_cast(z6_ctx, value):
    expected = (BAD_ELEMENTS[value], value)
    assert subset_violation(z6_ctx, [1, value, 5]) == expected
    with pytest.raises(SubsetInvalidError) as err:
        validate_subset(z6_ctx, [1, value, 5])
    assert (err.value.reason, err.value.witness) == expected


def test_connection_set_integer_rule(z6_ctx):
    # not-an-integer comes before out-of-range, a float past the range is
    # out of range, and a bool is the int it equals
    assert subset_violation(z6_ctx, [7, 2.5]) == ("not-an-integer", 2.5)
    assert subset_violation(z6_ctx, [7.5, 9]) == ("out-of-range", 7.5)
    assert subset_violation(z6_ctx, [2.0]) == ("not-an-integer", 2.0)
    assert validate_subset(z6_ctx, [True, 5]).elements == (1, 5)


@pytest.mark.parametrize("transport", ["conjugate", "automorphism"])
def test_transports_reject_unknown_code_kinds(z6_ctx, transport):
    # a valid perfect-code pair; "pc" is no kind, not a total code
    sub = subgroup(z6_ctx.group, [0, 3])
    subset = decide_subgroup_pc(sub, z6_ctx).subset
    move = {
        "conjugate": lambda kind: transport_conjugate(sub, subset, 0, kind),
        "automorphism": lambda kind: transport_automorphism(sub, subset, z6_ctx.alpha, kind),
    }[transport]
    assert move("perfect")
    with pytest.raises(ValueError, match="kind must be one of"):
        move("pc")
