import itertools
import json
import math
import pickle
import random
import re

import pytest

from gencayley import (
    GenCayleyError,
    GroupFileError,
    alpha_context,
    automorphism_from_perm,
    build_group,
    catalog,
    decide_subgroup_pc,
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    inversion_automorphism,
    involution_contexts,
    load_automorphism,
    product_automorphism,
    subgroup,
    transport_automorphism,
)
import gencayley.automorphisms as automorphisms_module
from gencayley.automorphisms import _is_homomorphism
from gencayley.groups import _right_generators
from gencayley.verify import involutions_by_bijections
from oracles import context_sets_by_definition, homomorphism_fault_by_pairs, tau_orbits_by_scan


def _fresh(spec):
    """The group of ``spec`` with an empty cache (pickling drops the cache)."""
    return pickle.loads(pickle.dumps(build_group(spec)))


def test_involutions_z6_single(z6):
    alphas = enumerate_involutory_automorphisms(z6)
    assert [a.perm for a in alphas] == [(0, 5, 4, 3, 2, 1)]  # g -> 5g


def test_involutions_z8_three():
    z8 = build_group("cyclic:8")
    alphas = enumerate_involutory_automorphisms(z8)
    # multiplication by 3, 5 and 7
    assert [a.perm for a in alphas] == [
        tuple((3 * g) % 8 for g in range(8)),
        tuple((5 * g) % 8 for g in range(8)),
        tuple((7 * g) % 8 for g in range(8)),
    ]


def test_involutions_v4_three(v4):
    assert len(enumerate_involutory_automorphisms(v4)) == 3


@pytest.mark.parametrize(
    "spec", ["cyclic:3", "cyclic:4", "cyclic:6", "V4", "dihedral:3", "cyclic:8", "abelian:2,4"]
)
def test_involutions_match_bijection_oracle(spec):
    g = build_group(spec)
    listed = [a.perm for a in enumerate_involutory_automorphisms(g)]
    assert listed == involutions_by_bijections(g)


def test_include_identity_flag(z6):
    with_id = enumerate_involutory_automorphisms(z6, include_identity=True)
    assert with_id[0].perm == tuple(range(6))
    assert len(with_id) == 2
    z2_4 = build_group("abelian:2,2,2,2")
    with_id = enumerate_involutory_automorphisms(z2_4, include_identity=True)
    assert with_id[0].is_identity
    assert [a.perm for a in with_id[1:]] == [
        a.perm for a in enumerate_involutory_automorphisms(z2_4)
    ]


def test_involutions_equal_filtered_aut_on_catalog():
    # the direct search against the full listing, perm for perm and in order
    groups = catalog(24)
    assert "Z2xZ2xZ2xZ2" in {g.id for g in groups}
    for group in groups:
        direct = [a.perm for a in enumerate_involutory_automorphisms(group)]
        filtered = [
            a.perm
            for a in enumerate_automorphisms(group)
            if a.squares_to_identity and not a.is_identity
        ]
        assert direct == filtered, group.id


def test_involutions_do_not_list_aut():
    group = _fresh("abelian:2,2,2,2")
    assert len(enumerate_involutory_automorphisms(group)) == 315
    assert group.cache.automorphisms is None
    assert enumerate_involutory_automorphisms(group) is group.cache.involutions


@pytest.mark.parametrize(
    "spec, count",
    [
        # nonzero N with N^2 = 0 over GF(2)^r: sum over ranks k of
        # [r k]_2 * [r-k k]_2 * |GL(k, 2)|
        ("abelian:2,2,2,2", 105 + 210),
        ("abelian:2,2,2,2,2", 465 + 6510),
    ],
)
def test_elementary_abelian_involution_counts(spec, count):
    alphas = enumerate_involutory_automorphisms(_fresh(spec))
    assert len(alphas) == count
    assert all(a.squares_to_identity and not a.is_identity for a in alphas)
    assert len({a.perm for a in alphas}) == count


def test_leaf_check_raises_without_assert(monkeypatch):
    # a leaf failing the homomorphism law is an error under -O as well
    monkeypatch.setattr(automorphisms_module, "_is_homomorphism", lambda group, perm: (1, 1))
    with pytest.raises(GenCayleyError, match="homomorphism"):
        enumerate_automorphisms(_fresh("V4"))
    with pytest.raises(GenCayleyError, match="homomorphism"):
        enumerate_involutory_automorphisms(_fresh("V4"))


def test_inversion_cases(z6, v4):
    auto, reason = inversion_automorphism(z6)
    assert auto.perm == (0, 5, 4, 3, 2, 1) and reason is None
    auto, reason = inversion_automorphism(v4)
    assert auto is None and reason == "equals-identity"
    auto, reason = inversion_automorphism(build_group("dihedral:3"))
    assert auto is None and reason == "nonabelian"


def test_alpha_context_z6(z6_ctx):
    assert z6_ctx.omega == (0, 2, 4)
    assert z6_ctx.big_omega == (1, 3, 5)
    assert z6_ctx.mho == ()
    assert z6_ctx.fix == (0, 3)
    assert z6_ctx.k_set == (0, 1, 2, 3, 4, 5)
    assert z6_ctx.tau_orbits == ((1,), (3,), (5,))


def test_alpha_context_z4(z4_ctx):
    assert z4_ctx.omega == (0, 2)
    assert z4_ctx.big_omega == (1, 3)
    assert z4_ctx.mho == ()
    assert z4_ctx.fix == (0, 2)


def test_alpha_context_v4_swap(v4_swap_ctx):
    assert v4_swap_ctx.omega == (0, 3)  # identity and the product of the two generators
    assert v4_swap_ctx.big_omega == ()
    assert v4_swap_ctx.mho == (1, 2)
    assert v4_swap_ctx.tau_orbits == ((1, 2),)


def test_contexts_match_definitions():
    # every involution of catalog(24) and of three products, and the
    # identity of each group, against the comprehensions of the definitions
    groups = catalog(24)
    assert sum(len(enumerate_involutory_automorphisms(g)) for g in groups) == 667
    groups += [build_group(s) for s in ("S3xS3", "D3xZ6", "D4xZ2")]
    for group in groups:
        for alpha in enumerate_involutory_automorphisms(group, include_identity=True):
            want = context_sets_by_definition(group, alpha.perm)
            ctx = alpha_context(group, alpha)
            assert {name: getattr(ctx, name) for name in want} == want, (group.id, alpha.perm)


def test_tau_orbits_read_from_the_masks_match_the_scan():
    # Z2^5 alone has 9,765 involutions, which add nothing the scan tells apart
    contexts = [
        ctx
        for group in catalog(32)
        if group.id != "Z2xZ2xZ2xZ2xZ2"
        for ctx in involution_contexts(group)
    ]
    assert len(contexts) == 1934
    for ctx in contexts:
        assert ctx.tau_orbits == tau_orbits_by_scan(ctx), (ctx.group.id, ctx.alpha.perm)


def test_alpha_context_rejects_non_involution():
    z5 = build_group("cyclic:5")
    doubling = automorphism_from_perm(z5, tuple((2 * g) % 5 for g in range(5)))
    with pytest.raises(GenCayleyError):
        alpha_context(z5, doubling)


def test_automorphism_validation(z6):
    with pytest.raises(GenCayleyError):
        automorphism_from_perm(z6, (1, 0, 2, 3, 4, 5))  # moves the identity
    # the fault is reported at a generator edge (a, g) of Z6, whose one
    # generator is 1: 2 -> 1 breaks perm[1 + 1] = perm[1] + perm[1]
    with pytest.raises(GenCayleyError, match=re.escape("not a homomorphism: fails at pair (1, 1)")):
        automorphism_from_perm(z6, (0, 2, 1, 3, 4, 5))


def _small_maps():
    """Every bijection of S3 and every map of Z4 and of V4, with the number
    of them that are homomorphisms: |Aut(S3)| = 6, and the endomorphisms
    x -> kx of Z4 and the 16 linear maps of V4 = GF(2)^2."""
    return [
        ("symmetric:3", list(itertools.permutations(range(6))), 6),
        ("cyclic:4", list(itertools.product(range(4), repeat=4)), 4),
        ("V4", list(itertools.product(range(4), repeat=4)), 16),
    ]


def _order_24_maps(group, rng):
    """Each involution, the near miss that swaps two of its images, and 40
    seeded random bijections and 40 seeded random maps, each as drawn and
    with perm[0] = 0."""
    n = group.order
    maps = []
    for alpha in enumerate_involutory_automorphisms(group):
        near = list(alpha.perm)
        i, j = rng.sample(range(1, n), 2)
        near[i], near[j] = near[j], near[i]
        maps += [alpha.perm, tuple(near)]
    for _ in range(40):
        bijection = rng.sample(range(n), n)
        k = bijection.index(0)
        fixed = bijection[:]
        fixed[0], fixed[k] = fixed[k], fixed[0]
        anymap = [rng.randrange(n) for _ in range(n)]
        maps += [tuple(bijection), tuple(fixed), tuple(anymap), (0, *anymap[1:])]
    return maps


def _assert_same_verdicts(group, maps) -> int:
    """The edge test and the literal law agree on every map, and each fault
    the edge test reports is a real one at a generator edge; returns how
    many maps pass."""
    t = group.table
    passed = 0
    for perm in maps:
        got = _is_homomorphism(group, perm)
        assert (got is None) == (homomorphism_fault_by_pairs(group, perm) is None), (group.id, perm)
        if got is None:
            passed += 1
        else:
            a, g = got
            assert g in group.generators and perm[t[a][g]] != t[perm[a]][perm[g]], (group.id, perm)
    return passed


def test_generator_edges_decide_the_homomorphism_law():
    for spec, maps, homomorphisms in _small_maps():
        assert _assert_same_verdicts(build_group(spec), maps) == homomorphisms, spec
    rng = random.Random(0)
    groups = [g for g in catalog(24) if g.order == 24]
    assert [g.id for g in groups] == ["D12", "S4", "Z24", "Z2xZ12", "Z2xZ2xZ6"]
    for group in groups:
        maps = _order_24_maps(group, rng)
        # the involutions pass, and nothing else is drawn that would
        assert _assert_same_verdicts(group, maps) == len(enumerate_involutory_automorphisms(group))


def test_the_law_needs_every_generator():
    # the mutation: the last generator dropped from the edge test. On V4 the
    # edges of its first generator 1 alone decide the law (perm[2] is free
    # and sets perm[3] = perm[2]perm[1]), so S3 and Z4 are the ones to see it
    for spec, maps, _ in _small_maps()[:2]:
        group = _fresh(spec)
        group.__dict__["generators"] = group.generators[:-1]
        assert any(
            _is_homomorphism(group, perm) is None
            and homomorphism_fault_by_pairs(group, perm) is not None
            for perm in maps
        ), spec


def test_generators_are_derived_and_not_pickled():
    for group in catalog(24):
        assert group.generators == tuple(_right_generators(group.table)), group.id
        assert "generators" in vars(group)
        assert "generators" not in vars(pickle.loads(pickle.dumps(group)))


def _inversion(spec):
    return inversion_automorphism(build_group(spec))[0]


def _json_file(path, value):
    path.write_text(json.dumps(value))
    return path


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda tmp: automorphism_from_perm(build_group("cyclic:4"), (0, 1, 1, 3)),
            GenCayleyError,
            "not a permutation of 0..3: (0, 1, 1, 3)",
        ),
        (
            # g -> 2g has order 4 on Z5
            lambda tmp: product_automorphism(
                automorphism_from_perm(build_group("cyclic:5"), (0, 2, 4, 1, 3)),
                _inversion("cyclic:5"),
                build_group("Z5xZ5"),
            ),
            GenCayleyError,
            "product automorphism requires both factors to square to identity",
        ),
        (
            lambda tmp: product_automorphism(
                _inversion("cyclic:3"), _inversion("cyclic:4"), build_group("cyclic:6")
            ),
            GenCayleyError,
            "product group order 6 != 3 * 4",
        ),
        (
            lambda tmp: load_automorphism(
                _json_file(tmp / "list.json", [1, 2]), build_group("cyclic:2")
            ),
            GroupFileError,
            "list.json: expected an object with field 'perm'",
        ),
        (
            lambda tmp: alpha_context(build_group("cyclic:6"), _inversion("cyclic:4")),
            GenCayleyError,
            "automorphism belongs to another group (Z4) than the one it is used with (Z6)",
        ),
    ],
    ids=["not-a-permutation", "factor-not-involution", "product-order", "perm-file-list",
         "context-of-another-group"],
)
def test_automorphism_inputs_are_refused(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)


def _transported_alpha(alpha, beta):
    """The involution a transport by beta carries the code pair (G, {}),
    perfect under every involution, to: beta.alpha.beta^-1."""
    group = alpha.parent
    whole = subgroup(group, range(group.order))
    pair = decide_subgroup_pc(whole, alpha_context(group, alpha))
    return transport_automorphism(whole, pair.subset, beta)[2].alpha.perm


def test_conjugation(z6, v4):
    alpha = enumerate_involutory_automorphisms(z6)[0]
    identity = automorphism_from_perm(z6, tuple(range(6)))
    assert _transported_alpha(alpha, identity) == alpha.perm
    assert _transported_alpha(alpha, alpha) == alpha.perm

    # a 3-cycle of Aut(V4) conjugates one generator swap into another
    swaps = enumerate_involutory_automorphisms(v4)
    cycle = next(
        a for a in enumerate_automorphisms(v4) if not a.squares_to_identity
    )
    conj = _transported_alpha(swaps[1], cycle)
    assert conj != swaps[1].perm
    assert conj in {s.perm for s in swaps}


def test_product_automorphism(z4, z4_ctx):
    prod = build_group("Z4xZ4")
    bar = product_automorphism(z4_ctx.alpha, z4_ctx.alpha, prod)
    inv_perm, _ = inversion_automorphism(prod)
    assert bar.perm == inv_perm.perm  # componentwise inversion is global inversion

    identity = automorphism_from_perm(z4, tuple(range(4)))
    bar_id = product_automorphism(identity, identity, prod)
    assert bar_id.is_identity


def test_product_context_factorizes(z6_ctx, z4_ctx):
    prod = build_group("Z6xZ4")
    bar = product_automorphism(z6_ctx.alpha, z4_ctx.alpha, prod)
    ctx = alpha_context(prod, bar)
    expected_omega = sorted(a * 4 + b for a in z6_ctx.omega for b in z4_ctx.omega)
    assert list(ctx.omega) == expected_omega


def test_automorphism_file(tmp_path, z6):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({"perm": [0, 5, 4, 3, 2, 1]}))
    assert load_automorphism(path, z6).perm == (0, 5, 4, 3, 2, 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"perm": [0, 1]}))
    with pytest.raises(GroupFileError):
        load_automorphism(bad, z6)


def test_full_aut_enumeration_counts():
    # |Aut| spot checks: S3 is complete, the rank-2 elementary abelian group
    # has the full symmetric action on its involutions
    assert len(enumerate_automorphisms(build_group("symmetric:3"))) == 6
    assert len(enumerate_automorphisms(build_group("V4"))) == 6
    assert len(enumerate_automorphisms(build_group("cyclic:8"))) == 4


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@pytest.mark.parametrize(
    "spec, order",
    # every cyclic and dihedral group of catalog(24) against the closed
    # forms |Aut(Z_n)| = phi(n) and |Aut(D_n)| = n*phi(n), then products
    [(f"cyclic:{n}", _phi(n)) for n in range(1, 25)]
    + [(f"dihedral:{n}", n * _phi(n)) for n in range(3, 13)]
    + [
        ("abelian:2,2,2", 168),  # |GL(3, 2)|
        ("abelian:2,2,2,2", 20160),  # |GL(4, 2)|
        ("abelian:3,3", 48),  # |GL(2, 3)|
        ("abelian:2,4", 8),
        ("symmetric:4", 24),
        ("S3xS3", 72),
        ("D4xZ2", 64),
    ],
)
def test_full_aut_orders(spec, order):
    assert len(enumerate_automorphisms(build_group(spec))) == order
