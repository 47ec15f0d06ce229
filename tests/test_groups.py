import json
import pickle
import random
import re

import pytest

from gencayley import (
    GroupFileError,
    GroupValidationError,
    SubgroupHandle,
    ThresholdError,
    build_group,
    catalog,
    census_records,
    cosets,
    decide_subgroup_pc,
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    enumerate_subgroups,
    load_group_file,
    noncommuting_pair,
    normalizer,
    product_automorphism,
    restrict_witness,
    subgroup,
    subgroup_closure,
)
import gencayley.groups as groups_module
from gencayley._bits import elems
from gencayley.groups import (
    abelian_group,
    cyclic_group,
    direct_product,
    first_axiom_violation,
    group_from_table,
)
from gencayley.verify import associativity_violations, subgroups_by_generators
from oracles import subgroups_by_bfs


def test_trivial_group():
    g = build_group("cyclic:1")
    assert g.order == 1
    assert g.table == ((0,),)
    assert [s.elements for s in enumerate_subgroups(g)] == [(0,)]


def test_cyclic_six_is_residue_addition(z6):
    assert z6.table[2][5] == 1
    assert z6.inv == (0, 5, 4, 3, 2, 1)
    assert z6.is_abelian


def test_dihedral_three_nonabelian():
    d3 = build_group("dihedral:3")
    assert d3.order == 6
    pair = noncommuting_pair(d3)
    assert pair is not None
    a, b = pair
    assert d3.table[a][b] != d3.table[b][a]


@pytest.mark.parametrize(
    "spec, order, abelian",
    [
        ("cyclic:8", 8, True),
        ("dihedral:4", 8, False),
        ("symmetric:4", 24, False),
        ("abelian:2,4", 8, True),
        ("Z2xZ4", 8, True),
        ("V4", 4, True),
        ("dihedral:3xcyclic:2", 12, False),
    ],
)
def test_catalog_constructions(spec, order, abelian):
    g = build_group(spec)
    assert g.order == order
    assert g.is_abelian == abelian
    assert all(g.table[0][b] == b for b in range(order))
    assert all(g.table[a][g.inv[a]] == 0 for a in range(order))


def test_direct_product_numbering():
    g = build_group("Z2xZ3")
    # (a1, b1) * (a2, b2) with index 3*a + b
    assert g.table[1 * 3 + 2][1 * 3 + 2] == ((1 + 1) % 2) * 3 + (2 + 2) % 3
    assert g.id == "Z2xZ3"
    # the literal pair numbering x = x1 * n2 + x2 is the reference for the
    # table, the names and componentwise automorphisms
    pairs = 0
    for g1 in catalog(6):
        for g2 in catalog(6):
            n2 = g2.order
            t1, t2 = g1.table, g2.table
            prod = direct_product(g1, g2)
            assert prod.table == tuple(
                tuple(t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2] for b in range(prod.order))
                for a in range(prod.order)
            ), prod.id
            assert prod.names == tuple(
                f"({g1.names[a // n2]},{g2.names[a % n2]})" for a in range(prod.order)
            )
            for a1 in enumerate_involutory_automorphisms(g1, include_identity=True):
                for a2 in enumerate_involutory_automorphisms(g2, include_identity=True):
                    pairs += 1
                    beta = product_automorphism(a1, a2, prod)
                    assert beta.perm == tuple(
                        a1.perm[x // n2] * n2 + a2.perm[x % n2] for x in range(prod.order)
                    )
    assert pairs == 484


def test_symmetric_group_composition():
    s3 = build_group("symmetric:3")
    assert s3.order == 6
    assert s3.names[0] == "()"
    # composition associativity spot check plus order profile
    orders = sorted(s3.element_orders)
    assert orders == [1, 2, 2, 2, 3, 3]


def test_unsupported_spec():
    with pytest.raises(ValueError):
        build_group("quaternion:8")
    with pytest.raises(ThresholdError):
        build_group("symmetric:6")


@pytest.mark.parametrize(
    "spec", ["Z2x", "xZ3", "Z2xxZ3", "abelian:2,x", "abelian:2,,3", "abelian:", "", " x "]
)
def test_empty_spec_parts_are_refused(spec):
    # an empty atom or abelian factor once dropped out: Z2x built Z2 and
    # abelian:2,,3 built Z2xZ3
    with pytest.raises(ValueError) as err:
        build_group(spec)
    assert repr(spec) in str(err.value)


def test_subgroups_z6(z6):
    subs = [s.elements for s in enumerate_subgroups(z6)]
    assert subs == [(0,), (0, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5)]
    assert {s.elements for s in enumerate_subgroups(z6)} == subgroups_by_generators(z6, 1)


def test_subgroups_v4(v4):
    subs = enumerate_subgroups(v4)
    assert len(subs) == 5
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 4]


@pytest.mark.parametrize("spec", ["cyclic:12", "dihedral:4", "symmetric:3", "abelian:3,3"])
def test_subgroup_oracle_two_generated(spec):
    g = build_group(spec)
    assert {s.elements for s in enumerate_subgroups(g)} == subgroups_by_generators(g, 2)


def test_subgroup_oracle_three_generated():
    g = build_group("abelian:2,2,2")
    listed = {s.elements for s in enumerate_subgroups(g)}
    assert listed == subgroups_by_generators(g, 3)
    assert len(listed) == 16  # subgroup count of the rank-3 elementary abelian group


def test_subgroups_match_the_closure_of_every_element():
    # closing <H, g> for one g per right coset Hg lists the same subgroups,
    # in the same order, as closing it for every g outside H
    products = [
        build_group(spec)
        for spec in ("symmetric:3xsymmetric:3", "dihedral:3xcyclic:6", "dihedral:4xcyclic:2")
    ]
    larger = [g for g in catalog(48) if g.order > 24]
    counts = {}
    for label, groups in (("catalog", catalog(24)), ("products", products), ("larger", larger)):
        counts[label] = 0
        for group in groups:
            listed = [s.elements for s in enumerate_subgroups(group)]
            assert listed == subgroups_by_bfs(group), group.id
            counts[label] += len(listed)
    assert counts == {"catalog": 510, "products": 131, "larger": 1576}


def test_elementary_abelian_subgroups_are_the_subspaces():
    # Z2^k is the vector space F2^k and its subgroups are the subspaces;
    # Z2^6 has order 64, the enumeration limit
    for k, count in enumerate((2, 5, 16, 67, 374, 2825), start=1):
        group = build_group("abelian:" + ",".join(["2"] * k))
        listed = [s.elements for s in enumerate_subgroups(group)]
        assert len(set(listed)) == len(listed) == count, k
    assert group.order == groups_module.SUBGROUP_ENUM_LIMIT


def test_subgroup_enumeration_threshold():
    with pytest.raises(ThresholdError):
        enumerate_subgroups(build_group("symmetric:5"))


def test_subgroup_validation(z6):
    with pytest.raises(GroupValidationError):
        subgroup(z6, [0, 1])  # not closed
    with pytest.raises(GroupValidationError):
        subgroup(z6, [1, 2])  # missing identity
    assert subgroup_closure(z6, (2,)) == (0, 2, 4)


def test_subgroup_handle_shared_within_a_group(z6):
    h = subgroup(z6, [0, 3])
    assert subgroup(z6, (3, 0, 3)) is h
    assert cosets(h, "left") is cosets(subgroup(z6, [3, 0]), "left")
    # the cached decompositions are filled only by cosets(), never passed in
    with pytest.raises(TypeError):
        SubgroupHandle((0, 3), z6, {})
    # the mask is the registry key, passed by keyword when the handle is built
    assert h.mask == 0b1001 and z6.cache.subgroups[0b1001] is h
    with pytest.raises(TypeError):
        SubgroupHandle((0, 3), z6, 0b1001)


def test_lattice_and_subgroup_share_handles():
    # the lattice registers the subgroups it closes in the handle cache, so
    # coset decompositions made through either route are kept once
    group = abelian_group([2, 4])
    assert group.cache.subgroups == {}
    for h in enumerate_subgroups(group):
        assert subgroup(group, h.elements) is h
    group = abelian_group([2, 4])
    early = subgroup(group, [0, 2])
    (listed,) = [h for h in enumerate_subgroups(group) if h.elements == early.elements]
    assert listed is early


def test_subgroup_handles_distinct_across_groups(z6):
    twin = build_group("Z6")
    assert twin is not z6 and twin.table == z6.table
    h, h_twin = subgroup(z6, [0, 2, 4]), subgroup(twin, [0, 2, 4])
    assert h is not h_twin
    assert h.parent is z6 and h_twin.parent is twin


def test_failed_subgroup_raises_every_time(z6):
    for _ in range(2):
        with pytest.raises(GroupValidationError):
            subgroup(z6, [0, 1])
    assert 0b11 not in z6.cache.subgroups


def _cosets_by_definition(group, elements, side):
    t = group.table
    blocks = {
        tuple(sorted(t[h][g] if side == "right" else t[g][h] for h in elements))
        for g in range(group.order)
    }
    return sorted(blocks, key=lambda b: b[0])


@pytest.mark.parametrize("side", ["left", "right"])
def test_cached_cosets_match_recomputation(side):
    groups = catalog(24) + [build_group("S3xS3"), build_group("D4xZ2")]
    for group in groups:
        for sub in enumerate_subgroups(group):
            dec = cosets(sub, side)
            assert cosets(sub, side) is dec
            blocks = _cosets_by_definition(group, sub.elements, side)
            assert dec.masks == tuple(sum(1 << x for x in block) for block in blocks)
            assert len(dec.rep_of) == group.order
            for idx, block in enumerate(blocks):
                assert all(dec.rep_of[x] == idx for x in block)


def test_pickle_leaves_caches_out():
    group = pickle.loads(pickle.dumps(build_group("dihedral:4")))
    assert group.cache.subgroups == {} and group.cache.automorphisms is None
    assert group.cache.involutions is None
    before = len(pickle.dumps(group))
    enumerate_subgroups(group)
    enumerate_automorphisms(group)
    enumerate_involutory_automorphisms(group)
    assert group.cache.subgroups and group.cache.automorphisms and group.cache.involutions
    assert len(pickle.dumps(group)) == before
    copy = pickle.loads(pickle.dumps(group))
    assert copy.table == group.table and copy.cache.subgroups == {}


def test_bit_rows_are_the_product_bits():
    # every catalog group to order 24, and a product past 64 bits
    big = direct_product(build_group("cyclic:12"), build_group("symmetric:3"))
    assert big.order == 72
    for group in catalog(24) + [big]:
        assert group.bit_rows == tuple(tuple(1 << c for c in row) for row in group.table)


def test_pickle_leaves_bit_rows_out():
    group = build_group("dihedral:5")
    rows = group.bit_rows
    copy = pickle.loads(pickle.dumps(group))
    assert "bit_rows" in group.__dict__ and "bit_rows" not in copy.__dict__
    assert copy.bit_rows == rows


def test_census_builds_no_bit_rows():
    # the census decides on cosets and masks and builds no graph, so its
    # groups stay without bit rows and its memory as it was
    groups = catalog(8)
    for group in groups:
        group.__dict__.pop("bit_rows", None)
    assert census_records(8)
    assert [g.id for g in groups if "bit_rows" in g.__dict__] == []


def test_cosets_z6(z6):
    h = subgroup(z6, [0, 3])
    dec = cosets(h, "right")
    assert [elems(m) for m in dec.masks] == [(0, 3), (1, 4), (2, 5)]
    assert dec.rep_of == (0, 1, 2, 0, 1, 2)
    whole = cosets(subgroup(z6, range(6)), "right")
    assert whole.masks == (0b111111,)


def test_cosets_normal_subgroup_sides_agree():
    d3 = build_group("dihedral:3")
    rot = subgroup(d3, [0, 1, 2])
    left = cosets(rot, "left")
    right = cosets(rot, "right")
    assert left.masks == right.masks  # index 2 forces both sides equal


def test_normalizer():
    d4 = build_group("dihedral:4")
    h = subgroup(d4, [0, 4])  # one reflection
    n = normalizer(h)
    assert n.elements == (0, 2, 4, 6)
    assert normalizer(subgroup(d4, range(8))).order == 8
    z6 = build_group("cyclic:6")
    assert normalizer(subgroup(z6, [0, 3])).order == 6


def test_group_from_table_renumbers_identity():
    # Z2 written with the identity as element 1
    data = {"name": "flipped", "order": 2, "table": [[1, 0], [0, 1]]}
    g = group_from_table(data)
    assert g.table == ((0, 1), (1, 0))
    # Z3 with the identity as element 2: elements 0 and 2 swap, names too
    data = {
        "name": "C3",
        "order": 3,
        "table": [[1, 2, 0], [2, 0, 1], [0, 1, 2]],
        "names": ["a", "b", "e"],
    }
    g = group_from_table(data)
    assert g.names == ("e", "b", "a")
    assert g.table == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: subgroup(build_group("cyclic:4"), [0, 1, 3]),
            GroupValidationError,
            "group axiom violated: subgroup-closure, witness (1, 1, 2)",
        ),
        (
            lambda: cosets(subgroup(build_group("cyclic:4"), [0, 2]), "up"),
            ValueError,
            "side must be 'left' or 'right', got 'up'",
        ),
    ],
    ids=["subgroup-closure", "coset-side"],
)
def test_group_inputs_are_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_duplicate_element_names_rejected():
    # the indexes are the file's, before the identity is renumbered to 0
    data = {"name": "flipped", "order": 2, "table": [[1, 0], [0, 1]], "names": ["7", "7"]}
    with pytest.raises(GroupFileError, match="field 'names' repeats '7' at indexes 0 and 1"):
        group_from_table(data)
    # a name is a JSON string: 7 is not cast to "7"
    data["names"] = [7, "a"]
    with pytest.raises(GroupFileError, match="field 'names' entry 0 = 7 is not a string"):
        group_from_table(data)
    # the shared constructor refuses them too, so no name map is ambiguous
    with pytest.raises(GroupValidationError, match=r"names, witness \(0, 2\)"):
        groups_module._finish_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]], "Z3", ["e", "a", "e"])


def test_group_file_roundtrip(tmp_path, z6):
    path = tmp_path / "z6.json"
    path.write_text(
        json.dumps(
            {
                "name": "Z6-file",
                "order": 6,
                "table": [list(row) for row in z6.table],
                "names": list(z6.names),
            }
        )
    )
    g = load_group_file(path)
    assert g.table == z6.table
    assert g.id == "Z6-file"


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("{not json", "line 1"),
        ('{"name": "x", "order": 2}', "missing field 'table'"),
        ('{"name": "x", "order": 2, "table": [[0, 1]]}', "field 'table'"),
        (
            '{"name": "x", "order": 2, "table": [[0, 1], [1]]}',
            "field 'table' row 1 must have 2 entries",
        ),
        ('{"name": "x", "order": 2, "table": [[0, 1], [1, 7]]}', "[1][1]"),
        (
            '{"name": "x", "order": 2, "table": [[0, 1], [1, 0]], "names": ["e"]}',
            "field 'names' must list 2 strings",
        ),
        (
            '{"name": "x", "order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]}',
            "group axiom violated: latin-column, witness (1,)",
        ),
        ("[1, 2]", "top-level value must be an object"),
        ('{"name": "x", "order": 2, "table": [[0, 1], [1, 1]]}', "latin-row"),
        ('{"name": "x", "order": 2, "table": [[1, 0], [1, 0]]}', "identity"),
    ],
)
def test_group_file_diagnostics(tmp_path, payload, fragment):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(GroupFileError) as err:
        load_group_file(path)
    assert fragment in str(err.value)


def test_bad_table_reports_first_axiom():
    # associativity violation witness: a valid Latin square that is not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupFileError) as err:
        group_from_table({"name": "bad", "order": 5, "table": table})
    assert "associativity" in str(err.value)
    assert "witness" in str(err.value)


def _xor_loop(k, rng):
    """Z2^k with one intercalate swapped: rows a, b and columns c, d = c*a*b,
    none of them the identity. The result is a loop that is not a group."""
    n = 1 << k
    table = [[x ^ y for y in range(n)] for x in range(n)]
    a, b = rng.sample(range(1, n), 2)
    c = rng.choice([c for c in range(1, n) if c != a ^ b])
    d = c ^ a ^ b
    for r in (a, b):
        table[r][c], table[r][d] = table[r][d], table[r][c]
    return table


def _assert_agrees_with_triple_scan(table):
    verdict = first_axiom_violation(table)
    first = next(associativity_violations(table), None)
    assert (verdict is None) == (first is None), (verdict, first)
    if verdict is not None:
        axiom, (x, a, y) = verdict
        assert axiom == "associativity"
        assert table[table[x][a]][y] != table[x][table[a][y]]


def test_axiom_checker_matches_triple_scan_on_catalog():
    groups = catalog(24)
    assert len(groups) > 40
    for group in groups:
        _assert_agrees_with_triple_scan(group.table)


def _reduced_latin_squares(n):
    """Every n x n Latin square with first row and column 0..n-1: every
    loop table of order n with identity 0."""
    table = [list(range(n))] + [[r] + [None] * (n - 1) for r in range(1, n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(i):
        if i == len(cells):
            yield [row[:] for row in table]
            return
        r, c = cells[i]
        used = set(table[r][:c]) | {table[q][c] for q in range(r)}
        for v in range(n):
            if v not in used:
                table[r][c] = v
                yield from fill(i + 1)
        table[r][c] = None

    return fill(0)


def test_axiom_checker_matches_triple_scan_on_every_small_loop():
    # every element of Gamma matters here: with its first or its last one
    # left unchecked, the checker passes over 4,000 of these loops
    nonassociative = 0
    for n, count in ((1, 1), (2, 1), (3, 1), (4, 4), (5, 56), (6, 9408)):
        tables = list(_reduced_latin_squares(n))
        assert len(tables) == count
        for table in tables:
            _assert_agrees_with_triple_scan(table)
            nonassociative += first_axiom_violation(table) is not None
    assert nonassociative > 9000


@pytest.mark.parametrize("k", [3, 5, 6])
def test_axiom_checker_matches_triple_scan_on_loops(k):
    rng = random.Random(k)
    for _ in range(5):
        table = _xor_loop(k, rng)
        assert next(associativity_violations(table), None) is not None
        _assert_agrees_with_triple_scan(table)


@pytest.mark.parametrize("k", [5, 6])
def test_group_from_table_rejects_large_loop(k):
    table = _xor_loop(k, random.Random(k))
    with pytest.raises(GroupFileError) as err:
        group_from_table({"name": "loop", "order": 1 << k, "table": table})
    assert "associativity" in str(err.value)


def test_every_construction_goes_through_the_checker(monkeypatch, z6, z6_ctx):
    z2 = cyclic_group(2)
    sub = subgroup(z6, [0, 3])
    subset = decide_subgroup_pc(sub, z6_ctx).subset
    monkeypatch.setattr(
        groups_module, "first_axiom_violation", lambda table: ("associativity", (0, 0, 0))
    )
    for build in (
        lambda: cyclic_group(3),
        lambda: direct_product(z2, z2),
        lambda: group_from_table({"name": "Z2", "order": 2, "table": [[0, 1], [1, 0]]}),
        lambda: restrict_witness(sub, subset, sub),
    ):
        with pytest.raises((GroupValidationError, GroupFileError), match="associativity"):
            build()
