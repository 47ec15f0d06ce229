"""Verification suites: every structural invariant and every cross-check
between independent evaluation routes, runnable from the CLI and from the
acceptance tests.

Each suite scans its instances in a fixed ascending order (groups by order
then id, involutions by index, subgroups by order then elements,
connection sets by orbit mask), so the first reported violation is a
smallest-style counterexample. The suites that visit every (group,
involution, subgroup) pair read it from one generator, :func:`_contexts`;
the census audit walks the census records alongside that scan, so a
record that is missing, extra or out of order is a violation too. Suites
return a :class:`SuiteResult`; an empty violation list means the suite
passed.
"""

from __future__ import annotations

import inspect
import random
import time
import zlib
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterator

from . import kernels
from ._bits import _check_size, bits, element_mask, elems, fmt_set
from .automorphisms import (
    alpha_context,
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    inversion_automorphism,
    involution_contexts,
    product_automorphism,
)
from .census import DEFAULT_CENSUS_MAX_ORDER, catalog, census_records
from .codes import (
    abelian_pc_criterion,
    alpha_preserves,
    build_witness_abelian,
    decide_subgroup_pc,
    decide_subgroup_tpc,
    image_subgroup,
    is_gc_transversal,
    transport_automorphism,
    verify_product_codes,
)
from .errors import GenCayleyError, GroupValidationError
from .graphs import (
    CHECKS,
    ROUTES,
    GenCayleyGraph,
    GenCayleySubset,
    build_graph,
    enumerate_subsets,
    subset_from_orbit_mask,
)
from .groups import (
    FiniteGroup,
    _product_elements,
    build_group,
    cosets,
    direct_product,
    enumerate_subgroups,
    first_axiom_violation,
    normalizer,
    subgroup,
    subgroup_closure,
)


@dataclass
class SuiteResult:
    name: str
    cases: int
    violations: list[str]
    seconds: float = 0.0  # wall time, filled in by _run_suite

    @property
    def ok(self) -> bool:
        return not self.violations


def _mix_seed(seed: int, *parts) -> int:
    text = "|".join(str(p) for p in parts)
    return seed ^ zlib.crc32(text.encode())


def _contexts(max_order: int, abelian: bool = False):
    """``(group, alpha index, context, subgroups)`` for every involution of
    the catalog up to ``max_order`` (its abelian groups only if
    ``abelian``), in scan order; a group's contexts share one subgroup list."""
    for group in catalog(max_order):
        if abelian and not group.is_abelian:
            continue
        subs = enumerate_subgroups(group)
        for ai, ctx in enumerate(involution_contexts(group)):
            yield group, ai, ctx, subs


def _graph_of(graphs: dict, subset: GenCayleySubset) -> GenCayleyGraph:
    """The graph of ``subset``, built once per connection set: ``graphs``
    is a suite's dict for one involution context, keyed by ``mask``."""
    graph = graphs.get(subset.mask)
    if graph is None:
        graph = graphs[subset.mask] = build_graph(subset)
    return graph


# ---------------------------------------------------------------------------
# structural suites


def associativity_violations(table):
    """Every triple (a, b, c) with (ab)c != a(bc), in lexicographic order:
    the literal O(n^3) reference for the axiom checker."""
    n = len(table)
    return (
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if table[table[a][b]][c] != table[a][table[b][c]]
    )


def suite_group_axioms(max_order: int = 24) -> SuiteResult:
    """Every catalog group passes the package's axiom checker, which
    decides the Latin property and exact associativity; the suite checks
    the identity (element 0) and a * inv[a] = e against the table itself
    (not inv[a] * a = e: in an associative table a right inverse is
    two-sided), and up to order 24 a literal triple scan finds no
    associativity violation either."""
    violations = []
    cases = 0
    for group in catalog(max_order):
        cases += 1
        n = group.order
        t = group.table
        bad = None
        checker = first_axiom_violation(t)
        if checker is not None:
            bad = f"{checker[0]} at {checker[1]}"
        elif any(t[0][b] != b for b in range(n)) or any(t[a][0] != a for a in range(n)):
            bad = "identity"
        elif any(t[a][group.inv[a]] != 0 for a in range(n)):
            bad = "inverse"
        elif n <= 24:
            triple = next(associativity_violations(t), None)
            if triple is not None:
                bad = f"associativity at {triple} (triple scan)"
        if bad:
            violations.append(f"group={group.id}: {bad}")
    return SuiteResult("group-axioms", cases, violations)


# groups whose whole subgroup lattice is 2-generated, so the closure oracle
# below is complete for them with two generators
TWO_GENERATED_SPECS = (
    "cyclic:6",
    "V4",
    "cyclic:12",
    "dihedral:4",
    "dihedral:6",
    "symmetric:3",
    "abelian:2,4",
    "abelian:3,3",
    "dihedral:8",
    "symmetric:4",
)


def subgroups_by_generators(group: FiniteGroup, max_generators: int) -> set[tuple[int, ...]]:
    """Independent subgroup enumeration: close every set of at most
    ``max_generators`` generators."""
    found = {(0,)}
    for k in range(1, max_generators + 1):
        for gens in combinations(range(group.order), k):
            found.add(subgroup_closure(group, gens))
    return found


def suite_subgroup_oracle() -> SuiteResult:
    violations = []
    cases = 0
    for spec in TWO_GENERATED_SPECS:
        group = build_group(spec)
        cases += 1
        listed = {s.elements for s in enumerate_subgroups(group)}
        oracle = subgroups_by_generators(group, 2)
        if listed != oracle:
            violations.append(
                f"group={group.id}: enumeration {len(listed)} != oracle {len(oracle)}"
            )
    return SuiteResult("subgroup-oracle", cases, violations)


def suite_coset_partitions(max_order: int = 12) -> SuiteResult:
    """Each subgroup H's cosets and normalizer equal their definitions,
    computed here: on each side the first block is H, each block is the
    coset of its least element g (Hg right, gH left; so no size test),
    ``rep_of`` names its block, the blocks cover G, and N(H) is
    {g : g^-1 H g in H}, which is {g : g^-1 H g = H} for a finite H."""
    violations = []
    cases = 0
    for group in catalog(max_order):
        n, t, inv = group.order, group.table, group.inv
        for sub in enumerate_subgroups(group):
            h, hm = sub.elements, sub.mask
            for side in ("left", "right"):
                cases += 1
                dec = cosets(sub, side)
                union, ok = 0, dec.masks[0] == hm
                for ci, cm in enumerate(dec.masks):  # blocks that agree with rep_of are disjoint
                    g = (cm & -cm).bit_length() - 1
                    coset = element_mask(n, [t[x][g] if side == "right" else t[g][x] for x in h])
                    ok &= cm == coset and all(dec.rep_of[x] == ci for x in bits(cm))
                    union |= cm
                if union != (1 << n) - 1 or not ok:
                    violations.append(f"group={group.id} H={fmt_set(h)} side={side}: bad partition")
            norm = [g for g in range(n) if all(hm >> t[t[inv[g]][x]][g] & 1 for x in h)]
            if normalizer(sub).mask != element_mask(n, norm):
                violations.append(f"group={group.id} H={fmt_set(h)}: wrong normalizer")
    return SuiteResult("coset-partitions", cases, violations)


def involutions_by_bijections(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Brute-force oracle: all involutory automorphisms by scanning every
    bijection fixing the identity. Only sensible for tiny groups."""
    n = group.order
    t = group.table
    out = []
    for rest in permutations(range(1, n)):
        perm = (0,) + rest
        if any(perm[perm[i]] != i for i in range(n)):
            continue
        if all(perm[i] == i for i in range(n)):
            continue
        if all(
            perm[t[a][b]] == t[perm[a]][perm[b]] for a in range(n) for b in range(n)
        ):
            out.append(perm)
    return sorted(out)


# the largest order the bijection oracle scans: (n-1)! bijections
BIJECTION_ORACLE_ORDER = 8


def suite_alpha_invariants(max_order: int = 12) -> SuiteResult:
    """The involution list equals Aut(G) filtered to its involutions (and,
    up to order :data:`BIJECTION_ORACLE_ORDER`, a bijection oracle),
    inversion is listed where it applies, and each involution's derived
    objects equal their definitions: omega = {alpha(g^-1)g}, big_omega =
    K - omega for K = {g : alpha(g) = g^-1}, mho = G - K, tau(s) = alpha(s^-1).
    Nothing these imply for a listed involutory alpha is tested again; with
    w = alpha(g^-1)g, alpha(w) = w^-1 puts omega in K, so the sets partition
    G; e lies in omega; alpha(omega) = omega, as alpha(w) = alpha(h^-1)h for
    h = alpha(g); tau(tau(s)) = alpha(alpha(s)) = s; and tau(w) = w."""
    violations = []
    cases = 0
    for group in catalog(max_order):
        n, inv, table = group.order, group.inv, group.table
        full = (1 << n) - 1
        cases += 1
        listed = [ctx.alpha.perm for ctx in involution_contexts(group)]
        filtered = [
            a.perm
            for a in enumerate_automorphisms(group)
            if a.squares_to_identity and not a.is_identity
        ]
        if listed != filtered:
            violations.append(
                f"group={group.id}: involution list {len(listed)} != filtered Aut(G)"
                f" {len(filtered)} or differs in order"
            )
        if n <= BIJECTION_ORACLE_ORDER:
            cases += 1
            oracle = involutions_by_bijections(group)
            if sorted(listed) != oracle:
                violations.append(
                    f"group={group.id}: involution list {len(listed)} != bijection oracle {len(oracle)}"
                )
        inv_auto, reason = inversion_automorphism(group)
        if group.is_abelian:
            expected_present = group.exponent > 2
            if (inv_auto is not None) != expected_present:
                violations.append(f"group={group.id}: inversion availability wrong")
            if inv_auto is not None and inv_auto.perm not in listed:
                violations.append(f"group={group.id}: inversion missing from enumeration")
        elif reason != "nonabelian":
            violations.append(f"group={group.id}: inversion reason {reason!r}")
        for ai, ctx in enumerate(involution_contexts(group)):
            cases += 1
            perm = ctx.alpha.perm
            omega = element_mask(n, [table[perm[inv[g]]][g] for g in range(n)])
            k_set = element_mask(n, [g for g in range(n) if perm[g] == inv[g]])
            if (
                ctx.omega_mask != omega
                or ctx.big_omega_mask != k_set & ~omega
                or ctx.mho_mask != full & ~k_set
                or ctx.tau_perm != tuple([perm[inv[s]] for s in range(n)])
            ):
                violations.append(f"group={group.id} alpha={ai}: derived sets inconsistent")
    return SuiteResult("alpha-invariants", cases, violations)


# ---------------------------------------------------------------------------
# graph suites


def suite_graph_laws(max_order: int = 12) -> SuiteResult:
    """Every graph over the catalog is loop-free, symmetric and |S|-regular.

    The laws are read off the neighbor masks: no vertex has its own bit,
    every mask has |S| bits set, and every neighbor's mask has the vertex."""
    violations = []
    cases = 0
    for group, ai, ctx, _ in _contexts(max_order):
        for subset in enumerate_subsets(ctx):
            cases += 1
            graph = build_graph(subset)  # which does not check the laws itself
            ok = True
            for g in range(group.order):
                nm = graph.nbr_masks[g]
                if nm >> g & 1 or nm.bit_count() != subset.size:
                    ok = False
                for h in bits(nm):
                    if not graph.nbr_masks[h] >> g & 1:
                        ok = False
            if not ok:
                violations.append(
                    f"group={group.id} alpha={ai} S={fmt_set(subset.elements)}: graph law broken"
                )
    return SuiteResult("graph-laws", cases, violations)


# the verdict bits of each check's routes
_VERDICT_GROUPS = tuple(sum(modes.values()) for modes in CHECKS.values())

# the 32 verdicts in which every check's routes agree: each group all on or all off
CONSISTENT_VERDICTS = frozenset(
    sum(g for g, on in zip(_VERDICT_GROUPS, choice) if on)
    for choice in product((False, True), repeat=len(_VERDICT_GROUPS))
)


def reference_verdict(graph, xmask: int) -> int:
    """Recompute one verdict from the route table, one predicate per bit."""
    verdict = 0
    for bit, route in ROUTES.items():
        if route(graph, xmask):
            verdict |= bit
    return verdict


MODE_SAMPLES = 1000  # X per connection set above the exhaustive limit
REFERENCE_STRIDE = 97  # every 97th verdict is recomputed from the route table


def suite_mode_agreement(
    max_order: int = 12, seed: int = 0, exhaustive_limit: int = 10
) -> SuiteResult:
    """Every evaluation route of every check agrees on every tested X.

    Exhaustive over X for groups up to ``exhaustive_limit``; above that,
    every subgroup and then seeded random X, :data:`MODE_SAMPLES` in all.
    The default window, order 10, covers the code-mode equivalence suite
    at its stated scale, with every X of 9 and 10 bits in 16-bit lanes.
    A deterministic subsample is recomputed from the route table in
    :mod:`graphs` to keep the batch kernel honest.
    """
    violations = []
    cases = 0
    for group, ai, ctx, subs in _contexts(max_order):
        n = group.order
        h_masks = [h.mask for h in subs]
        for subset in enumerate_subsets(ctx):
            graph = build_graph(subset)
            if n <= exhaustive_limit:
                xms = list(range(1 << n))
            else:
                rng = random.Random(_mix_seed(seed, group.id, ai, subset.mask))
                xms = [rng.getrandbits(n) for _ in range(MODE_SAMPLES)]
                xms = (h_masks + xms)[:MODE_SAMPLES]
            verdicts = kernels.scan_check_routes(
                n,
                group.table,
                group.inv,
                ctx.alpha.perm,
                subset.elements,
                graph.nbr_masks,
                xms,
            )
            cases += len(xms)
            bad = []
            if not CONSISTENT_VERDICTS.issuperset(verdicts):  # one pass in C first
                bad = [j for j, v in enumerate(verdicts) if v not in CONSISTENT_VERDICTS]
            bad += [
                j
                for j in range(0, len(xms), REFERENCE_STRIDE)
                if verdicts[j] in CONSISTENT_VERDICTS
                and reference_verdict(graph, xms[j]) != verdicts[j]
            ]
            for j in sorted(bad):  # in scan order, as the X were tested
                violations.append(
                    f"group={group.id} alpha={ai} S={fmt_set(subset.elements)}"
                    f" X={fmt_set(elems(xms[j]))}: verdict {verdicts[j]:013b}"
                )
    return SuiteResult("mode-agreement", cases, violations)


# ---------------------------------------------------------------------------
# subgroup decision suites


def _where(group_id: str, ai: int, elements) -> str:
    """The ``group=... alpha=... H=...`` head of a violation, formatted only
    when one is reported."""
    return f"group={group_id} alpha={ai} H={fmt_set(elements)}"


def _suite_code_oracle(name: str, kind: str, max_order: int) -> SuiteResult:
    violations = []
    cases = 0
    decide = decide_subgroup_pc if kind == "perfect" else decide_subgroup_tpc
    graph_route, route1, route2 = [ROUTES[bit] for bit in CHECKS[kind].values()]
    for group, ai, ctx, subs in _contexts(max_order):
        if ai == 0:  # a group's contexts share subs
            h_masks = [s.mask for s in subs]
        graphs = {}  # S mask -> graph
        oracle = {}  # least orbit mask -> the graph of its connection set
        found = kernels.scan_subgroup_codes(ctx.orbit_lanes, kind, h_masks)
        for sub, hm, orbit_mask in zip(subs, h_masks, found):
            cases += 1
            witness = decide(sub, ctx)
            if witness.success != (orbit_mask != -1):
                violations.append(
                    f"{_where(group.id, ai, sub.elements)}:"
                    f" decide={witness.success} oracle={orbit_mask != -1}"
                )
                continue
            if orbit_mask != -1:
                graph = oracle.get(orbit_mask)
                if graph is None:
                    graph = oracle[orbit_mask] = _graph_of(
                        graphs, subset_from_orbit_mask(ctx, orbit_mask)
                    )
                subset = graph.subset
                holds = graph_route(graph, hm)
                # the same S has the same graph: one graph-route call
                decided = witness.subset
                if not (
                    holds
                    if decided.mask == subset.mask
                    else graph_route(_graph_of(graphs, decided), hm)
                ):
                    violations.append(
                        f"{_where(group.id, ai, sub.elements)}:"
                        f" decider witness S={fmt_set(decided.elements)} fails"
                    )
                if not (holds and route1(graph, hm) and route2(graph, hm)):
                    violations.append(
                        f"{_where(group.id, ai, sub.elements)}:"
                        f" oracle witness S={fmt_set(subset.elements)} fails"
                    )
                elif kind == "perfect":
                    # every perfect-code pair forces alpha-invariance of
                    # the subgroup and keeps the set off its image
                    if not alpha_preserves(ctx.alpha, sub) or (
                        subset.mask & image_subgroup(ctx.alpha, sub).mask
                    ):
                        violations.append(
                            f"{_where(group.id, ai, sub.elements)}:"
                            " oracle witness breaks the invariance audit"
                        )
    return SuiteResult(name, cases, violations)


def suite_pc_oracle(max_order: int = DEFAULT_CENSUS_MAX_ORDER) -> SuiteResult:
    """decide_subgroup_pc agrees with an exact search over every
    connection set; its witness re-validates by the graph route, and the
    search's witness by all three routes. Each involution builds one
    witness graph per least orbit mask the search finds, and one more per
    decider witness with another connection set."""
    return _suite_code_oracle("pc-oracle", "perfect", max_order)


def suite_tpc_oracle(max_order: int = DEFAULT_CENSUS_MAX_ORDER) -> SuiteResult:
    """decide_subgroup_tpc agrees with an exact search over every
    connection set, with the witnesses re-validated, and their graphs
    built, as in the pc suite."""
    return _suite_code_oracle("tpc-oracle", "total", max_order)


def suite_abelian_criterion(max_order: int = 24) -> SuiteResult:
    """On abelian groups the direct criterion, the decision procedure and
    the constructive witness all agree."""
    violations = []
    cases = 0
    for group, ai, ctx, subs in _contexts(max_order, abelian=True):
        graphs = {}
        for sub in subs:
            cases += 1
            predicted = abelian_pc_criterion(sub, ctx)
            witness = decide_subgroup_pc(sub, ctx)
            if predicted != witness.success:
                violations.append(
                    f"{_where(group.id, ai, sub.elements)}:"
                    f" criterion={predicted} decide={witness.success}"
                )
                continue
            if predicted:
                try:
                    subset = build_witness_abelian(sub, ctx)
                except GenCayleyError:  # its own transversal certificate
                    subset = None
                if subset is None or not (
                    ROUTES[CHECKS["perfect"]["graph"]](_graph_of(graphs, subset), sub.mask)
                    and is_gc_transversal(ctx, sub, subset.elements + (0,))
                ):
                    violations.append(
                        f"{_where(group.id, ai, sub.elements)}:"
                        " constructive witness failed"
                    )
    return SuiteResult("abelian-criterion", cases, violations)


def suite_census_audits(max_order: int = DEFAULT_CENSUS_MAX_ORDER) -> SuiteResult:
    """The census has one record per scanned (group, involution, subgroup)
    pair, in scan order; its booleans re-validate, its witnesses are the
    deciders' and pass the graph definition, every perfect-code hit passes
    the subgroup-code audits (alpha-invariance, transversal on both sides,
    the exclusions for tau-moved connection elements), and the inverse of
    every total-code witness is a left transversal of alpha(H)."""
    violations = []
    cases = 0
    # a group without involutions has one placeholder record and no pairs
    records = (r for r in census_records(max_order) if r.alpha_index is not None)
    for group, ai, ctx, subs in _contexts(max_order):
        graphs = {}
        for sub in subs:
            cases += 1
            rec = next(records, None)  # not zip: a short census must show
            if rec is None:
                problems = ["no census record"]
            elif (rec.group_id, rec.alpha_index, rec.subgroup) != (group.id, ai, sub.elements):
                other = _where(rec.group_id, rec.alpha_index, rec.subgroup)
                problems = [f"census record out of order: {other}"]
            else:
                problems = _census_record_problems(rec, ctx, sub, graphs)
            if problems:
                where = _where(group.id, ai, sub.elements)
                violations += [f"{where}: {p}" for p in problems]
    for rec in records:
        violations.append(
            f"{_where(rec.group_id, rec.alpha_index, rec.subgroup)}: census record past the scan"
        )
    return SuiteResult("census-audits", cases, violations)


def _census_record_problems(rec, ctx, sub, graphs: dict) -> list[str]:
    """The audits of :func:`suite_census_audits` failed by one record."""
    pc = decide_subgroup_pc(sub, ctx)
    tpc = decide_subgroup_tpc(sub, ctx)
    if pc.success != rec.is_pc or tpc.success != rec.is_tpc:
        return ["census booleans do not re-validate"]
    if (pc.success and rec.pc_witness != pc.subset.elements) or (
        tpc.success and rec.tpc_witness != tpc.subset.elements
    ):
        return ["census witness differs from decider"]
    problems = []
    if rec.is_pc:
        if not ROUTES[CHECKS["perfect"]["graph"]](_graph_of(graphs, pc.subset), sub.mask):
            problems.append("witness fails re-validation")
        if not alpha_preserves(ctx.alpha, sub):
            problems.append("perfect-code hit without alpha(H)=H")
        if pc.subset.mask & image_subgroup(ctx.alpha, sub).mask:
            problems.append("witness meets alpha(H)")
        if not is_gc_transversal(ctx, sub, rec.pc_witness + (0,), "right"):
            problems.append("witness not a right transversal")
        if not is_gc_transversal(ctx, sub, rec.pc_witness + (0,), "left"):
            problems.append("witness not a left transversal")
        dec = cosets(sub, "right")
        tau = ctx.tau_perm
        for s in rec.pc_witness:
            if tau[s] == s:
                continue
            if sub.mask >> ctx.group.table[ctx.alpha.perm[s]][s] & 1:
                problems.append(f"alpha(s)*s inside H for s={s}")
            if dec.rep_of[tau[s]] == dec.rep_of[s]:
                problems.append(f"tau(s) shares the coset of s={s}")
    if rec.is_tpc:
        if not ROUTES[CHECKS["total"]["graph"]](_graph_of(graphs, tpc.subset), sub.mask):
            problems.append("total witness fails re-validation")
        left = cosets(image_subgroup(ctx.alpha, sub), "left")
        if sorted(left.rep_of[ctx.group.inv[s]] for s in rec.tpc_witness) != list(
            range(left.index)
        ):
            problems.append("inverse total witness not a left transversal")
    return problems


def suite_transports(max_order: int = 12) -> SuiteResult:
    """Automorphism transport of every code hit re-validates, for both
    code kinds, over every beta in Aut(G), conjugation included.

    A failed re-validation raises :class:`GenCayleyError`, also under
    ``python -O``."""
    violations = []
    cases = 0
    for group, ai, ctx, subs in _contexts(max_order):
        autos = enumerate_automorphisms(group)  # kept in the group cache
        for sub in subs:
            for kind, witness in (
                ("perfect", decide_subgroup_pc(sub, ctx)),
                ("total", decide_subgroup_tpc(sub, ctx)),
            ):
                if not witness.success:
                    continue
                subset = witness.subset
                failed = []
                # no conjugation or combined form: if a' = beta.alpha.beta^-1
                # fixes g, i_g(x) = g^-1 x g commutes with a', so
                # beta' = i_g.beta has beta'.alpha.beta'^-1 = a', and
                # g^-1 beta(H, S) g is beta'(H, S), which the loop over
                # all of Aut(G) checks (beta = id: plain conjugation by g)
                for beta in autos:
                    cases += 1
                    try:
                        transport_automorphism(sub, subset, beta, kind)
                    except GenCayleyError:
                        failed.append("transport by beta fails")
                if failed:
                    where = _where(group.id, ai, sub.elements)
                    violations += [f"{where} kind={kind}: {f}" for f in failed]
    return SuiteResult("transports", cases, violations)


def suite_product_identities(max_order: int = 8) -> SuiteResult:
    """The derived sets of a componentwise involution factor through the
    product: omega multiplies, and the tau-fixed set is the product of the
    factor tau-fixed sets minus omega. Both factors range over the catalog
    up to ``max_order``, each with its involutions and the identity."""
    violations = []
    cases = 0
    factors = []
    for g in catalog(max_order):
        alphas = enumerate_involutory_automorphisms(g, include_identity=True)
        factors.append((g, [alpha_context(g, a) for a in alphas]))
    for g1, ctxs1 in factors:
        for g2, ctxs2 in factors:
            prod = direct_product(g1, g2)
            n, n2 = prod.order, g2.order
            for c1 in ctxs1:
                for c2 in ctxs2:
                    a1, a2 = c1.alpha, c2.alpha
                    if a1.is_identity and a2.is_identity:
                        continue
                    cases += 1
                    bar_ctx = alpha_context(prod, product_automorphism(a1, a2, prod))
                    want_omega = element_mask(n, _product_elements(c1.omega, c2.omega, n2))
                    want_k = element_mask(n, _product_elements(c1.k_set, c2.k_set, n2))
                    got_omega = bar_ctx.omega_mask
                    got_big = bar_ctx.big_omega_mask
                    if got_omega != want_omega or got_big != want_k & ~want_omega:
                        violations.append(
                            f"product={prod.id} a1={a1.perm} a2={a2.perm}: set identity fails"
                        )
    return SuiteResult("product-identities", cases, violations)


def collect_code_pairs(kind: str, limit: int):
    """The first ``limit`` (subgroup, subset) code hits over the catalog up
    to order 8, in deterministic scan order."""
    out = []
    decide = decide_subgroup_pc if kind == "perfect" else decide_subgroup_tpc
    for _, _, ctx, subs in _contexts(8):
        for sub in subs:
            witness = decide(sub, ctx)
            if witness.success and witness.subset.size > 0:
                out.append((sub, witness.subset))
                if len(out) >= limit:
                    return out
    return out


PRODUCT_PC_PAIRS = 5
PRODUCT_TPC_PAIRS = 3


def suite_product_codes() -> SuiteResult:
    """Product constructions over the first :data:`PRODUCT_PC_PAIRS`
    perfect-code and :data:`PRODUCT_TPC_PAIRS` total-code pairs: the
    augmented set keeps perfect codes, the plain product set fails the
    total-code counting under perfect-code inputs, and keeps total codes
    under total-code inputs."""
    violations = []
    cases = 0
    pc_pairs = collect_code_pairs("perfect", PRODUCT_PC_PAIRS)
    tpc_pairs = collect_code_pairs("total", PRODUCT_TPC_PAIRS)
    if len(pc_pairs) < PRODUCT_PC_PAIRS:
        violations.append(f"only {len(pc_pairs)} perfect-code pairs available")
    if len(tpc_pairs) < PRODUCT_TPC_PAIRS:
        violations.append(f"only {len(tpc_pairs)} total-code pairs available")
    for i in range(len(pc_pairs)):
        pair1 = pc_pairs[i]
        pair2 = pc_pairs[(i + 1) % len(pc_pairs)]
        tpair1 = tpc_pairs[i % len(tpc_pairs)] if tpc_pairs else None
        tpair2 = tpc_pairs[(i + 1) % len(tpc_pairs)] if tpc_pairs else None
        cases += 1
        report = verify_product_codes(pair1, pair2, tpair1, tpair2)
        where = (
            f"pair1=({pair1[0].parent.id},{fmt_set(pair1[0].elements)})"
            f" pair2=({pair2[0].parent.id},{fmt_set(pair2[0].elements)})"
        )
        if not report.pc_product_holds:
            violations.append(f"{where}: augmented product set loses the perfect code")
        if report.tpc_plain_counting_ok or report.tpc_plain_holds:
            violations.append(f"{where}: plain product set passed under perfect-code inputs")
        if i < PRODUCT_TPC_PAIRS:
            if not (report.tpc_amended_evaluated and report.tpc_amended_holds):
                violations.append(f"{where}: total-code product form failed")
    return SuiteResult("product-codes", cases, violations)


def _check_pc(violations: list, group, ai: int, ctx, sub, expected: bool) -> None:
    """Decide a perfect-code claim and report it if the decider disagrees."""
    success = decide_subgroup_pc(sub, ctx).success
    if success != expected:
        violations.append(
            f"{_where(group.id, ai, sub.elements)}: decide={success} expected={expected}"
        )


def suite_odd_order_in_omega(max_order: int = 24) -> SuiteResult:
    """Abelian groups: an odd-order subgroup inside the loop set is a
    perfect code exactly when it is the whole loop set."""
    violations = []
    cases = 0
    for group, ai, ctx, subs in _contexts(max_order, abelian=True):
        # the loop set is a subgroup in the abelian case
        try:
            subgroup(group, ctx.omega)
        except GroupValidationError:
            violations.append(f"group={group.id} alpha={ai}: loop set not a subgroup")
            continue
        for sub in subs:
            if sub.order % 2 == 0 or sub.mask & ~ctx.omega_mask:
                continue
            cases += 1
            _check_pc(violations, group, ai, ctx, sub, sub.mask == ctx.omega_mask)
    return SuiteResult("odd-order-in-omega", cases, violations)


def suite_characteristic_criterion(max_order: int = 24) -> SuiteResult:
    """Abelian groups: a characteristic subgroup inside the loop set is a
    perfect code exactly when it equals the loop set and alpha(g)*g lands
    in it only as the identity."""
    violations = []
    cases = 0
    for group, ai, ctx, subs in _contexts(max_order, abelian=True):
        if ai == 0:  # a new group
            autos = enumerate_automorphisms(group)
            characteristic = [s for s in subs if all(alpha_preserves(b, s) for b in autos)]
        t = group.table
        a = ctx.alpha.perm
        for sub in characteristic:
            if sub.mask & ~ctx.omega_mask:
                continue
            cases += 1
            expected = sub.mask == ctx.omega_mask and all(
                not sub.mask >> t[a[g]][g] & 1 or t[a[g]][g] == 0
                for g in range(group.order)
            )
            _check_pc(violations, group, ai, ctx, sub, expected)
    return SuiteResult("characteristic-criterion", cases, violations)


# ---------------------------------------------------------------------------
# runner

SUITES = (
    suite_group_axioms,
    suite_subgroup_oracle,
    suite_coset_partitions,
    suite_alpha_invariants,
    suite_graph_laws,
    suite_mode_agreement,
    suite_pc_oracle,
    suite_abelian_criterion,
    suite_census_audits,
    suite_transports,
    suite_product_identities,
    suite_product_codes,
    suite_tpc_oracle,
    suite_odd_order_in_omega,
    suite_characteristic_criterion,
)


def _suite_name(fn) -> str:
    """The name a suite function reports: ``suite_pc_oracle`` is
    ``pc-oracle``."""
    return fn.__name__.removeprefix("suite_").replace("_", "-")


def run_suites(max_order: int | None = None) -> Iterator[SuiteResult]:
    """Run the suites of :data:`SUITES` in order, yielding each result as
    its suite finishes. A suite that raises yields a failed result whose
    one violation names the exception, and the next suite still runs. A
    ``max_order`` that is not an int of at least 1 raises here, before any
    suite runs."""
    if max_order is not None:
        _check_size("max_order", max_order)
    return (_run_suite(fn, max_order) for fn in SUITES)


def _run_suite(fn, max_order: int | None) -> SuiteResult:
    """Run one suite to its own default ``max_order``, or to ``max_order`` if lower."""
    param = inspect.signature(fn).parameters.get("max_order")
    kwargs = {} if param is None else {"max_order": min(param.default, max_order or param.default)}
    started = time.perf_counter()
    try:
        result = fn(**kwargs)
    except Exception as exc:
        result = SuiteResult(_suite_name(fn), 0, [f"suite raised {type(exc).__name__}: {exc}"])
    result.seconds = time.perf_counter() - started
    return result
