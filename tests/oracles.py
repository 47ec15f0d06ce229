"""Independent oracles used by the tests.

Everything here recomputes results from first principles (definition-level
scans over subsets or edges) without touching the package's decision
procedures, so agreement is meaningful. The exceptions are
:func:`certify_by_two_passes`, the earlier form of the witness
certificate, which calls the package's connection-set validator, and the
earlier loops of three routes, which read a built graph and its cached
SS^-1 as the routes do. The
bijection and generator-subset oracles live in :mod:`gencayley.verify`,
which runs them too.
"""

from __future__ import annotations

from gencayley import kernels
from gencayley._bits import bits, elems
from gencayley.errors import GenCayleyError
from gencayley.graphs import validate_subset


def mask_of(items) -> int:
    """Literal reference for ``_bits.element_mask``: bit x for each item x."""
    return sum(1 << x for x in set(items))


def tau_orbits_by_scan(ctx) -> tuple[tuple[int, ...], ...]:
    """Literal reference for ``AlphaContext.tau_orbits``: scan the group in
    ascending order, skip omega and every element already in an orbit, and
    pair each other x with tau(x)."""
    out = []
    seen = 0
    tau = ctx.tau_perm
    for x in range(ctx.group.order):
        if ctx.omega_mask >> x & 1 or seen >> x & 1:
            continue
        y = tau[x]
        orbit = (x,) if y == x else (x, y)
        for z in orbit:
            seen |= 1 << z
        out.append(orbit)
    return tuple(out)


def gc_edges_by_rule(group, alpha_perm, S) -> set[frozenset[int]]:
    """Edges straight from the rule: {g, h} whenever alpha(g^-1)*h is in S."""
    sset = set(S)
    edges = set()
    for g in range(group.order):
        for h in range(group.order):
            if g != h and group.table[alpha_perm[group.inv[g]]][h] in sset:
                edges.add(frozenset((g, h)))
    return edges


def conjugated_perm(beta_perm, alpha_perm) -> tuple[int, ...]:
    """The perm of beta.alpha.beta^-1, from the two perms alone."""
    binv = [0] * len(beta_perm)
    for x, y in enumerate(beta_perm):
        binv[y] = x
    return tuple(beta_perm[alpha_perm[binv[x]]] for x in range(len(beta_perm)))


def cayley_edges(group, S) -> set[frozenset[int]]:
    """Ordinary Cayley graph: {g, h} whenever g^-1 * h is in S."""
    sset = set(S)
    edges = set()
    for g in range(group.order):
        for h in range(group.order):
            if g != h and group.table[group.inv[g]][h] in sset:
                edges.add(frozenset((g, h)))
    return edges


def context_sets_by_definition(group, perm) -> dict[str, tuple[int, ...]]:
    """The derived sets of the involution ``perm`` and its pairing map tau,
    each from its definition, keyed like the attributes of a context."""
    inv = group.inv
    table = group.table
    n = group.order
    omega = sorted({table[perm[inv[g]]][g] for g in range(n)})
    k_set = [g for g in range(n) if perm[g] == inv[g]]
    omega_set = set(omega)
    big_omega = [g for g in k_set if g not in omega_set]
    mho = [g for g in range(n) if perm[g] != inv[g]]
    fix = [g for g in range(n) if perm[g] == g]
    tau = [perm[inv[g]] for g in range(n)]
    return {
        "omega": tuple(omega),
        "big_omega": tuple(big_omega),
        "mho": tuple(mho),
        "fix": tuple(fix),
        "k_set": tuple(k_set),
        "tau_perm": tuple(tau),
    }


def codes_by_definition(adjacency, kind: str) -> list[frozenset[int]]:
    """All codes by checking the definition on every subset, with sets."""
    n = len(adjacency)
    out = []
    for mask in range(1 << n):
        X = {v for v in range(n) if mask >> v & 1}
        ok = True
        for v in range(n):
            hits = sum(1 for w in adjacency[v] if w in X)
            if kind == "total":
                if hits != 1:
                    ok = False
                    break
            elif v in X:
                if hits != 0:
                    ok = False
                    break
            elif hits != 1:
                ok = False
                break
        if ok:
            out.append(frozenset(X))
    return out


def route_verdicts_by_sets(group, alpha_perm, S, neighborhoods, X) -> dict[int, bool]:
    """Every route of ``graphs.ROUTES`` from its definition with Python
    sets, keyed by its verdict bit. The graph routes count N(v) & X over
    ``neighborhoods``; the others read only the table, ``inv``, alpha and S,
    through the translates alpha(X)s, alpha(X^-1)alpha(X), alpha(X^-1)X
    and SS^-1."""
    n = group.order
    t, inv = group.table, group.inv
    G, X, S = set(range(n)), set(X), set(S)
    outside = G - X
    hits = [len(set(neighborhoods[v]) & X) for v in range(n)]
    translates = {s: {t[alpha_perm[x]][s] for x in X} for s in S}
    union = set().union(*translates.values())
    ss_inv = {t[s][inv[u]] for s in S for u in S}
    x_inv_x = {t[alpha_perm[inv[x]]][alpha_perm[y]] for x in X for y in X}
    amo_productset = x_inv_x & ss_inv <= {0}
    ind_algebraic = not {t[alpha_perm[inv[x]]][y] for x in X for y in X} & S
    dom_translates = X | union == G
    ind_graph = all(hits[v] == 0 for v in X)
    pc_size = len(X) * (len(S) + 1) == n
    tpc_size = len(X) * len(S) == n
    return {
        kernels.AMO_GRAPH: all(h <= 1 for h in hits),
        kernels.AMO_TRANSLATES: all(
            translates[s].isdisjoint(translates[u]) for s in S for u in S if s != u
        ),
        kernels.AMO_PRODUCTSET: amo_productset,
        kernels.DOM_GRAPH: all(hits[v] >= 1 for v in outside),
        kernels.DOM_TRANSLATES: dom_translates,
        kernels.IND_GRAPH: ind_graph,
        kernels.IND_ALGEBRAIC: ind_algebraic,
        kernels.PC_GRAPH: ind_graph and all(hits[v] == 1 for v in outside),
        kernels.PC_PARTITION: pc_size and dom_translates,
        kernels.PC_ALGEBRAIC: pc_size and ind_algebraic and amo_productset,
        kernels.TPC_GRAPH: all(h == 1 for h in hits),
        kernels.TPC_PARTITION: tpc_size and union == G,
        kernels.TPC_ALGEBRAIC: tpc_size and amo_productset,
    }


# the earlier loops of three routes of ``graphs.ROUTES``, kept verbatim as
# references for the shared forms that replaced them: the translate route
# now counts the union alpha(X)S, and the two algebraic routes share one
# left-product loop


def amo_translates_by_repeat_scan(graph, xmask: int) -> bool:
    """At most one neighbor in X, by scanning the products alpha(x)s for
    the first one met twice."""
    # the translates alpha(X)s are pairwise disjoint for distinct s; alpha(x)s
    # is one-to-one in x and in s, so an element met twice lies in two of them
    table, alpha = graph.group.table, graph.context.alpha.perm
    elements = graph.subset.elements
    union = 0
    for x in bits(xmask):
        row = table[alpha[x]]
        for s in elements:
            bit = 1 << row[s]
            if union & bit:
                return False
            union |= bit
    return True


def amo_productset_by_loop(graph, xmask: int) -> bool:
    """At most one neighbor in X, by the product set alpha(X^-1)alpha(X)
    written as its own loop."""
    # alpha(X^-1)alpha(X) meets SS^-1 only in the identity; both products
    # contain e whenever X and S are nonempty, so "subset of {e}" is the
    # reading that stays consistent with the graph route on empty inputs
    table, inv, alpha = graph.group.table, graph.group.inv, graph.context.alpha.perm
    xs = bits(xmask)
    ax = [alpha[y] for y in xs]
    products = 0
    for x in xs:
        row = table[alpha[inv[x]]]
        for y in ax:
            products |= 1 << row[y]
    return not products & graph.ss_inv & ~1


def ind_algebraic_by_loop(graph, xmask: int) -> bool:
    """Independence, by the product set alpha(X^-1)X written as its own
    loop."""
    # alpha(X^-1)X is disjoint from S
    table, inv, alpha = graph.group.table, graph.group.inv, graph.context.alpha.perm
    xs = bits(xmask)
    products = 0
    for x in xs:
        row = table[alpha[inv[x]]]
        for y in xs:
            products |= 1 << row[y]
    return not products & graph.subset.mask


def connection_sets_by_filter(ctx) -> set[tuple[int, ...]]:
    """All valid connection sets by filtering every subset of the group
    against the two defining conditions."""
    group = ctx.group
    n = group.order
    omega = set(ctx.omega)
    out = set()
    for mask in range(1 << n):
        S = [v for v in range(n) if mask >> v & 1]
        if any(s in omega for s in S):
            continue
        sset = set(S)
        if any(ctx.alpha.perm[group.inv[s]] not in sset for s in S):
            continue
        out.add(tuple(S))
    return out


def exists_pc_connection_set(ctx, sub) -> bool:
    """Exhaustive existence search used against decide_subgroup_pc on tiny
    groups: try every valid connection set and test the definition."""
    from gencayley.graphs import build_graph, validate_subset

    group = ctx.group
    hset = set(sub.elements)
    for S in sorted(connection_sets_by_filter(ctx)):
        graph = build_graph(validate_subset(ctx, S))
        adjacency = [elems(m) for m in graph.nbr_masks]
        ok = True
        for v in range(group.order):
            hits = sum(1 for w in adjacency[v] if w in hset)
            if (v in hset and hits != 0) or (v not in hset and hits != 1):
                ok = False
                break
        if ok:
            return True
    return False


def scan_codes_bruteforce(nbr_masks, kind: str) -> list[int]:
    """Literal 2^n reference for ``scan_codes``: every vertex subset, in
    ascending mask order, checked by neighbor counting."""
    n = len(nbr_masks)
    nbr = list(nbr_masks)
    out = []
    for xm in range(1 << n):
        ok = True
        for v in range(n):
            c = (nbr[v] & xm).bit_count()
            if kind == "total":
                if c != 1:
                    ok = False
                    break
            elif xm >> v & 1:
                if c != 0:
                    ok = False
                    break
            elif c != 1:
                ok = False
                break
        if ok:
            out.append(xm)
    return out


def scan_subgroup_codes_bruteforce(trans_masks, h_masks, n: int, kind: str) -> list[int]:
    """Literal 2^m reference for ``scan_subgroup_codes``, m being
    ``len(trans_masks) // n``: every orbit mask, in ascending order,
    checked against every undecided subgroup mask."""
    m = len(trans_masks) // n
    res = [-1] * len(h_masks)
    undecided = len(h_masks)
    for sm in range(1 << m):
        nbr = [0] * n
        for o in range(m):
            if sm >> o & 1:
                base = o * n
                for v in range(n):
                    nbr[v] |= trans_masks[base + v]
        for i, hm in enumerate(h_masks):
            if res[i] != -1:
                continue
            ok = True
            for v in range(n):
                c = (nbr[v] & hm).bit_count()
                if kind == "total":
                    if c != 1:
                        ok = False
                        break
                elif hm >> v & 1:
                    if c != 0:
                        ok = False
                        break
                elif c != 1:
                    ok = False
                    break
            if ok:
                res[i] = sm
                undecided -= 1
        if undecided == 0:
            break
    return res


def transversal_by_dfs(ctx, dec, first: int):
    """Literal reference for ``codes._search_transversal``: a recursive
    depth-first search that fills the lowest unassigned coset first, trying
    its tau-fixed non-loop elements, then its tau-moved ones whose partner
    lies in another free required coset, each in ascending order. Returns
    the representatives by coset index, or None, and the number of choices
    undone on the way."""
    coset_of = dec.rep_of
    blocks = [elems(m) for m in dec.masks]
    tau = ctx.tau_perm
    fixed, moved = ctx.big_omega_mask, ctx.mho_mask
    last = dec.index
    reps: dict[int, int] = {}
    undone = 0

    def extend(pos: int) -> bool:
        nonlocal undone
        while pos < last and pos in reps:
            pos += 1
        if pos == last:
            return True
        coset = blocks[pos]
        for x in coset:
            if fixed >> x & 1:
                reps[pos] = x
                if extend(pos + 1):
                    return True
                del reps[pos]
                undone += 1
        for x in coset:
            if not moved >> x & 1:
                continue
            y = tau[x]
            cy = coset_of[y]
            if cy < first or cy == pos or cy in reps:
                continue
            reps[pos] = x
            reps[cy] = y
            if extend(pos + 1):
                return True
            del reps[pos]
            del reps[cy]
            undone += 1
        return False

    return (reps if extend(first) else None), undone


def refutation_reason_by_scan(ctx, dec, first: int) -> str:
    """Literal reference for the reason of a failed search: the first
    required coset lying wholly in the loop set, else the first one whose
    non-loop elements are all tau-moved with their partner in the same
    coset, else plain exhaustion."""
    required = [elems(m) for m in dec.masks[first:]]
    omega, big_omega, mho = ctx.omega, ctx.big_omega, ctx.mho
    for coset in required:
        if all(x in omega for x in coset):
            return "coset-inside-omega"
    for coset in required:
        if not any(x in big_omega for x in coset) and all(
            ctx.tau_perm[x] in coset for x in coset if x in mho
        ):
            return "self-paired-coset-without-big-omega-element"
    return "search-exhausted"


def certify_by_two_passes(ctx, elements, dec, with_identity: bool):
    """Literal reference for ``codes._certify_transversal``: the package's
    connection-set validator first, then one pass over the validated
    elements in ascending order marking the cosets they meet, which raises
    on the first coset met twice and, after the pass, on a coset missed."""
    subset = validate_subset(ctx, elements)
    seen = 1 if with_identity else 0  # bit ci: coset ci already met
    for s in subset.elements:
        bit = 1 << dec.rep_of[s]
        if seen & bit:
            raise GenCayleyError(f"witness meets coset {dec.rep_of[s]} twice")
        seen |= bit
    if seen != (1 << dec.index) - 1:
        raise GenCayleyError("witness is not a transversal of the cosets")
    return subset


def witness_abelian_by_scan(sub, ctx, dec) -> list[int]:
    """Literal reference for ``codes.build_witness_abelian`` on a pair that
    meets the abelian criterion, with ``dec`` the right cosets of ``sub``:
    the chosen elements before certification, found by scanning each
    coset's sorted elements. A self-paired coset gives its least tau-fixed
    non-loop element, any other its least non-loop element y together
    with tau(y), whose coset is then done."""
    group = sub.parent
    chosen: list[int] = []
    done: set[int] = set()
    for ci in range(1, dec.index):
        if ci in done:
            continue
        done.add(ci)
        coset = elems(dec.masks[ci])
        g = coset[0]
        if sub.mask >> group.table[ctx.alpha.perm[g]][g] & 1:
            chosen.append(min(x for x in coset if ctx.big_omega_mask >> x & 1))
        else:
            y = min(x for x in coset if not ctx.omega_mask >> x & 1)
            t = ctx.tau_perm[y]
            done.add(dec.rep_of[t])
            chosen.extend((y, t))
    return chosen


def _right_closure(table, order: int, gens) -> bytearray:
    """Flags of the elements reached from the identity by right
    multiplication with ``gens``."""
    seen = bytearray(order)
    seen[0] = 1
    queue = [0]
    for x in queue:
        row = table[x]
        for g in gens:
            y = row[g]
            if not seen[y]:
                seen[y] = 1
                queue.append(y)
    return seen


def subgroups_by_bfs(group) -> list[tuple[int, ...]]:
    """Literal reference for ``groups.enumerate_subgroups``: the
    breadth-first search that closes <H, g> from the identity, with every
    element of H and g as generators, for every g outside each subgroup H
    found, with the same (order, elements) sort."""
    trivial = (0,)
    seen = {mask_of(trivial)}
    found = [trivial]
    frontier = [trivial]
    while frontier:
        nxt = []
        for base in frontier:
            bset = set(base)
            for g in range(1, group.order):
                if g in bset:
                    continue
                flags = _right_closure(group.table, group.order, base + (g,))
                closed = tuple(i for i in range(group.order) if flags[i])
                key = mask_of(closed)
                if key not in seen:
                    seen.add(key)
                    found.append(closed)
                    nxt.append(closed)
        frontier = nxt
    found.sort(key=lambda t: (len(t), t))
    return found
