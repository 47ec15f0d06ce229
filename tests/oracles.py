"""Independent oracles used by the tests.

Everything here recomputes results from first principles (definition-level
scans over subsets or edges) without touching the package's decision
procedures, so agreement is meaningful. The bijection and generator-subset
oracles live in :mod:`gencayley.verify`, which runs them too.
"""

from __future__ import annotations


def gc_edges_by_rule(group, alpha_perm, S) -> set[frozenset[int]]:
    """Edges straight from the rule: {g, h} whenever alpha(g^-1)*h is in S."""
    sset = set(S)
    edges = set()
    for g in range(group.order):
        for h in range(group.order):
            if g != h and group.table[alpha_perm[group.inv[g]]][h] in sset:
                edges.add(frozenset((g, h)))
    return edges


def cayley_edges(group, S) -> set[frozenset[int]]:
    """Ordinary Cayley graph: {g, h} whenever g^-1 * h is in S."""
    sset = set(S)
    edges = set()
    for g in range(group.order):
        for h in range(group.order):
            if g != h and group.table[group.inv[g]][h] in sset:
                edges.add(frozenset((g, h)))
    return edges


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
    for elems in sorted(connection_sets_by_filter(ctx)):
        graph = build_graph(validate_subset(ctx, elems))
        ok = True
        for v in range(group.order):
            hits = sum(1 for w in graph.adjacency[v] if w in hset)
            if (v in hset and hits != 0) or (v not in hset and hits != 1):
                ok = False
                break
        if ok:
            return True
    return False


def scan_codes_bruteforce(nbr_masks, kind: int) -> list[int]:
    """Literal 2^n reference for ``scan_codes``: every vertex subset, in
    ascending mask order, checked by neighbor counting."""
    n = len(nbr_masks)
    nbr = list(nbr_masks)
    out = []
    for xm in range(1 << n):
        ok = True
        for v in range(n):
            c = (nbr[v] & xm).bit_count()
            if kind == 1:
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


def scan_subgroup_codes_bruteforce(trans_masks, num_orbits: int, h_masks, n: int, kind: int) -> list[int]:
    """Literal 2^m reference for ``scan_subgroup_codes``: every orbit mask,
    in ascending order, checked against every undecided subgroup mask."""
    m = num_orbits
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
                if kind == 1:
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

