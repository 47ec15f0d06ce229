"""Independent oracles used by the tests.

Everything here recomputes results from first principles (definition-level
scans over bijections, subsets, or edges) without touching the package's
decision procedures, so agreement is meaningful.
"""

from __future__ import annotations

from itertools import combinations, permutations


def involutory_automorphisms_bruteforce(group) -> list[tuple[int, ...]]:
    """Scan every bijection fixing 0 for non-identity involutions that
    preserve the multiplication table."""
    n = group.order
    t = group.table
    out = []
    for rest in permutations(range(1, n)):
        perm = (0,) + rest
        if any(perm[perm[i]] != i for i in range(n)):
            continue
        if all(perm[i] == i for i in range(n)):
            continue
        if all(perm[t[a][b]] == t[perm[a]][perm[b]] for a in range(n) for b in range(n)):
            out.append(perm)
    return sorted(out)


def subgroups_by_generator_subsets(group, max_generators: int) -> set[tuple[int, ...]]:
    """Close every generator subset of bounded size."""
    from gencayley.groups import subgroup_closure

    found = {(0,)}
    elements = range(group.order)
    for k in range(1, max_generators + 1):
        for gens in combinations(elements, k):
            found.add(subgroup_closure(group, gens))
    return found


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


def scan_check_routes_literal(n, mul_flat, inv_perm, alpha_perm, s_elems, nbr_masks, x_masks) -> list[int]:
    """Literal reference for ``scan_check_routes``: for each X, the
    translates and the product sets are built element by element and every
    vertex's neighbors in X are counted, with the verdict bits of
    :mod:`gencayley.kernels`."""
    from gencayley import kernels

    full = (1 << n) - 1
    r = len(s_elems)
    smask = 0
    for s in s_elems:
        smask |= 1 << s
    ss_inv = 0
    for s1 in s_elems:
        row = s1 * n
        for s2 in s_elems:
            ss_inv |= 1 << mul_flat[row + inv_perm[s2]]
    not_e = ~1

    out = []
    for xm in x_masks:
        xs = []
        ax = 0
        mm = xm
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            xs.append(v)
            ax |= 1 << alpha_perm[v]
        sizex = len(xs)

        union_tr = 0
        disjoint_sum = 0
        for s in s_elems:
            t = 0
            aa = ax
            while aa:
                low = aa & -aa
                a = low.bit_length() - 1
                aa ^= low
                t |= 1 << mul_flat[a * n + s]
            union_tr |= t
            disjoint_sum += sizex

        p1 = 0  # alpha(X^-1 X) = alpha(X^-1) alpha(X)
        p2 = 0  # alpha(X^-1) X
        for a in xs:
            ia = inv_perm[a]
            row_ia = ia * n
            row_aia = alpha_perm[ia] * n
            for b in xs:
                p1 |= 1 << alpha_perm[mul_flat[row_ia + b]]
                p2 |= 1 << mul_flat[row_aia + b]

        amo_g = True
        dom_g = True
        ind_g = True
        out_one = True
        all_one = True
        for v in range(n):
            c = (nbr_masks[v] & xm).bit_count()
            if c > 1:
                amo_g = False
            if xm >> v & 1:
                if c != 0:
                    ind_g = False
            else:
                if c == 0:
                    dom_g = False
                if c != 1:
                    out_one = False
            if c != 1:
                all_one = False

        amo_tr = disjoint_sum == union_tr.bit_count()
        amo_ps = (p1 & ss_inv & not_e) == 0
        dom_tr = (full & ~xm & ~union_tr) == 0
        ind_alg = (p2 & smask) == 0
        pc_part = sizex * (r + 1) == n and (xm | union_tr) == full
        pc_alg = sizex * (r + 1) == n and ind_alg and amo_ps
        tpc_part = sizex * r == n and union_tr == full
        tpc_alg = sizex * r == n and amo_ps

        verdict = 0
        if amo_g:
            verdict |= kernels.AMO_GRAPH
        if amo_tr:
            verdict |= kernels.AMO_TRANSLATES
        if amo_ps:
            verdict |= kernels.AMO_PRODUCTSET
        if dom_g:
            verdict |= kernels.DOM_GRAPH
        if dom_tr:
            verdict |= kernels.DOM_TRANSLATES
        if ind_g:
            verdict |= kernels.IND_GRAPH
        if ind_alg:
            verdict |= kernels.IND_ALGEBRAIC
        if ind_g and out_one:
            verdict |= kernels.PC_GRAPH
        if pc_part:
            verdict |= kernels.PC_PARTITION
        if pc_alg:
            verdict |= kernels.PC_ALGEBRAIC
        if all_one:
            verdict |= kernels.TPC_GRAPH
        if tpc_part:
            verdict |= kernels.TPC_PARTITION
        if tpc_alg:
            verdict |= kernels.TPC_ALGEBRAIC
        out.append(verdict)
    return out
