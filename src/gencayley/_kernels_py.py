"""Pure-Python kernels: exact bitmask searches used by oracles and sweeps.

Same signatures and results as the compiled module ``_kernels``; selected
at import time by :mod:`gencayley.kernels` when the extension is missing.
The two code searches here prune where the compiled ones scan all 2^n
subsets literally, and return the identical lists in the same order.
All set arguments are bitmasks (bit i = element i); neighbor masks are the
adjacency rows of a generalized Cayley graph.
"""

from __future__ import annotations

from ._bits import bits


def scan_codes(nbr_masks, kind: int) -> list[int]:
    """All vertex subsets that are codes, as ascending masks.

    kind 1: total perfect codes (every vertex has exactly one neighbor in
    the set); any other kind: perfect codes (members have no neighbor in
    the set, everyone else exactly one). Both are exact hitting: X is a
    code iff every vertex v has exactly one member of X in C_v, where C_v
    is N(v) for total codes and N(v) + {v} for perfect codes (a vertex
    with a self-loop can then never be a member). The search branches on
    the lowest vertex whose C_v is not hit yet, over the members of C_v
    still allowed; choosing x hits every C_v containing x and disallows
    all of their members. A vertex in no C_v is free and doubles every
    solution. Pure neighbor counting; no algebraic shortcuts, so this
    stays an independent oracle.
    """
    n = len(nbr_masks)
    full = (1 << n) - 1
    total = kind == 1
    eligible = full  # the vertices that may be members
    cons = []
    for v, m in enumerate(nbr_masks):
        c = m & full
        if not total:
            if c >> v & 1:
                eligible &= ~(1 << v)
            c |= 1 << v
        cons.append(c)
    cover = [0] * n  # cover[x]: the vertices v with x in C_v
    for v, c in enumerate(cons):
        for x in bits(c):
            cover[x] |= 1 << v
    block = []  # block[x]: members of the constraints that choosing x hits
    free = 0
    for x, cv in enumerate(cover):
        b = 0
        for v in bits(cv):
            b |= cons[v]
        block.append(b)
        if not cv:  # only in total codes: perfect ones have v in C_v
            free |= 1 << x

    found = []

    def search(unhit: int, allowed: int, chosen: int) -> None:
        if not unhit:
            found.append(chosen)
            return
        cand = cons[(unhit & -unhit).bit_length() - 1] & allowed
        while cand:
            low = cand & -cand
            cand ^= low
            x = low.bit_length() - 1
            search(unhit & ~cover[x], allowed & ~block[x], chosen | low)

    search(full, eligible, 0)
    out = []
    for chosen in found:
        sub = free
        while True:  # every subset of the free vertices
            out.append(chosen | sub)
            if not sub:
                break
            sub = (sub - 1) & free
    out.sort()
    return out


def scan_subgroup_codes(trans_masks, num_orbits: int, h_masks, n: int, kind: int) -> list[int]:
    """For each subgroup mask, the least orbit-subset mask whose connection
    set makes it a code, else -1.

    ``trans_masks`` is flattened ``num_orbits x n``: entry ``o*n + g`` holds
    the neighbors vertex g gains when pairing-orbit o joins the connection
    set, and the neighbor mask of g is the OR over the chosen orbits.
    For one subgroup H, a vertex v sees ``trans & H`` from each orbit; it
    needs none of H (kind 0 and v in H) or exactly one element of H. An
    orbit that shows v two elements, or any element when v needs none, can
    never be chosen and is dropped. The search decides the orbits from the
    highest index down, leaving each out before putting it in, so the
    first leaf reached is the least mask. It keeps per vertex the single
    element reached so far (two orbits reaching v at the same element
    count once), and prunes when a vertex still short of its element is
    touched by none of the undecided orbits. Pure neighbor counting, as in
    :func:`scan_codes`.
    """
    m = num_orbits
    width = max((t.bit_length() for t in trans_masks[: m * n]), default=0)
    hits = []  # hits[o][e]: the vertices that orbit o shows element e
    for o in range(m):
        he = [0] * width
        for v in range(n):
            for e in bits(trans_masks[o * n + v]):
                he[e] |= 1 << v
        hits.append(he)
    res = []
    for hm in h_masks:
        hbits = bits(hm & ((1 << width) - 1))
        needy = (1 << n) - 1  # the vertices that need exactly one element of H
        if kind != 1:
            needy &= ~hm
        usable = []  # (orbit, touched vertices, [(element, its vertices), ...])
        for o, he in enumerate(hits):
            touch = twice = 0
            reach = []
            for e in hbits:
                r = he[e]
                if r:
                    twice |= touch & r
                    touch |= r
                    reach.append((e, r))
            # an orbit that touches nothing is never in the least mask
            if touch and not twice and not touch & ~needy:
                usable.append((o, touch, reach))
        # reachable[k]: the vertices touched by some orbit in usable[:k]
        reachable = [0]
        for _, touch, _ in usable:
            reachable.append(reachable[-1] | touch)
        seen = [0] * width  # seen[e]: the vertices reached at element e so far

        def search(k: int, reached: int) -> int:
            if needy & ~(reached | reachable[k]):
                return -1
            if not k:
                return 0
            k -= 1
            found = search(k, reached)
            if found != -1:
                return found
            o, touch, reach = usable[k]
            for e, r in reach:
                if r & reached & ~seen[e]:
                    return -1  # some vertex already reached at another element
            saved = [seen[e] for e, _ in reach]
            for e, r in reach:
                seen[e] |= r
            found = search(k, reached | touch)
            for (e, _), old in zip(reach, saved):
                seen[e] = old
            return -1 if found == -1 else found | 1 << o

        res.append(search(len(usable), 0))
    return res


# verdict bits produced by scan_check_routes, one evaluation route per bit
AMO_GRAPH = 1 << 0
AMO_TRANSLATES = 1 << 1
AMO_PRODUCTSET = 1 << 2
DOM_GRAPH = 1 << 3
DOM_TRANSLATES = 1 << 4
IND_GRAPH = 1 << 5
IND_ALGEBRAIC = 1 << 6
PC_GRAPH = 1 << 7
PC_PARTITION = 1 << 8
PC_ALGEBRAIC = 1 << 9
TPC_GRAPH = 1 << 10
TPC_PARTITION = 1 << 11
TPC_ALGEBRAIC = 1 << 12


def scan_check_routes(n, mul_flat, inv_perm, alpha_perm, s_elems, nbr_masks, x_masks) -> list[int]:
    """Evaluate every route of the code criteria for a batch of subsets X.

    Returns one verdict int per X mask, with the bit layout of the
    ``*_GRAPH`` / ``*_PARTITION`` / ... constants above. Callers assert that
    the routes inside each group agree; that agreement is the content of
    the equivalence suites.
    """
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
            verdict |= AMO_GRAPH
        if amo_tr:
            verdict |= AMO_TRANSLATES
        if amo_ps:
            verdict |= AMO_PRODUCTSET
        if dom_g:
            verdict |= DOM_GRAPH
        if dom_tr:
            verdict |= DOM_TRANSLATES
        if ind_g:
            verdict |= IND_GRAPH
        if ind_alg:
            verdict |= IND_ALGEBRAIC
        if ind_g and out_one:
            verdict |= PC_GRAPH
        if pc_part:
            verdict |= PC_PARTITION
        if pc_alg:
            verdict |= PC_ALGEBRAIC
        if all_one:
            verdict |= TPC_GRAPH
        if tpc_part:
            verdict |= TPC_PARTITION
        if tpc_alg:
            verdict |= TPC_ALGEBRAIC
        out.append(verdict)
    return out
