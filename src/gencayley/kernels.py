"""Bitmask kernels: exact searches and batched route evaluation, used by
the oracles, the verification suites and the sweeps.

All set arguments are bitmasks (bit i = element i); neighbor masks are the
adjacency rows of a generalized Cayley graph. The code searches prune, and
return the same lists in the same order as the literal scans over all
subsets kept in ``tests/oracles.py``.
"""

from __future__ import annotations

from ._bits import bits, mask_of


def _check_kind(kind) -> None:
    """Input check: :class:`ValueError` unless ``kind`` is 0 (perfect) or
    1 (total)."""
    if kind not in (0, 1):
        raise ValueError(f"kind must be 0 (perfect) or 1 (total), got {kind!r}")


def scan_codes(nbr_masks, kind: int) -> list[int]:
    """All vertex subsets that are codes, as ascending masks.

    kind 1: total perfect codes (every vertex has exactly one neighbor in
    the set); kind 0: perfect codes (members have no neighbor in the set,
    everyone else exactly one); any other kind raises :class:`ValueError`.
    Both are exact hitting: X is a code iff every vertex v has exactly one
    member of X in C_v, where C_v is N(v) for total codes and N(v) + {v}
    for perfect codes (a vertex with a self-loop can then never be a
    member). The search branches on the lowest vertex whose C_v is not hit
    yet, over the members of C_v still allowed; choosing x hits every C_v
    containing x and disallows all of their members. A vertex in no C_v is
    free and doubles every solution. Pure neighbor counting; no algebraic
    shortcuts, so this stays an independent oracle.
    """
    _check_kind(kind)
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
    set, and the neighbor mask of g is the OR over the chosen orbits. The
    translates of different orbits at one vertex must be disjoint, as
    ``orbit_translate_masks`` gives them (alpha(g)*o for disjoint orbits o),
    so a vertex sees each element from at most one orbit.
    For one subgroup H, a vertex v sees ``trans & H`` from each orbit; it
    needs none of H (kind 0 and v in H) or exactly one element of H. An
    orbit that shows v two elements, or any element when v needs none, can
    never be chosen and is dropped.

    Every orbit is one n-bit field of a packed int: ``lanes[e]`` has bit
    ``o*n + v`` when orbit o shows vertex v the element e. So one pass over
    the elements of H, OR-ing their lanes, finds for all orbits at once the
    vertices each touches and those it touches twice, and a carry into the
    top bit of every field marks the orbits left.

    The search decides the orbits from the highest index down, leaving
    each out before putting it in, so the first leaf reached is the least
    mask. Its state is one int, the vertices reached so far: an orbit
    clashes exactly when it touches one of them, since it would show that
    vertex a second element of H. The search prunes when a vertex still
    short of its element is touched by none of the undecided orbits. Pure
    neighbor counting, as in :func:`scan_codes`.

    A ``num_orbits`` below 0, a ``trans_masks`` whose length is not
    ``num_orbits * n``, a ``kind`` other than 0 or 1, a translate or H
    mask that is negative or has a bit at or above n, and, checked last,
    two orbits whose translates at one vertex overlap each raise
    :class:`ValueError` before anything is searched.
    """
    m = num_orbits
    if m < 0:
        raise ValueError(f"num_orbits must be at least 0, got {m}")
    if len(trans_masks) != m * n:
        raise ValueError(
            f"trans_masks holds {len(trans_masks)} masks, expected num_orbits * n = {m * n}"
        )
    _check_kind(kind)
    full = (1 << n) - 1
    for what, masks in (("translate", trans_masks), ("H", h_masks)):
        if masks and (min(masks) < 0 or max(masks) > full):
            bad = next(x for x in masks if not 0 <= x <= full)
            raise ValueError(f"{what} mask {bad:#x} has an element outside 0..{n - 1}")
    lanes = [0] * n
    shown = [0] * n  # shown[v]: the elements the orbits so far show v
    i = 0
    for o in range(m):
        for v in range(n):
            t = trans_masks[i]
            if shown[v] & t:
                first = next(p for p in range(o) if trans_masks[p * n + v] & t)
                raise ValueError(f"translates of orbits {first} and {o} overlap at vertex {v}")
            shown[v] |= t
            while t:
                low = t & -t
                lanes[low.bit_length() - 1] |= 1 << i
                t ^= low
            i += 1
    orep = sum(1 << o * n for o in range(m))  # the low bit of every orbit field
    low_bits = orep * (full >> 1)  # all but the top bit of every field
    top_bits = low_bits + orep

    def search(k: int, reached: int) -> int:
        # reads needy, usable and reachable of the current subgroup.
        # needy is inside reached | reachable[k]; leave orbits out while
        # that stays so, then put in the lowest that must be, or a later one
        j = k
        while j and not needy & ~(reached | reachable[j - 1]):
            j -= 1
        if not j:
            return 0
        while j <= k:
            o, t = usable[j - 1]
            if not t & reached:
                found = search(j - 1, reached | t)
                if found != -1:
                    return found | 1 << o
            j += 1
        return -1

    res = []
    for hm in h_masks:
        touch = twice = 0
        h = hm
        while h:
            low = h & -h
            lane = lanes[low.bit_length() - 1]
            twice |= touch & lane
            touch |= lane
            h ^= low
        needy = full  # the vertices that need exactly one element of H
        if kind != 1:
            needy ^= hm
            twice |= touch & hm * orep  # a member touched counts as twice
        # adding low_bits carries into the top bit of every non-zero field:
        # keep the orbits that touch some vertex (one that touches nothing
        # is never in the least mask) and none twice
        left = ((touch & low_bits) + low_bits | touch) & ~(
            (twice & low_bits) + low_bits | twice
        ) & top_bits
        usable = []  # (orbit, touched vertices), by orbit
        reachable = [0]  # reachable[k]: the vertices touched by usable[:k]
        while left:
            low = left & -left
            base = low.bit_length() - n
            t = touch >> base & full
            usable.append((base // n, t))
            reachable.append(reachable[-1] | t)
            left ^= low
        res.append(-1 if needy & ~reachable[-1] else search(len(usable), 0))
    return res


# verdict bits produced by scan_check_routes, one evaluation route per bit;
# graphs.ROUTES maps each bit to the route's predicate
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


def scan_check_routes(n, table, inv_perm, alpha_perm, s_elems, nbr_masks, x_masks) -> list[int]:
    """Evaluate every route of the code criteria for a batch of subsets X.

    ``table`` is the group's multiplication table (``table[a][b]`` = a*b).

    Returns one verdict int per X mask, with the bit layout of the
    ``*_GRAPH`` / ``*_PARTITION`` / ... constants above; bit b must equal
    the predicate ``graphs.ROUTES[b]``, which is the one definition of each
    route. Callers check that the routes inside each group agree; that
    agreement is the content of the equivalence suites, so each route has
    its own per-element table, built from that route's definition and from
    no other table:

    * graph: ``col[x]``, the vertices v with x in N(v). OR-ing the columns
      of X, and keeping the vertices hit a second time, tells for every v
      whether |N(v) & X| is 0, 1 or more.
    * translates: ``tr[a] = alpha(a)S``. The union over X is alpha(X)S;
      the translates are disjoint iff it has r|X| elements.
    * product set: ``ps[a] = {b : alpha(a^-1 b) in SS^-1 - {e}}`` and
      ``ind[a] = {b : alpha(a^-1)b in S}``. X meets the union of
      ``ps[a]`` over a in X iff alpha(X^-1 X) meets SS^-1 - {e}, and
      likewise ``ind`` for alpha(X^-1)X and S.

    Each X then costs one lookup per byte of its mask, after 256 table
    entries per byte of the element range. An X that is negative or has a
    bit at or above n raises :class:`ValueError` before anything is
    evaluated.
    """
    full = (1 << n) - 1
    if x_masks and (min(x_masks) < 0 or max(x_masks) > full):
        bad = next(xm for xm in x_masks if not 0 <= xm <= full)
        raise ValueError(f"X mask {bad:#x} has an element outside 0..{n - 1}")
    r = len(s_elems)
    verts = range(n)
    smask = mask_of(s_elems)
    ss_inv = 0
    for s1 in s_elems:
        row = table[s1]
        for s2 in s_elems:
            ss_inv |= 1 << row[inv_perm[s2]]
    ss_inv &= ~1  # without the identity, element 0

    col = [0] * n
    for v in verts:
        for x in bits(nbr_masks[v] & full):
            col[x] |= 1 << v
    tables = []  # per element a: (col, tr, ps, ind)
    for a in verts:
        row = table[alpha_perm[a]]
        tr = 0
        for s in s_elems:
            tr |= 1 << row[s]
        row = table[inv_perm[a]]
        ps = sum(1 << b for b in verts if ss_inv >> alpha_perm[row[b]] & 1)
        row = table[alpha_perm[inv_perm[a]]]
        ind = sum(1 << b for b in verts if smask >> row[b] & 1)
        tables.append((col[a], tr, ps, ind))

    # chunks[k][b]: (once, twice, union, ps_hit, ind_hit) of the subset b of
    # elements 8k..8k+7; each element doubles the table, its second half
    # being the first with that element added
    chunks = []
    for k in range(0, n or 1, 8):
        acc = [(0, 0, 0, 0, 0)]
        for c, tr, ps, ind in tables[k : k + 8]:
            acc += [(o | c, t | (o & c), u | tr, p | ps, i | ind) for o, t, u, p, i in acc]
        chunks.append(acc)
    low_byte = chunks[0]

    out = []
    for xm in x_masks:
        once, twice, union, ps_hit, ind_hit = low_byte[xm & 255]
        rest = xm >> 8
        k = 1
        while rest:
            o, t, u, p, i = chunks[k][rest & 255]
            twice |= t | (once & o)
            once |= o
            union |= u
            ps_hit |= p
            ind_hit |= i
            rest >>= 8
            k += 1
        size = xm.bit_count()
        outside = full ^ xm
        pc_size = size * (r + 1) == n
        tpc_size = size * r == n
        amo_ps = not ps_hit & xm
        ind_alg = not ind_hit & xm
        ind_g = not once & xm
        dom_g = not outside & ~once

        verdict = 0
        if not twice:
            verdict |= AMO_GRAPH
            if once == full:
                verdict |= TPC_GRAPH
        if r * size == union.bit_count():
            verdict |= AMO_TRANSLATES
        if amo_ps:
            verdict |= AMO_PRODUCTSET
            if tpc_size:
                verdict |= TPC_ALGEBRAIC
            if pc_size and ind_alg:
                verdict |= PC_ALGEBRAIC
        if dom_g:
            verdict |= DOM_GRAPH
            if ind_g and not outside & twice:
                verdict |= PC_GRAPH
        if not outside & ~union:
            verdict |= DOM_TRANSLATES
        if ind_g:
            verdict |= IND_GRAPH
        if ind_alg:
            verdict |= IND_ALGEBRAIC
        if pc_size and xm | union == full:
            verdict |= PC_PARTITION
        if tpc_size and union == full:
            verdict |= TPC_PARTITION
        out.append(verdict)
    return out


def backend() -> str:
    """The kernel implementation, reported by ``gencayley --version``."""
    return "python"
