"""Bitmask kernels: exact searches and batched route evaluation, used by
the oracles, the verification suites and the sweeps.

All set arguments are bitmasks (bit i = element i); neighbor masks are the
adjacency rows of a generalized Cayley graph. The code searches prune, and
return the same lists in the same order as the literal scans over all
subsets kept in ``tests/oracles.py``. The subgroup-code search reads
orbit lanes that :func:`orbit_lanes` packs and checks once per layout of
translates; ``AlphaContext.orbit_lanes`` keeps an involution's, so its
perfect and total code scans share them. The route kernel evaluates a whole
batch of X at once, one w-bit lane of a packed int per X, w being the
narrowest of 16, 32 and 64 bits that holds an X of order n; a count of at
most n elements then stays below the top bit of its lane, so no lane
carries into the next.
"""

from __future__ import annotations

import sys
from array import array
from functools import reduce
from itertools import repeat
from operator import and_, or_, sub
from typing import NamedTuple

from ._bits import bits, element_mask
from .errors import ThresholdError


# the two code kinds, by name, as every code search and decider takes them
CODE_KINDS = ("perfect", "total")


def _check_kind(kind) -> None:
    """Input check: :class:`ValueError` unless ``kind`` is one of
    :data:`CODE_KINDS`."""
    if kind not in CODE_KINDS:
        raise ValueError(f"kind must be one of {CODE_KINDS}, got {kind!r}")


def _check_masks(what: str, masks, n: int) -> None:
    """Input check: :class:`ValueError` naming ``what`` and the first mask
    that is not an int, is negative or has a bit at or above ``n``. One OR
    over the masks finds all three: it raises :class:`TypeError` for a
    float, str, None, bytes or complex, and is negative or above the full
    mask when some mask is. A bool reads as 0 or 1."""
    full = (1 << n) - 1
    try:
        union = reduce(or_, masks, 0)
        if 0 <= union <= full:
            return
    except TypeError:
        pass
    bad = next(m for m in masks if not (isinstance(m, int) and 0 <= m <= full))
    if not isinstance(bad, int):
        raise ValueError(f"{what} mask {bad!r} is not an int")
    raise ValueError(f"{what} mask {bad:#x} has an element outside 0..{n - 1}")


def scan_codes(nbr_masks, kind: str) -> list[int]:
    """All vertex subsets that are codes, as ascending masks.

    kind ``"total"``: total perfect codes (every vertex has exactly one
    neighbor in the set); kind ``"perfect"``: perfect codes (members have
    no neighbor in the set, everyone else exactly one). Any other kind and
    a neighbor mask that is not an int in 0..n-1 raise :class:`ValueError`.
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
    _check_masks("neighbor", nbr_masks, n)
    full = (1 << n) - 1
    total = kind == "total"
    eligible = full  # the vertices that may be members
    cons = []
    for v, c in enumerate(nbr_masks):
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


class OrbitLanes(NamedTuple):
    """The orbit lanes of one layout of translates, as :func:`orbit_lanes`
    builds them: ``lanes[e]`` has bit ``o*n + v`` when orbit o shows
    vertex v the element e."""

    n: int
    num_orbits: int
    lanes: tuple[int, ...]


def orbit_lanes(trans_masks, n: int) -> OrbitLanes:
    """Pack translates into orbit lanes for :func:`scan_subgroup_codes`.

    ``trans_masks`` is flattened n masks per orbit: entry ``o*n + g`` holds
    the neighbors vertex g gains when pairing-orbit o joins the connection
    set, and the neighbor mask of g is the OR over the chosen orbits. The
    translates of different orbits at one vertex must be disjoint, as
    ``orbit_translate_masks`` gives them (alpha(g)*o for disjoint orbits o),
    so a vertex sees each element from at most one orbit.

    Every orbit becomes one n-bit field of a packed int, laid out as
    :class:`OrbitLanes` describes, with ``len(trans_masks) // n`` orbits.
    An n below 1, a length that is not a multiple of n, a translate mask
    that is not an int in 0..n-1 and, checked last, two orbits whose
    translates at one vertex overlap each raise :class:`ValueError`.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    m, extra = divmod(len(trans_masks), n)
    if extra:
        raise ValueError(f"trans_masks holds {len(trans_masks)} masks, not a multiple of n = {n}")
    _check_masks("translate", trans_masks, n)
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
    return OrbitLanes(n, m, tuple(lanes))


def scan_subgroup_codes(lanes: OrbitLanes, kind: str, h_masks) -> list[int]:
    """For each subgroup mask, the least orbit-subset mask whose connection
    set makes it a code, else -1.

    ``lanes`` comes from :func:`orbit_lanes`, built once per layout of
    translates and read by any number of scans. For one subgroup H, a
    vertex v sees ``trans & H`` from each orbit; it needs none of H (v in
    H, for a perfect code) or exactly one element of H. An orbit that
    shows v two elements, or any element when v needs none, can never be
    chosen and is dropped. One pass over the elements of H, OR-ing their
    lanes, finds for all orbits at once the vertices each touches and
    those it touches twice, and a carry into the top bit of every field
    marks the orbits left.

    Shift-ORs by n, 2n, 4n, ... fold the usable orbits' fields into
    prefix unions, field o holding the vertices the usable orbits up to o
    touch, in ceil(log2 m) steps. The top field is every vertex some
    usable orbit touches: a subgroup with a needy vertex outside it is
    answered -1 there, with nothing searched or listed.

    The search decides the orbits from the highest index down, leaving
    each out before putting it in, so the first leaf reached is the least
    mask. Its state is one int, the vertices reached so far: an orbit
    clashes exactly when it touches one of them, since it would show that
    vertex a second element of H. The search prunes when a vertex still
    short of its element is touched by none of the undecided orbits. Pure
    neighbor counting, as in :func:`scan_codes`.

    A ``lanes`` that is not an :class:`OrbitLanes` raises
    :class:`TypeError`; a ``kind`` not in :data:`CODE_KINDS` and an H mask
    that is not an int in 0..n-1 raise :class:`ValueError`, before anything
    is folded or searched.
    """
    if not isinstance(lanes, OrbitLanes):
        raise TypeError(f"lanes must come from orbit_lanes, got {type(lanes).__name__}")
    n, m, lanes = lanes
    _check_kind(kind)
    _check_masks("H", h_masks, n)
    full = (1 << n) - 1
    orep = sum(1 << o * n for o in range(m))  # the low bit of every orbit field
    low_bits = orep * (full >> 1)  # all but the top bit of every field
    top_bits = low_bits + orep
    # shifting by n, 2n, 4n, ... ORs every field into all the fields above it
    head = max(n - 1, 0)  # the top bit of a field
    top = max(m - 1, 0)
    shifts = [n << i for i in range(top.bit_length())]
    last = top * n  # the base of the top field

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
        if kind == "perfect":
            needy ^= hm
            twice |= touch & hm * orep  # a member touched counts as twice
        # adding low_bits carries into the top bit of every non-zero field:
        # keep the orbits that touch some vertex (one that touches nothing
        # is never in the least mask) and none twice
        left = ((touch & low_bits) + low_bits | touch) & ~(
            (twice & low_bits) + low_bits | twice
        ) & top_bits
        # field o of prefix: the vertices the usable orbits up to o touch
        prefix = touch & (left >> head) * full
        for s in shifts:
            prefix |= prefix << s
        if needy & ~(prefix >> last):  # a vertex no usable orbit touches
            res.append(-1)
            continue
        usable = []  # (orbit, touched vertices), by orbit
        reachable = [0]  # reachable[k]: the vertices touched by usable[:k]
        while left:
            low = left & -left
            base = low.bit_length() - n
            usable.append((base // n, touch >> base & full))
            reachable.append(prefix >> base & full)
            left ^= low
        res.append(search(len(usable), 0))
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

# the lane layouts of scan_check_routes, narrowest first: (bits, array code)
_LANES = sorted({array(c).itemsize * 8: c for c in "HILQ"}.items())


def scan_check_routes(n, table, inv_perm, alpha_perm, s_elems, nbr_masks, x_masks) -> list[int]:
    """Evaluate every route of the code criteria for a batch of subsets X.

    ``table`` is the group's multiplication table (``table[a][b]`` = a*b).
    Returns one verdict int per X mask in the layout of the constants
    above, bit b equal to the predicate ``graphs.ROUTES[b]``, the one
    definition of each route. The suites check that the routes of each
    check agree, so each route counts X on its own table of rows, built
    from its definition alone: the graph's row v is N(v), from
    ``nbr_masks``; the translates' row g holds the a with g in alpha(a)S;
    the product set's row a the b with alpha(a^-1 b) in SS^-1 - {e}, and
    independence's the b with alpha(a^-1)b in S.

    X number i is lane i, bits i*w to i*w + w-1, of ``packed``, so summing
    the marks ``lanes[a]`` over a row counts its elements in X for every X
    at once. A count is at most n, and w >= n gives 2^(w-1) > n: adding
    2^(w-1) - k keeps a lane below 2^w, carries into no other lane, and
    sets its top bit iff the count is at least k. Each route is then the
    top bits of the lanes that pass it, and 16 bits hold the 13 verdict
    bits. That is O(n*|S| + n^2) big-int operations, none per X.

    Before any lane is packed, :class:`ValueError` names the argument when
    ``table``, ``inv_perm``, ``alpha_perm`` or ``nbr_masks`` does not hold
    n entries, when ``s_elems`` has an element that is not an int in
    0..n-1 or repeats one, and when a neighbor mask or an X is not an int,
    is negative or has a bit at or above n; an order above 64 raises
    :class:`~gencayley.errors.ThresholdError`.
    """
    for what, rows in (
        ("table", table), ("inv_perm", inv_perm), ("alpha_perm", alpha_perm), ("nbr_masks", nbr_masks)
    ):
        if len(rows) != n:
            raise ValueError(f"{what} holds {len(rows)} entries, expected n = {n}")
    try:
        s_mask = element_mask(n, s_elems)
    except ValueError as exc:
        raise ValueError(f"s_elems: {exc}") from None
    if s_mask.bit_count() != len(s_elems):
        raise ValueError(f"s_elems repeats an element: {tuple(s_elems)}")
    _check_masks("neighbor", nbr_masks, n)
    _check_masks("X", x_masks, n)
    if n > _LANES[-1][0]:
        raise ThresholdError(f"route kernel limited to order <= {_LANES[-1][0]}, got {n}")
    w, code = next(lane for lane in _LANES if lane[0] >= n)
    top = w - 1
    ones = int.from_bytes((array(code, [1]) * len(x_masks)).tobytes(), sys.byteorder)
    tops = ones << top
    k1 = tops - ones  # added to a count, sets the top bit iff it is at least 1
    packed = int.from_bytes(array(code, x_masks).tobytes(), sys.byteorder)
    lanes = [packed >> a & ones for a in range(n)]
    heads = [p << top for p in lanes]  # the same marks in the top bit

    # each table as the counts of its rows, plus k1
    graph = [sum([lanes[a] for a in bits(m)], k1) for m in nbr_masks]
    translates = [[] for _ in range(n)]
    for a in range(n):
        row = table[alpha_perm[a]]
        for s in s_elems:
            translates[row[s]].append(lanes[a])
    translates = [sum(row, k1) for row in translates]
    alpha_inv = sorted(range(n), key=alpha_perm.__getitem__)
    ss_inv = {table[s1][inv_perm[s2]] for s1 in s_elems for s2 in s_elems} - {0}  # 0 is e
    ts = [alpha_inv[t] for t in ss_inv]
    pairs = [sum([lanes[row[t]] for t in ts], k1) for row in table]  # b = a alpha^-1(t)
    indep = [table[inv_perm[alpha_perm[inv_perm[a]]]] for a in range(n)]
    indep = [sum([lanes[row[s]] for s in s_elems], k1) for row in indep]  # b = alpha(a^-1)^-1 s

    def own(counts):  # the lanes where X meets the row of one of its elements
        return reduce(or_, map(and_, heads, counts), 0)

    def meet(counts):  # X meets every row outside X, every row, a row twice
        return (
            reduce(and_, map(or_, heads, counts), tops),
            reduce(and_, counts, tops),
            reduce(or_, map(sub, counts, repeat(ones)), 0) & tops,
        )

    size = sum(lanes)

    def sized(m):  # |X| times m is n
        k = next((k for k in range(n + 1) if k * m == n), None)
        return 0 if k is None else tops & ~((size ^ k * ones) + k1)

    dom_g, cover_g, twice_g = meet(graph)
    dom_t, cover_t, twice_t = meet(translates)
    amo_g = tops ^ twice_g
    ind_g = tops ^ own(graph)
    amo_ps = tops ^ own(pairs)
    ind_alg = tops ^ own(indep)
    pc_size = sized(len(s_elems) + 1)
    tpc_size = sized(len(s_elems))
    passed = {
        AMO_GRAPH: amo_g,
        AMO_TRANSLATES: tops ^ twice_t,
        AMO_PRODUCTSET: amo_ps,
        DOM_GRAPH: dom_g,
        DOM_TRANSLATES: dom_t,
        IND_GRAPH: ind_g,
        IND_ALGEBRAIC: ind_alg,
        PC_GRAPH: dom_g & ind_g & amo_g,
        PC_PARTITION: pc_size & dom_t,
        PC_ALGEBRAIC: pc_size & ind_alg & amo_ps,
        TPC_GRAPH: cover_g & amo_g,
        TPC_PARTITION: tpc_size & cover_t,
        TPC_ALGEBRAIC: tpc_size & amo_ps,
    }
    verdicts = sum((ok >> top) * bit for bit, ok in passed.items())
    return array(code, verdicts.to_bytes(len(x_masks) * w // 8, sys.byteorder)).tolist()


def backend() -> str:
    """The kernel implementation, reported by ``gencayley --version``."""
    return "python"
