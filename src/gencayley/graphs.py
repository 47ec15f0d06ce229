"""Generalized Cayley graphs and the elementary neighborhood checks.

Given a group G, an involution ``a`` of Aut(G) and a connection set S, the
graph has vertex set G and an edge {g, h} whenever ``a(g^-1) * h`` lies in
S. S must avoid the loop set ``omega`` and be closed under the pairing map
``tau: s -> a(s^-1)``; those two conditions make the edge relation
symmetric and loop-free, and every vertex has exactly |S| neighbors
``a(g) * S``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from ._bits import bits, fmt_set, mask_of, perm_mask, product_mask
from .automorphisms import AlphaContext
from .errors import SubsetInvalidError, ThresholdError
from .groups import FiniteGroup

MAX_SUBSET_ORBITS = 20  # enumerating connection sets scans 2^orbits choices


@dataclass(eq=False)
class GenCayleySubset:
    """A validated connection set for a fixed involution context."""

    elements: tuple[int, ...]
    context: AlphaContext

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def mask(self) -> int:
        return mask_of(self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GenCayleySubset({fmt_set(self.elements)})"


def subset_violation(ctx: AlphaContext, elements: Iterable[int]):
    """First violated condition as (reason, witness element), or None."""
    return _sorted_violation(ctx, sorted(set(int(x) for x in elements)))


def _sorted_violation(ctx: AlphaContext, elems):
    """:func:`subset_violation` for elements already sorted and distinct."""
    for s in elems:
        if not (0 <= s < ctx.group.order):
            return ("out-of-range", s)
    emask = mask_of(elems)
    hit = emask & ctx.omega_mask
    if hit:
        return ("omega-intersection", bits(hit)[0])
    for s in elems:
        if not (emask >> ctx.tau(s)) & 1:
            return ("tau-closure", s)
    return None


def validate_subset(ctx: AlphaContext, elements: Iterable[int]) -> GenCayleySubset:
    """Validate a connection set; the empty set is allowed.

    Raises :class:`SubsetInvalidError` naming the violated condition
    (``omega-intersection`` or ``tau-closure``) and a witness element.
    """
    elems = tuple(sorted(set(int(x) for x in elements)))
    bad = _sorted_violation(ctx, elems)
    if bad is not None:
        raise SubsetInvalidError(*bad)
    return GenCayleySubset(elems, ctx)


def count_subsets(ctx: AlphaContext) -> int:
    return 1 << len(ctx.tau_orbits)


def enumerate_subsets(
    ctx: AlphaContext,
    size_filter: int | None = None,
    max_orbits: int = MAX_SUBSET_ORBITS,
) -> Iterator[GenCayleySubset]:
    """Yield every connection set, as unions of tau-orbits.

    Orbits of the pairing map on the complement of the loop set have size 1
    (big_omega members) or 2 (mho pairs); the valid connection sets are
    exactly the unions of orbits, so the scan covers 2^(#orbits) sets, in
    ascending orbit-mask order. ``size_filter`` keeps only sets of that
    size.
    """
    orbits = ctx.tau_orbits
    if len(orbits) > max_orbits:
        raise ThresholdError(
            f"{len(orbits)} tau-orbits exceeds the enumeration bound {max_orbits}"
        )
    sizes = [len(o) for o in orbits]
    for om in range(1 << len(orbits)):
        if size_filter is not None:
            total = 0
            sm = om
            while sm:
                total += sizes[(sm & -sm).bit_length() - 1]
                sm &= sm - 1
            if total != size_filter:
                continue
        chosen: list[int] = []
        for i, orbit in enumerate(orbits):
            if om >> i & 1:
                chosen.extend(orbit)
        yield GenCayleySubset(tuple(sorted(chosen)), ctx)


def subset_from_orbit_mask(ctx: AlphaContext, orbit_mask: int) -> GenCayleySubset:
    chosen: list[int] = []
    for i, orbit in enumerate(ctx.tau_orbits):
        if orbit_mask >> i & 1:
            chosen.extend(orbit)
    return GenCayleySubset(tuple(sorted(chosen)), ctx)


@dataclass(eq=False)
class GenCayleyGraph:
    """Simple |S|-regular graph on the group elements."""

    group: FiniteGroup
    subset: GenCayleySubset
    adjacency: tuple[tuple[int, ...], ...]
    nbr_masks: tuple[int, ...]

    @property
    def degree(self) -> int:
        return self.subset.size

    @property
    def context(self) -> AlphaContext:
        return self.subset.context

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for g, row in enumerate(self.adjacency):
            for h in row:
                if g < h:
                    out.append((g, h))
        return out


def build_graph(subset: GenCayleySubset) -> GenCayleyGraph:
    """Construct the graph; symmetry, loop-freeness and regularity are asserted."""
    ctx = subset.context
    group = ctx.group
    table = group.table
    elements = subset.elements
    # vertex g is joined to alpha(g) * s for every s in the connection set
    adjacency = tuple([
        tuple(sorted([row[s] for s in elements]))
        for row in [table[ag] for ag in ctx.alpha.perm]
    ])
    nbr_masks = tuple([mask_of(nbrs) for nbrs in adjacency])
    graph = GenCayleyGraph(group, subset, adjacency, nbr_masks)
    if __debug__:
        size = subset.size
        for g, nbrs in enumerate(adjacency):
            bit = 1 << g
            assert not nbr_masks[g] & bit, f"loop at vertex {g}"
            assert len(nbrs) == size, f"vertex {g} not {size}-regular"
            for h in nbrs:
                assert nbr_masks[h] & bit, f"asymmetric edge ({g},{h})"
    return graph


def _as_mask(graph: GenCayleyGraph, X: Iterable[int]) -> int:
    m = mask_of(int(x) for x in X)
    if m >> graph.group.order:
        raise ValueError("X contains elements outside the group")
    return m


# ---------------------------------------------------------------------------
# the three elementary checks; each computes all its evaluation routes and
# asserts they agree before returning the requested one

AMO_MODES = ("graph", "cosets", "product-set")


def _amo_routes(graph: GenCayleyGraph, xmask: int) -> tuple[bool, bool, bool]:
    ctx = graph.context
    group = graph.group
    # (graph) neighbor counting
    by_graph = all((nm & xmask).bit_count() <= 1 for nm in graph.nbr_masks)
    # (cosets) the translates alpha(X)s are pairwise disjoint for distinct s
    ax = perm_mask(ctx.alpha.perm, xmask)
    translates = [
        product_mask(group.table, ax, 1 << s) for s in graph.subset.elements
    ]
    union = 0
    total = 0
    for t in translates:
        union |= t
        total += t.bit_count()
    by_translates = total == union.bit_count()
    # (product-set) alpha(X^-1)alpha(X) meets SS^-1 only in the identity;
    # both products contain e whenever X and S are nonempty, so "subset of
    # {e}" is the reading that stays consistent with the graph route on
    # empty inputs
    xinv = perm_mask(group.inv, xmask)
    p1 = perm_mask(ctx.alpha.perm, product_mask(group.table, xinv, xmask))
    sm = graph.subset.mask
    ss_inv = product_mask(group.table, sm, perm_mask(group.inv, sm))
    by_products = p1 & ss_inv & ~1 == 0
    return by_graph, by_translates, by_products


def check_at_most_one(graph: GenCayleyGraph, X: Iterable[int], mode: str = "graph") -> bool:
    """Is every vertex adjacent to at most one member of X?

    Three interchangeable evaluations: neighbor counting, pairwise
    disjointness of the translates alpha(X)s, and the product-set test.
    All three are computed and asserted equal.
    """
    if mode not in AMO_MODES:
        raise ValueError(f"mode must be one of {AMO_MODES}, got {mode!r}")
    routes = _amo_routes(graph, _as_mask(graph, X))
    assert routes[0] == routes[1] == routes[2], f"route disagreement: {routes}"
    return routes[AMO_MODES.index(mode)]


def _dominates_routes(graph: GenCayleyGraph, xmask: int) -> tuple[bool, bool]:
    group = graph.group
    ctx = graph.context
    outside = ((1 << group.order) - 1) & ~xmask
    by_graph = all(
        graph.nbr_masks[v] & xmask for v in bits(outside)
    )
    ax = perm_mask(ctx.alpha.perm, xmask)
    union = product_mask(group.table, ax, graph.subset.mask)
    by_union = outside & ~union == 0
    return by_graph, by_union


def check_dominates(graph: GenCayleyGraph, X: Iterable[int]) -> bool:
    """Is every vertex outside X adjacent to at least one member of X?

    Evaluated both by neighbor scanning and by covering with the translate
    union; the two results are asserted equal.
    """
    routes = _dominates_routes(graph, _as_mask(graph, X))
    assert routes[0] == routes[1], f"route disagreement: {routes}"
    return routes[0]


def _independent_routes(graph: GenCayleyGraph, xmask: int) -> tuple[bool, bool]:
    group = graph.group
    ctx = graph.context
    by_graph = all(
        graph.nbr_masks[v] & xmask == 0 for v in bits(xmask)
    )
    xinv = perm_mask(group.inv, xmask)
    p2 = product_mask(group.table, perm_mask(ctx.alpha.perm, xinv), xmask)
    by_algebra = p2 & graph.subset.mask == 0
    return by_graph, by_algebra


def check_independent(graph: GenCayleyGraph, X: Iterable[int]) -> bool:
    """Does X span no edge? Graph scan and the algebraic test
    alpha(X^-1)X disjoint from S, asserted equal."""
    routes = _independent_routes(graph, _as_mask(graph, X))
    assert routes[0] == routes[1], f"route disagreement: {routes}"
    return routes[0]


# ---------------------------------------------------------------------------
# export


def export_dot(graph: GenCayleyGraph) -> str:
    """Deterministic DOT rendering, vertices labeled by element names."""
    group = graph.group
    lines = ["graph gencayley {"]
    for v in range(group.order):
        lines.append(f'  {v} [label="{group.name_of(v)}"];')
    for g, h in graph.edges():
        lines.append(f"  {g} -- {h};")
    lines.append("}")
    return "\n".join(lines) + "\n"
