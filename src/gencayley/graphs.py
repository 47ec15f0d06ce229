"""Generalized Cayley graphs, the route table and the elementary
neighborhood checks.

Given a group G, an involution ``a`` of Aut(G) and a connection set S, the
graph has vertex set G and an edge {g, h} whenever ``a(g^-1) * h`` lies in
S. S must avoid the loop set ``omega`` and be closed under the pairing map
``tau: s -> a(s^-1)``; those two conditions make the edge relation
symmetric and loop-free, and every vertex has exactly |S| neighbors
``a(g) * S``.

:data:`ROUTES` defines every evaluation route of the five checks (at most
one neighbor, domination, independence, perfect and total perfect code)
once, and :data:`CHECKS` names the routes of each check by mode;
:func:`evaluate` runs any check by any of its modes, finding its route in
one lookup, and the deciders in :mod:`codes`, the verification suites and
the kernel tests all read them. Each route reads only its own data, so
the routes of one check stay independent evaluations: the graph routes
read the neighbor masks, each in one pass over them, and the translate
and algebraic routes read the group table, ``inv``, alpha and S,
including the cached SS^-1 of :attr:`GenCayleyGraph.ss_inv`, and never
the neighbor masks. The at-most-one translate route counts the union
alpha(X)S that domination and the partition routes build, and the two
algebraic routes share one loop over the left products alpha(x^-1)y.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from . import kernels
from ._bits import bits, element_mask, elems, fmt_set
from .automorphisms import AlphaContext
from .errors import SubsetInvalidError, ThresholdError
from .groups import FiniteGroup

MAX_SUBSET_ORBITS = 20  # enumerating connection sets scans 2^orbits choices


@dataclass(eq=False, slots=True)
class GenCayleySubset:
    """A validated connection set for a fixed involution context, with
    ``mask`` the mask of ``elements``, given when it is built. Builders
    pass it by position: a keyword argument costs the census about 2% for
    its tens of thousands of witnesses. Slotted: no attribute dict."""

    elements: tuple[int, ...]
    context: AlphaContext
    mask: int

    @property
    def size(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GenCayleySubset({fmt_set(self.elements)})"


def subset_violation(ctx: AlphaContext, elements: Iterable[int]):
    """First violated condition as (reason, witness element), or None."""
    return _violation(ctx, elements)[1]


def _violation(ctx: AlphaContext, elements: Iterable[int]):
    """The mask of the in-range ``elements`` and the first violated
    condition as (reason, witness element), or None. The conditions are
    checked in the order not-an-integer, out-of-range, omega-intersection,
    tau-closure. Nothing is cast: the not-an-integer witness is the first
    string or in-range float, a bool counts as 0 or 1, and every other
    witness is the smallest offending element."""
    n = ctx.group.order
    tau = ctx.tau_perm
    mask = image = 0  # S and tau(S)
    low = None
    for s in elements:
        try:
            if 0 <= s < n:
                mask |= 1 << s
                image |= 1 << tau[s]
            elif low is None or s < low:
                low = s
        except TypeError:
            return mask, ("not-an-integer", s)
    if low is not None:
        return mask, ("out-of-range", low)
    return mask, _mask_violation(ctx, mask, image)


def _mask_violation(ctx: AlphaContext, mask: int, image: int):
    """The first omega-intersection or tau-closure fault, as in
    :func:`_violation`, of the set ``mask`` with tau-image ``image``."""
    hit = mask & ctx.omega_mask
    if hit:
        return "omega-intersection", (hit & -hit).bit_length() - 1
    # tau is an involution, so s has its partner in S exactly when s is in tau(S)
    unpaired = mask & ~image
    if unpaired:
        return "tau-closure", (unpaired & -unpaired).bit_length() - 1
    return None


def validate_subset(ctx: AlphaContext, elements: Iterable[int]) -> GenCayleySubset:
    """Validate a connection set; the empty set is allowed.

    Raises :class:`SubsetInvalidError` naming the violated condition
    (``not-an-integer``, ``out-of-range``, ``omega-intersection`` or
    ``tau-closure``) and a witness element.
    """
    mask, bad = _violation(ctx, elements)
    if bad is not None:
        raise SubsetInvalidError(*bad)
    return GenCayleySubset(elems(mask), ctx, mask)


def enumerate_subsets(ctx: AlphaContext) -> Iterator[GenCayleySubset]:
    """Yield every connection set, as unions of tau-orbits.

    Orbits of the pairing map on the complement of the loop set have size 1
    (big_omega members) or 2 (mho pairs); the valid connection sets are
    exactly the unions of orbits, so the scan covers 2^(#orbits) sets, in
    ascending orbit-mask order. Refuses more than
    :data:`MAX_SUBSET_ORBITS` orbits.
    """
    orbits = ctx.tau_orbits
    if len(orbits) > MAX_SUBSET_ORBITS:
        raise ThresholdError(
            f"{len(orbits)} tau-orbits exceeds the enumeration bound {MAX_SUBSET_ORBITS}"
        )
    for om in range(1 << len(orbits)):
        yield subset_from_orbit_mask(ctx, om)


def subset_from_orbit_mask(ctx: AlphaContext, orbit_mask: int) -> GenCayleySubset:
    """The union of the tau-orbits whose bits are set in ``orbit_mask``;
    :class:`ValueError` names a mask that is not an int in 0..2^k - 1 for
    the context's k orbits."""
    orbits = ctx.tau_orbits
    top = (1 << len(orbits)) - 1
    if not (isinstance(orbit_mask, int) and 0 <= orbit_mask <= top):
        raise ValueError(f"orbit mask {orbit_mask!r} is not an int in 0..{top}")
    mask = 0
    for i, orbit in enumerate(orbits):
        if orbit_mask >> i & 1:
            for s in orbit:
                mask |= 1 << s
    return GenCayleySubset(elems(mask), ctx, mask)


@dataclass(eq=False)
class GenCayleyGraph:
    """Simple |S|-regular graph on the group elements, stored as one
    neighbor mask per vertex: bit h of ``nbr_masks[g]`` means g ~ h."""

    group: FiniteGroup
    subset: GenCayleySubset
    nbr_masks: tuple[int, ...]

    @property
    def degree(self) -> int:
        return self.subset.size

    @property
    def context(self) -> AlphaContext:
        return self.subset.context

    @cached_property
    def ss_inv(self) -> int:
        """SS^-1 as a mask for the product-set route, computed once per graph
        from the connection set alone."""
        rows, inv = self.group.bit_rows, self.group.inv
        elements = self.subset.elements
        m = 0
        for s in elements:
            row = rows[s]
            for t in elements:
                m |= row[inv[t]]
        return m

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once, as (g, h) with g < h, in ascending order."""
        # m & -(2 << g) keeps the neighbors of g above g
        return [(g, h) for g, m in enumerate(self.nbr_masks) for h in bits(m & -(2 << g))]


def build_graph(subset: GenCayleySubset) -> GenCayleyGraph:
    """Construct the graph; the validity of S makes it loop-free,
    symmetric and |S|-regular, which the graph-laws suite re-checks."""
    ctx = subset.context
    rows = ctx.group.bit_rows
    elements = subset.elements
    # vertex g is joined to alpha(g) * s for every s in the connection set
    nbr_masks = []
    for ag in ctx.alpha.perm:
        row = rows[ag]
        m = 0
        for s in elements:
            m |= row[s]
        nbr_masks.append(m)
    return GenCayleyGraph(ctx.group, subset, tuple(nbr_masks))


# ---------------------------------------------------------------------------
# the route table: every evaluation route of every check, written once from
# its definition as a predicate (graph, X mask) -> bool and keyed by its
# verdict bit in :mod:`kernels`. :func:`evaluate` runs the requested
# route only; the mode-agreement suite compares the routes of each check
# with each other and with the batch kernel.


def _translates(graph: GenCayleyGraph, xmask: int) -> int:
    """alpha(X)S, the union of the translates alpha(X)s over s in S."""
    rows, alpha = graph.group.bit_rows, graph.context.alpha.perm
    elements = graph.subset.elements
    union = 0
    for x in bits(xmask):
        row = rows[alpha[x]]
        for s in elements:
            union |= row[s]
    return union


def _amo_graph(graph: GenCayleyGraph, xmask: int) -> bool:
    for nm in graph.nbr_masks:
        hit = nm & xmask
        if hit & (hit - 1):
            return False
    return True


def _amo_translates(graph: GenCayleyGraph, xmask: int) -> bool:
    # the translates alpha(X)s are pairwise disjoint for distinct s; alpha(x)s
    # is one-to-one in x and in s, so the |X||S| products are distinct
    # exactly when their union has |X||S| elements
    return _translates(graph, xmask).bit_count() == xmask.bit_count() * len(graph.subset.elements)


def _products(graph: GenCayleyGraph, xs: list[int], ys: list[int]) -> int:
    """The mask of the left products alpha(x^-1) * y, x in xs and y in ys."""
    rows, inv, alpha = graph.group.bit_rows, graph.group.inv, graph.context.alpha.perm
    products = 0
    for x in xs:
        row = rows[alpha[inv[x]]]
        for y in ys:
            products |= row[y]
    return products


def _amo_productset(graph: GenCayleyGraph, xmask: int) -> bool:
    # alpha(X^-1)alpha(X) meets SS^-1 only in the identity; both products
    # contain e whenever X and S are nonempty, so "subset of {e}" is the
    # reading that stays consistent with the graph route on empty inputs
    alpha = graph.context.alpha.perm
    xs = bits(xmask)
    return not _products(graph, xs, [alpha[y] for y in xs]) & graph.ss_inv & ~1


def _dom_graph(graph: GenCayleyGraph, xmask: int) -> bool:
    # every vertex outside X has a neighbor in X
    v = 1
    for nm in graph.nbr_masks:
        if not (nm & xmask or xmask & v):
            return False
        v <<= 1
    return True


def _dom_translates(graph: GenCayleyGraph, xmask: int) -> bool:
    # X and alpha(X)S together cover G
    return xmask | _translates(graph, xmask) == (1 << graph.group.order) - 1


def _ind_graph(graph: GenCayleyGraph, xmask: int) -> bool:
    # no member of X has a neighbor in X
    masks = graph.nbr_masks
    x = xmask
    while x:
        low = x & -x
        if masks[low.bit_length() - 1] & xmask:
            return False
        x ^= low
    return True


def _ind_algebraic(graph: GenCayleyGraph, xmask: int) -> bool:
    # alpha(X^-1)X is disjoint from S
    xs = bits(xmask)
    return not _products(graph, xs, xs) & graph.subset.mask


def _pc_graph(graph: GenCayleyGraph, xmask: int) -> bool:
    # members of X have no neighbor in X, every other vertex exactly one
    v = 1
    for nm in graph.nbr_masks:
        hit = nm & xmask
        if xmask & v:
            if hit:
                return False
        elif not hit or hit & (hit - 1):
            return False
        v <<= 1
    return True


def _tpc_graph(graph: GenCayleyGraph, xmask: int) -> bool:
    # every vertex has exactly one neighbor in X
    for nm in graph.nbr_masks:
        hit = nm & xmask
        if not hit or hit & (hit - 1):
            return False
    return True


def _blocks(graph: GenCayleyGraph, xmask: int, extra: int) -> bool:
    """Do |S| + ``extra`` blocks of |X| elements add up to |G|? ``extra``
    is 1 when X itself is a block beside its |S| translates."""
    return xmask.bit_count() * (len(graph.subset.elements) + extra) == graph.group.order


ROUTES = {
    kernels.AMO_GRAPH: _amo_graph,
    kernels.AMO_TRANSLATES: _amo_translates,
    kernels.AMO_PRODUCTSET: _amo_productset,
    kernels.DOM_GRAPH: _dom_graph,
    kernels.DOM_TRANSLATES: _dom_translates,
    kernels.IND_GRAPH: _ind_graph,
    kernels.IND_ALGEBRAIC: _ind_algebraic,
    # perfect code: independent, and every outside vertex has exactly one
    # neighbor in X; equivalently X and the r translates partition G
    kernels.PC_GRAPH: _pc_graph,
    kernels.PC_PARTITION: lambda g, x: _blocks(g, x, 1) and _dom_translates(g, x),
    kernels.PC_ALGEBRAIC: lambda g, x: (
        _blocks(g, x, 1) and _ind_algebraic(g, x) and _amo_productset(g, x)
    ),
    # total perfect code: every vertex has exactly one neighbor in X;
    # equivalently the r translates partition G
    kernels.TPC_GRAPH: _tpc_graph,
    kernels.TPC_PARTITION: lambda g, x: (
        _blocks(g, x, 0) and _translates(g, x) == (1 << g.group.order) - 1
    ),
    kernels.TPC_ALGEBRAIC: lambda g, x: _blocks(g, x, 0) and _amo_productset(g, x),
}

# ---------------------------------------------------------------------------
# the five checks: each check's modes with the verdict bit of their route,
# the graph route first. :func:`evaluate`, the oracle suites and the
# mode-agreement suite read which routes belong to which check here only.

CHECKS = {
    "at-most-one": {
        "graph": kernels.AMO_GRAPH,
        "cosets": kernels.AMO_TRANSLATES,
        "product-set": kernels.AMO_PRODUCTSET,
    },
    "dominates": {"graph": kernels.DOM_GRAPH, "translates": kernels.DOM_TRANSLATES},
    "independent": {"graph": kernels.IND_GRAPH, "algebraic": kernels.IND_ALGEBRAIC},
    "perfect": {
        "graph": kernels.PC_GRAPH,
        "partition": kernels.PC_PARTITION,
        "algebraic": kernels.PC_ALGEBRAIC,
    },
    "total": {
        "graph": kernels.TPC_GRAPH,
        "partition": kernels.TPC_PARTITION,
        "algebraic": kernels.TPC_ALGEBRAIC,
    },
}


# each (check, mode) of CHECKS with its route, for evaluate's one lookup
_ROUTE_OF = {
    (check, mode): ROUTES[bit] for check, modes in CHECKS.items() for mode, bit in modes.items()
}


def evaluate(check: str, graph: GenCayleyGraph, X: Iterable[int], mode: str = "graph") -> bool:
    """Evaluate ``check`` on X by the route of ``mode``, one of the modes
    :data:`CHECKS` lists for it. A check that :data:`CHECKS` does not name,
    and any other mode, raise :class:`ValueError`."""
    try:
        route = _ROUTE_OF[check, mode]
    except (KeyError, TypeError):  # TypeError: an unhashable check or mode
        if isinstance(check, str) and check in CHECKS:
            raise ValueError(f"mode must be one of {tuple(CHECKS[check])}, got {mode!r}") from None
        raise ValueError(f"check must be one of {tuple(CHECKS)}, got {check!r}") from None
    return route(graph, element_mask(graph.group.order, X))


# ---------------------------------------------------------------------------
# export


def export_dot(graph: GenCayleyGraph) -> str:
    """Deterministic DOT rendering, vertices labeled by element names, with
    ``\\`` and ``"`` escaped inside the quoted labels."""
    group = graph.group
    lines = ["graph gencayley {"]
    for v in range(group.order):
        label = group.name_of(v).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{label}"];')
    for g, h in graph.edges():
        lines.append(f"  {g} -- {h};")
    lines.append("}")
    return "\n".join(lines) + "\n"
