"""Group automorphisms and the derived element sets of an involution.

For an automorphism ``a`` with ``a*a = id`` the package works with five
derived subsets of the group:

* ``omega``     -- ``{a(g^-1)*g : g in G}``: the elements that would create
  loops in a generalized Cayley graph; a connection set must avoid them.
* ``k_set``     -- ``{g : a(g) = g^-1}``: the fixed points of the pairing
  map ``tau: s -> a(s^-1)``.
* ``big_omega`` -- ``k_set`` minus ``omega``: tau-fixed elements that may
  appear alone in a connection set.
* ``mho``       -- complement of ``k_set``: elements moved by tau; they can
  occur in a connection set only together with their tau-partner.
* ``fix``       -- ``{g : a(g) = g}``.

``tau`` is an involution on the whole group; it fixes ``omega`` pointwise,
so its orbits on the complement of ``omega`` are singletons (``big_omega``)
and pairs (inside ``mho``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import kernels
from ._bits import bits, elems
from .errors import GenCayleyError, GroupFileError, ThresholdError
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    _check_group,
    _product_elements,
    _read_json,
    _right_generators,
)

AUT_ENUM_LIMIT = 48


@dataclass(eq=False)
class Automorphism:
    """A bijection on element indices verified to be a group homomorphism."""

    perm: tuple[int, ...]
    parent: FiniteGroup

    @cached_property
    def is_identity(self) -> bool:
        return all(self.perm[i] == i for i in range(len(self.perm)))

    @cached_property
    def squares_to_identity(self) -> bool:
        p = self.perm
        return all(p[p[i]] == i for i in range(len(p)))

    @cached_property
    def inverse_perm(self) -> tuple[int, ...]:
        out = [0] * len(self.perm)
        for i, v in enumerate(self.perm):
            out[v] = i
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Automorphism({list(self.perm)} on {self.parent.id})"


def _is_homomorphism(group: FiniteGroup, perm) -> tuple[int, int] | None:
    """First pair (a, b) with perm[a*b] != perm[a]*perm[b], or None."""
    t = group.table
    n = group.order
    for a in range(n):
        row = t[a]
        pa = perm[a]
        prow = t[pa]
        for b in range(n):
            if perm[row[b]] != prow[perm[b]]:
                return (a, b)
    return None


def automorphism_from_perm(group: FiniteGroup, perm) -> Automorphism:
    perm = tuple(perm)
    # bool is an int subclass, and truncating a float or parsing a string
    # would accept a map the caller never wrote
    bad = next((i for i, x in enumerate(perm) if type(x) is not int), None)
    if bad is not None:
        raise GenCayleyError(f"entry {bad} = {perm[bad]!r} is not an integer")
    if len(perm) != group.order or sorted(perm) != list(range(group.order)):
        raise GenCayleyError(f"not a permutation of 0..{group.order - 1}: {perm}")
    if perm[0] != 0:
        raise GenCayleyError("automorphism must fix the identity element 0")
    bad = _is_homomorphism(group, perm)
    if bad is not None:
        raise GenCayleyError(f"not a homomorphism: fails at pair {bad}")
    return Automorphism(perm, group)


def _search_automorphisms(group: FiniteGroup, involutive: bool) -> list[Automorphism]:
    """Generator-image search for Aut(G), or for its involutions.

    Images are chosen for a greedy generating sequence (the least element
    not yet generated, repeatedly) and propagated through products, with
    pruning on element order and on partial-homomorphism consistency. In
    involutive mode every binding x -> v also binds v -> x, so an image
    that is already taken prunes the branch at once, and the identity leaf
    is skipped. Every leaf is checked against the whole table. Results are
    sorted by permutation.
    """
    n = group.order
    table = group.table
    orders = group.element_orders
    gens = _right_generators(table)
    by_order: dict[int, list[int]] = {}
    for x in range(n):
        by_order.setdefault(orders[x], []).append(x)

    results: list[tuple[int, ...]] = []
    img = [-1] * n
    used = [False] * n
    img[0] = 0
    used[0] = True
    known = [0]  # elements with assigned images, in discovery order

    def bind(x: int, v: int) -> bool:
        """Assign x -> v (and v -> x in involutive mode) to an unbound x.

        False when v is already used. In involutive mode the bindings stay
        paired, so v unused means v unbound and x unbound means x unused.
        """
        if used[v]:
            return False
        img[x] = v
        used[v] = True
        known.append(x)
        if involutive and v != x:
            img[v] = x
            used[x] = True
            known.append(v)
        return True

    def close_over(gen_count: int, start: int) -> bool:
        """Propagate images through products with the first gen_count generators.

        Elements before known[start] are multiplied by the newest generator,
        the rest by all of them. Afterwards every known element has met
        every chosen generator, so the known set is closed under them and a
        leaf has checked every edge of the Cayley graph. False on a
        conflict; the caller undoes what was bound.
        """
        i = 0
        while i < len(known):
            x = known[i]
            row = table[x]
            irow = table[img[x]]
            for j in range(0 if i >= start else gen_count - 1, gen_count):
                g = gens[j]
                y = row[g]
                iy = irow[img[g]]
                if img[y] == -1:
                    if not bind(y, iy):
                        return False
                elif img[y] != iy:
                    return False
            i += 1
        return True

    def assign(level: int) -> None:
        if level == len(gens):
            if not involutive or any(img[g] != g for g in gens):
                results.append(tuple(img))
            return
        g = gens[level]
        # involutive mode: g may already be bound as the partner of an image
        bound = img[g] != -1
        for cand in (img[g],) if bound else by_order[orders[g]]:
            mark = len(known)
            if (bound or bind(g, cand)) and close_over(level + 1, mark):
                assign(level + 1)
            for y in known[mark:]:
                used[img[y]] = False
                img[y] = -1
            del known[mark:]

    assign(0)
    results.sort()
    for perm in results:
        bad = _is_homomorphism(group, perm)
        if bad is not None:
            raise GenCayleyError(
                f"automorphism search on {group.id} produced {list(perm)},"
                f" which fails the homomorphism law at pair {bad}"
            )
    return [Automorphism(p, group) for p in results]


def _check_limit(group: FiniteGroup) -> None:
    if group.order > AUT_ENUM_LIMIT:
        raise ThresholdError(
            f"automorphism enumeration limited to order <= {AUT_ENUM_LIMIT}, got {group.order}"
        )


def enumerate_automorphisms(group: FiniteGroup) -> list[Automorphism]:
    """Full automorphism group, sorted by permutation.

    The result is kept in ``group.cache.automorphisms``. The census and the
    involution listings never need it; see
    :func:`enumerate_involutory_automorphisms`.
    """
    _check_limit(group)
    if group.cache.automorphisms is None:
        group.cache.automorphisms = _search_automorphisms(group, involutive=False)
    return group.cache.automorphisms


def enumerate_involutory_automorphisms(
    group: FiniteGroup, include_identity: bool = False
) -> list[Automorphism]:
    """All automorphisms squaring to the identity, sorted by permutation.

    The search binds images in pairs and never lists Aut(G): Z2^4 has
    20,160 automorphisms but only 315 involutions. The list is the one the
    full enumeration gives after filtering, in the same order, and is kept
    in ``group.cache.involutions``.

    The identity map is excluded by default; pass ``include_identity`` to
    admit it (then generalized Cayley graphs degenerate to ordinary Cayley
    graphs, which is useful as a cross-check). It comes first.
    """
    _check_limit(group)
    if group.cache.involutions is None:
        group.cache.involutions = _search_automorphisms(group, involutive=True)
    if include_identity:
        return [Automorphism(tuple(range(group.order)), group), *group.cache.involutions]
    return group.cache.involutions


def inversion_automorphism(group: FiniteGroup):
    """The map g -> g^-1 when it is a non-identity automorphism.

    Returns ``(automorphism, None)`` on success, else ``(None, reason)``
    with reason ``"nonabelian"`` (inversion is a homomorphism only on
    abelian groups) or ``"equals-identity"`` (every element self-inverse).
    """
    if not group.is_abelian:
        return None, "nonabelian"
    perm = group.inv
    if all(perm[i] == i for i in range(group.order)):
        return None, "equals-identity"
    return Automorphism(tuple(perm), group), None


def product_automorphism(
    a1: Automorphism, a2: Automorphism, product_group: FiniteGroup
) -> Automorphism:
    """Componentwise automorphism on a direct product built by this package.

    ``product_group`` must use the pair numbering ``(a, b) -> a*|G2| + b``
    for the parents of ``a1`` and ``a2``.
    """
    if not (a1.squares_to_identity and a2.squares_to_identity):
        raise GenCayleyError("product automorphism requires both factors to square to identity")
    n1, n2 = a1.parent.order, a2.parent.order
    if product_group.order != n1 * n2:
        raise GenCayleyError(
            f"product group order {product_group.order} != {n1} * {n2}"
        )
    return automorphism_from_perm(product_group, _product_elements(a1.perm, a2.perm, n2))


def load_automorphism(path, group: FiniteGroup) -> Automorphism:
    """Load an automorphism from a JSON object file with field ``perm``."""
    data = _read_json(path)
    if not isinstance(data, dict) or "perm" not in data:
        raise GroupFileError(f"{path}: expected an object with field 'perm'")
    perm = data["perm"]
    if not isinstance(perm, list) or len(perm) != group.order:
        raise GroupFileError(f"{path}: field 'perm' must list {group.order} integers")
    try:
        return automorphism_from_perm(group, perm)
    except GenCayleyError as exc:
        raise GroupFileError(f"{path}: field 'perm': {exc}") from exc


# ---------------------------------------------------------------------------
# derived sets


@dataclass(eq=False)
class AlphaContext:
    """An involution of Aut(G) with its derived sets as element masks."""

    alpha: Automorphism
    omega_mask: int
    big_omega_mask: int
    mho_mask: int
    # the pairing map s -> alpha(s^-1) as an index array
    tau_perm: tuple[int, ...]
    # subgroup mask -> a handle of alpha(H), one of H's own mask when
    # alpha preserves it: the perfect and total perfect code decisions of a
    # pair share one evaluation. Filled by codes._decide on first use, or up
    # front by the census from its task's own handles.
    images: dict[int, SubgroupHandle] = field(default_factory=dict, init=False, repr=False)

    @property
    def group(self) -> FiniteGroup:
        return self.alpha.parent

    @property
    def omega(self) -> tuple[int, ...]:
        return elems(self.omega_mask)

    @property
    def big_omega(self) -> tuple[int, ...]:
        return elems(self.big_omega_mask)

    @property
    def mho(self) -> tuple[int, ...]:
        return elems(self.mho_mask)

    @property
    def k_set(self) -> tuple[int, ...]:
        # tau fixes every alpha(g^-1)*g, so omega lies inside k_set
        return elems(self.omega_mask | self.big_omega_mask)

    @property
    def fix(self) -> tuple[int, ...]:
        perm = self.alpha.perm
        return tuple([g for g in range(len(perm)) if perm[g] == g])

    @cached_property
    def tau_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of tau on the complement of omega, sorted by least element.

        Singleton orbits are exactly the big_omega elements, pairs lie in
        mho. Valid connection sets are exactly the unions of these orbits.
        """
        tau = self.tau_perm
        live = bits(self.big_omega_mask | self.mho_mask)  # each orbit from its least element
        return tuple([(x,) if x == tau[x] else (x, tau[x]) for x in live if x <= tau[x]])

    @cached_property
    def orbit_lanes(self) -> kernels.OrbitLanes:
        """The tau-orbits' translates packed by :func:`kernels.orbit_lanes`,
        built and checked on first use and kept: the perfect and total code
        scans of this involution read the same lanes."""
        return kernels.orbit_lanes(orbit_translate_masks(self), self.group.order)


def alpha_context(group: FiniteGroup, alpha: Automorphism) -> AlphaContext:
    """Derive the sets of an involution in one pass over the group: omega
    from the products alpha(g^-1)*g, and k_set as the fixed points of tau."""
    _check_group(group, alpha.parent, "automorphism")
    if not alpha.squares_to_identity:
        raise GenCayleyError("alpha must square to the identity")
    perm = alpha.perm
    table = group.table
    tau = tuple([perm[x] for x in group.inv])
    omega = k_set = 0
    for g, t in enumerate(tau):
        omega |= 1 << table[t][g]
        if t == g:
            k_set |= 1 << g
    full = (1 << group.order) - 1
    return AlphaContext(alpha, omega, k_set & ~omega, full & ~k_set, tau)


def _cached_context(group: FiniteGroup, perm: tuple[int, ...]) -> AlphaContext:
    """The group's one context of the involution ``perm``, kept in
    ``group.cache.contexts``; an :class:`Automorphism` and its context are
    built only on a miss. ``perm`` must be an involutory automorphism of
    ``group``, which :func:`alpha_context` checks only on that miss."""
    ctx = group.cache.contexts.get(perm)
    if ctx is None:
        ctx = group.cache.contexts[perm] = alpha_context(group, Automorphism(perm, group))
    return ctx


def involution_contexts(group: FiniteGroup) -> list[AlphaContext]:
    """The context of every involution, indexed like
    :func:`enumerate_involutory_automorphisms` (and the CLI's ``--alpha``),
    each the group's one context of its perm, which
    :func:`codes.transport_automorphism` reads too."""
    return [_cached_context(group, a.perm) for a in enumerate_involutory_automorphisms(group)]


def orbit_translate_masks(ctx: AlphaContext) -> list[int]:
    """For each tau-orbit o and each element g, the mask of alpha(g)*o: the
    neighbors g gains when o joins the connection set. Flattened orbit by
    orbit, as ``kernels.scan_subgroup_codes`` takes them."""
    rows = ctx.group.bit_rows
    alpha = ctx.alpha.perm
    trans = []
    for orbit in ctx.tau_orbits:
        for ag in alpha:
            row = rows[ag]
            m = 0
            for s in orbit:
                m |= row[s]
            trans.append(m)
    return trans
