"""Concrete finite groups as validated Cayley tables over element indices.

Conventions, fixed across the whole package:

* elements are the indices ``0 .. order-1`` and element 0 is the identity;
* ``table[a][b]`` is the product ``a*b``;
* cyclic groups are numbered by residues (addition mod n);
* dihedral groups of order 2n put the n rotations first (``k`` is the
  rotation by k) and the n reflections after them (``n+k`` is the map
  ``x -> k-x`` on rotation exponents);
* direct products use lexicographic pairs, second factor fastest:
  ``(a, b) -> a*|G2| + b``;
* symmetric groups list permutations of ``0..n-1`` in lexicographic order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import permutations
from operator import itemgetter

from ._bits import bit_tuple, bits, element_mask, elems
from .errors import GenCayleyError, GroupFileError, GroupValidationError, ThresholdError

SUBGROUP_ENUM_LIMIT = 64
SYMMETRIC_DEGREE_LIMIT = 5


@dataclass(eq=False)
class GroupCache:
    """Data derived from one group, computed on first use and kept with it.

    Every entry depends only on the group's table. The cache is never
    pickled: a worker process that receives a group starts with an empty
    one and fills it as it goes. ``involutions`` is searched for directly,
    so a run that needs only the involutions (the census, for one) leaves
    ``automorphisms`` empty. ``contexts`` is filled by
    :func:`automorphisms.involution_contexts` and by
    :func:`codes.transport_automorphism`, one context per involution
    however many transports reach it; the census builds each task's
    context itself and leaves it empty. ``subgroups`` is keyed by each
    subgroup's element mask; coset decompositions are kept on each
    subgroup's own handle, see :func:`cosets`.
    """

    # element mask -> its validated handle, see :func:`subgroup`
    subgroups: dict[int, SubgroupHandle] = field(default_factory=dict)
    # Aut(G) sorted by permutation, see automorphisms.enumerate_automorphisms
    automorphisms: list | None = None
    # the non-identity involutions of Aut(G), sorted by permutation and found
    # without listing Aut(G), see automorphisms.enumerate_involutory_automorphisms
    involutions: list | None = None
    # an involution's perm -> its AlphaContext
    contexts: dict = field(default_factory=dict)


@dataclass(eq=False)
class FiniteGroup:
    """A finite group given by its multiplication table.

    Instances are immutable after construction, apart from ``cache``,
    which memoizes derived data, and are safe to share between processes.
    The cached properties (``element_orders``, ``bit_rows`` and the others)
    are derived from the table alone, so pickles leave them out with
    ``cache``.
    Always build through :func:`build_group`, :func:`direct_product` or
    :func:`group_from_table`, which validate the axioms.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    id: str
    names: tuple[str, ...] | None = None
    cache: GroupCache = field(default_factory=GroupCache, init=False, repr=False)

    def name_of(self, a: int) -> str:
        return self.names[a] if self.names is not None else str(a)

    def conjugate(self, g: int, x: int) -> int:
        """x^-1 * g * x"""
        t = self.table
        return t[t[self.inv[x]][g]][x]

    def __getstate__(self):
        # only the defining fields: everything derived (the cache, the
        # cached properties) is rebuilt on demand, so pickles for worker
        # processes stay small
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.cache = GroupCache()

    @cached_property
    def is_abelian(self) -> bool:
        return noncommuting_pair(self) is None

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = []
        for g in range(self.order):
            k, x = 1, g
            while x != 0:
                x = self.table[x][g]
                k += 1
            orders.append(k)
        return tuple(orders)

    @cached_property
    def bit_rows(self) -> tuple[tuple[int, ...], ...]:
        """``bit_rows[a][b]`` is ``1 << table[a][b]``, the bit of the product
        ab. Every row reads the one :func:`bit_tuple` of the order, so the
        rows share its n ints."""
        if self.order == 1:  # itemgetter of one index returns the item, not a tuple
            return ((1,),)
        bit = bit_tuple(self.order)
        return tuple(itemgetter(*row)(bit) for row in self.table)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.element_orders)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FiniteGroup({self.id}, order={self.order})"


def _check_group(group: FiniteGroup, other: FiniteGroup, what: str) -> None:
    """The one same-group guard: ``what``, of the group ``other``, must be used
    with that group. Twins from two specs ("Z6", "cyclic:6") share an id, so
    the message names both ids without contrasting them."""
    if other is not group:
        raise GenCayleyError(
            f"{what} belongs to another group ({other.id}) than the one it is used with"
            f" ({group.id})"
        )


def noncommuting_pair(group: FiniteGroup) -> tuple[int, int] | None:
    """First pair (a, b) with ab != ba, or None if the group is abelian."""
    t = group.table
    for a in range(group.order):
        row = t[a]
        for b in range(a + 1, group.order):
            if row[b] != t[b][a]:
                return (a, b)
    return None


# ---------------------------------------------------------------------------
# validation


def first_axiom_violation(table):
    """First violated group axiom as (axiom, witness), or None.

    Precondition: the table is n x n (n = ``len(table)``) with entries in
    0..n-1 and element 0 a two-sided identity. Every table passed here was
    built by a constructor of this module, or checked for exactly that by
    :func:`group_from_table` first, so only the Latin property and
    associativity are left to decide.

    Associativity is decided exactly by Light's test: greedily pick a set
    Gamma that reaches every element by right multiplication from the
    identity, then check (x*a)*y == x*(a*y) for every x, y and a in Gamma.
    The elements a that pass are closed under products, since
    x((ab)y) = x(a(by)) = (xa)(by) = ((xa)b)y = (x(ab))y, so they are the
    whole table once Gamma passes. A failure reports a violating triple
    (x, a, y), not necessarily the least one. Inverses need no check: a
    row that passes the Latin check holds the identity, and in a table
    that passes every axiom a right inverse is two-sided.
    """
    order = len(table)
    full = set(range(order))
    for a in range(order):
        if set(table[a]) != full:
            return ("latin-row", (a,))
    for b in range(order):
        if {table[a][b] for a in range(order)} != full:
            return ("latin-column", (b,))
    rows = [list(row) for row in table]  # lists, to compare with built rows
    for a in _right_generators(rows):
        row_a = rows[a]
        for x, row_x in enumerate(rows):
            left = rows[row_x[a]]
            right = [row_x[v] for v in row_a]
            if left != right:
                y = next(y for y in range(order) if left[y] != right[y])
                return ("associativity", (x, a, y))
    return None


def _right_closure(table, gens, reached: int = 1, closed: int = 0) -> int:
    """Mask of the elements reached from the set ``reached`` (the identity
    by default) by right multiplication with ``gens``. No group axiom is
    assumed: ``closed``, a part of ``reached`` whose products with every
    generator but the last lie in ``reached``, is multiplied by the last
    generator alone, and every other element by every generator."""
    queue = bits(reached & ~closed)
    if closed:
        last = gens[-1]
        for x in bits(closed):
            y = table[x][last]
            if not reached >> y & 1:
                reached |= 1 << y
                queue.append(y)
    for x in queue:
        row = table[x]
        for g in gens:
            y = row[g]
            if not reached >> y & 1:
                reached |= 1 << y
                queue.append(y)
    return reached


def _right_generators(table) -> list[int]:
    """Least unreached elements, added one at a time until every element
    is reached from the identity by right multiplication with them."""
    gens: list[int] = []
    reached = 1
    while reached != (1 << len(table)) - 1:
        # the least unreached element; the last closure lies in the next
        gens.append((~reached & (reached + 1)).bit_length() - 1)
        reached = _right_closure(table, gens, reached, reached)
    return gens


def _repeated_name(names) -> tuple[int, int] | None:
    """The first (i, j), i < j, with ``names[i] == names[j]``, or None."""
    first = {}
    for j, name in enumerate(names):
        if name in first:
            return first[name], j
        first[name] = j
    return None


def _finish_group(table, gid: str, names=None) -> FiniteGroup:
    """The group of a table that meets the precondition of
    :func:`first_axiom_violation`, with one name per element if given."""
    violation = first_axiom_violation(table)
    if violation is not None:
        raise GroupValidationError(violation[0], violation[1])
    inv = [row.index(0) for row in table]  # a group: a right inverse is two-sided
    if names is not None:
        names = tuple(names)
        repeat = _repeated_name(names)
        if repeat is not None:
            raise GroupValidationError("names", repeat, "duplicate name")
    return FiniteGroup(
        order=len(table),
        table=tuple(tuple(row) for row in table),
        inv=tuple(inv),
        id=gid,
        names=names,
    )


# ---------------------------------------------------------------------------
# catalog constructors


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return _finish_group(table, f"Z{n}", [str(k) for k in range(n)])


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n, n >= 3.

    Element k (k < n) is the rotation x -> x+k; element n+k is the
    reflection x -> k-x, both acting on rotation exponents mod n.
    """
    if n < 3:
        raise ValueError(f"dihedral parameter must be >= 3, got {n}")
    order = 2 * n

    def compose(a: int, b: int) -> int:
        fa, ka = divmod(a, n)
        fb, kb = divmod(b, n)
        # product a*b acts as "apply b first, then a"
        if fa == 0 and fb == 0:
            return (ka + kb) % n
        if fa == 0 and fb == 1:
            return n + (ka + kb) % n
        if fa == 1 and fb == 0:
            return n + (ka - kb) % n
        return (ka - kb) % n

    table = [[compose(a, b) for b in range(order)] for a in range(order)]
    names = ["e"] + [f"r{k}" for k in range(1, n)] + [f"s{k}" for k in range(n)]
    return _finish_group(table, f"D{n}", names)


def symmetric_group(n: int) -> FiniteGroup:
    if not (1 <= n <= SYMMETRIC_DEGREE_LIMIT):
        raise ThresholdError(
            f"symmetric group degree {n} outside 1..{SYMMETRIC_DEGREE_LIMIT}"
        )
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in elems]
        for p in elems
    ]
    return _finish_group(table, f"S{n}", [_cycle_notation(p) for p in elems])


def _cycle_notation(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc, x = [], start
        while not seen[x]:
            seen[x] = True
            cyc.append(str(x))
            x = p[x]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


def _product_elements(first, second, n2: int) -> list[int]:
    """The direct product numbering: the pair (a, b), a in ``first`` and b
    in ``second``, is a * n2 + b (n2 = the order of the second factor),
    listed with b fastest."""
    return [a * n2 + b for a in first for b in second]


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    n2 = g2.order
    # row (a, b) maps column (c, d) to (ac, bd)
    table = [_product_elements(row1, row2, n2) for row1 in g1.table for row2 in g2.table]
    names = None
    if g1.names is not None and g2.names is not None:
        names = [f"({x},{y})" for x in g1.names for y in g2.names]
    return _finish_group(table, f"{g1.id}x{g2.id}", names)


def abelian_group(factors: list[int]) -> FiniteGroup:
    """Direct product of one or more cyclic groups, mixed-radix (last factor fastest)."""
    g = cyclic_group(factors[0])
    for d in factors[1:]:
        g = direct_product(g, cyclic_group(d))
    return g


# ---------------------------------------------------------------------------
# spec parsing

_ALIASES = {"V4": "abelian:2,2"}
# the one-number atoms, and the one-letter forms ZN, CN, DN and SN
_ATOMS = {"cyclic": cyclic_group, "dihedral": dihedral_group, "symmetric": symmetric_group}
_LETTERS = {"z": "cyclic", "c": "cyclic", "d": "dihedral", "s": "symmetric"}


def _build_atom(atom: str) -> FiniteGroup:
    """One factor of a group spec. Its numbers must be ASCII decimal digits:
    int() alone also reads other scripts' digits, signs and spaces."""
    a = atom.strip()
    low = _ALIASES.get(a.upper(), a).lower()
    head, colon, arg = low.partition(":")
    if not colon and low[1:].isascii() and low[1:].isdigit() and low[0] in _LETTERS:
        head, colon, arg = _LETTERS[low[0]], ":", low[1:]
    if not colon or (head not in _ATOMS and head != "abelian"):
        raise ValueError(f"unsupported group spec {atom!r}")
    numbers = arg.split(",") if head == "abelian" else [arg]
    for p in numbers:
        if not (p.isascii() and p.isdigit()):
            raise ValueError(f"group spec {atom!r}: {p!r} is not a decimal number")
    if head == "abelian":
        return abelian_group([int(p) for p in numbers])
    return _ATOMS[head](int(arg))


@lru_cache(maxsize=None)
def build_group(spec: str) -> FiniteGroup:
    """Build a catalog group from a spec string.

    Accepted atoms: ``cyclic:N`` (``ZN``/``CN``), ``dihedral:N`` (``DN``,
    order 2N), ``symmetric:N`` (``SN``, N <= 5), ``abelian:d1,d2,...`` and
    the alias ``V4``. Atoms joined with ``x`` form direct products, e.g.
    ``Z2xZ4`` or ``dihedral:4xcyclic:2``; an empty atom or abelian factor
    raises :class:`ValueError`.
    """
    parts = spec.split("x")
    if not all(p.strip() for p in parts):
        raise ValueError(f"group spec {spec!r} has an empty part")
    group = _build_atom(parts[0])
    for part in parts[1:]:
        group = direct_product(group, _build_atom(part))
    return group


def group_from_table(data: dict, source: str = "<table>") -> FiniteGroup:
    """Build a group from a parsed table object.

    Expects fields ``name`` (string), ``order`` (int), ``table`` (n x n int
    array) and optionally ``names`` (n strings). If the identity is not
    element 0, elements are renumbered so that it is.
    """
    for field_name in ("name", "order", "table"):
        if field_name not in data:
            raise GroupFileError(f"{source}: missing field {field_name!r}")
    name = data["name"]
    order = data["order"]
    table = data["table"]
    if not isinstance(name, str):
        raise GroupFileError(f"{source}: field 'name' must be a string, got {name!r}")
    # bool is an int subclass; JSON true and false are not integers here
    if type(order) is not int or order < 1:
        raise GroupFileError(
            f"{source}: field 'order' must be a positive integer, got {order!r}"
        )
    if not isinstance(table, list) or len(table) != order:
        raise GroupFileError(
            f"{source}: field 'table' must have {order} rows, got "
            f"{len(table) if isinstance(table, list) else type(table).__name__}"
        )
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != order:
            raise GroupFileError(f"{source}: field 'table' row {i} must have {order} entries")
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < order:
                raise GroupFileError(
                    f"{source}: field 'table' entry [{i}][{j}] = {v!r} is not an integer"
                    f" in 0..{order - 1}"
                )
    names = data.get("names")
    if names is not None:
        if not isinstance(names, list) or len(names) != order:
            raise GroupFileError(f"{source}: field 'names' must list {order} strings")
        for i, s in enumerate(names):
            if not isinstance(s, str):
                raise GroupFileError(f"{source}: field 'names' entry {i} = {s!r} is not a string")
        repeat = _repeated_name(names)
        if repeat is not None:
            i, j = repeat
            raise GroupFileError(
                f"{source}: field 'names' repeats {names[i]!r} at indexes {i} and {j}"
            )

    identity = None
    for e in range(order):
        if all(table[e][b] == b for b in range(order)) and all(
            table[a][e] == a for a in range(order)
        ):
            identity = e
            break
    if identity is None:
        raise GroupFileError(f"{source}: table has no two-sided identity element")
    if identity != 0:
        # renumber so the identity becomes element 0 (swap 0 <-> identity)
        relabel = list(range(order))
        relabel[0], relabel[identity] = identity, 0
        table = [
            [relabel[table[relabel[a]][relabel[b]]] for b in range(order)]
            for a in range(order)
        ]
        if names is not None:
            names = [names[relabel[a]] for a in range(order)]
    try:
        return _finish_group(table, name, names)
    except GroupValidationError as exc:
        raise GroupFileError(f"{source}: {exc}") from exc


def _read_json(path):
    """The JSON value in the file at ``path``. An unreadable file, or JSON
    that does not parse (with its line and column), raises
    :class:`GroupFileError` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise GroupFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GroupFileError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_group_file(path) -> FiniteGroup:
    """Load a group from a JSON table file, with line/field diagnostics."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise GroupFileError(f"{path}: top-level value must be an object")
    return group_from_table(data, source=str(path))


# ---------------------------------------------------------------------------
# subgroups and cosets


@dataclass(eq=False)
class SubgroupHandle:
    """A validated subgroup: its element ``mask``, the key of the group's
    handle registry, and its ``elements``, the sorted tuple derived from
    the mask when the handle is built.

    Build through :func:`subgroup`, which returns one handle per element
    set and group; ``decompositions`` holds its cosets by side, filled by
    :func:`cosets`.
    """

    elements: tuple[int, ...]
    parent: FiniteGroup
    mask: int = field(kw_only=True)
    decompositions: dict[str, CosetDecomposition] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SubgroupHandle({list(self.elements)} of {self.parent.id})"


def subgroup(group: FiniteGroup, elements) -> SubgroupHandle:
    """Validate a set of element indices as a subgroup of ``group``.

    Each set is validated once per group and later calls return the same
    handle; a set that fails validation raises on every call. An element
    that is not an int in 0..order-1 raises :class:`ValueError`.
    """
    mask = element_mask(group.order, elements)
    handle = group.cache.subgroups.get(mask)
    if handle is None:
        members = elems(mask)
        _validate_subgroup(group, members, mask)
        handle = group.cache.subgroups[mask] = SubgroupHandle(members, group, mask=mask)
    return handle


def _validate_subgroup(group: FiniteGroup, elems: tuple[int, ...], mask: int) -> None:
    # a set that holds e and is closed under the product is a subgroup
    if not mask & 1:
        raise GroupValidationError("subgroup-identity", elems[:1] or (None,))
    for a in elems:
        if not mask >> group.inv[a] & 1:
            raise GroupValidationError("subgroup-inverse", (a,))
        row = group.table[a]
        for b in elems:
            if not mask >> row[b] & 1:
                raise GroupValidationError("subgroup-closure", (a, b, row[b]))


def subgroup_closure(group: FiniteGroup, generators) -> tuple[int, ...]:
    """Subgroup generated by the given elements, as a sorted tuple. An
    element that is not an int in 0..order-1 raises :class:`ValueError`."""
    gens = elems(element_mask(group.order, generators))
    return elems(_right_closure(group.table, gens))


def enumerate_subgroups(group: FiniteGroup) -> list[SubgroupHandle]:
    """All subgroups, by breadth-first closure over growing generator sets.

    Results are sorted by (order, elements). Refuses groups larger than
    :data:`SUBGROUP_ENUM_LIMIT`.
    """
    if group.order > SUBGROUP_ENUM_LIMIT:
        raise ThresholdError(
            f"subgroup enumeration limited to order <= {SUBGROUP_ENUM_LIMIT}, got {group.order}"
        )
    table = group.table
    gens_of = {1: ()}  # subgroup mask -> the generators it was closed from
    queue = [1]
    for base in queue:
        gens = gens_of[base]
        members = bits(base)
        # <H, hg> = <H, g>, so close one g per right coset Hg, from H
        handled = base
        for g in range(1, group.order):
            if handled >> g & 1:
                continue
            for h in members:
                handled |= 1 << table[h][g]
            closed = _right_closure(table, gens + (g,), base, base)
            if closed not in gens_of:
                gens_of[closed] = gens + (g,)
                queue.append(closed)
    # each closed set is a subgroup: register it, keeping a handle made before
    known = group.cache.subgroups
    for m in gens_of:
        if m not in known:
            known[m] = SubgroupHandle(elems(m), group, mask=m)
    return sorted([known[m] for m in gens_of], key=lambda h: (h.order, h.elements))


@dataclass(eq=False)
class CosetDecomposition:
    """Partition of a group into left or right cosets of a subgroup.

    ``masks`` holds the element mask of each coset by least element, so
    ``masks[0]`` is the subgroup itself; ``rep_of[x]`` is the index of the
    coset containing x.
    """

    masks: tuple[int, ...]
    rep_of: tuple[int, ...]

    @property
    def index(self) -> int:
        return len(self.masks)


def cosets(sub: SubgroupHandle, side: str = "right") -> CosetDecomposition:
    """The decomposition of ``sub.parent`` on one side, computed once per
    handle and side."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    dec = sub.decompositions.get(side)
    if dec is None:
        dec = sub.decompositions[side] = _decompose(sub, side)
    return dec


def _decompose(sub: SubgroupHandle, side: str) -> CosetDecomposition:
    table = sub.parent.table
    assigned = [-1] * len(table)
    masks: list[int] = []
    for g, row in enumerate(table):
        if assigned[g] != -1:
            continue
        # the least element of a new coset, so cosets come by least element
        if side == "right":
            block = [table[h][g] for h in sub.elements]
        else:
            block = [row[h] for h in sub.elements]
        m = 0
        for x in block:
            assigned[x] = len(masks)
            m |= 1 << x
        masks.append(m)
    return CosetDecomposition(tuple(masks), tuple(assigned))


def normalizer(sub: SubgroupHandle) -> SubgroupHandle:
    """N_G(H) = {g : g^-1 H g = H}, with G the subgroup's parent."""
    group = sub.parent
    hmask = sub.mask
    members = []
    for g in range(group.order):
        if all(hmask >> group.conjugate(h, g) & 1 for h in sub.elements):
            members.append(g)
    return subgroup(group, members)
