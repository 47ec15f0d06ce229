"""Perfect codes and total perfect codes in generalized Cayley graphs.

Subset-level deciders evaluate one formulation of the criterion (graph
neighborhoods, translate partitions or algebraic set conditions), taken
from the route table in :mod:`graphs`; the mode-agreement suite checks
that the formulations agree.

Subgroup-level deciders evaluate one criterion in two forms. Write
tau(x) = alpha(x)^-1, Omega for the loop set and big_omega for the
tau-fixed elements outside it, and take S closed under tau and disjoint
from Omega. A subgroup H is a perfect code of some graph GC(G, S, alpha)
exactly when alpha(H) = H and {e} union S is a right transversal of H; it
is a total perfect code exactly when S is a right transversal of
K = alpha(H). (For alpha = identity this is the Cayley-graph setting of
Chen, Wang and Xia, "Characterizations of subgroup perfect codes in Cayley
graphs", Discrete Math. 343, 2020.) One descent over the right K-cosets
decides both without backtracking: it finds a transversal whenever one
exists. Proof, for a (K, H)-double coset D = KxH, whose right K-cosets are
the Kxh, and its image tau(D) = K alpha(x)^-1 H:
(i) big_omega meets all or none of the right K-cosets of D. For x in
    big_omega and h in H, y = alpha(h)^-1 x h lies in Kxh and is tau-fixed.
    It lies outside Omega: y = alpha(g)^-1 g would put x in Omega, as
    x = alpha(gh^-1)^-1 gh^-1.
(ii) tau(Kx) = alpha(x)^-1 H is a left H-coset of tau(D), so it meets every
    right K-coset of tau(D): each coset of D is tau-linked, through a
    tau-moved element, to every other coset of tau(D), and to nothing else.
    For a perfect code, coset 0 = H is a double coset on its own.
(iii) Suppose a transversal exists. Then every self-paired D (tau(D) = D)
    without big_omega has an even number r(D) of right K-cosets, which S
    fills by tau-pairs; a paired D meets no big_omega (a tau-fixed element
    of D lies in tau(D)). The descent fills the lowest free coset alone by
    a big_omega element if it has one, else with a free coset of tau(D) by
    a tau-pair. So it keeps the free count of a self-paired D without
    big_omega even, and those of D and tau(D) equal for a paired D. By (ii)
    the lowest free coset always has a candidate; by (i) taking a big_omega
    element never strands a coset. The descent's answer is the lowest-first
    depth-first one, with nothing undone.
Each witness passes an explicit transversal certificate before it is
returned, and the package's verification suites re-validate witnesses
against the graph definition and compare every decision against an exact
search over all connection sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import kernels
from ._bits import bits, element_mask, elems, fmt_set, perm_mask
from .automorphisms import (
    AlphaContext,
    Automorphism,
    _cached_context,
    alpha_context,
    automorphism_from_perm,
    product_automorphism,
)
from .errors import GenCayleyError, SubsetInvalidError, ThresholdError
from .graphs import (
    GenCayleyGraph,
    GenCayleySubset,
    _mask_violation,
    build_graph,
    evaluate,
    subset_violation,
    validate_subset,
)
from .groups import (
    CosetDecomposition,
    FiniteGroup,
    SubgroupHandle,
    _check_group,
    _finish_group,
    _product_elements,
    cosets,
    direct_product,
    normalizer,
    subgroup,
)

BRUTE_FORCE_LIMIT = 20

REFUTATION_ALPHA = "alpha-not-preserving"
REFUTATION_SELF_PAIRED = "self-paired-coset-without-big-omega-element"
REFUTATION_OMEGA_COSET = "coset-inside-omega"
REFUTATION_EXHAUSTED = "search-exhausted"


def alpha_preserves(alpha: Automorphism, sub: SubgroupHandle) -> bool:
    """Does alpha map the subgroup onto itself? An automorphism of another
    group raises :class:`GenCayleyError`."""
    _check_group(sub.parent, alpha.parent, "automorphism")
    return perm_mask(alpha.perm, sub.mask) == sub.mask


def image_subgroup(alpha: Automorphism, sub: SubgroupHandle) -> SubgroupHandle:
    """The handle of alpha(H): the group's registered handle of its mask,
    validated by :func:`subgroup` only when none is registered. An
    automorphism of another group raises :class:`GenCayleyError`."""
    group = sub.parent
    _check_group(group, alpha.parent, "automorphism")
    mask = perm_mask(alpha.perm, sub.mask)
    handle = group.cache.subgroups.get(mask)
    return subgroup(group, elems(mask)) if handle is None else handle


# ---------------------------------------------------------------------------
# subset-level deciders


def is_perfect_code(graph: GenCayleyGraph, X, mode: str = "graph") -> bool:
    """Is X an independent set with every outside vertex adjacent to exactly
    one member?

    Modes: ``graph`` (neighbor counting), ``partition`` (X together with the
    translates alpha(X)s partitions the vertices), ``algebraic`` (counting
    plus the two product-set conditions).
    """
    return evaluate("perfect", graph, X, mode)


def is_total_perfect_code(graph: GenCayleyGraph, X, mode: str = "graph") -> bool:
    """Does every vertex, members of X included, have exactly one neighbor
    in X?

    Modes as for :func:`is_perfect_code`, with the translates alone
    partitioning the vertices. An empty connection set can never admit one
    (no vertex has neighbors at all), so the result is then False in every
    mode.
    """
    return evaluate("total", graph, X, mode)


def brute_force_codes(graph: GenCayleyGraph, kind: str = "perfect") -> list[tuple[int, ...]]:
    """All codes of the requested kind, by an exact search over vertex subsets.

    This is the graph-level oracle the other deciders are checked against;
    it uses nothing but neighbor counting and no group algebra. Refuses
    groups with more than 20 elements.
    """
    n = graph.group.order
    if n > BRUTE_FORCE_LIMIT:
        raise ThresholdError(
            f"brute-force code scan limited to order <= {BRUTE_FORCE_LIMIT}, got {n}"
        )
    masks = kernels.scan_codes(graph.nbr_masks, kind)
    return [elems(m) for m in masks]


# ---------------------------------------------------------------------------
# subgroup-level deciders


@dataclass(eq=False, slots=True)
class CodeWitness:
    """Decision result for one subgroup and involution: exactly one of a
    witness connection set and a refutation reason, plus whether alpha
    maps the subgroup onto itself."""

    subset: GenCayleySubset | None
    refutation: str | None
    alpha_preserves_subgroup: bool

    def __post_init__(self):
        if (self.subset is None) == (self.refutation is None):
            raise GenCayleyError("a code witness has exactly one of a subset and a refutation")

    @property
    def success(self) -> bool:
        return self.subset is not None


def _search_transversal(
    ctx: AlphaContext, dec: CosetDecomposition, first: int
) -> tuple[list[int] | None, str | None]:
    """One representative for each coset with index ``first`` to
    ``dec.index - 1``, avoiding the loop set, with the whole choice closed
    under tau: the representatives and None, or None and the refutation.
    One loop over the coset masks fills the lowest free coset by its least
    tau-fixed non-loop element (big_omega), else with a later free coset by
    its least tau-moved element (mho) whose partner lies there. On the
    cosets of alpha(H) this descent is complete (module docstring): it
    dead-ends only when no transversal exists, and it returns the
    lowest-first depth-first answer with nothing undone. A dead end is
    labelled by :func:`_refutation_reason`, else as exhausted."""
    fixed, moved, tau = ctx.big_omega_mask, ctx.mho_mask, ctx.tau_perm
    masks, rep_of = dec.masks, dec.rep_of
    full = (1 << len(masks)) - 1
    taken, reps = (1 << first) - 1, []  # bit ci: coset ci is filled or not required
    while taken != full:
        low = ~taken & taken + 1  # the lowest free coset
        taken |= low
        cm = masks[low.bit_length() - 1]
        f = cm & fixed
        if f:
            reps.append((f & -f).bit_length() - 1)
            continue
        m = cm & moved
        while m:
            b = m & -m
            x = b.bit_length() - 1
            y = tau[x]
            cy = 1 << rep_of[y]
            if not taken & cy:
                taken |= cy
                reps += (x, y)
                break
            m ^= b
        else:
            return None, _refutation_reason(ctx, dec, first) or REFUTATION_EXHAUSTED
    return reps, None


def _refutation_reason(ctx: AlphaContext, dec: CosetDecomposition, first: int) -> str | None:
    """Why no transversal from coset ``first`` on can exist, or None: a
    required coset lies wholly in the loop set, else one's non-loop
    elements are all tau-moved with their partner in the same coset (it
    can be covered neither alone nor by a pair)."""
    omega, big_omega, moved, tau = ctx.omega_mask, ctx.big_omega_mask, ctx.mho_mask, ctx.tau_perm
    required = dec.masks[first:]
    for cm in required:
        if cm & omega == cm:
            return REFUTATION_OMEGA_COSET
    for cm in required:  # the tau-partners of its tau-moved elements stay inside it
        if not cm & big_omega and not perm_mask(tau, cm & moved) & ~cm:
            return REFUTATION_SELF_PAIRED
    return None


def _certify_transversal(
    ctx: AlphaContext, elements, dec: CosetDecomposition, with_identity: bool
) -> GenCayleySubset:
    """The witness certificate: the elements form a valid connection set S,
    and S (with the identity when ``with_identity`` is set) meets every
    coset of ``dec`` exactly once. One O(|S|) read of the elements builds
    S's mask, its tau-image and the cosets it meets. It raises
    :class:`GenCayleyError` on the first fault in this order: a fault of
    :func:`validate_subset`, with its reason and witness element; "meets
    coset i twice", for the first repeat in ascending element order; "not
    a transversal"."""
    tau, rep_of = ctx.tau_perm, dec.rep_of
    mask = image = met = 0  # S, tau(S) and the cosets S meets
    elements = iter(elements)
    for s in elements:
        try:  # an s that is no int in 0..n-1 fails: tau[s] from n on, 1 << s below 0
            image |= 1 << tau[s]
            mask |= 1 << s
            met |= 1 << rep_of[s]
        except (TypeError, ValueError, IndexError):
            # the elements before s are ints in range, so the validator names
            # the same fault on s and the rest as on all of them
            raise SubsetInvalidError(*subset_violation(ctx, chain((s,), elements))) from None
    bad = _mask_violation(ctx, mask, image)
    if bad is not None:
        raise SubsetInvalidError(*bad)
    index = len(dec.masks)
    # |S| + with_identity elements meeting all index cosets meet each once
    if met | with_identity != (1 << index) - 1 or mask.bit_count() + with_identity != index:
        seen = 1 if with_identity else 0  # bit ci: coset ci already met
        for s in bits(mask):
            if seen >> rep_of[s] & 1:
                raise GenCayleyError(f"witness meets coset {rep_of[s]} twice")
            seen |= 1 << rep_of[s]
        raise GenCayleyError("witness is not a transversal of the cosets")
    return GenCayleySubset(elems(mask), ctx, mask)


def _decide(sub: SubgroupHandle, ctx: AlphaContext, kind: str) -> CodeWitness:
    """The one decision flow behind both subgroup-level deciders.

    A witness for ``kind`` is a connection set S such that T is a right
    transversal of alpha(H), where T = {e} union S for a perfect code and
    T = S for a total perfect code. A perfect code also needs alpha(H) = H,
    so its search runs on the cosets of H itself from coset 1 on, coset 0
    being covered by e; a total perfect code's search starts at coset 0.

    The handle of alpha(H) comes from ``ctx.images``, computed on the first
    decision of the pair and kept there, so the two kinds share it. Whether
    alpha preserves H is read from the masks, so any handle of the same
    element set gives the same answer.
    """
    # the test inline: this runs once per decision of the census
    if ctx.alpha.parent is not sub.parent:
        _check_group(sub.parent, ctx.group, "context")
    mask = sub.mask
    image = ctx.images.get(mask)
    if image is None:
        image = ctx.images[mask] = image_subgroup(ctx.alpha, sub)
    preserved = image.mask == mask
    perfect = kind == "perfect"
    if perfect and not preserved:
        return CodeWitness(None, REFUTATION_ALPHA, False)
    dec = image.decompositions.get("right") or cosets(image, "right")
    first = 1 if perfect else 0
    reps, reason = _search_transversal(ctx, dec, first)
    if reps is None:
        return CodeWitness(None, reason, preserved)
    subset = _certify_transversal(ctx, reps, dec, perfect)
    return CodeWitness(subset, None, preserved)


def decide_subgroup_pc(sub: SubgroupHandle, ctx: AlphaContext) -> CodeWitness:
    """Is the subgroup H a perfect code of some graph induced by this
    involution? Returns a witness connection set or a refutation.

    H is one exactly when alpha(H) = H and some connection set S makes
    {e} union S a right transversal of H: S avoids the loop set, is closed
    under tau, and meets each nontrivial right coset once. The search is
    one deterministic descent (lowest coset first, tau-fixed candidates
    before tau-moved ones, each ascending) and needs no backtracking: on
    each (H, H)-double coset big_omega meets all cosets or none, and tau
    links every coset to every other coset of the paired double coset, so
    the descent strands no coset while a transversal exists (proof in the
    module docstring). Every witness passes :func:`_certify_transversal`.
    """
    return _decide(sub, ctx, "perfect")


def decide_subgroup_tpc(sub: SubgroupHandle, ctx: AlphaContext) -> CodeWitness:
    """Is the subgroup H a total perfect code of some graph induced by this
    involution?

    H is one exactly when some connection set S is a right transversal of
    alpha(H), with the same search and certificate as
    :func:`decide_subgroup_pc`. H need not be preserved by alpha; whether
    it is gets recorded on the witness.
    """
    return _decide(sub, ctx, "total")


def is_gc_transversal(ctx: AlphaContext, sub: SubgroupHandle, T, side: str = "right") -> bool:
    """Is T a transversal of the subgroup containing the identity whose
    other members form a valid connection set? An element of T that is not
    an int in 0..order-1 raises :class:`ValueError`, and a context of
    another group :class:`GenCayleyError`."""
    _check_group(sub.parent, ctx.group, "context")
    tmask = element_mask(ctx.group.order, T)
    if not tmask & 1:
        return False
    if subset_violation(ctx, bits(tmask & ~1)) is not None:
        return False
    dec = cosets(sub, side)
    return sorted(dec.rep_of[x] for x in bits(tmask)) == list(range(dec.index))


# ---------------------------------------------------------------------------
# abelian characterization


def abelian_pc_criterion(sub: SubgroupHandle, ctx: AlphaContext) -> bool:
    """Perfect-code criterion for abelian groups, evaluated directly.

    True iff alpha preserves the subgroup and every g outside it with
    alpha(g)*g inside it has some h in the subgroup with h*g tau-fixed
    outside the loop set. Must agree with :func:`decide_subgroup_pc` on
    abelian inputs; the verification suites assert that. A context of
    another group raises :class:`GenCayleyError`, in :func:`alpha_preserves`.
    """
    group = sub.parent
    if not group.is_abelian:
        raise GenCayleyError("criterion applies to abelian groups only")
    if not alpha_preserves(ctx.alpha, sub):
        return False
    table = group.table
    alpha = ctx.alpha.perm
    hmask = sub.mask
    for g in range(group.order):
        if hmask >> g & 1:
            continue
        if hmask >> table[alpha[g]][g] & 1:
            if not any(
                ctx.big_omega_mask >> table[h][g] & 1 for h in sub.elements
            ):
                return False
    return True


def build_witness_abelian(sub: SubgroupHandle, ctx: AlphaContext) -> GenCayleySubset:
    """Construct a witness connection set on an abelian group.

    Self-paired cosets (alpha(g)*g falls inside the subgroup) contribute
    their least tau-fixed non-loop element; the remaining cosets pair up
    under the coset map and contribute a least element together with its
    tau-image. Requires :func:`abelian_pc_criterion` to hold; the result
    passes the same certificate as the witnesses of
    :func:`decide_subgroup_pc`.
    """
    if not abelian_pc_criterion(sub, ctx):
        raise GenCayleyError("abelian perfect-code criterion not satisfied")
    table, alpha = sub.parent.table, ctx.alpha.perm
    dec = cosets(sub, "right")
    chosen: list[int] = []
    done = 1  # bit ci: coset ci is covered; coset 0 is the subgroup
    for ci, cm in enumerate(dec.masks):
        if done >> ci & 1:
            continue
        g = (cm & -cm).bit_length() - 1
        if sub.mask >> table[alpha[g]][g] & 1:
            f = cm & ctx.big_omega_mask
            chosen.append((f & -f).bit_length() - 1)
        else:
            m = cm & ~ctx.omega_mask
            y = (m & -m).bit_length() - 1
            t = ctx.tau_perm[y]
            done |= 1 << dec.rep_of[t]
            chosen += (y, t)
    return _certify_transversal(ctx, chosen, dec, with_identity=True)


# ---------------------------------------------------------------------------
# transport constructions


def _code_pair_holds(sub: SubgroupHandle, subset: GenCayleySubset, kind: str) -> bool:
    kernels._check_kind(kind)
    # the checks are looked up at call time, so a wrapper set on them sees each call
    check = is_perfect_code if kind == "perfect" else is_total_perfect_code
    return check(build_graph(subset), sub.elements)


def _require_code_pair(sub: SubgroupHandle, subset: GenCayleySubset, kind: str, which: str):
    """Input check: raise :class:`GenCayleyError` unless the pair is a code."""
    _check_group(sub.parent, subset.context.group, "connection set")
    if not _code_pair_holds(sub, subset, kind):
        raise GenCayleyError(f"{which} pair is not a {kind} code")


def transport_conjugate(
    sub: SubgroupHandle, subset: GenCayleySubset, g: int, kind: str = "perfect"
) -> tuple[SubgroupHandle, GenCayleySubset]:
    """Conjugate a validated code pair by an alpha-fixed element.

    Returns (g^-1 H g, g^-1 S g) for the same involution; the transported
    pair is re-validated, and :class:`GenCayleyError` is raised if it fails.
    A ``g`` that is not an int in 0..order-1 raises :class:`ValueError`.
    """
    ctx, group = subset.context, sub.parent
    _check_group(group, ctx.group, "connection set")
    element_mask(group.order, (g,))
    if ctx.alpha.perm[g] != g:
        raise GenCayleyError(f"element {g} is not fixed by alpha")
    conj_sub = subgroup(group, (group.conjugate(h, g) for h in sub.elements))
    conj_set = validate_subset(ctx, (group.conjugate(s, g) for s in subset.elements))
    if not _code_pair_holds(conj_sub, conj_set, kind):
        raise GenCayleyError(f"conjugation by {g} gives a pair that is not a {kind} code")
    return conj_sub, conj_set


def transport_automorphism(
    sub: SubgroupHandle, subset: GenCayleySubset, beta: Automorphism, kind: str = "perfect"
) -> tuple[SubgroupHandle, GenCayleySubset, AlphaContext]:
    """Push a validated code pair through any automorphism beta.

    Returns (beta(H), beta(S), context of beta.alpha.beta^-1); the
    transported pair is re-validated in the new context, and
    :class:`GenCayleyError` is raised if it fails. The context is the
    group's one context of that involution, kept in ``group.cache.contexts``.
    """
    group = sub.parent
    _check_group(group, subset.context.group, "connection set")
    _check_group(group, beta.parent, "beta")
    b, a = beta.perm, subset.context.alpha.perm
    perm = tuple([b[a[x]] for x in beta.inverse_perm])  # beta.alpha.beta^-1
    new_ctx = _cached_context(group, perm)
    new_sub = subgroup(group, (b[h] for h in sub.elements))
    new_set = validate_subset(new_ctx, (b[s] for s in subset.elements))
    if not _code_pair_holds(new_sub, new_set, kind):
        raise GenCayleyError(f"transport by beta gives a pair that is not a {kind} code")
    return new_sub, new_set, new_ctx


# ---------------------------------------------------------------------------
# product constructions


def build_product_subset(
    s1: GenCayleySubset, s2: GenCayleySubset, product_ctx: AlphaContext
) -> GenCayleySubset:
    """Pairwise products S1 x S2 as a connection set on the direct product."""
    elems_ = _product_elements(s1.elements, s2.elements, s2.context.group.order)
    return validate_subset(product_ctx, elems_)


def build_product_subset_augmented(
    s1: GenCayleySubset, s2: GenCayleySubset, product_ctx: AlphaContext
) -> GenCayleySubset:
    """S1 x S2 together with the two axis copies {e} x S2 and S1 x {e}."""
    # that is ({e} u S1) x ({e} u S2) without (e, e), the pair listed first
    elems_ = _product_elements((0, *s1.elements), (0, *s2.elements), s2.context.group.order)[1:]
    return validate_subset(product_ctx, elems_)


@dataclass(eq=False)
class ProductCodesReport:
    """Outcome of checking the two product constructions on a pair of codes."""

    pc_product_holds: bool  # H1 x H2 perfect in the augmented-set graph
    tpc_plain_counting_ok: bool  # |G| == |H1 x H2| * |S1 x S2| under PC inputs
    tpc_plain_holds: bool  # H1 x H2 total perfect in the plain-product graph
    tpc_amended_evaluated: bool
    tpc_amended_holds: bool | None  # same conclusion when the inputs are total codes


def verify_product_codes(
    pc_pair1: tuple[SubgroupHandle, GenCayleySubset],
    pc_pair2: tuple[SubgroupHandle, GenCayleySubset],
    tpc_pair1: tuple[SubgroupHandle, GenCayleySubset] | None = None,
    tpc_pair2: tuple[SubgroupHandle, GenCayleySubset] | None = None,
) -> ProductCodesReport:
    """Check the product constructions on validated code pairs.

    With perfect-code inputs, the augmented product set should again admit
    the product subgroup as a perfect code, while the plain product set
    fails the total-code counting condition. With total-code inputs
    (optional, both or neither: one alone raises :class:`ValueError`), the
    plain product set should admit the product subgroup as a total perfect
    code.
    """
    if (tpc_pair1 is None) != (tpc_pair2 is None):
        raise ValueError("tpc_pair1 and tpc_pair2 must be given together or not at all")
    prod_sub, plain = _product_pair(pc_pair1, pc_pair2, "perfect")
    augmented = build_product_subset_augmented(pc_pair1[1], pc_pair2[1], plain.context)
    report = ProductCodesReport(
        pc_product_holds=_code_pair_holds(prod_sub, augmented, "perfect"),
        tpc_plain_counting_ok=plain.context.group.order == prod_sub.order * plain.size,
        tpc_plain_holds=_code_pair_holds(prod_sub, plain, "total"),
        tpc_amended_evaluated=tpc_pair1 is not None,
        tpc_amended_holds=None,
    )
    if tpc_pair1 is not None:
        report.tpc_amended_holds = _code_pair_holds(
            *_product_pair(tpc_pair1, tpc_pair2, "total"), "total"
        )
    return report


def _product_pair(pair1, pair2, kind: str) -> tuple[SubgroupHandle, GenCayleySubset]:
    """H1 x H2 and S1 x S2, in the context of alpha1 x alpha2, from two
    pairs checked as ``kind`` codes."""
    (h1, s1), (h2, s2) = pair1, pair2
    _require_code_pair(h1, s1, kind, "first")
    _require_code_pair(h2, s2, kind, "second")
    group = direct_product(s1.context.group, s2.context.group)
    ctx = alpha_context(group, product_automorphism(s1.context.alpha, s2.context.alpha, group))
    sub = subgroup(group, _product_elements(h1.elements, h2.elements, h2.parent.order))
    return sub, build_product_subset(s1, s2, ctx)


# ---------------------------------------------------------------------------
# restriction


@dataclass(eq=False)
class RestrictionResult:
    """A code pair restricted to an intermediate subgroup, rebuilt as a
    group in its own right."""

    group: FiniteGroup
    subgroup: SubgroupHandle
    subset: GenCayleySubset
    context: AlphaContext
    element_map: tuple[int, ...]  # local index -> index in the original group


def restrict_witness(
    sub: SubgroupHandle, subset: GenCayleySubset, inter: SubgroupHandle
) -> RestrictionResult:
    """Restrict a perfect-code pair to an alpha-invariant subgroup between
    the code and the whole group.

    The intermediate subgroup becomes a standalone group (elements
    renumbered in ascending order, identity stays 0), alpha restricts to an
    automorphism of it, and the intersected connection set re-validates as
    a perfect-code witness there. :class:`GenCayleyError` is raised when
    the input pair is not a perfect code or the restricted pair fails.
    """
    ctx, group = subset.context, sub.parent
    _check_group(group, ctx.group, "connection set")
    _check_group(group, inter.parent, "intermediate subgroup")
    if sub.mask & ~inter.mask:
        raise GenCayleyError("code subgroup is not contained in the intermediate one")
    if not alpha_preserves(ctx.alpha, inter):
        raise GenCayleyError("alpha does not preserve the intermediate subgroup")
    _require_code_pair(sub, subset, "perfect", "input")

    elements = inter.elements
    local = {g: i for i, g in enumerate(elements)}
    table = [
        [local[group.table[a][b]] for b in elements] for a in elements
    ]
    names = None
    if group.names is not None:
        names = [group.names[g] for g in elements]
    sub_id = f"{group.id}|{fmt_set(elements)}"
    k_group = _finish_group(table, sub_id, names)
    alpha_k = automorphism_from_perm(
        k_group, [local[ctx.alpha.perm[g]] for g in elements]
    )
    ctx_k = alpha_context(k_group, alpha_k)
    sub_k = subgroup(k_group, (local[h] for h in sub.elements))
    subset_k = validate_subset(
        ctx_k, (local[s] for s in subset.elements if inter.mask >> s & 1)
    )
    if not _code_pair_holds(sub_k, subset_k, "perfect"):
        raise GenCayleyError("restricted pair is not a perfect code")
    return RestrictionResult(k_group, sub_k, subset_k, ctx_k, elements)


def restrict_to_normalizer(
    sub: SubgroupHandle, subset: GenCayleySubset
) -> RestrictionResult:
    """Restriction with the normalizer as the intermediate subgroup.

    When alpha preserves the code subgroup it automatically preserves the
    normalizer; :func:`restrict_witness` checks that rather than assuming it.
    """
    return restrict_witness(sub, subset, normalizer(sub))
