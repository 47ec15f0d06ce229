"""Command-line interface.

Exit codes: 0 success, 1 property violation (``verify``), 2 usage or input
errors (an unwritable output path is one), 3 enumeration threshold exceeded.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from . import __version__, kernels
from ._bits import fmt_set
from .automorphisms import (
    alpha_context,
    enumerate_involutory_automorphisms,
    inversion_automorphism,
    involution_contexts,
    load_automorphism,
)
from .census import CSV_COLUMNS, DEFAULT_CENSUS_MAX_ORDER, catalog, census_records, emit_report
from .codes import _decide, brute_force_codes
from .errors import GenCayleyError, ThresholdError
from .graphs import build_graph, evaluate, export_dot, validate_subset
from .groups import build_group, enumerate_subgroups, load_group_file, subgroup
from .verify import run_suites

# each code kind the commands take, and the library's name for it
KINDS = {"pc": "perfect", "tpc": "total"}

SET_LABELS = (
    ("omega", "loop set"),
    ("big_omega", "tau-fixed outside loop set"),
    ("mho", "tau-moved"),
    ("fix", "fixed points"),
    ("k_set", "alpha(g) = g^-1"),
)


def _resolve_group(args):
    """The group of ``--group`` or ``--group-file``. A file element name
    that an element list cannot give as one token is an error naming its
    ``names`` entry."""
    if getattr(args, "group_file", None):
        if getattr(args, "group", None):
            raise GenCayleyError("pass either --group or --group-file, not both")
        group = load_group_file(args.group_file)
        for i, name in enumerate(group.names or ()):
            if not _is_token(name):
                raise GenCayleyError(
                    f"{args.group_file}: field 'names' entry {i} = {name!r} is not one"
                    " element-list token: it must be nonempty, without surrounding"
                    " whitespace, with balanced parentheses and no comma outside them"
                )
        return group
    if not getattr(args, "group", None):
        raise GenCayleyError("a group is required (--group or --group-file)")
    return build_group(args.group)


def _resolve_context(args, group):
    """The involution context of ``--alpha``: ``inv``, an index in ASCII
    decimal digits, or else a perm file, whose errors name the option."""
    spec = args.alpha
    if spec == "inv":
        alpha, reason = inversion_automorphism(group)
        if alpha is None:
            raise GenCayleyError(f"inversion is not usable here: {reason}")
    elif spec.isascii() and spec.isdigit():
        alphas = enumerate_involutory_automorphisms(group)
        idx = int(spec)
        if idx >= len(alphas):
            raise GenCayleyError(
                f"alpha index {idx} out of range; {group.id} has {len(alphas)}"
                " involutory automorphisms"
            )
        alpha = alphas[idx]
    else:
        try:
            alpha = load_automorphism(spec, group)
        except GenCayleyError as exc:
            raise GenCayleyError(f"--alpha {exc}") from exc
    return alpha_context(group, alpha)


def _resolve_graph(args):
    """The graph of the connection set ``--S`` in the group and involution
    the other arguments name."""
    group = _resolve_group(args)
    ctx = _resolve_context(args, group)
    return build_graph(validate_subset(ctx, _parse_elements(group, args.S, "--S")))


def _split_elements(text: str) -> list[str]:
    """The tokens of an element list: ``text`` split at each comma outside
    parentheses, each piece stripped of surrounding whitespace. A product
    element's name such as ``((0,1),0)`` stays one token."""
    tokens, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and not depth:
            tokens.append(text[start:i].strip())
            start = i + 1
    tokens.append(text[start:].strip())
    return tokens


def _is_token(name: str) -> bool:
    """Does :func:`_split_elements` give ``name`` back as one token, in any
    list? It must be nonempty, without surrounding whitespace, with
    balanced parentheses and no comma outside them."""
    depth = 0
    for ch in name:
        depth += (ch == "(") - (ch == ")")
        if depth < 0 or (ch == "," and not depth):
            return False
    return not depth and name.strip() == name != ""


def _parse_elements(group, text: str, option: str) -> tuple[int, ...]:
    """An element list (:func:`_split_elements`) of element indices, ASCII
    decimal digits after an optional ``-``; names are accepted when
    defined. A token that is the index of one element and the name of
    another is refused."""
    if text.strip() == "":
        return ()
    out = []
    name_index = {name: i for i, name in enumerate(group.names or ())}
    for token in _split_elements(text):
        value = name_index.get(token)
        if token.isascii() and token.removeprefix("-").isdigit():
            index = int(token)
            if value is not None and value != index and 0 <= index < group.order:
                raise GenCayleyError(
                    f"{option}: {token!r} is both the index of element {index} and the"
                    f" name of element {value} in {group.id}"
                )
            value = index if value is None else value
        elif value is None:
            raise GenCayleyError(f"{option}: unknown element {token!r} in {group.id}")
        out.append(value)
    return tuple(sorted(set(out)))


def _open_out(path):
    """``path`` opened for writing, or a context of None without a path.
    A command opens its output file before doing its work, so an
    unwritable path fails before any of the work is done or printed."""
    return open(path, "w", encoding="utf-8") if path else nullcontext()


# ---------------------------------------------------------------------------
# subcommands


def cmd_group_list(args) -> int:
    for group in catalog(args.max_order):
        abelian = "abelian" if group.is_abelian else "nonabelian"
        print(f"{group.id} order={group.order} {abelian}")
    return 0


def cmd_group_describe(args) -> int:
    group = _resolve_group(args)
    print(f"group={group.id} order={group.order} abelian={str(group.is_abelian).lower()}")
    if group.names is not None:
        print("elements: " + " ".join(f"{i}={n}" for i, n in enumerate(group.names)))
    subs = enumerate_subgroups(group)
    print(f"subgroups: {len(subs)}")
    for sub in subs:
        print(f"  {fmt_set(sub.elements)}")
    return 0


def cmd_aut_list(args) -> int:
    group = _resolve_group(args)
    alphas = enumerate_involutory_automorphisms(group, include_identity=args.include_identity)
    print(f"group={group.id} involutory_automorphisms={len(alphas)}")
    # the identity comes first and has no --alpha index: alpha[k] is what
    # --alpha k selects
    for i, alpha in enumerate(alphas, -args.include_identity):
        label = "identity" if i < 0 else f"alpha[{i}]"
        print(f"{label} perm={list(alpha.perm)}")
    return 0


def cmd_sets(args) -> int:
    group = _resolve_group(args)
    if args.alpha is not None:
        picks = [(args.alpha, _resolve_context(args, group))]
    else:
        picks = [(str(i), ctx) for i, ctx in enumerate(involution_contexts(group))]
    print(f"group={group.id} order={group.order}")
    if not picks:
        print("no involutory automorphisms")
    for label, ctx in picks:
        print(f"alpha[{label}] perm={list(ctx.alpha.perm)}")
        for field_name, gloss in SET_LABELS:
            value = getattr(ctx, field_name)
            print(f"  {field_name:9} = {fmt_set(value)}  ({gloss})")
    return 0


def cmd_graph_build(args) -> int:
    graph = _resolve_graph(args)
    group = graph.group
    with _open_out(args.export_dot) as dot:
        edges = graph.edges()
        print(
            f"group={group.id} alpha={args.alpha} S={fmt_set(graph.subset.elements)}"
            f" regular={graph.degree} vertices={group.order} edges={len(edges)}"
        )
        print("edges: " + " ".join(fmt_set(e) for e in edges))
        if dot is not None:
            dot.write(export_dot(graph))
    if args.export_dot:
        print(f"dot written to {args.export_dot}")
    return 0


def cmd_check(args) -> int:
    graph = _resolve_graph(args)
    group = graph.group
    x = _parse_elements(group, args.X, "--X")
    value = evaluate(KINDS[args.kind], graph, x)
    print(
        f"group={group.id} alpha={args.alpha} S={fmt_set(graph.subset.elements)}"
        f" X={fmt_set(x)} kind={args.kind}"
    )
    print(f"result={str(value).lower()}")
    return 0


def cmd_decide(args) -> int:
    group = _resolve_group(args)
    ctx = _resolve_context(args, group)
    sub = subgroup(group, _parse_elements(group, args.subgroup, "--subgroup"))
    witness = _decide(sub, ctx, KINDS[args.kind])
    print(
        f"group={group.id} alpha={args.alpha} subgroup={fmt_set(sub.elements)}"
        f" kind={args.kind}"
    )
    if witness.success:
        print(
            f"result=code witness={fmt_set(witness.subset.elements)}"
            f" witness_size={witness.subset.size}"
        )
    else:
        print(f"result=refuted reason={witness.refutation}")
    return 0


def cmd_enumerate_codes(args) -> int:
    graph = _resolve_graph(args)
    codes = brute_force_codes(graph, KINDS[args.kind])
    print(
        f"group={graph.group.id} alpha={args.alpha} S={fmt_set(graph.subset.elements)}"
        f" kind={args.kind} codes={len(codes)}"
    )
    for code in codes:
        print(fmt_set(code))
    return 0


def cmd_census(args) -> int:
    with _open_out(args.out) as out:
        records = census_records(args.max_order, workers=args.workers)
        (out or sys.stdout).write(emit_report(records, fmt=args.format))
    if args.out:
        print(f"census: {len(records)} records written to {args.out}")
    return 0


def cmd_verify(args) -> int:
    failed = False
    for res in run_suites(max_order=args.max_order):
        status = "ok" if res.ok else "FAIL"
        print(f"{status:4} {res.name} ({res.cases} cases, {res.seconds:.2f} s)")
        if not res.ok:
            failed = True
            print(f"     counterexample: {res.violations[0]}")
        sys.stdout.flush()
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    """An argparse type for sizes and counts: an integer of at least 1, in
    ASCII decimal digits after an optional ``-``."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_group_args(p):
    p.add_argument("--group", help="catalog group spec, e.g. cyclic:6, D4, Z2xZ4")
    p.add_argument("--group-file", help="JSON group table file")


def _add_alpha_arg(p, required=True):
    p.add_argument(
        "--alpha",
        required=required,
        help="'inv' for inversion, an index into the involutory list, or a perm file",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencayley",
        description="Generalized Cayley graphs: build groups, inspect involutions, "
        "decide perfect and total perfect codes, sweep the catalog.",
        epilog="census CSV columns: " + ",".join(CSV_COLUMNS),
    )
    version = f"gencayley {__version__} (kernels: {kernels.backend()})"
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="catalog groups")
    gsub = p.add_subparsers(dest="group_command", required=True)
    p_list = gsub.add_parser("list", help="list the catalog")
    p_list.add_argument("--max-order", type=_positive_int, default=DEFAULT_CENSUS_MAX_ORDER)
    p_list.set_defaults(func=cmd_group_list)
    p_desc = gsub.add_parser("describe", help="order, elements, subgroups")
    _add_group_args(p_desc)
    p_desc.set_defaults(func=cmd_group_describe)

    p = sub.add_parser("aut", help="automorphisms")
    asub = p.add_subparsers(dest="aut_command", required=True)
    p_alist = asub.add_parser("list", help="list involutory automorphisms")
    _add_group_args(p_alist)
    p_alist.add_argument("--include-identity", action="store_true")
    p_alist.set_defaults(func=cmd_aut_list)

    p = sub.add_parser("sets", help="derived element sets per involution")
    _add_group_args(p)
    _add_alpha_arg(p, required=False)
    p.set_defaults(func=cmd_sets, alpha=None)

    p = sub.add_parser("graph", help="graphs")
    gsub2 = p.add_subparsers(dest="graph_command", required=True)
    p_build = gsub2.add_parser("build", help="build a graph and print its edges")
    _add_group_args(p_build)
    _add_alpha_arg(p_build)
    p_build.add_argument("--S", required=True, help="connection set, comma-separated")
    p_build.add_argument("--export-dot", help="write DOT to this path")
    p_build.set_defaults(func=cmd_graph_build)

    p = sub.add_parser("check", help="test a given vertex set")
    p.add_argument("kind", choices=KINDS)
    _add_group_args(p)
    _add_alpha_arg(p)
    p.add_argument("--S", required=True)
    p.add_argument("--X", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decide", help="decide a subgroup and construct a witness")
    p.add_argument("kind", choices=KINDS)
    _add_group_args(p)
    _add_alpha_arg(p)
    p.add_argument("--subgroup", required=True)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("enumerate", help="enumerations")
    esub = p.add_subparsers(dest="enumerate_command", required=True)
    p_codes = esub.add_parser("codes", help="all codes of a graph by brute force")
    _add_group_args(p_codes)
    _add_alpha_arg(p_codes)
    p_codes.add_argument("--S", required=True)
    p_codes.add_argument("--kind", choices=KINDS, default="pc")
    p_codes.set_defaults(func=cmd_enumerate_codes)

    p = sub.add_parser("census", help="sweep the catalog and emit records")
    p.add_argument("--max-order", type=_positive_int, default=DEFAULT_CENSUS_MAX_ORDER)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--max-order", type=_positive_int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ThresholdError as exc:
        print(f"threshold exceeded: {exc}", file=sys.stderr)
        return 3
    except (GenCayleyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
