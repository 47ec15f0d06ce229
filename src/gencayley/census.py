"""Catalog sweep: decide both code kinds for every (group, involution,
subgroup) triple and serialize the results.

Reports are deterministic: records are produced in (group order, group id,
involution index, subgroup) order regardless of the worker count, and the
serialization leaves out the per-decision timings that records carry, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from ._bits import _check_size, perm_mask
from .automorphisms import (
    AUT_ENUM_LIMIT,
    Automorphism,
    alpha_context,
    enumerate_involutory_automorphisms,
)
from .codes import decide_subgroup_pc, decide_subgroup_tpc
from .errors import ThresholdError
from .groups import SUBGROUP_ENUM_LIMIT, FiniteGroup, build_group, enumerate_subgroups

DEFAULT_CENSUS_MAX_ORDER = 24


def catalog(max_order: int = DEFAULT_CENSUS_MAX_ORDER) -> list[FiniteGroup]:
    """The default group catalog up to a maximum order.

    Cyclic and dihedral groups, every non-cyclic abelian group (by
    invariant-factor chains, so each isomorphism type appears once), and
    the symmetric groups S3 and S4. Sorted by (order, id). A
    ``max_order`` that is not an int of at least 1 raises
    :class:`ValueError`, and one above ``SUBGROUP_ENUM_LIMIT`` raises
    :class:`~gencayley.errors.ThresholdError` before any group is built.
    """
    _check_size("max_order", max_order)
    if max_order > SUBGROUP_ENUM_LIMIT:
        raise ThresholdError(
            f"catalog limited to max_order <= {SUBGROUP_ENUM_LIMIT} by subgroup enumeration,"
            f" got {max_order}"
        )
    specs: list[str] = []
    specs.extend(f"cyclic:{n}" for n in range(1, max_order + 1))
    specs.extend(f"dihedral:{n}" for n in range(3, max_order // 2 + 1))
    specs.extend(
        "abelian:" + ",".join(str(d) for d in chain)
        for chain in _invariant_factor_chains(max_order)
    )
    if max_order >= 6:
        specs.append("symmetric:3")
    if max_order >= 24:
        specs.append("symmetric:4")
    groups = [build_group(s) for s in specs]
    groups.sort(key=lambda g: (g.order, g.id))
    return groups


def _invariant_factor_chains(max_order: int) -> list[tuple[int, ...]]:
    """Chains (d1, ..., dk), k >= 2, each dividing the next, product bounded."""
    found: list[tuple[int, ...]] = []

    def extend(chain: list[int], prod: int) -> None:
        if len(chain) >= 2:
            found.append(tuple(chain))
        step = chain[-1]
        nxt = step
        while prod * nxt <= max_order:
            extend(chain + [nxt], prod * nxt)
            nxt += step

    for d in range(2, max_order + 1):
        if d * d <= max_order:
            extend([d], d)
    found.sort()
    return found


@dataclass(eq=False, slots=True)
class CensusRecord:
    """One census row. The field order is the order of the plain rows that
    :func:`task_records` returns, from which :func:`census_records` builds
    each record; slots keep a record small and make a misspelled field
    assignment raise :class:`AttributeError`."""

    group_id: str
    group_order: int
    alpha_index: int | None = None
    subgroup: tuple[int, ...] | None = None
    alpha_preserves_subgroup: bool | None = None
    is_pc: bool | None = None
    pc_witness: tuple[int, ...] | None = None
    pc_refutation: str | None = None
    is_tpc: bool | None = None
    tpc_witness: tuple[int, ...] | None = None
    tpc_refutation: str | None = None
    decide_pc_ms: float | None = None
    decide_tpc_ms: float | None = None
    note: str | None = None

    def payload(self) -> dict:
        """The report fields: json keys, and CSV columns in this order."""
        return {
            "group": self.group_id,
            "order": self.group_order,
            "alpha": self.alpha_index,
            "subgroup": list(self.subgroup) if self.subgroup is not None else None,
            "alpha_preserves_subgroup": self.alpha_preserves_subgroup,
            "is_pc": self.is_pc,
            "pc_witness": list(self.pc_witness) if self.pc_witness is not None else None,
            "pc_witness_size": len(self.pc_witness) if self.pc_witness is not None else None,
            "pc_refutation": self.pc_refutation,
            "is_tpc": self.is_tpc,
            "tpc_witness": list(self.tpc_witness) if self.tpc_witness is not None else None,
            "tpc_witness_size": len(self.tpc_witness) if self.tpc_witness is not None else None,
            "tpc_refutation": self.tpc_refutation,
            "note": self.note,
        }


# the fields after group_id and group_order of a group without involutions
_PLACEHOLDER = (None,) * 11 + ("no-involutory-automorphisms",)


def task_records(args) -> list[tuple]:
    """The rows of one involution, or the placeholder row of a group
    without involutions (``perm`` is None). A row is a plain tuple of
    :class:`CensusRecord`'s fields in their order: a pool worker's rows
    pickle with no Python call per row, and :func:`census_records` builds
    the records."""
    group, alpha_index, perm, subgroups = args
    if perm is None:
        return [(group.id, group.order) + _PLACEHOLDER]
    alpha = Automorphism(perm, group)
    ctx = alpha_context(group, alpha)
    # alpha(H) is one of the task's own subgroups: hand the deciders that
    # handle, so neither builds one (a pool worker's handles are unpickled
    # copies, and their cosets are decomposed once for the whole chunk)
    by_mask = {s.mask: s for s in subgroups}
    images = ctx.images
    for m, sub in by_mask.items():
        if m not in images:  # alpha is an involution: one image per pair {H, alpha(H)}
            image = perm_mask(perm, m)
            images[m], images[image] = by_mask[image], sub
    clock, gid, order = time.perf_counter, group.id, group.order
    rows = []
    for sub in subgroups:
        t0 = clock()
        pc = decide_subgroup_pc(sub, ctx)
        t1 = clock()
        tpc = decide_subgroup_tpc(sub, ctx)
        t2 = clock()
        pcs, tpcs = pc.subset, tpc.subset
        rows.append((
            gid, order, alpha_index, sub.elements, tpc.alpha_preserves_subgroup,
            pcs is not None, None if pcs is None else pcs.elements, pc.refutation,
            tpcs is not None, None if tpcs is None else tpcs.elements, tpc.refutation,
            (t1 - t0) * 1000.0, (t2 - t1) * 1000.0, None,
        ))
    return rows


def census_records(
    max_order: int = DEFAULT_CENSUS_MAX_ORDER, workers: int = 1
) -> list[CensusRecord]:
    """Run the full sweep; one record per (group, involution, subgroup).

    A group with no involutory automorphism contributes a single
    placeholder record noting the empty sweep. Results are merged in task
    order, so the output is identical for any worker count. Every record
    is built here from a row of :func:`task_records`; with a pool, each
    chunk's rows become records as the chunk arrives, while the workers
    decide the rest. A ``workers`` or ``max_order`` that is not an int of
    at least 1 raises :class:`ValueError`, and a ``max_order`` above
    ``AUT_ENUM_LIMIT`` raises :class:`~gencayley.errors.ThresholdError`,
    before any group is built: the catalog holds a cyclic group of every
    order.
    """
    _check_size("workers", workers)
    _check_size("max_order", max_order)
    if max_order > AUT_ENUM_LIMIT:
        raise ThresholdError(
            f"census limited to max_order <= {AUT_ENUM_LIMIT} by automorphism enumeration,"
            f" got {max_order}"
        )
    tasks = []
    for group in catalog(max_order):
        alphas = enumerate_involutory_automorphisms(group)
        if not alphas:
            tasks.append((group, None, None, ()))
            continue
        subgroups = enumerate_subgroups(group)
        tasks.extend((group, idx, alpha.perm, subgroups) for idx, alpha in enumerate(alphas))

    # the pool starts all of its processes at once, so never ask it for
    # more than there are tasks
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [CensusRecord(*row) for rows in map(task_records, tasks) for row in rows]
    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = pool.map(task_records, tasks, chunksize=chunk)
        # inside the block: records are built while later chunks are decided
        return [CensusRecord(*row) for rows in results for row in rows]


CSV_COLUMNS = list(CensusRecord("", 0).payload())


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_ints(values, texts: dict) -> str:
    """The JSON array of an element tuple, or ``null``; ``texts`` maps each
    tuple already written to its text."""
    if values is None:
        return "null"
    text = texts.get(values)
    if text is None:
        text = texts[values] = "[" + ",".join(map(str, values)) + "]"
    return text


def _jsonl_line(r: CensusRecord, texts: dict) -> str:
    """``json.dumps(r.payload(), sort_keys=True, separators=(",", ":"))``
    plus a newline, written from one template whose keys are already in
    sorted order; strings get json's own escaping."""
    const, text = _JSON_CONSTANTS, encode_basestring_ascii
    pcw, tpcw, note = r.pc_witness, r.tpc_witness, r.note
    pc_ref, tpc_ref = r.pc_refutation, r.tpc_refutation
    return (
        f'{{"alpha":{"null" if r.alpha_index is None else r.alpha_index},'
        f'"alpha_preserves_subgroup":{const[r.alpha_preserves_subgroup]},'
        f'"group":{text(r.group_id)},'
        f'"is_pc":{const[r.is_pc]},"is_tpc":{const[r.is_tpc]},'
        f'"note":{"null" if note is None else text(note)},"order":{r.group_order},'
        f'"pc_refutation":{"null" if pc_ref is None else text(pc_ref)},'
        f'"pc_witness":{_json_ints(pcw, texts)},'
        f'"pc_witness_size":{"null" if pcw is None else len(pcw)},'
        f'"subgroup":{_json_ints(r.subgroup, texts)},'
        f'"tpc_refutation":{"null" if tpc_ref is None else text(tpc_ref)},'
        f'"tpc_witness":{_json_ints(tpcw, texts)},'
        f'"tpc_witness_size":{"null" if tpcw is None else len(tpcw)}}}\n'
    )


def emit_report(records, fmt: str = "jsonl") -> str:
    """Serialize records deterministically as JSON lines or CSV."""
    if fmt == "jsonl":
        # a census repeats few distinct element tuples across many lines,
        # so each is written once per call
        texts: dict = {}
        return "".join([_jsonl_line(r, texts) for r in records])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_csv_cell(v) for v in r.payload().values()])
        return buf.getvalue()
    raise ValueError(f"format must be 'jsonl' or 'csv', got {fmt!r}")
