"""The benchmark's workloads: seeded inputs, the timed calls into the
public ``gencayley`` API, and the correctness gates on their outputs.

Each workload is a closed loop with one caller: the next call starts when
the previous one returns. ``prepare`` turns the seed into inputs without
calling the package; ``run`` makes the timed calls and then checks every
output, outside the timed region. A wrong output and an exception are both
counted as failed operations; neither stops the run.

Outputs are re-validated against ``holds``, an oracle written here from the
definition of a generalized Cayley graph (vertex g is adjacent to
alpha(g)*s for s in S), so it shares no code with the package's routes.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

import gencayley
import gencayley.verify
from speed import stamp

# worker.py sets this to Calibrator.sample; it is called right before and
# after each group of timed operations, whose times are then scaled by the
# host speed of that moment (see speed.py)
sample_speed = lambda: None  # noqa: E731

# Pinned outputs and sizes. "full" is the benchmark; "toy" is the self-test.
SCALES = {
    "full": {
        "census_order": 24,
        "census_records": 27483,
        "census_bytes": 8203955,
        "census_sha256": "407d4f3bd15f9c34eccef12b2c2d81b72fe8e97af4edc5b74b5c4eb6031ec91d",
        "oracle_order": 16,
        "oracle_cases": 24009,
        "mode_order": 10,
        "mode_exhaustive": 8,
        "mode_cases": 318808,
        "scan_order": 16,
        "scan_sets": 128,
        "probes": 32,
        "factor_order": 12,
        "product_band": (25, 48),
        "products": 16,
        "hit_order": 8,
        "transports": 3000,
        "product_checks": 10,
        "restrictions": 32,
    },
    "toy": {
        "census_order": 8,
        "census_records": 504,
        "census_bytes": 142193,
        "census_sha256": "7bfe567c74f01f52a39ece5b68e675e9d23bed74c124a0a7f48c3eb9aab5c2e6",
        "oracle_order": 8,
        "oracle_cases": 502,
        "mode_order": 6,
        "mode_exhaustive": 4,
        "mode_cases": 33168,
        "scan_order": 8,
        "scan_sets": 4,
        "probes": 8,
        "factor_order": 6,
        "product_band": (8, 16),
        "products": 2,
        "hit_order": 6,
        "transports": 50,
        "product_checks": 1,
        "restrictions": 2,
    },
}


@dataclass
class Outcome:
    """What one repetition of a workload did."""

    wall_s: float = 0.0
    started: tuple[float, float] = (0.0, 0.0)  # speed.stamp() around the timed calls
    ended: tuple[float, float] = (0.0, 0.0)
    items: int = 0  # unit items completed (records, suite cases, operations)
    attempted: int = 0
    failed: int = 0
    op_ms: list[float] = field(default_factory=list)
    op_at: list[float] = field(default_factory=list)  # time.perf_counter() at each op's start, where known
    failures: list[str] = field(default_factory=list)

    def finish(self, started: tuple[float, float]) -> None:
        """Close the timed region opened by ``started = stamp()``."""
        self.started, self.ended = started, stamp()
        self.wall_s = self.ended[0] - started[0]

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# the independent oracle


def holds(group, alpha_perm, s_elems, x_elems, kind: str) -> bool:
    """Is X a perfect ("perfect") or total perfect ("total") code of
    GC(G, S, alpha), with S a valid connection set?"""
    table, inv, n = group.table, group.inv, group.order
    sset = set(s_elems)
    for s in sset:
        if alpha_perm[inv[s]] not in sset:  # closed under tau
            return False
    loops = {table[alpha_perm[inv[g]]][g] for g in range(n)}
    if sset & loops:
        return False
    xset = set(x_elems)
    for g in range(n):
        row = table[alpha_perm[g]]
        hits = sum(1 for s in sset if row[s] in xset)
        want = 0 if kind == "perfect" and g in xset else 1
        if hits != want:
            return False
    return True


def is_subgroup(group, elems) -> bool:
    eset = set(elems)
    return 0 in eset and all(group.table[a][b] in eset for a in eset for b in eset)


# ---------------------------------------------------------------------------
# census and census-par


def prepare_census(seed: int, scale: dict) -> dict:
    # the sweep covers the whole catalog; there is nothing to draw
    return {}


def run_census(inputs: dict, scale: dict, workers: int) -> Outcome:
    out = Outcome()
    expected = scale["census_records"]
    started = stamp()
    try:
        records = gencayley.census_records(scale["census_order"], workers=workers)
        report = gencayley.emit_report(records, fmt="jsonl")
    except Exception as exc:  # a crashed sweep fails every record
        out.attempted = expected
        out.fail(expected, f"census raised {exc!r}")
        return out
    out.finish(started)
    out.items = out.attempted = len(records)
    data = report.encode()
    digest = hashlib.sha256(data).hexdigest()
    if (len(records), len(data), digest) != (expected, scale["census_bytes"], scale["census_sha256"]):
        out.fail(
            max(len(records), expected),
            f"report is {len(records)} records, {len(data)} bytes, sha256 {digest}",
        )
    for r in records:
        if r.decide_pc_ms is not None:
            out.op_ms.append(r.decide_pc_ms)
        if r.decide_tpc_ms is not None:
            out.op_ms.append(r.decide_tpc_ms)
    return out


# ---------------------------------------------------------------------------
# crosscheck


def prepare_crosscheck(seed: int, scale: dict) -> dict:
    rng = random.Random(seed)
    n = scale["scan_order"]
    return {
        "mode_seed": rng.randrange(1 << 31),
        # (involution, connection set, probe sets) draws, resolved by index;
        # the groups take turns so that every seed scans each equally often
        "scans": [
            (rng.randrange(1 << 40), rng.randrange(1 << 40), [rng.getrandbits(n) for _ in range(scale["probes"])])
            for _ in range(scale["scan_sets"])
        ],
    }


def run_crosscheck(inputs: dict, scale: dict) -> Outcome:
    """The three suites, and per seeded connection set a brute-force scan
    for each code kind followed by probes that ask ``is_perfect_code`` or
    ``is_total_perfect_code`` about sets the scan found or random sets.
    The scans are spread between the suites, so that the latency samples
    cover the whole repetition."""
    out = Outcome()
    verify = gencayley.verify
    suites = [
        ("pc-oracle", scale["oracle_cases"], lambda: verify.suite_pc_oracle(scale["oracle_order"])),
        ("tpc-oracle", scale["oracle_cases"], lambda: verify.suite_tpc_oracle(scale["oracle_order"])),
        (
            "mode-agreement",
            scale["mode_cases"],
            lambda: verify.suite_mode_agreement(
                max_order=scale["mode_order"],
                exhaustive_limit=scale["mode_exhaustive"],
                seed=inputs["mode_seed"],
            ),
        ),
    ]
    checks = {"perfect": gencayley.is_perfect_code, "total": gencayley.is_total_perfect_code}
    per_scan = 2 * (1 + scale["probes"])
    results = []
    scans = []  # (group, alpha perm, S, kind, codes, [(X, verdict)])
    started = stamp()
    groups = [g for g in gencayley.catalog(scale["scan_order"]) if g.order == scale["scan_order"]]
    for k, (name, expected, call) in enumerate(suites):
        try:
            results.append((name, expected, call()))
        except Exception as exc:
            results.append((name, expected, exc))
        for i in range(k, len(inputs["scans"]), len(suites)):
            ai, si, masks = inputs["scans"][i]
            try:
                group = groups[i % len(groups)]
                alphas = gencayley.enumerate_involutory_automorphisms(group)
                ctx = gencayley.alpha_context(group, alphas[ai % len(alphas)])
                subset = gencayley.subset_from_orbit_mask(ctx, si % (1 << len(ctx.tau_orbits)))
                graph = gencayley.build_graph(subset)
                for kind in ("perfect", "total"):
                    codes = gencayley.brute_force_codes(graph, kind)
                    probes = codes[:4] + [
                        tuple(x for x in range(group.order) if m >> x & 1) for m in masks[len(codes[:4]):]
                    ]
                    verdicts = []
                    sample_speed()
                    for x in probes:
                        t1 = time.perf_counter()
                        verdicts.append((x, checks[kind](graph, x)))
                        out.op_ms.append((time.perf_counter() - t1) * 1000.0)
                        out.op_at.append(t1)
                    sample_speed()
                    scans.append((group, ctx.alpha.perm, subset.elements, kind, codes, verdicts))
            except Exception as exc:
                out.fail(per_scan, f"scan {i} raised {exc!r}")
    out.finish(started)

    for name, expected, res in results:
        out.attempted += expected
        if isinstance(res, Exception):
            out.fail(expected, f"{name} raised {res!r}")
        elif res.cases != expected:
            out.fail(expected, f"{name} ran {res.cases} cases, expected {expected}")
        else:
            out.items += res.cases
            if not res.ok:
                out.fail(len(res.violations), f"{name}: {res.violations[0]}")
    out.attempted += per_scan * len(inputs["scans"])
    subgroups = {}
    for group, perm, s_elems, kind, codes, verdicts in scans:
        out.items += 1 + len(verdicts)
        found = set(codes)
        if group.id not in subgroups:
            subgroups[group.id] = [h.elements for h in gencayley.enumerate_subgroups(group)]
        wrong = [x for x in codes if not holds(group, perm, s_elems, x, kind)]
        missed = [h for h in subgroups[group.id] if h not in found and holds(group, perm, s_elems, h, kind)]
        if wrong or missed:
            out.fail(1, f"scan {group.id} S={s_elems} {kind}: wrong {wrong[:1]} missed {missed[:1]}")
        for x, verdict in verdicts:
            if verdict != (x in found):
                out.fail(1, f"{kind} check of X={x} in {group.id} S={s_elems} disagrees with the scan")
    return out


# ---------------------------------------------------------------------------
# constructions


def prepare_constructions(seed: int, scale: dict) -> dict:
    rng = random.Random(seed)

    def draws(count: int, width: int = 2):
        return [tuple(rng.randrange(1 << 40) for _ in range(width)) for _ in range(count)]

    return {
        "products": draws(scale["products"], 3),
        # the code hits take turns, so that every seed transports each
        # equally often; the seed draws the automorphism and fixed point
        "transports": [(i, rng.randrange(1 << 40)) for i in range(scale["transports"])],
        "product_checks": draws(scale["product_checks"], 2),
        "restrictions": draws(scale["restrictions"], 1),
    }


def _code_hits(max_order: int):
    """Every (subgroup, connection set, kind) code hit of the small catalog."""
    hits = []
    for group in gencayley.catalog(max_order):
        if group.order < 2:
            continue
        subs = gencayley.enumerate_subgroups(group)
        for alpha in gencayley.enumerate_involutory_automorphisms(group):
            ctx = gencayley.alpha_context(group, alpha)
            for sub in subs:
                for kind, witness in (
                    ("perfect", gencayley.decide_subgroup_pc(sub, ctx)),
                    ("total", gencayley.decide_subgroup_tpc(sub, ctx)),
                ):
                    if witness.success:
                        hits.append((sub, witness.subset, kind))
    return hits


def _band_pairs(items, order_of, band):
    lo, hi = band
    return [(a, b) for a in items for b in items if lo <= order_of(a) * order_of(b) <= hi]


def run_constructions(inputs: dict, scale: dict) -> Outcome:
    out = Outcome()
    out.attempted = (
        3 * len(inputs["products"])
        + 2 * len(inputs["transports"])
        + len(inputs["product_checks"])
        + len(inputs["restrictions"])
    )
    products, transports, checks, restrictions = [], [], [], []
    started = stamp()
    try:
        factors = [
            (g, gencayley.enumerate_involutory_automorphisms(g))
            for g in gencayley.catalog(scale["factor_order"])
        ]
        factors = [(g, alphas) for g, alphas in factors if alphas]
        pairs = _band_pairs(factors, lambda f: f[0].order, scale["product_band"])
        hits = _code_hits(scale["hit_order"])
        nonempty = {
            kind: [(h, s) for h, s, k in hits if k == kind and s.size > 0]
            for kind in ("perfect", "total")
        }
        order = lambda pair: pair[0].parent.order  # noqa: E731
        pc_pairs = _band_pairs(nonempty["perfect"], order, scale["product_band"])
        tpc_pairs = _band_pairs(nonempty["total"], order, scale["product_band"])

        def product(pi, ai, bi):
            """A direct product of catalog groups with its componentwise involution."""
            (g1, alphas1), (g2, alphas2) = pairs[pi % len(pairs)]
            a1, a2 = alphas1[ai % len(alphas1)], alphas2[bi % len(alphas2)]
            prod = gencayley.direct_product(g1, g2)
            bar = gencayley.product_automorphism(a1, a2, prod)
            ctx = gencayley.alpha_context(prod, bar)
            products.append((g1, g2, a1, a2, prod, ctx))
            out.items += 3

        def product_check(pi, ti):
            p1, p2 = pc_pairs[pi % len(pc_pairs)]
            q1, q2 = tpc_pairs[ti % len(tpc_pairs)]
            checks.append(gencayley.verify_product_codes(p1, p2, q1, q2))
            out.items += 1

        def transport(hi, bi):
            sub, subset, kind = hits[hi % len(hits)]
            group = sub.parent
            autos = gencayley.enumerate_automorphisms(group)
            beta = autos[bi % len(autos)]
            fixed = [x for x in range(group.order) if subset.context.alpha.perm[x] == x]
            g = fixed[bi % len(fixed)]
            t1 = time.perf_counter()
            moved = gencayley.transport_automorphism(sub, subset, beta, kind)
            t2 = time.perf_counter()
            conj = gencayley.transport_conjugate(sub, subset, g, kind)
            t3 = time.perf_counter()
            out.op_ms += [(t2 - t1) * 1000.0, (t3 - t2) * 1000.0]
            out.op_at += [t1, t2]
            transports.append((sub, subset, kind, beta, g, moved, conj))
            out.items += 2

        # the transports are spread between the slower steps, so that the
        # latency samples cover the whole repetition
        steps = [(product, d) for d in inputs["products"]] + [
            (product_check, d) for d in inputs["product_checks"]
        ]
        moves = inputs["transports"]
        for i, (step, draw) in enumerate(steps):
            step(*draw)
            sample_speed()
            for draw in moves[i * len(moves) // len(steps):(i + 1) * len(moves) // len(steps)]:
                transport(*draw)
            sample_speed()

        pc_hits = [(h, s) for h, s, k in hits if k == "perfect"]
        for (ri,) in inputs["restrictions"]:
            sub, subset = pc_hits[ri % len(pc_hits)]
            restrictions.append(gencayley.restrict_to_normalizer(sub, subset))
            out.items += 1
    except Exception as exc:  # the operations not completed fail
        out.fail(out.attempted - out.items, f"constructions raised {exc!r}")
    out.finish(started)

    for g1, g2, a1, a2, prod, ctx in products:
        if not _product_ok(g1, g2, a1, a2, prod, ctx):
            out.fail(3, f"direct product {g1.id} x {g2.id} does not re-validate")
    for sub, subset, kind, beta, g, moved, conj in transports:
        ok_moved, ok_conj = _transports_ok(sub, subset, kind, beta, g, moved, conj)
        if not ok_moved:
            out.fail(1, f"transport of {sub.elements} in {sub.parent.id} by {beta.perm} fails")
        if not ok_conj:
            out.fail(1, f"conjugation of {sub.elements} in {sub.parent.id} by {g} fails")
    for report in checks:
        if not (
            report.pc_product_holds
            and not report.tpc_plain_counting_ok
            and not report.tpc_plain_holds
            and report.tpc_amended_evaluated
            and report.tpc_amended_holds
        ):
            out.fail(1, f"product codes report {report}")
    for res in restrictions:
        if not (
            is_subgroup(res.group, res.subgroup.elements)
            and holds(res.group, res.context.alpha.perm, res.subset.elements, res.subgroup.elements, "perfect")
        ):
            out.fail(1, f"restriction to {res.element_map} does not re-validate")
    return out


def _product_ok(g1, g2, a1, a2, prod, ctx) -> bool:
    n1, n2 = g1.order, g2.order
    t, t1, t2 = prod.table, g1.table, g2.table
    if prod.order != n1 * n2:
        return False
    for a in range(prod.order):
        for b in range(prod.order):
            if t[a][b] != t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2]:
                return False
    perm = ctx.alpha.perm
    want = tuple(a1.perm[x // n2] * n2 + a2.perm[x % n2] for x in range(prod.order))
    if perm != want:
        return False
    loops = {t[perm[prod.inv[g]]][g] for g in range(prod.order)}
    return set(ctx.omega) == loops


def _transports_ok(sub, subset, kind, beta, g, moved, conj) -> tuple[bool, bool]:
    group = sub.parent
    alpha = subset.context.alpha.perm
    binv = [0] * group.order
    for x, y in enumerate(beta.perm):
        binv[y] = x
    new_sub, new_set, new_ctx = moved
    new_alpha = tuple(beta.perm[alpha[binv[x]]] for x in range(group.order))
    ok_moved = (
        new_ctx.alpha.perm == new_alpha
        and sorted(new_sub.elements) == sorted(beta.perm[h] for h in sub.elements)
        and sorted(new_set.elements) == sorted(beta.perm[s] for s in subset.elements)
        and holds(group, new_alpha, new_set.elements, new_sub.elements, kind)
    )
    conj_sub, conj_set = conj
    ok_conj = (
        len(conj_sub.elements) == len(sub.elements)
        and len(conj_set.elements) == len(subset.elements)
        and is_subgroup(group, conj_sub.elements)
        and holds(group, alpha, conj_set.elements, conj_sub.elements, kind)
    )
    return ok_moved, ok_conj


WORKLOADS = {
    "census": (prepare_census, lambda inputs, scale: run_census(inputs, scale, workers=1)),
    "census-par": (prepare_census, lambda inputs, scale: run_census(inputs, scale, workers=2)),
    "crosscheck": (prepare_crosscheck, run_crosscheck),
    "constructions": (prepare_constructions, run_constructions),
}
