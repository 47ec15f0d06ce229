"""The witness re-checks build each graph once per (involution, connection
set) and still run every check on every witness, and the suites report
every violation they find, in scan order."""

from collections import Counter

import pytest

import gencayley.verify as verify
from gencayley import GroupValidationError, catalog, involution_contexts, kernels


@pytest.mark.parametrize(
    "suite, cases, pc_calls, tpc_calls, builds",
    [
        # builds were 344, 630, 487 and 139 with one build per witness
        ("suite_pc_oracle", 502, 688, 0, 146),
        ("suite_tpc_oracle", 502, 0, 1260, 171),
        ("suite_census_audits", 502, 172, 315, 243),
        ("suite_abelian_criterion", 416, 139, 0, 115),
    ],
)
def test_graph_reuse_keeps_every_check(monkeypatch, suite, cases, pc_calls, tpc_calls, builds):
    calls = Counter()
    built = set()

    def counted(name):
        fn = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "build_graph":
                ctx = args[0].context
                built.add((ctx.group.id, ctx.alpha.perm, args[0].elements))
            return fn(*args, **kwargs)

        monkeypatch.setattr(verify, name, wrapper)

    for name in ("build_graph", "is_perfect_code", "is_total_perfect_code"):
        counted(name)
    result = getattr(verify, suite)(8)
    assert result.ok and result.cases == cases
    assert calls["is_perfect_code"] == pc_calls
    assert calls["is_total_perfect_code"] == tpc_calls
    # one build per distinct (context, connection set), never one per witness
    assert calls["build_graph"] == len(built) == builds


def test_odd_order_suite_catches_only_subgroup_failures(monkeypatch):
    def broken(group, elements):
        raise TypeError("a bug, not a verdict")

    monkeypatch.setattr(verify, "subgroup", broken)
    with pytest.raises(TypeError, match="a bug"):
        verify.suite_odd_order_in_omega(6)

    def rejected(group, elements):
        raise GroupValidationError("subgroup-closure", (1, 1, 2))

    monkeypatch.setattr(verify, "subgroup", rejected)
    result = verify.suite_odd_order_in_omega(6)
    assert result.violations
    assert all(v.endswith(": loop set not a subgroup") for v in result.violations)


def test_mode_agreement_reports_tampered_verdicts_in_scan_order(monkeypatch):
    clean = verify.suite_mode_agreement(7)
    real = kernels.scan_check_routes
    stride = verify.REFERENCE_STRIDE
    dom = kernels.DOM_GRAPH | kernels.DOM_TRANSLATES
    tampered = {}

    def fake(n, table, inv, alpha_perm, s_elems, nbr_masks, xms):
        verdicts = real(n, table, inv, alpha_perm, s_elems, nbr_masks, xms)
        if len(xms) > stride + 3 and not tampered:
            verdicts[stride + 3] ^= kernels.AMO_GRAPH  # inconsistent: reported
            verdicts[0] ^= dom  # consistent but wrong, recomputed: reported
            verdicts[stride] ^= dom  # the same at the next recomputed position
            verdicts[stride - 1] ^= dom  # consistent but wrong, never recomputed
            tampered.update(n=n, alpha=alpha_perm, S=s_elems, xms=xms, verdicts=verdicts)
        return verdicts

    monkeypatch.setattr(kernels, "scan_check_routes", fake)
    result = verify.suite_mode_agreement(7)
    group = next(g for g in catalog(7) if g.order == tampered["n"])
    ai = [c.alpha.perm for c in involution_contexts(group)].index(tampered["alpha"])
    xms, verdicts = tampered["xms"], tampered["verdicts"]

    def braces(items):
        return "{" + ",".join(str(x) for x in items) + "}"

    head = f"group={group.id} alpha={ai} S={braces(tampered['S'])}"
    assert clean.ok
    assert result.cases == clean.cases
    assert result.violations == [
        f"{head} X={braces(x for x in range(group.order) if xms[j] >> x & 1)}:"
        f" verdict {verdicts[j]:013b}"
        for j in (0, stride, stride + 3)
    ]
