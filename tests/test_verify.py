"""The witness re-checks build each graph once per (involution, connection
set) and still run every check on every witness."""

from collections import Counter

import pytest

import gencayley.verify as verify
from gencayley import GroupValidationError


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
