"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line. All tolerances are exact (boolean agreement / zero
violations); run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines and timings.
"""

import contextlib
import io
import time

from gencayley.cli import main
from gencayley.verify import (
    suite_abelian_criterion,
    suite_census_audits,
    suite_graph_laws,
    suite_mode_agreement,
    suite_pc_oracle,
    suite_product_codes,
    suite_product_identities,
    suite_tpc_oracle,
    suite_transports,
)


def _report(number: int, result, t0: float) -> None:
    status = "PASS" if result.ok else "FAIL"
    print(
        f"{status} criterion {number}: {result.name}, {result.cases} cases,"
        f" {len(result.violations)} violations, {time.time() - t0:.1f}s"
    )


def test_criterion_01_graph_laws():
    t0 = time.time()
    res = suite_graph_laws(max_order=12)
    _report(1, res, t0)
    assert res.ok, res.violations[:3]


def test_criterion_02_mode_agreement():
    t0 = time.time()
    res = suite_mode_agreement(max_order=12, seed=0, exhaustive_limit=8)
    _report(2, res, t0)
    assert res.ok, res.violations[:3]


def test_criterion_03_pc_oracle_equivalence():
    t0 = time.time()
    res = suite_pc_oracle(max_order=16)
    _report(3, res, t0)
    assert res.ok, res.violations[:3]


def test_criterion_04_abelian_characterization():
    t0 = time.time()
    res = suite_abelian_criterion(max_order=24)
    _report(4, res, t0)
    assert res.ok, res.violations[:3]


def test_criterion_05_census_audits():
    t0 = time.time()
    res = suite_census_audits(max_order=24)
    _report(5, res, t0)
    assert res.ok, res.violations[:3]


def test_criterion_06_transports():
    t0 = time.time()
    res = suite_transports(max_order=12)
    _report(6, res, t0)
    assert res.ok, res.violations[:3]


def test_criterion_07_products():
    t0 = time.time()
    identities = suite_product_identities(max_order=8)
    codes = suite_product_codes()
    _report(7, identities, t0)
    _report(7, codes, t0)
    assert identities.ok, identities.violations[:3]
    assert codes.ok, codes.violations[:3]


def test_criterion_08_tpc_oracle_equivalence():
    t0 = time.time()
    res = suite_tpc_oracle(max_order=16)
    _report(8, res, t0)
    assert res.ok, res.violations[:3]


GOLDEN_COMMANDS = [
    ["sets", "--group", "cyclic:6", "--alpha", "inv"],
    ["graph", "build", "--group", "cyclic:6", "--alpha", "inv", "--S", "1"],
    ["decide", "pc", "--group", "cyclic:6", "--alpha", "inv", "--subgroup", "0,2,4"],
    ["decide", "pc", "--group", "cyclic:6", "--alpha", "inv", "--subgroup", "0,3"],
    ["decide", "tpc", "--group", "cyclic:6", "--alpha", "inv", "--subgroup", "0,3"],
    ["decide", "pc", "--group", "cyclic:4", "--alpha", "inv", "--subgroup", "0"],
]

# frozen from the definitions: the loop set of inversion on the 6-element
# cyclic group is the even residues, S={1} gives a perfect matching, the
# two proper nontrivial subgroups are perfect codes (witnesses {1} and
# {1,5}), {0,3} is additionally a total perfect code with witness {1,3,5},
# and the trivial subgroup of the 4-element cyclic group is refuted by the
# loop-set coset {2}
GOLDEN_OUTPUT = (
    "group=Z6 order=6\n"
    "alpha[inv] perm=[0, 5, 4, 3, 2, 1]\n"
    "  omega     = {0,2,4}  (loop set)\n"
    "  big_omega = {1,3,5}  (tau-fixed outside loop set)\n"
    "  mho       = {}  (tau-moved)\n"
    "  fix       = {0,3}  (fixed points)\n"
    "  k_set     = {0,1,2,3,4,5}  (alpha(g) = g^-1)\n"
    "group=Z6 alpha=inv S={1} regular=1 vertices=6 edges=3\n"
    "edges: {0,1} {2,5} {3,4}\n"
    "group=Z6 alpha=inv subgroup={0,2,4} kind=pc\n"
    "result=code witness={1} witness_size=1\n"
    "group=Z6 alpha=inv subgroup={0,3} kind=pc\n"
    "result=code witness={1,5} witness_size=2\n"
    "group=Z6 alpha=inv subgroup={0,3} kind=tpc\n"
    "result=code witness={1,3,5} witness_size=3\n"
    "group=Z4 alpha=inv subgroup={0} kind=pc\n"
    "result=refuted reason=coset-inside-omega\n"
)


def test_criterion_09_golden_fixtures():
    t0 = time.time()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        for cmd in GOLDEN_COMMANDS:
            assert main(cmd) == 0
    ok = buf.getvalue() == GOLDEN_OUTPUT
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 9: worked fixtures byte-exact,"
        f" {len(GOLDEN_COMMANDS)} commands, {time.time() - t0:.1f}s"
    )
    assert ok, f"fixture drift:\n{buf.getvalue()!r}"


def test_criterion_10_census_determinism(tmp_path):
    t0 = time.time()
    out1 = tmp_path / "census1.jsonl"
    out2 = tmp_path / "census2.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["census", "--max-order", "16", "--workers", "1", "--out", str(out1)]) == 0
        assert main(["census", "--max-order", "16", "--workers", "2", "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    b2 = out2.read_bytes()
    ok = b1 == b2 and len(b1) > 0
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 10: census byte-identical across"
        f" worker counts, {len(b1)} bytes, {time.time() - t0:.1f}s"
    )
    assert ok
