#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy sizes (under a minute).

    python3 perfbench/selftest.py

Runs every workload with ``--scale toy`` (census to order 8, oracle suites
to order 8, ...), untraced and traced, and checks that each run passes its
gates and emits every metric named in BENCHMARK.json with its unit. Also
checks that the tracer reports a function the package no longer has as
missing instead of failing, and that ``compare.py`` refuses results from
different environments.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import WORKLOADS  # noqa: E402
from tracing import FUNCTIONS, Tracer, metric_units  # noqa: E402


def run(workload: str, trace: int, out: Path, spans: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
        "--seconds", "0.5", "--trace", str(trace), "--scale", "toy", "--out", str(out),
        "--spans-dir", str(spans),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2])["env"]
    assert env["speed"] > 0 and env["raw_wall_s"] > 0, env  # the host-speed correction ran
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units(), \
        "BENCHMARK.json per_layer does not match tracing.FUNCTIONS"

    (ROOT / "perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench_out") as tmp:
        for w in WORKLOADS:
            for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                out = Path(tmp) / f"{w}-{trace}.json"
                spans = Path(tmp) / f"spans-{w}"
                result = run(w, trace, out, spans)
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
                assert result["correct"] and result["failed"] == 0, result
                assert result["attempted"] >= 1
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                assert got == {m["name"]: m["unit"] for m in wanted}, (w, trace, got)
                if trace:
                    rows = [line.split("\t") for line in (spans / f"{w}-7-0.tsv").read_text().splitlines()[1:]]
                    assert rows and all(row[2] != "0" or row[1] == row[3] for row in rows), "a root span is its own root"
                    if w == "census-par":
                        assert len({row[0] for row in rows}) >= 2, "spans of the pool workers are merged"
                print(f"ok  {w:14} trace={trace}  {len(got)} metrics")

        # results from different interpreter flags are not compared
        base = Path(tmp) / "census-0.json"
        other = Path(tmp) / "other.json"
        doc = json.loads(base.read_text())
        doc["env"]["optimize"] = 1
        other.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, str(HERE / "compare.py"), str(base), str(other)],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and "optimize" in proc.stderr, proc.stderr
        print("ok  compare.py refuses a different flag set")
    try:
        (ROOT / "perfbench_out").rmdir()
    except OSError:  # holds other results
        pass

    # a function that no longer exists is reported missing, not fatal
    tracer = Tracer(FUNCTIONS + [("codes", "no_such_function", ("calls", "self_s"), None)])
    tracer.install()
    import gencayley

    gencayley.census_records(4)
    values, missing = tracer.metrics()
    assert missing == ["codes.no_such_function"], missing
    assert values["codes.decide_subgroup_pc.calls"] > 0
    assert "codes.no_such_function.calls" not in values
    print("ok  tracer reports a removed function as missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
