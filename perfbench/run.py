#!/usr/bin/env python3
"""The gencayley benchmark: four workloads through the public API.

    python3 perfbench/run.py --workload census --seed 0 --seconds 45 --trace 0

Run it from a source checkout; it imports the package from ``src/`` and
needs no install. Workloads (see ``workloads.py`` and ``README.md``):

* ``census``: ``census_records(24, workers=1)`` then ``emit_report``.
* ``census-par``: the same sweep with ``workers=2``.
* ``crosscheck``: the pc/tpc oracle suites to order 16, the mode-agreement
  suite to order 10, and seeded ``brute_force_codes`` scans at order 16
  with probes of ``is_perfect_code``/``is_total_perfect_code``.
* ``constructions``: seeded direct products, transports, product-code
  checks and restrictions to the normalizer.

Every repetition runs in a fresh interpreter (``worker.py``), one after
the other, until ``--seconds`` have passed. One more interpreter before
each repetition only sets up, so that ``setup_s`` is a median of at least
nine starts spread over the run. Untraced repetitions
give the end-to-end metrics. With ``--trace 1`` traced and untraced
repetitions alternate, and the per-layer metrics come from the traced ones.

Every time is corrected for the speed of the shared host it ran on (see
``speed.py``); the wall times as measured are in the environment line.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it stamps the
environment: nproc, Python version, kernel backend, ``sys.flags.optimize``,
git commit and seed. ``--out FILE`` also writes both, with the per-
repetition figures, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import OVERHEAD_METRIC, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "census-par", "crosscheck", "constructions")
SETUP_STARTS_PER_REPETITION = 1
MIN_SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # every run ends well within 180 s


class WorkerFailed(Exception):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, args, started: float):
        self.args = args
        self.deadline = started + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.tmp = ROOT / "perfbench_out" / f"tmp-{os.getpid()}"

    def spawn(self, mode: str, spans: Path | None = None) -> dict:
        a = self.args
        cmd = [sys.executable] + ["-O"] * sys.flags.optimize + [
            str(HERE / "worker.py"),
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--mode", mode,
            "--scale", a.scale,
        ]
        if mode == "trace":
            self.tmp.mkdir(parents=True, exist_ok=True)
            cmd += ["--tmp", str(self.tmp)]
            if spans is not None:
                cmd += ["--spans", str(spans)]
        spawned_at = clock()
        cmd += ["--spawned-at", repr(spawned_at)]
        # own session, so that a worker and its pool can be stopped together
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - clock()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise WorkerFailed(f"{mode} repetition did not finish within the run's deadline")
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} repetition exited with {proc.returncode}:\n{err[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass


def end_to_end(setups: list[dict], reps: list[dict], attempted: int, failed: int) -> dict:
    walls = [r["wall_s"] for r in reps]
    # percentiles of each repetition's operations, then their median over
    # the repetitions, so that one unlucky repetition does not shift them
    pct = [statistics.quantiles(r["op_ms"], n=100, method="inclusive") for r in reps if len(r["op_ms"]) > 1]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in setups + reps), "s"),
        "wall_s": (statistics.mean(walls), "s"),
        "items_per_s": (sum(r["items"] for r in reps) / sum(walls) if sum(walls) else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(p[49] for p in pct) if pct else 0.0, "ms"),
        "op_p99_ms": (statistics.median(p[98] for p in pct) if pct else 0.0, "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB"),
        "pass_ratio": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
    }


def per_layer(reps: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    units = metric_units()
    out = {}
    for name, unit in units.items():
        values = [t["layers"][name] for t in traced if name in t["layers"]]
        if len(values) == len(traced):
            out[name] = (statistics.median(values), unit)
    untraced = statistics.mean(r["wall_s"] for r in reps)
    out[OVERHEAD_METRIC] = (statistics.mean(t["wall_s"] for t in traced) / untraced - 1.0, units[OVERHEAD_METRIC])
    missing = sorted(set(units) - set(out))
    return out, missing


def main() -> int:
    started = clock()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes are for the self-test only")
    parser.add_argument("--out", type=Path, help="also write the result and every repetition here")
    parser.add_argument("--spans-dir", type=Path, help="write the spans of each traced repetition here")
    args = parser.parse_args()

    if not (ROOT / "src" / "gencayley" / "__init__.py").is_file():
        print(f"no gencayley sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    runner = Runner(args, started)
    setups, reps, traced = [], [], []
    try:
        begin = clock()
        while True:
            # set-up starts are spread over the run like the repetitions
            for _ in range(0 if args.trace else SETUP_STARTS_PER_REPETITION):
                setups.append(runner.spawn("setup"))
            reps.append(runner.spawn("run"))
            if args.trace:
                spans = None
                if args.spans_dir is not None:
                    args.spans_dir.mkdir(parents=True, exist_ok=True)
                    spans = args.spans_dir / f"{args.workload}-{args.seed}-{len(traced)}.tsv"
                traced.append(runner.spawn("trace", spans))
            if clock() - begin >= args.seconds:
                break
        while not args.trace and len(setups) + len(reps) < MIN_SETUP_SAMPLES:
            setups.append(runner.spawn("setup"))
    except WorkerFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.cleanup()

    all_reps = reps + traced
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    for message in sorted({m for r in all_reps for m in r["failures"]}):
        print(f"FAILED: {message}", file=sys.stderr)
    if args.trace:
        metrics, missing = per_layer(reps, traced)
        for name in missing:
            print(f"missing per-layer metric: {name}", file=sys.stderr)
    else:
        metrics = end_to_end(setups, reps, attempted, failed)
    env = {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": reps[0]["backend"],
        "optimize": sys.flags.optimize,
        "commit": git_commit(ROOT),
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "op_samples": sum(len(r["op_ms"]) for r in reps),
        # what the metrics were corrected for (see speed.py)
        "raw_wall_s": statistics.mean(r["raw_wall_s"] for r in reps),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setups + reps),
        "speed": statistics.mean(r["speed"] for r in reps),
        "fail_ratio": failed / attempted if attempted else 1.0,
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out is not None:
        keys = ("setup_s", "raw_setup_s", "wall_s", "raw_wall_s", "speed", "items", "attempted", "failed", "rss_mb")
        per_rep = [{k: r[k] for k in keys} for r in all_reps]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"env": env, "result": result, "repetitions": per_rep}, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
