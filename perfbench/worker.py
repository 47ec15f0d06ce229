"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays the cold costs a command-line user pays: interpreter start, import,
the ``build_group`` cache and the per-group automorphism caches. It prints
one JSON object on stdout.

Modes: ``setup`` stops right before the first timed call and reports only
the set-up time; ``run`` makes the timed calls; ``trace`` does the same
with every layer function wrapped by the tracer.

Every time it reports is CPU time scaled to the reference host speed of
``speed.py``: the timed calls by the reference loop sampled during them,
the set-up time by samples taken right after it. The wall times are
reported too, as ``raw_setup_s`` and ``raw_wall_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SETUP_SAMPLES = 10  # reference-loop samples that scale the set-up time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--tmp", type=Path, help="directory for pool workers' spans")
    parser.add_argument("--spans", type=Path, help="write every span to this file")
    args = parser.parse_args()

    import gencayley
    import workloads
    from speed import Calibrator
    from tracing import Tracer

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(gencayley.__file__).resolve().parents:
        print(f"gencayley was imported from {gencayley.__file__}, not from {src}", file=sys.stderr)
        return 2

    scale = workloads.SCALES[args.scale]
    prepare, run = workloads.WORKLOADS[args.workload]
    inputs = prepare(args.seed, scale)
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
        tracer.collect_forked_children(args.tmp)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    setup_cpu = time.process_time()
    settle = Calibrator()
    for _ in range(SETUP_SAMPLES):
        settle.sample()
    result = {
        "setup_s": min(setup_s, setup_cpu) * settle.factor(),
        "raw_setup_s": setup_s,
        "backend": gencayley.kernel_backend(),
        "optimize": sys.flags.optimize,
    }
    if args.mode != "setup":
        calibrator = Calibrator()
        workloads.sample_speed = calibrator.sample
        calibrator.start()
        try:
            outcome = run(inputs, scale)
        finally:
            calibrator.stop()
        seconds, speed = calibrator.scale(outcome.started, outcome.ended)
        result.update(vars(outcome))
        for key in ("started", "ended", "op_at"):
            del result[key]
        result["raw_wall_s"] = outcome.wall_s
        result["wall_s"] = seconds
        if outcome.op_at:  # operations with a start time are scaled by the speed around them
            result["op_ms"] = [ms * f for ms, f in zip(outcome.op_ms, calibrator.local_factors(outcome.op_at))]
        else:
            result["op_ms"] = [ms * speed for ms in outcome.op_ms]
        result["speed"] = speed
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.merge_children()
        layers, _ = tracer.metrics()  # run.py reports what is missing
        result["layers"] = {k: v * speed if k.endswith(".self_s") else v for k, v in layers.items()}
        if args.spans is not None:
            tracer.dump_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
