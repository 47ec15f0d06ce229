#!/usr/bin/env python3
"""Compare two benchmark results written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of the two runs and the change relative to BASE. Refuses
(exit 2) when the two runs differ in workload, scale, kernel backend,
interpreter flags, Python version or processor count, since a delta across
those would measure the environment rather than the code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MUST_MATCH = ("workload", "scale", "backend", "optimize", "python", "nproc")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    differ = [k for k in MUST_MATCH if base["env"].get(k) != new["env"].get(k)]
    if differ:
        for k in differ:
            print(f"refusing to compare: {k} is {base['env'].get(k)!r} vs {new['env'].get(k)!r}", file=sys.stderr)
        return 2
    print(f"{'metric':48} {'base':>14} {'new':>14} {'change':>8}")
    for name, b in base["result"]["metrics"].items():
        n = new["result"]["metrics"].get(name)
        if n is None:
            print(f"{name:48} {b['value']:14.6g} {'missing':>14}")
            continue
        change = f"{(n['value'] - b['value']) / b['value']:+8.1%}" if b["value"] else "-"
        print(f"{name:48} {b['value']:14.6g} {n['value']:14.6g} {change:>8} {b['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
