"""Record the reference digests that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each member of every workload class once, untraced, and writes
perfbench/reference.json: for each workload and n, the digest of each
operation's semantic output, in operation order. Run it only on a commit
whose outputs are known to be right; a later change that alters any
digest fails the benchmark's correctness gate until it is justified.
"""

from __future__ import annotations

import json
import os
import sys

from run import run_member
from workloads import BENCH_DIR, WORKLOADS, require_program


def main() -> int:
    require_program()
    ref = {}
    for name, spec in WORKLOADS.items():
        ref[name] = {}
        for n in spec["class"]:
            res = run_member(name, n, trace=False)
            if "error" in res or not all(op["ok"] for op in res["ops"]):
                print(f"{name} n={n} failed: {res}", file=sys.stderr)
                return 1
            ref[name][str(n)] = [op["digest"] for op in res["ops"]]
            print(f"{name} n={n}: {len(res['ops'])} digests, counters {res['counters']}")
    with open(os.path.join(BENCH_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
