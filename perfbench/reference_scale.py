"""One-off reference-scale run, kept out of the gated workloads.

    python3 perfbench/reference_scale.py

Runs the acceptance suite's corpus_1m (limit 10^6, min size 4, every
2 <= |n| <= 10) one n at a time, each in a fresh interpreter, and writes
each n's wall time, peak RSS, work counters and output digest to
perfbench/reference_scale.json. It takes several minutes; the gated
workloads are scaled stand-ins for its two regimes.
"""

from __future__ import annotations

import json
import os
import sys

from run import environment, run_member
from workloads import BENCH_DIR, REFERENCE_SCALE, require_program


def main() -> int:
    require_program()
    spec = REFERENCE_SCALE["corpus_1m"]
    per_n = {}
    for n in spec["class"]:
        res = run_member("corpus_1m", n, trace=False, timeout=1200)
        if "error" in res or not res["ops"][0]["ok"]:
            print(f"n={n} failed: {res}", file=sys.stderr)
            return 1
        per_n[str(n)] = {"wall_s": round(res["wall_s"], 3), "setup_s": round(res["setup_s"], 3),
                         "peak_rss_mb": round(res["peak_rss_mb"], 1),
                         "digest": res["ops"][0]["digest"], **res["counters"]}
        print(f"n={n:3d} {json.dumps(per_n[str(n)])}", flush=True)
    out = {"workload": "corpus_1m", "limit": spec["limit"], "min_size": spec["min_size"],
           "env": environment(), "total_wall_s": round(sum(v["wall_s"] for v in per_n.values()), 3),
           "per_n": per_n}
    with open(os.path.join(BENCH_DIR, "reference_scale.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
