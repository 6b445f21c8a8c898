"""Workload definitions shared by the runner, the worker and the recorders.

Each workload has a class of values of n. A run covers every member of
the class once per round, each member in a fresh interpreter; the seed
picks the order of the members within each round.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(REPO_ROOT, ".perfbench")  # work files and traces, git-ignored

WORKLOADS = {
    # a perfect-square n makes the pair graph dense: many candidates per
    # node and repeated residue walks, few reported tuples
    "dense_enum": {"kind": "search", "class": [9, 4], "limit": 50_000, "min_size": 4},
    # most seeds have no partner: per-seed root lookups and the sieve dominate
    "sparse_seeds": {"kind": "search", "class": [-2, -6], "limit": 300_000, "min_size": 4},
    # search, verify, audit, report and bounds through the CLI entry point
    "report_pipeline": {"kind": "pipeline", "class": [4, 9], "limit": 6_000, "min_size": 3},
}

# One-off reference scale, outside the gated set: the acceptance suite's
# limit-10^6 corpus split by n (perfbench/reference_scale.py).
REFERENCE_SCALE = {
    "corpus_1m": {"kind": "search", "class": [n for n in range(-10, 11) if abs(n) >= 2],
                  "limit": 1_000_000, "min_size": 4},
}

ORACLE_LIMIT = 500

# Verified quadruples for the seed-corpus audit. The n = 4 ones satisfy
# the gap lemmas' hypothesis (|n| >= 2, n^2 < a), so lemma5 and
# corollary4 are not vacuous; the n = 1 one exercises the precondition skip.
SEED_QUADS = [
    (4, (42, 110, 288, 1331440)),
    (4, (17, 21, 76, 27360)),
    (4, (20, 39, 115, 90048)),
    (4, (21, 32, 105, 70876)),
    (1, (1, 3, 8, 120)),
]

# 400 values of n, all with |n| >= 16 so --theorem1 applies to each, by 5 epsilons
BOUNDS_NS = [n for k in range(16, 216) for n in (-k, k)]
BOUNDS_EPS = ["1", "1/2", "1/4", "1/8", "1/10"]


def pipeline_steps(n: int, limit: int, min_size: int, d: str) -> list[tuple[str, list[str], str]]:
    """(step name, CLI argv, output path) for the report pipeline, in order."""
    p = lambda name: os.path.join(d, name)  # noqa: E731
    grid = ",".join(map(str, BOUNDS_NS))
    return [
        ("search", ["search", "--n", str(n), "--limit", str(limit),
                    "--min-size", str(min_size)], p("search.jsonl")),
        ("verify", ["verify", "--from-search", p("search.jsonl")], p("verify.jsonl")),
        ("audit", ["audit", "--from-search", p("search.jsonl")], p("audit.jsonl")),
        ("audit", ["audit", "--seed-corpus", p("seed.jsonl")], p("audit_seed.jsonl")),
        ("report", ["report", "--in", p("search.jsonl"), "--format", "csv"], p("search.csv")),
        ("report", ["report", "--in", p("audit.jsonl"), "--format", "csv"], p("audit.csv")),
        ("bounds", ["bounds", f"--n-grid={grid}", "--eps-grid", ",".join(BOUNDS_EPS)],
         p("bounds.jsonl")),
        ("bounds", ["bounds", f"--n-grid={grid}", "--theorem1"], p("bounds_t1.jsonl")),
    ]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def semantic_lines(path: str) -> list[str]:
    """The parts of an artifact the digest covers, one canonical line each.

    Manifest lines (and the CSV '#' manifest comment) are dropped, and a
    search summary keeps only tuples_found and empirical_max_size: work
    counters such as nodes_visited are expected to change with the engine.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if not path.endswith(".jsonl"):
                out.append(line)
                continue
            obj = json.loads(line)
            kind = obj.get("record")
            if kind == "manifest":
                continue
            if kind == "search_summary":
                obj = {"record": kind, "tuples_found": obj["tuples_found"],
                       "empirical_max_size": obj["empirical_max_size"]}
            out.append(canonical(obj))
    return out


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def search_lines(report) -> list[str]:
    """Semantic lines of an in-process search, in the CLI's record shape."""
    out = [canonical({"record": "dtuple", "n": t.n, "elements": list(t.elements),
                      "witnesses": [[w.a, w.b, w.r] for w in t.witnesses]})
           for t in report.maximal_tuples]
    out.append(canonical({"record": "search_summary",
                          "tuples_found": len(report.maximal_tuples),
                          "empirical_max_size": report.empirical_max_size}))
    return out


def require_program() -> None:
    """Exit with status 2 unless the dntuple sources sit next to the benchmark."""
    needed = [os.path.join(SRC_DIR, "dntuple", "__init__.py"),
              os.path.join(REPO_ROOT, "tests", "naive_oracle.py")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: program sources not found: {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
