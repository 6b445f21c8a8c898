"""dntuple benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload dense_enum --seed 1 --seconds 30 --trace 0

Closed loop, one client: one operation at a time in one process with no
threads. A run repeats rounds until --seconds have passed (at least
MIN_ROUNDS); a round runs every member n of the workload's class once,
each in a fresh interpreter (perfbench/worker.py), in an order drawn from
--seed. Fresh interpreters keep the module-level caches (the sieve cache,
the per-table prime-power cache, the beta sequence) from carrying work
over between repetitions, as they never do between CLI invocations.

Every operation is checked: it must return normally, exit 0, and produce
output whose digest matches perfbench/reference.json. The deterministic
counters of each member must repeat exactly across repetitions, traced or
not, and the engine must agree with tests/naive_oracle.py at limit 500
for every member. Each miss is a failed operation.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 rounds alternate untraced and traced, and it reports the
per-layer metrics measured by perfbench/tracer.py, plus the tracing
overhead. The lines before it give every metric with its quartiles and
sample count, the failed ratio, and the environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, ORACLE_LIMIT, OUT_DIR, REPO_ROOT, WORKLOADS, require_program

MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 150  # a gated run must end within 180 s

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MB")]

# counters that must repeat exactly for a member, in every repetition
# (the search counters are in every repetition; these only in traced ones)
TRACE_COUNTERS = ("residues.roots_calls", "residues.roots_distinct", "tuples.verify_calls",
                  "exact.sqrt_calls", "audits.witness_calls", "audits.closed_form",
                  "audits.scan_steps", "audits.gap_calls", "serialize.records")

PER_LAYER = [
    ("search.time_s", "s"), ("search.self_s", "s"), ("search.nodes", "count"),
    ("search.candidates", "count"), ("search.tuples", "count"), ("search.max_size", "count"),
    ("search.node_yield", "ratio"),
    ("residues.roots_calls", "count"), ("residues.roots_distinct", "count"),
    ("residues.rewalk_ratio", "ratio"), ("residues.roots_s", "s"), ("residues.sieve_s", "s"),
    ("residues.replay_s", "s"),
    ("tuples.verify_calls", "count"), ("tuples.verify_s", "s"), ("exact.sqrt_calls", "count"),
    ("audits.witness_calls", "count"), ("audits.witness_s", "s"),
    ("audits.closed_form_ratio", "ratio"), ("audits.scan_steps", "count"),
    ("audits.gap_calls", "count"), ("audits.gap_s", "s"),
    ("serialize.write_s", "s"), ("serialize.read_s", "s"), ("serialize.bytes_out", "bytes"),
    ("serialize.records", "count"), ("bounds.rows", "count"), ("bounds.time_s", "s"),
    ("cli.search_s", "s"), ("cli.verify_s", "s"), ("cli.audit_s", "s"), ("cli.report_s", "s"),
    ("cli.bounds_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def run_member(workload: str, n: int, trace: bool, timeout: float = WORKER_TIMEOUT_S) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
           "--n", str(n)]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([*cmd, "--spawned", repr(spawned)], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"error": f"worker timed out after {timeout} s"}
    if proc.returncode != 0:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    sys.stderr.write(proc.stderr)  # warnings, such as a boundary left untraced
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"worker printed no result: {proc.stdout[-200:]!r}"}


def oracle_check(spec: dict, tally: Tally) -> None:
    sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))
    from naive_oracle import naive_maximal

    from dntuple.search import SearchConfig, search_maximal

    for n in spec["class"]:
        try:
            # maximal tuples from pairs up, so sparse n are not checked vacuously
            got = search_maximal(SearchConfig(n=n, limit=ORACLE_LIMIT, min_report_size=2))
            ok = [t.elements for t in got.maximal_tuples] == naive_maximal(n, ORACLE_LIMIT, 2)
        except Exception as exc:  # reported as a failed check
            ok = False
            print(f"oracle n={n}: {exc!r}", file=sys.stderr)
        tally.check(ok, f"oracle n={n} limit={ORACLE_LIMIT}")


def check_member(res: dict, n: int, ref: dict, first: dict, tally: Tally) -> bool:
    """Check one repetition's operations, digests and counters."""
    if "error" in res:
        tally.check(False, f"n={n}: {res['error']}")
        return False
    expected = ref.get(str(n), [])
    for i, op in enumerate(res["ops"]):
        want = expected[i] if i < len(expected) else None
        tally.check(op["ok"] and op.get("digest") == want,
                    f"n={n} {op['name']}: {op['error'] or 'digest mismatch'}")
    counters = dict(res["counters"])
    if "trace" in res:
        counters.update({k: res["trace"]["layers"][k] for k in TRACE_COUNTERS})
    seen = first.setdefault(n, {})
    drift = {k: (seen[k], v) for k, v in counters.items() if k in seen and seen[k] != v}
    tally.check(not drift, f"n={n} counters drifted: {drift}")
    for k, v in counters.items():
        seen.setdefault(k, v)
    return True


def layer_metrics(members: list[dict]) -> dict:
    """Per-layer values of one traced round, summed over its members."""
    out: dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    for res in members:
        for k, v in {**res["counters"], **res["trace"]["layers"]}.items():
            out[k] = max(out[k], v) if k == "search.max_size" else out.get(k, 0) + v
    out["search.node_yield"] = out["search.nodes"] / out["search.candidates"]
    out["residues.rewalk_ratio"] = out["residues.roots_calls"] / max(1, out["residues.roots_distinct"])
    out["audits.closed_form_ratio"] = (out["audits.closed_form"] / out["audits.witness_calls"]
                                       if out["audits.witness_calls"] else 0.0)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"  # a checkout without .git has no commit to report
    if os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = head.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "commit": commit}


def run_rounds(args, spec: dict, ref: dict, tally: Tally) -> list[tuple[bool, list[dict]]]:
    """Rounds of (traced, member results) until --seconds have passed.

    With --trace 1 the rounds alternate untraced and traced, and the run
    ends after a traced one. A round with a failed member is dropped from
    the samples; its failures stay in the tally.
    """
    start = time.monotonic()
    rng = random.Random(args.seed)
    rounds = []
    first_counters: dict = {}
    for i in itertools.count():
        traced = bool(args.trace) and i % 2 == 1
        members = []
        for n in rng.sample(spec["class"], len(spec["class"])):
            res = run_member(args.workload, n, traced)
            if check_member(res, n, ref, first_counters, tally):
                members.append(res)
        if len(members) == len(spec["class"]):
            rounds.append((traced, members))
        if time.monotonic() - start >= args.seconds and traced == bool(args.trace):
            if len(rounds) >= MIN_ROUNDS or i >= 4 * MIN_ROUNDS:
                break
    return rounds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    require_program()
    spec = WORKLOADS[args.workload]
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)[args.workload]

    tally = Tally()
    oracle_check(spec, tally)
    rounds = run_rounds(args, spec, ref, tally)

    plain = [m for traced, m in rounds if not traced]
    traced_rounds = [m for traced, m in rounds if traced]
    samples = {
        "setup_s": [r["setup_s"] for m in plain for r in m],
        "wall_s": [sum(r["wall_s"] for r in m) for m in plain],
        "items_per_s": [sum(r["items"] for r in m) / sum(r["wall_s"] for r in m) for m in plain],
        "peak_rss_mb": [max(r["peak_rss_mb"] for r in m) for m in plain],
    }
    units = dict(END_TO_END)
    report = samples
    if args.trace:
        per_round = [layer_metrics(m) for m in traced_rounds]
        report = {k: [r[k] for r in per_round] for k, _ in PER_LAYER[:-1]}
        traced_wall = [sum(r["wall_s"] for r in m) for m in traced_rounds]
        if traced_wall and samples["wall_s"]:
            report["trace.overhead_ratio"] = [
                statistics.median(traced_wall) / statistics.median(samples["wall_s"])]
        units = dict(PER_LAYER)
        _write_spans(args, traced_rounds)

    failed = len(tally.failures)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced_rounds)} traced rounds of n in {spec['class']}")
    all_units = {**dict(END_TO_END), **units}
    for name, values in {**samples, **report}.items():
        if values:
            q1, med, q3 = quartiles(values)
            print(f"  {name:28s} median {med:.6g} {all_units[name]}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"samples {len(values)}")
    print("  round wall_s: " + " ".join(
        f"{sum(r['wall_s'] for r in m):.3f}{' traced' if t else ''}" for t, m in rounds))
    print(f"  failed_ratio {failed}/{tally.attempted} = {failed / max(1, tally.attempted):.6g}")
    for what in tally.failures:
        print(f"  FAILED: {what}")
    print("env " + json.dumps(environment(), sort_keys=True))

    missing = [name for name in units if not report.get(name)]
    if missing:
        print(f"perfbench: no samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": _median(report[name], units[name]), "unit": units[name]}
               for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _median(values: list[float], unit: str) -> float:
    med = statistics.median(values)
    return int(med) if unit in ("count", "bytes") and med == int(med) else med


def _write_spans(args, traced_rounds: list[list[dict]]) -> None:
    """Write the coarse spans of every traced repetition, kept in memory until now."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    spans = [{"round": i, "rep": j, "spans": r["trace"]["spans"]}
             for i, m in enumerate(traced_rounds) for j, r in enumerate(m)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main())
