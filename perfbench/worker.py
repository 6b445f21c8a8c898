"""One repetition of one workload member, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --n N --spawned T [--trace]

--spawned is the time.monotonic() reading taken by the parent just before
it started this process (the clock is system-wide), so setup_s covers the
interpreter start, the imports and the input generation. Prints one JSON
object: setup and timed-section seconds, peak RSS, per-operation status
and digests, the deterministic counters and, with --trace, the layer
spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

from workloads import (OUT_DIR, REFERENCE_SCALE, SEED_QUADS, WORKLOADS, digest, pipeline_steps,
                       require_program, search_lines, semantic_lines)


def main() -> int:
    ap = argparse.ArgumentParser()
    specs = {**WORKLOADS, **REFERENCE_SCALE}
    ap.add_argument("--workload", required=True, choices=sorted(specs))
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    spec = specs[args.workload]

    require_program()
    import dntuple  # noqa: F401  (the imports are part of set-up)

    if spec["kind"] == "search":
        result = _run_search(args.n, spec, args.spawned, _tracer(args.trace))
    else:
        work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            result = _run_pipeline(args.n, spec, args.spawned, args.trace, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer = result.pop("tracer")
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, args.n, spec["limit"])
    print(json.dumps(result))
    return 0


def _tracer(enabled: bool):
    if not enabled:
        return None
    from tracer import Tracer, install
    tracer = Tracer()
    install(tracer)
    return tracer


def _run_search(n, spec, spawned, tracer) -> dict:
    from dntuple import search

    config = search.SearchConfig(n=n, limit=spec["limit"], min_report_size=spec["min_size"])
    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s, "items": spec["limit"], "counters": {}, "tracer": tracer}
    op = {"name": "search", "ok": True, "error": None}
    result["ops"] = [op]
    t0 = time.perf_counter()
    try:
        if tracer is None:
            report = search.search_maximal(config)
        else:
            with tracer.span("search"):
                report = search.search_maximal(config)
    except Exception as exc:  # a failed operation is reported, not fatal
        result["wall_s"] = time.perf_counter() - t0
        op.update(ok=False, error=repr(exc))
        return result
    result["wall_s"] = time.perf_counter() - t0
    op["digest"] = digest(search_lines(report))
    result["counters"] = _search_counters(getattr(report, "nodes_visited", 0),
                                          getattr(report, "candidates_tested", 0),
                                          len(report.maximal_tuples), report.empirical_max_size)
    return result


def _search_counters(nodes, cands, tuples, max_size) -> dict:
    # nodes and candidates read 0 if a later artifact schema drops those fields
    return {"search.nodes": nodes, "search.candidates": cands,
            "search.tuples": tuples, "search.max_size": max_size}


def _run_pipeline(n, spec, spawned, trace, work) -> dict:
    from dntuple import cli
    from dntuple.serialize import tuple_to_obj
    from dntuple.tuples import verify

    with open(os.path.join(work, "seed.jsonl"), "w", encoding="utf-8") as fh:
        for qn, elems in SEED_QUADS:
            fh.write(json.dumps(tuple_to_obj(verify(elems, qn))) + "\n")
    steps = pipeline_steps(n, spec["limit"], spec["min_size"], work)
    tracer = _tracer(trace)
    setup_s = time.monotonic() - spawned

    codes = []
    t0 = time.perf_counter()
    for name, argv, out in steps:
        try:
            if tracer is None:
                codes.append(cli.main([*argv, "--out", out]))
            else:
                with tracer.span("cli." + name):
                    codes.append(cli.main([*argv, "--out", out]))
        except SystemExit as exc:  # argparse rejected the arguments
            codes.append(exc.code)
        except Exception as exc:  # a failed step is reported, the chain goes on
            codes.append(repr(exc))
    wall = time.perf_counter() - t0

    ops, counters, items, bytes_out = [], {}, 0, 0
    for (name, argv, out), code in zip(steps, codes):
        op = {"name": name, "ok": code == 0, "error": None if code == 0 else f"exit {code}"}
        if os.path.isfile(out):
            lines = semantic_lines(out)
            op["digest"] = digest(lines)
            bytes_out += os.path.getsize(out)
            if name == "search":
                items = sum('"record":"dtuple"' in line for line in lines)
                counters.update(_summary_counters(out))
            if name == "bounds":
                counters["bounds.rows"] = counters.get("bounds.rows", 0) + len(lines)
        else:
            op.update(ok=False, error=op["error"] or "no output")
        ops.append(op)
    counters["serialize.bytes_out"] = bytes_out
    return {"setup_s": setup_s, "wall_s": wall, "items": items, "ops": ops,
            "counters": counters, "tracer": tracer}


def _summary_counters(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if obj.get("record") == "search_summary":
                return _search_counters(obj.get("nodes_visited", 0),
                                        obj.get("candidates_tested", 0),
                                        obj["tuples_found"], obj["empirical_max_size"])
    return {}


def _trace_summary(tracer, n: int, limit: int) -> dict:
    """Per-layer times and counts, plus the isolated residue-kernel replay."""
    from dntuple.residues import RootTable, smallest_factor_sieve

    table = RootTable(n, smallest_factor_sieve(limit))
    roots = table.roots
    t0 = time.perf_counter()
    for a in range(1, limit + 1):
        roots(a)
    replay = time.perf_counter() - t0

    t = tracer
    counts = t.counts
    layers = {
        "search.time_s": t.total("search"),
        "search.self_s": t.self_time("search"),
        "residues.roots_calls": t.calls("residues.roots"),
        "residues.roots_distinct": counts.get("residues.roots_distinct", 0),
        "residues.roots_s": t.total("residues.roots"),
        "residues.sieve_s": t.total("residues.sieve"),
        "residues.replay_s": replay,
        "tuples.verify_calls": t.calls("tuples.verify"),
        "tuples.verify_s": t.total("tuples.verify"),
        "exact.sqrt_calls": counts.get("exact.sqrt_calls", 0),
        "audits.witness_calls": t.calls("audits.witness"),
        "audits.witness_s": t.total("audits.witness"),
        "audits.closed_form": counts.get("audits.closed_form", 0),
        "audits.scan_steps": counts.get("audits.scan_steps", 0),
        "audits.gap_calls": t.calls("audits.gap"),
        "audits.gap_s": t.total("audits.gap"),
        "serialize.write_s": t.self_time("serialize.write"),
        "serialize.read_s": t.self_time("serialize.read"),
        "serialize.records": counts.get("serialize.records", 0),
        "bounds.time_s": t.total("bounds"),
    }
    for step in ("search", "verify", "audit", "report", "bounds"):
        layers[f"cli.{step}_s"] = t.total(f"cli.{step}")
    return {"layers": layers, "spans": t.spans}


if __name__ == "__main__":
    sys.exit(main())
