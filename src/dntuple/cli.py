"""Command-line driver: verify, extend, search, audit, witness, bounds, report.

Exit codes: 0 success, 1 verification or audit failure findings, 2 usage
error or malformed input, 3 an unexpected internal error. All output
goes through the canonical emitters, manifest first, so identical
invocations produce identical bytes; timestamps are opt-in
(--timestamps) precisely because they break that. verify --from-search
and audit fork their per-record work, over blocks of whole lines, by
workers.fork_map from FORK_MIN_BYTES of input, and write the blocks'
texts in file order, so their bytes do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys
import traceback
from collections import Counter
from datetime import datetime, timezone
from typing import Any, Callable, Iterable, Iterator, TextIO

from .audits import (
    Lemma2Verdict,
    PreconditionNotMetError,
    WitnessNotFoundError,
    audit_gap_corollary,
    audit_gap_lemma5,
    audit_lemma2,
    find_witness_e,
)
from .bounds import NotApplicableError, bound_grid, m_bound_report, thresholds
from .search import SearchConfig, SearchReport, stream_maximal
from .serialize import (
    SEARCH_KINDS,
    audit_summary_to_obj,
    bound_report_to_obj,
    canonical_json,
    extension_to_obj,
    failure_to_obj,
    fraction_str,
    gap_record_to_obj,
    lemma2_to_obj,
    line_blocks,
    manifest_to_obj,
    parse_epsilon,
    read_jsonl,
    render_csv,
    search_report_objs,
    tuple_fields,
    tuple_from_obj,
    tuple_to_obj,
    utf8_lines,
    witness_missing_to_obj,
    witness_to_obj,
    write_csv,
    write_jsonl,
)
from .tuples import InputError, VerificationFailure, extend, verify
from .workers import fork_map, jobs_for

_CHECKS = ("lemma5", "corollary4", "lemma2", "lemma3")

# the faults in the input or the arguments: exit 2
_FAULTS = (InputError, NotApplicableError, PreconditionNotMetError)

# verify --from-search and audit fork their per-record work from
# FORK_MIN_BYTES of input. Forking costs about 8 ms (the workers, and the
# pickle and signal imports), and the second CPU pays only when the host
# has it free: a fresh interpreter that forks at once often finds it idle
# and slow to start, while a chain of commands after a forked search
# finds it running. CLI --out on 2 vCPUs, line-aligned prefixes of the
# n = 4 search outputs at limits 6 000 (set a) and 2*10^4: one process /
# forked ms, medians of 11 alternated fresh interpreters (7 where marked
# *), and the runs the fork won.
#   the command alone, four sets:      verify                audit
#     a  100 KB                   18.4 /  29.8   0      27.8 /  40.5   0
#     a  400 KB                   60.9 /  82.2   0      86.0 / 105.3   0
#     a  1.27 MB                 166.7 / 193.6   2     256.7 / 273.7   1
#     b  2.6 MB*                 521.5 / 309.1   7     658.0 / 437.6   7
#     b  5.3 MB*                 962.1 / 604.9   7    1473.1 / 855.2   7
#     c  400 KB                   60.8 /  75.4   1      92.9 / 104.4   0
#     c  1.3 MB                  229.5 / 215.7   6     321.2 / 241.1  10
#     d  700 KB                  185.5 / 204.9   1     215.2 / 236.6   3
#     d  1.0 MB                  226.0 / 249.8   2     306.7 / 279.0   5
#     d  1.3 MB                  287.2 / 168.5  11     372.8 / 245.9  11
#   after a forked search (n = 4 at 6 000) in the same interpreter:
#        50 KB                    12.1 /  16.3   1      22.3 /  21.5   6
#        100 KB                   26.5 /  24.3   6      41.8 /  32.0  10
#        200 KB                   46.7 /  36.8   8      70.6 /  53.0  10
#        400 KB                   90.1 /  60.2  11      95.2 /  75.1  10
#        1.3 MB                  260.0 / 162.5  11     390.4 / 226.7  11
# Alone, a command lost to the fork up to 1.0 MB in every set, by up to
# 25 ms, and won most runs from 1.3 MB in every set but a; after a search
# the fork wins from about 200 KB. The floor sits between.
FORK_MIN_BYTES = 1_000_000

# line blocks per worker: fork_map's fixed stripes give worker w every
# jobs-th block from w on, so each worker's blocks sample the whole file
LINE_BLOCKS_PER_WORKER = 16


def _elements_arg(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {s!r}")


def _checks_arg(s: str) -> tuple[str, ...]:
    requested = [part.strip() for part in s.split(",") if part.strip()]
    if not requested:
        raise argparse.ArgumentTypeError("expected at least one check")
    bad = [c for c in requested if c not in _CHECKS]
    if bad:
        raise argparse.ArgumentTypeError(
            f"unknown checks {bad}; valid: {', '.join(_CHECKS)}")
    # canonical order regardless of how the flag listed them
    return tuple(c for c in _CHECKS if c in requested)


def _manifest(command: str, parameters: dict[str, Any], timestamps: bool,
              *input_blobs: bytes) -> dict:
    digest = hashlib.sha256()
    digest.update(canonical_json({"command": command, "parameters": parameters}).encode())
    for blob in input_blobs:
        digest.update(blob)
    now = datetime.now(timezone.utc).isoformat() if timestamps else None
    return manifest_to_obj(command, parameters, digest.hexdigest(), now)


def _output(args, write) -> None:
    """Run write(stream) on stdout, or on --out, as a whole output or none.

    Stdout gets the text only once write() has returned. The file is
    written beside its target under a temporary name, with the mode a
    plain open() gives, and renamed over the target only once write()
    has returned.
    """
    if not args.out:
        buf = io.StringIO()
        write(buf)
        sys.stdout.write(buf.getvalue())
        return
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        os.replace(tmp, args.out)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _emit(args, objs: Iterable[dict], manifest: dict) -> None:
    """Write the manifest, then each record as it is made."""
    def write(fh):
        # one call per record keeps each call's records a sized batch, which
        # perfbench's tracer counts, and its time the writing alone; the
        # block workers of _emit_by_block write the same way, and a forked
        # worker's calls are counted in that worker, not here
        write_jsonl(fh, (), manifest)
        for obj in objs:
            write_jsonl(fh, (obj,))

    _output(args, write)


def _emit_by_block(args, manifest: dict, blob: bytes, path: str, kinds: tuple[str, ...],
                   run: Callable[[Iterator[dict], TextIO], Counter],
                   summary: Callable[[Counter], dict] | None = None) -> Counter:
    """Write the manifest, what run makes of each block of blob's lines, then the summary.

    run(records, fh) reads the records of one block of whole lines, writes
    the records it makes of them to fh, one write_jsonl call each as _emit
    does, and returns the block's tally. The blocks run in workers forked
    by workers.fork_map once blob holds FORK_MIN_BYTES, each writing into
    its own text buffer, and their texts are written in file order, so the
    output is the same at any worker count. A fault in a block (an exit-2
    error) comes back as its value and is raised when its block is
    reached, so the first fault in file order is the one reported; so is,
    after the last block, InputError if no record was of kinds. The tally
    returned, and passed to summary(tally) for the record written last,
    is the sum of the blocks' tallies.
    """
    jobs = jobs_for(len(blob), FORK_MIN_BYTES)
    blocks = line_blocks(blob, jobs * LINE_BLOCKS_PER_WORKER)
    # the whole-file number of each block's first line
    newlines = (blob.count(b"\n", lo, hi) for lo, hi in blocks)
    first_line = dict(zip((lo for lo, _hi in blocks), itertools.accumulate(newlines, initial=1)))

    def block(lo: int, hi: int) -> tuple[Exception | None, str, Counter, bool]:
        # the block's fault or None, its text, its tally and whether it held
        # a record of kinds
        held = False

        def records() -> Iterator[dict]:
            nonlocal held
            line = first_line[lo]
            for rec in read_jsonl(utf8_lines(blob[lo:hi], line), line):
                held = held or rec.get("record") in kinds
                yield rec

        out = io.StringIO()
        try:
            tally = run(records(), out)
        except _FAULTS as exc:
            return exc, "", Counter(), held
        return None, out.getvalue(), tally, held

    total = Counter()

    def write(fh):
        write_jsonl(fh, (), manifest)
        found = False
        with contextlib.closing(fork_map(block, blocks, jobs)) as parts:
            for fault, text, tally, held in parts:
                if fault is not None:
                    raise fault
                fh.write(text)
                total.update(tally)
                found = found or held
        # a file with none of these records is the wrong file, not an empty one
        if not found:
            raise InputError(f"{path} holds no {' or '.join(kinds)} record")
        if summary is not None:
            write_jsonl(fh, (summary(total),))

    _output(args, write)
    return total


def _emit_for_tuple(args, manifest: dict, records) -> int:
    """Verify --elements under --n and emit records(tuple), or the failure and return 1."""
    result = verify(args.elements, args.n)
    if isinstance(result, VerificationFailure):
        _emit(args, [failure_to_obj(result)], manifest)
        return 1
    _emit(args, records(result), manifest)
    return 0


def cmd_verify(args) -> int:
    if args.from_search:
        if args.n is not None or args.elements is not None:
            raise InputError("verify takes --n and --elements or --from-search, not both")
        with open(args.from_search, "rb") as fh:
            blob = fh.read()
        params = {"from_search": args.from_search}
        manifest = _manifest("verify", params, args.timestamps, blob)

        def verified(records, fh) -> Counter:
            bad = 0
            for rec in records:
                if rec.get("record") != "dtuple":
                    continue
                n, elements = tuple_fields(rec)
                result = verify(elements, n)
                if isinstance(result, VerificationFailure):
                    bad += 1
                    write_jsonl(fh, (failure_to_obj(result),))
                else:
                    write_jsonl(fh, (tuple_to_obj(result),))
            return Counter(bad=bad)

        tally = _emit_by_block(args, manifest, blob, args.from_search, SEARCH_KINDS, verified)
        return 1 if tally["bad"] else 0

    if args.n is None or args.elements is None:
        raise InputError("verify needs --n and --elements (or --from-search)")
    params = {"n": args.n, "elements": list(args.elements)}
    manifest = _manifest("verify", params, args.timestamps)
    return _emit_for_tuple(args, manifest, lambda t: [tuple_to_obj(t)])


def cmd_extend(args) -> int:
    params = {"n": args.n, "elements": list(args.elements), "lo": args.lo, "hi": args.hi}
    manifest = _manifest("extend", params, args.timestamps)
    return _emit_for_tuple(args, manifest, lambda t: [
        extension_to_obj(t, args.lo, args.hi, extend(t, args.lo, args.hi))])


def cmd_search(args) -> int:
    config = SearchConfig(n=args.n, limit=args.limit, min_report_size=args.min_size,
                          max_results=args.max_results)
    params = {"n": config.n, "limit": config.limit, "min_size": config.min_report_size,
              "max_results": config.max_results}
    manifest = _manifest("search", params, args.timestamps)
    report = SearchReport(config)
    # closed on any way out, so that no worker outlives a failed write
    with contextlib.closing(stream_maximal(report)) as tuples:
        _emit(args, search_report_objs(report, tuples), manifest)
    if report.result_cap_exceeded:
        print(f"result cap {config.max_results} reached; output is a deterministic "
              "prefix, not the full set", file=sys.stderr)
    return 0


def cmd_witness(args) -> int:
    params = {"n": args.n, "elements": list(args.elements)}
    manifest = _manifest("witness", params, args.timestamps)
    try:
        return _emit_for_tuple(args, manifest, lambda t: [
            witness_to_obj(t, find_witness_e(t))])
    except WitnessNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def cmd_audit(args) -> int:
    path = args.seed_corpus or args.from_search
    with open(path, "rb") as fh:
        blob = fh.read()
    params = {"checks": list(args.checks), "corpus": path}
    manifest = _manifest("audit", params, args.timestamps, blob)
    gap_checks = [c for c in args.checks if c in ("lemma5", "corollary4")]

    def audited(records, fh) -> Counter:
        # tuples, failures, skipped, gap_applicable and one count per check
        tally = Counter()
        for rec in records:
            if rec.get("record") != "dtuple":
                continue
            t = tuple_from_obj(rec)
            tally["tuples"] += 1
            if gap_checks or "lemma2" in args.checks:
                for quad_elems in itertools.combinations(t.elements, 4):
                    quad = t.subtuple(quad_elems)
                    for check in gap_checks:
                        op = audit_gap_lemma5 if check == "lemma5" else audit_gap_corollary
                        try:
                            gap = op(quad)
                        except PreconditionNotMetError:
                            tally["skipped"] += 1
                            continue
                        tally["gap_applicable"] += 1
                        tally[check] += 1
                        if not gap.passed:
                            tally["failures"] += 1
                        write_jsonl(fh, (gap_record_to_obj(gap),))
                    if "lemma2" in args.checks:
                        verdict = audit_lemma2(quad)
                        tally["lemma2"] += 1
                        if verdict is Lemma2Verdict.FAIL:
                            tally["failures"] += 1
                        write_jsonl(fh, (lemma2_to_obj(quad, verdict),))
            if "lemma3" in args.checks:
                for tri_elems in itertools.combinations(t.elements, 3):
                    tri = t.subtuple(tri_elems)
                    try:
                        w = find_witness_e(tri)
                    except WitnessNotFoundError:
                        tally["failures"] += 1
                        write_jsonl(fh, (witness_missing_to_obj(tri),))
                    else:
                        tally["lemma3"] += 1
                        write_jsonl(fh, (witness_to_obj(tri, w),))
        return tally

    def summary(tally: Counter) -> dict:
        return audit_summary_to_obj(tally["tuples"], {c: tally[c] for c in args.checks},
                                    tally["skipped"], tally["failures"],
                                    bool(gap_checks) and tally["gap_applicable"] == 0)

    # a seed corpus must hold a tuple; a search may have found none
    kinds = SEARCH_KINDS if args.from_search else ("dtuple",)
    tally = _emit_by_block(args, manifest, blob, path, kinds, audited, summary)
    return 1 if tally["failures"] else 0


def cmd_bounds(args) -> int:
    ns = sorted(set(args.n_grid if args.n_grid else (args.n,)))
    if args.theorem1:
        params = {"n": list(ns), "theorem1": True}
        manifest = _manifest("bounds", params, args.timestamps)
        objs = [bound_report_to_obj(m_bound_report(n)) for n in ns]
    else:
        if args.eps is None and args.eps_grid is None:
            raise InputError("bounds needs --eps or --eps-grid (or --theorem1)")
        # thresholds() refuses an epsilon outside [2^-1024, 1] before the
        # parameters are serialized; str() of a huge fraction would raise
        raw = args.eps_grid.split(",") if args.eps_grid is not None else (args.eps,)
        eps_list = sorted({thresholds(parse_epsilon(e)).epsilon for e in raw})
        params = {"n": list(ns), "eps": [fraction_str(e) for e in eps_list],
                  "theorem1": False}
        manifest = _manifest("bounds", params, args.timestamps)
        objs = [bound_report_to_obj(rep) for rep in bound_grid(ns, eps_list)]
    _emit(args, objs, manifest)
    return 0


def cmd_report(args) -> int:
    with open(args.infile, "rb") as fh:
        blob = fh.read()
    params = {"in": args.infile, "format": args.format}
    manifest = _manifest("report", params, args.timestamps, blob)
    records = read_jsonl(utf8_lines(blob))
    if args.format == "json-lines":
        _emit(args, records, manifest)
        return 0
    header, rows = render_csv(records)
    _output(args, lambda fh: write_csv(fh, header, rows, manifest))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dntuple",
        description="Search, verify and audit integer tuples whose pairwise "
                    "products shifted by n are perfect squares.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--timestamps", action="store_true",
                       help="stamp the manifest with wall-clock times "
                            "(breaks byte-for-byte rerun identity)")

    p = sub.add_parser("verify", help="check one tuple, or every tuple in a result file")
    p.add_argument("--n", type=int)
    p.add_argument("--elements", type=_elements_arg)
    p.add_argument("--from-search", metavar="PATH")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extend", help="list every element of [lo, hi] extending a tuple")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--elements", type=_elements_arg, required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("search", help="enumerate maximal tuples within [1, limit]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--min-size", type=int, default=3)
    p.add_argument("--max-results", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("audit", help="run exact lemma checks over a tuple corpus")
    p.add_argument("--checks", type=_checks_arg, default=_CHECKS,
                   help=f"comma list from: {', '.join(_CHECKS)}")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--seed-corpus", metavar="PATH")
    src.add_argument("--from-search", metavar="PATH")
    common(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("witness", help="find the triple witness (e, x, y, z)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--elements", type=_elements_arg, required=True)
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("bounds", help="tabulate certified counting bounds")
    ng = p.add_mutually_exclusive_group(required=True)
    ng.add_argument("--n", type=int)
    ng.add_argument("--n-grid", type=_elements_arg, metavar="INTS")
    eg = p.add_mutually_exclusive_group()
    eg.add_argument("--eps", metavar="RATIONAL")
    eg.add_argument("--eps-grid", metavar="RATIONALS")
    eg.add_argument("--theorem1", action="store_true",
                    help="use the prescribed epsilon loglog|n|/log|n| per n")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("report", help="re-emit a result file as CSV or JSON lines")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--format", choices=["csv", "json-lines"], required=True)
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _FAULTS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed stdout; die quietly the
        # way line tools conventionally do
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash must not read as exit 1, "a checked object failed"; the
        # raising line is kept so the one-line report can still be traced
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {exc!r} at {os.path.basename(where.filename)}:{where.lineno}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
