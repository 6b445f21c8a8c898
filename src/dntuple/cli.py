"""Command-line driver: verify, extend, search, audit, witness, bounds, report.

Exit codes: 0 success, 1 verification or audit failure findings, 2 usage
error or malformed input, 3 an unexpected internal error. All output
goes through the canonical emitters, manifest first, so identical
invocations produce identical bytes; timestamps are opt-in
(--timestamps) precisely because they break that.
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
from datetime import datetime, timezone
from typing import Any, Iterable, Iterator

from .audits import (
    Lemma2Verdict,
    PreconditionNotMetError,
    WitnessNotFoundError,
    audit_gap_corollary,
    audit_gap_lemma5,
    audit_lemma2,
    find_witness_e,
)
from .bounds import NotApplicableError, bound_report, m_bound_report, thresholds
from .search import SearchConfig, search_maximal
from .serialize import (
    ARTIFACT_VERSION,
    RunManifest,
    bound_report_to_obj,
    canonical_json,
    fraction_str,
    gap_record_to_obj,
    lemma2_to_obj,
    parse_epsilon,
    read_jsonl,
    render_csv,
    search_report_objs,
    tuple_fields,
    tuple_from_obj,
    tuple_to_obj,
    witness_to_obj,
    write_csv,
    write_jsonl,
)
from .tuples import InputError, VerificationFailure, extend, verify

_CHECKS = ("lemma5", "corollary4", "lemma2", "lemma3")


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


def _lines(blob: bytes) -> Iterator[str]:
    """The lines of a UTF-8 file, each with its "\n".

    Only "\n" ends a line, as in io.StringIO; str.splitlines() would also
    split on "\r", "\x0b", "\u2028" and others, which canonical JSON
    writes only escaped but a hand-edited file may hold raw in a string.
    """
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8: {exc}") from exc
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


_SEARCH_KINDS = ("dtuple", "search_summary")


def _records(blob: bytes, path: str, kinds: tuple[str, ...]) -> Iterator[dict]:
    """The records of blob, one at a time; at the end, InputError if none was of kinds."""
    # a file with none of these records is the wrong file, not an empty one
    found = False
    for rec in read_jsonl(_lines(blob)):
        found = found or rec.get("record") in kinds
        yield rec
    if not found:
        raise InputError(f"{path} holds no {' or '.join(kinds)} record")


def _manifest(command: str, parameters: dict[str, Any], timestamps: bool,
              *input_blobs: bytes) -> RunManifest:
    digest = hashlib.sha256()
    digest.update(canonical_json({"command": command, "parameters": parameters}).encode())
    for blob in input_blobs:
        digest.update(blob)
    now = datetime.now(timezone.utc).isoformat() if timestamps else None
    return RunManifest(
        command=command,
        parameters=parameters,
        artifact_version=ARTIFACT_VERSION,
        input_digest=digest.hexdigest(),
        started=now,
        finished=now,
    )


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


def _emit(args, objs: Iterable[dict], manifest: RunManifest) -> None:
    """Write the manifest, then each record as it is made."""
    def write(fh):
        # one call per record keeps each call's records a sized batch, which
        # perfbench's tracer counts, and its time the writing alone
        write_jsonl(fh, (), manifest)
        for obj in objs:
            write_jsonl(fh, (obj,))

    _output(args, write)


def _failure_obj(fail: VerificationFailure) -> dict:
    a, b = fail.pair
    return {
        "record": "verification_failure",
        "n": fail.n,
        "elements": list(fail.elements),
        "pair": [a, b],
        "reason": f"{a}*{b}+{fail.n} is not a perfect square",
    }


def _emit_for_tuple(args, manifest: RunManifest, records) -> int:
    """Verify --elements under --n and emit records(tuple), or the failure and return 1."""
    result = verify(args.elements, args.n)
    if isinstance(result, VerificationFailure):
        _emit(args, [_failure_obj(result)], manifest)
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
        bad = 0

        def verified():
            nonlocal bad
            for rec in _records(blob, args.from_search, _SEARCH_KINDS):
                if rec.get("record") != "dtuple":
                    continue
                n, elements = tuple_fields(rec)
                result = verify(elements, n)
                if isinstance(result, VerificationFailure):
                    bad += 1
                    yield _failure_obj(result)
                else:
                    yield tuple_to_obj(result)

        _emit(args, verified(), manifest)
        return 1 if bad else 0

    if args.n is None or args.elements is None:
        raise InputError("verify needs --n and --elements (or --from-search)")
    params = {"n": args.n, "elements": list(args.elements)}
    manifest = _manifest("verify", params, args.timestamps)
    return _emit_for_tuple(args, manifest, lambda t: [tuple_to_obj(t)])


def cmd_extend(args) -> int:
    params = {"n": args.n, "elements": list(args.elements), "lo": args.lo, "hi": args.hi}
    manifest = _manifest("extend", params, args.timestamps)
    return _emit_for_tuple(args, manifest, lambda t: [{
        "record": "extension", "n": args.n, "elements": list(t.elements),
        "lo": args.lo, "hi": args.hi, "extensions": extend(t, args.lo, args.hi)}])


def cmd_search(args) -> int:
    config = SearchConfig(n=args.n, limit=args.limit, min_report_size=args.min_size,
                          max_results=args.max_results)
    params = {"n": config.n, "limit": config.limit, "min_size": config.min_report_size,
              "max_results": config.max_results}
    manifest = _manifest("search", params, args.timestamps)
    report = search_maximal(config)
    _emit(args, search_report_objs(report), manifest)
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
    # a seed corpus must hold a tuple; a search may have found none
    records = _records(blob, path, _SEARCH_KINDS if args.from_search else ("dtuple",))

    tuples = 0
    failures = 0
    skipped = 0
    gap_applicable = 0
    checked = {c: 0 for c in args.checks}
    gap_checks = [c for c in args.checks if c in ("lemma5", "corollary4")]

    def audited():
        nonlocal tuples, failures, skipped, gap_applicable
        for rec in records:
            if rec.get("record") != "dtuple":
                continue
            t = tuple_from_obj(rec)
            tuples += 1
            if gap_checks or "lemma2" in args.checks:
                for quad_elems in itertools.combinations(t.elements, 4):
                    quad = t.subtuple(quad_elems)
                    for check in gap_checks:
                        op = audit_gap_lemma5 if check == "lemma5" else audit_gap_corollary
                        try:
                            gap = op(quad)
                        except PreconditionNotMetError:
                            skipped += 1
                            continue
                        gap_applicable += 1
                        checked[check] += 1
                        if not gap.passed:
                            failures += 1
                        yield gap_record_to_obj(gap)
                    if "lemma2" in args.checks:
                        verdict = audit_lemma2(quad)
                        checked["lemma2"] += 1
                        if verdict is Lemma2Verdict.FAIL:
                            failures += 1
                        yield lemma2_to_obj(quad, verdict)
            if "lemma3" in args.checks:
                for tri_elems in itertools.combinations(t.elements, 3):
                    tri = t.subtuple(tri_elems)
                    try:
                        w = find_witness_e(tri)
                    except WitnessNotFoundError:
                        failures += 1
                        yield {
                            "record": "witness_missing",
                            "n": tri.n,
                            "elements": list(tri.elements),
                        }
                    else:
                        checked["lemma3"] += 1
                        yield witness_to_obj(tri, w)

        yield {
            "record": "audit_summary",
            "tuples": tuples,
            "checked": checked,
            "skipped_precondition": skipped,
            "failures": failures,
            "vacuous_gap_checks": bool(gap_checks) and gap_applicable == 0,
        }

    _emit(args, audited(), manifest)
    return 1 if failures else 0


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
        objs = [bound_report_to_obj(bound_report(n, eps)) for n in ns for eps in eps_list]
    _emit(args, objs, manifest)
    return 0


def cmd_report(args) -> int:
    with open(args.infile, "rb") as fh:
        blob = fh.read()
    params = {"in": args.infile, "format": args.format}
    manifest = _manifest("report", params, args.timestamps, blob)
    records = read_jsonl(_lines(blob))
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
    except (InputError, NotApplicableError, PreconditionNotMetError) as exc:
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
