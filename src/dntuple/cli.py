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
from fractions import Fraction
from typing import Any

from .audits import (
    Lemma2Verdict,
    PreconditionNotMetError,
    WitnessNotFoundError,
    audit_gap_corollary,
    audit_gap_lemma5,
    audit_lemma2,
    find_witness_e,
)
from .bounds import NotApplicableError, bound_report, m_bound_report
from .search import SearchConfig, search_maximal
from .serialize import (
    ARTIFACT_VERSION,
    RunManifest,
    bound_report_to_obj,
    canonical_json,
    fraction_str,
    gap_record_to_obj,
    lemma2_to_obj,
    read_jsonl,
    render_csv,
    search_report_objs,
    tuple_fields,
    tuple_to_obj,
    tuples_from_records,
    witness_to_obj,
    write_csv,
    write_jsonl,
)
from .tuples import DTuple, InputError, VerificationFailure, extend, verify

_CHECKS = ("lemma5", "corollary4", "lemma2", "lemma3")


def _elements_arg(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {s!r}")


def _rational_arg(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 1/2, got {s!r}")


def _eps_grid_arg(s: str) -> tuple[Fraction, ...]:
    return tuple(_rational_arg(part) for part in s.split(","))


def _checks_arg(s: str) -> tuple[str, ...]:
    requested = [part.strip() for part in s.split(",") if part.strip()]
    bad = [c for c in requested if c not in _CHECKS]
    if bad:
        raise argparse.ArgumentTypeError(
            f"unknown checks {bad}; valid: {', '.join(_CHECKS)}")
    # canonical order regardless of how the flag listed them
    return tuple(c for c in _CHECKS if c in requested)


def _text(blob: bytes) -> io.StringIO:
    try:
        return io.StringIO(blob.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8: {exc}") from exc


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
    """Run write(stream) on stdout, or on --out as a whole file or none.

    The file is written beside its target under a temporary name, with the
    mode a plain open() gives, and renamed over the target only once
    write() has returned.
    """
    if not args.out:
        write(sys.stdout)
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


def _emit(args, objs, manifest: RunManifest) -> None:
    _output(args, lambda fh: write_jsonl(fh, objs, manifest))


def _failure_obj(fail: VerificationFailure) -> dict:
    a, b = fail.pair
    return {
        "record": "verification_failure",
        "n": fail.n,
        "elements": list(fail.elements),
        "pair": [a, b],
        "reason": f"{a}*{b}+{fail.n} is not a perfect square",
    }


def cmd_verify(args) -> int:
    if args.from_search:
        with open(args.from_search, "rb") as fh:
            blob = fh.read()
        params = {"from_search": args.from_search}
        manifest = _manifest("verify", params, args.timestamps, blob)
        records = read_jsonl(_text(blob))
        objs = []
        bad = 0
        for rec in records:
            if rec.get("record") != "dtuple":
                continue
            n, elements = tuple_fields(rec)
            result = verify(elements, n)
            if isinstance(result, VerificationFailure):
                bad += 1
                objs.append(_failure_obj(result))
            else:
                objs.append(tuple_to_obj(result))
        _emit(args, objs, manifest)
        return 1 if bad else 0

    if args.n is None or args.elements is None:
        raise InputError("verify needs --n and --elements (or --from-search)")
    params = {"n": args.n, "elements": list(args.elements)}
    manifest = _manifest("verify", params, args.timestamps)
    result = verify(args.elements, args.n)
    if isinstance(result, VerificationFailure):
        _emit(args, [_failure_obj(result)], manifest)
        return 1
    _emit(args, [tuple_to_obj(result)], manifest)
    return 0


def cmd_extend(args) -> int:
    params = {"n": args.n, "elements": list(args.elements), "lo": args.lo, "hi": args.hi}
    manifest = _manifest("extend", params, args.timestamps)
    result = verify(args.elements, args.n)
    if isinstance(result, VerificationFailure):
        _emit(args, [_failure_obj(result)], manifest)
        return 1
    found = extend(result, args.lo, args.hi)
    obj = {
        "record": "extension",
        "n": args.n,
        "elements": list(result.elements),
        "lo": args.lo,
        "hi": args.hi,
        "extensions": list(found),
    }
    _emit(args, [obj], manifest)
    return 0


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
    params = {"n": args.n, "elements": list(args.elements),
              "e_scan_bound": args.e_scan_bound}
    manifest = _manifest("witness", params, args.timestamps)
    result = verify(args.elements, args.n)
    if isinstance(result, VerificationFailure):
        _emit(args, [_failure_obj(result)], manifest)
        return 1
    try:
        w = find_witness_e(result, args.e_scan_bound)
    except WitnessNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    _emit(args, [witness_to_obj(result, w)], manifest)
    return 0


def cmd_audit(args) -> int:
    path = args.seed_corpus or args.from_search
    with open(path, "rb") as fh:
        blob = fh.read()
    params = {"checks": list(args.checks), "corpus": path,
              "e_scan_bound": args.e_scan_bound}
    manifest = _manifest("audit", params, args.timestamps, blob)
    tuples = tuples_from_records(read_jsonl(_text(blob)))

    objs: list[dict] = []
    failures = 0
    skipped = 0
    gap_applicable = 0
    checked = {c: 0 for c in args.checks}
    gap_checks = [c for c in args.checks if c in ("lemma5", "corollary4")]

    for t in tuples:
        if gap_checks or "lemma2" in args.checks:
            for quad_elems in itertools.combinations(t.elements, 4):
                quad = verify(quad_elems, t.n)
                assert isinstance(quad, DTuple)  # subsets of a verified tuple
                for check in gap_checks:
                    op = audit_gap_lemma5 if check == "lemma5" else audit_gap_corollary
                    try:
                        rec = op(quad)
                    except PreconditionNotMetError:
                        skipped += 1
                        continue
                    gap_applicable += 1
                    checked[check] += 1
                    if not rec.passed:
                        failures += 1
                    objs.append(gap_record_to_obj(rec))
                if "lemma2" in args.checks:
                    verdict = audit_lemma2(quad)
                    checked["lemma2"] += 1
                    if verdict is Lemma2Verdict.FAIL:
                        failures += 1
                    objs.append(lemma2_to_obj(quad, verdict))
        if "lemma3" in args.checks:
            for tri_elems in itertools.combinations(t.elements, 3):
                tri = verify(tri_elems, t.n)
                assert isinstance(tri, DTuple)
                try:
                    w = find_witness_e(tri, args.e_scan_bound)
                except WitnessNotFoundError as exc:
                    failures += 1
                    objs.append({
                        "record": "witness_missing",
                        "n": tri.n,
                        "elements": list(tri.elements),
                        "search_bound": exc.search_bound,
                    })
                else:
                    checked["lemma3"] += 1
                    objs.append(witness_to_obj(tri, w))

    objs.append({
        "record": "audit_summary",
        "tuples": len(tuples),
        "checked": checked,
        "skipped_precondition": skipped,
        "failures": failures,
        "vacuous_gap_checks": bool(gap_checks) and gap_applicable == 0,
    })
    _emit(args, objs, manifest)
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
        eps_list = sorted(set(args.eps_grid if args.eps_grid else (args.eps,)))
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
    records = read_jsonl(_text(blob))
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
        p.add_argument("--timestamps", action="store_true",
                       help="stamp the manifest with wall-clock times "
                            "(breaks byte-for-byte rerun identity)")

    p = sub.add_parser("verify", help="check one tuple, or every tuple in a result file")
    p.add_argument("--n", type=int)
    p.add_argument("--elements", type=_elements_arg)
    p.add_argument("--from-search", metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extend", help="list every element of [lo, hi] extending a tuple")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--elements", type=_elements_arg, required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--out", metavar="PATH")
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("search", help="enumerate maximal tuples within [1, limit]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--min-size", type=int, default=3)
    p.add_argument("--max-results", type=int, default=None)
    p.add_argument("--out", metavar="PATH")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("audit", help="run exact lemma checks over a tuple corpus")
    p.add_argument("--checks", type=_checks_arg, default=_CHECKS,
                   help=f"comma list from: {', '.join(_CHECKS)}")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--seed-corpus", metavar="PATH")
    src.add_argument("--from-search", metavar="PATH")
    p.add_argument("--e-scan-bound", type=int, default=None)
    p.add_argument("--out", metavar="PATH")
    common(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("witness", help="find the triple witness (e, x, y, z)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--elements", type=_elements_arg, required=True)
    p.add_argument("--e-scan-bound", type=int, default=None)
    p.add_argument("--out", metavar="PATH")
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("bounds", help="tabulate certified counting bounds")
    ng = p.add_mutually_exclusive_group(required=True)
    ng.add_argument("--n", type=int)
    ng.add_argument("--n-grid", type=_elements_arg, metavar="INTS")
    eg = p.add_mutually_exclusive_group()
    eg.add_argument("--eps", type=_rational_arg)
    eg.add_argument("--eps-grid", type=_eps_grid_arg, metavar="RATIONALS")
    p.add_argument("--theorem1", action="store_true",
                   help="use the prescribed epsilon loglog|n|/log|n| per n")
    p.add_argument("--out", metavar="PATH")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("report", help="re-emit a result file as CSV or JSON lines")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--format", choices=["csv", "json-lines"], required=True)
    p.add_argument("--out", metavar="PATH")
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
