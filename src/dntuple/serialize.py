"""Every record: its object form, its byte-stable emission and its reading.

The *_to_obj builders make each record a command writes, manifest_to_obj
its header; utf8_lines, read_jsonl and render_csv read record files
back. The CLI only routes. Every record is a flat JSON object with a
"record" tag; files are one record per line, manifest first. Emission is
deterministic: sorted keys, compact separators, rationals as "p/q" with
the reduced denominator always present, floats via repr (shortest
round-trip, '.' decimal, no locale). Integers print in plain decimal
however large, so consumers must not assume 64-bit range.
"""

from __future__ import annotations

import io
import json
import math
import re
from fractions import Fraction
from itertools import pairwise
from typing import Any, Iterable, Iterator, Mapping, Sequence, TextIO

from .audits import GapAuditRecord, Lemma2Verdict, LemmaThreeWitness
from .bounds import BoundReport
from .search import SearchReport
from .tuples import DTuple, InputError, VerificationFailure, verify

ARTIFACT_VERSION = "0.1.0"


# json.dumps builds a new encoder for every call with options like these
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                            allow_nan=False)


def canonical_json(obj: Any) -> str:
    return _ENCODER.encode(obj)


def fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+)|\.(\d+))?", re.ASCII)


def parse_epsilon(s: Any) -> Fraction:
    """The rational an epsilon string spells: an integer, p/q or a plain decimal.

    Fraction() also takes an exponent form and builds its power of ten
    before any range check ("1e99999999" runs for minutes), so this
    refuses that form and anything else outside the three. Every digit
    run goes through int(), whose digit limit refuses an over-long one
    before any arithmetic. bounds.thresholds() checks the range.
    """
    match = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise InputError(f"epsilon {str(s)[:32]!r} is not an integer, p/q or plain decimal")
    whole, denominator, decimals = match.groups()
    try:
        if decimals is not None:
            return Fraction(int(whole + decimals), 10 ** len(decimals))
        return Fraction(int(whole), int(denominator or 1))
    except ValueError as exc:  # more digits than int() converts
        raise InputError(f"epsilon {s[:32]!r}...: {exc}") from exc
    except ZeroDivisionError:
        raise InputError(f"epsilon {s[:32]!r} has a zero denominator") from None


def manifest_to_obj(command: str, parameters: Mapping[str, Any], input_digest: str,
                    stamp: str | None) -> dict:
    """The provenance header at the top of every emitted file.

    The digest covers the command, its fully resolved parameters and its
    input files. stamp, the wall-clock time, stays None unless requested,
    so reruns with equal inputs emit identical bytes.
    """
    return {
        "record": "manifest",
        "command": command,
        "parameters": dict(parameters),
        "artifact_version": ARTIFACT_VERSION,
        "input_digest": input_digest,
        "started": stamp,
        "finished": stamp,
    }


def tuple_to_obj(t: DTuple) -> dict:
    return {
        "record": "dtuple",
        "n": t.n,
        "elements": list(t.elements),
        "witnesses": [[w.a, w.b, w.r] for w in t.witnesses],
    }


def failure_to_obj(fail: VerificationFailure) -> dict:
    a, b = fail.pair
    return {
        "record": "verification_failure",
        "n": fail.n,
        "elements": list(fail.elements),
        "pair": [a, b],
        "reason": f"{a}*{b}+{fail.n} is not a perfect square",
    }


def extension_to_obj(t: DTuple, lo: int, hi: int, extensions: list[int]) -> dict:
    return {
        "record": "extension",
        "n": t.n,
        "elements": list(t.elements),
        "lo": lo,
        "hi": hi,
        "extensions": extensions,
    }


def tuple_fields(obj: Mapping[str, Any]) -> tuple[Any, tuple]:
    """The (n, elements) of a dtuple object, or InputError if either is missing.

    Only the shape is checked here; verify() rejects values that are not
    integers.
    """
    if "n" not in obj or not isinstance(obj.get("elements"), list):
        raise InputError("malformed dtuple object: needs an 'n' and an 'elements' list")
    return obj["n"], tuple(obj["elements"])


def tuple_from_obj(obj: Mapping[str, Any]) -> DTuple:
    """Rebuild a DTuple from its object form, re-verifying from scratch.

    Stored witnesses are never trusted; the square checks rerun here, so
    a tampered or corrupted file cannot smuggle in a bad tuple.
    """
    n, elements = tuple_fields(obj)
    result = verify(elements, n)
    if isinstance(result, VerificationFailure):
        raise InputError(f"stored tuple fails verification: {result}")
    return result


def witness_to_obj(triple: DTuple, w: LemmaThreeWitness) -> dict:
    return {
        "record": "witness",
        "n": triple.n,
        "elements": list(triple.elements),
        "e": w.e,
        "x": w.x,
        "y": w.y,
        "z": w.z,
        # only (+1, +1) closes (find_witness_e); kept until a version bump
        "sign_x": 1,
        "sign_y": 1,
    }


def witness_missing_to_obj(triple: DTuple) -> dict:
    return {"record": "witness_missing", "n": triple.n, "elements": list(triple.elements)}


def gap_record_to_obj(rec: GapAuditRecord) -> dict:
    obj: dict[str, Any] = {
        "record": "gap_audit",
        "n": rec.quad.n,
        "elements": list(rec.quad.elements),
        "verdicts": {k: ("pass" if v else "fail") for k, v in rec.verdicts.items()},
    }
    if rec.lemma5_c_ratio is not None:
        obj["lemma5_c_ratio"] = fraction_str(rec.lemma5_c_ratio)
    if rec.lemma5_d_ratio is not None:
        obj["lemma5_d_ratio"] = fraction_str(rec.lemma5_d_ratio)
    if rec.corollary_margin is not None:
        obj["corollary_margin"] = fraction_str(rec.corollary_margin)
    return obj


def lemma2_to_obj(quad: DTuple, verdict: Lemma2Verdict) -> dict:
    return {
        "record": "lemma2",
        "n": quad.n,
        "elements": list(quad.elements),
        "verdict": verdict.value,
    }


def audit_summary_to_obj(tuples: int, checked: Mapping[str, int], skipped: int,
                         failures: int, vacuous_gap_checks: bool) -> dict:
    return {
        "record": "audit_summary",
        "tuples": tuples,
        "checked": dict(checked),
        "skipped_precondition": skipped,
        "failures": failures,
        "vacuous_gap_checks": vacuous_gap_checks,
    }


def search_summary_to_obj(report: SearchReport, tuples_found: int) -> dict:
    cfg = report.config
    return {
        "record": "search_summary",
        "n": cfg.n,
        "limit": cfg.limit,
        "min_report_size": cfg.min_report_size,
        "max_results": cfg.max_results,
        "tuples_found": tuples_found,
        "empirical_max_size": report.empirical_max_size,
        "nodes_visited": report.nodes_visited,
        "candidates_tested": report.candidates_tested,
        "result_cap_exceeded": report.result_cap_exceeded,
    }


def search_report_objs(report: SearchReport, tuples: Iterable[DTuple]) -> Iterator[dict]:
    """A record per tuple as it comes (in lexicographic order), then the summary.

    The summary counts the tuples that passed and reads report's counters
    only after the last one, when a stream that fills them has ended.
    """
    found = 0
    for found, t in enumerate(tuples, start=1):
        yield tuple_to_obj(t)
    yield search_summary_to_obj(report, found)


def bound_report_to_obj(rep: BoundReport) -> dict:
    c, m = rep.c_bound_leading, rep.m_bound_leading
    return {
        "record": "bound",
        "n": rep.n,
        "epsilon": fraction_str(rep.epsilon),
        "k": rep.k,
        "ell": rep.ell,
        "a_eps_bound": rep.a_eps_bound,
        "b_eps_bound": rep.b_eps_bound,
        "c_leading": None if c is None else c.value,
        "c_certified": None if c is None else c.certified,
        "m_leading": None if m is None else m.value,
        "m_certified": None if m is None else m.certified,
        "notes": list(rep.notes),
    }


def write_jsonl(stream: TextIO, objs: Iterable[Mapping[str, Any]],
                manifest: Mapping[str, Any] | None = None) -> None:
    if manifest is not None:
        stream.write(canonical_json(manifest) + "\n")
    for obj in objs:
        stream.write(canonical_json(obj) + "\n")


# canonical JSON never holds NaN or an infinity, which json.loads takes,
# either as a token or as a number that overflows a float (1e400)
def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token[:32]} is not a finite number")
    return value


_DECODER = json.JSONDecoder(parse_constant=_finite_float, parse_float=_finite_float)

# no record written here nests deeper than a list of lists in an object;
# one nested just short of the recursion limit reads, yet cannot be
# written back, since encoding recurses as deep with more frames below
_MAX_NESTING = 16


def _nests_deeper(obj: Any, depth: int) -> bool:
    level = [obj]
    for _ in range(depth):
        level = [v for x in level for v in (x.values() if isinstance(x, dict) else x)
                 if isinstance(v, (dict, list))]
    return bool(level)


def line_blocks(blob: bytes, count: int) -> list[tuple[int, int]]:
    """About count [lo, hi) byte ranges of whole lines that cover blob, in order.

    Each range ends just after a "\n", the only line end utf8_lines knows,
    or at the end of blob; an empty blob has no range.
    """
    ends = [0]
    for k in range(1, count):
        cut = blob.find(b"\n", max(ends[-1], len(blob) * k // count - 1)) + 1
        if cut == 0:  # no line ends past here
            break
        ends.append(cut)  # the search starts at the last cut, so cut lies past it
    if ends[-1] < len(blob):
        ends.append(len(blob))
    return list(pairwise(ends))


def utf8_lines(blob: bytes, first_line: int = 1) -> Iterator[str]:
    """The lines of a UTF-8 file's bytes, each with its "\n", decoded one at a time.

    Only "\n" ends a line, as in io.StringIO; str.splitlines() would also
    split on "\r", "\x0b", "\u2028" and others, which canonical JSON
    writes only escaped but a hand-edited file may hold raw in a string.
    No byte of a multi-byte UTF-8 sequence is "\n", so decoding line by
    line reads the text that decoding the whole file would, and
    io.BytesIO shares blob rather than copying it. A fault names its line
    counted from first_line, the number of blob's first line in its file.
    """
    for line_no, raw in enumerate(io.BytesIO(blob), start=first_line):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"line {line_no}: input is not UTF-8: {exc}") from exc
        yield line


def read_jsonl(lines: Iterable[str], first_line: int = 1) -> Iterator[dict]:
    """Parse each line as a record, one at a time, in order.

    A blank line or a '#' comment is skipped. The first faulty line raises
    InputError naming its line number, counted from first_line, when the
    reader reaches it.
    """
    for line_no, line in enumerate(lines, start=first_line):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:  # RecursionError: nesting past the recursion limit
            obj = _DECODER.decode(line)
        except (ValueError, RecursionError) as exc:  # or an int past 4 300 digits
            raise InputError(f"line {line_no}: not a JSON record: {exc}") from exc
        if not isinstance(obj, dict):
            raise InputError(f"line {line_no}: expected an object record")
        if not isinstance(obj.get("record", ""), str):
            raise InputError(f"line {line_no}: the record tag is not a string")
        # counting brackets is cheap, and no line with fewer nests too deep
        if (line.count("[") + line.count("{") > _MAX_NESTING
                and _nests_deeper(obj, _MAX_NESTING)):
            raise InputError(f"line {line_no}: nests deeper than {_MAX_NESTING} levels")
        yield obj


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(stream: TextIO, header: Sequence[str], rows: Iterable[Sequence[Any]],
              manifest: Mapping[str, Any] | None = None) -> None:
    # hand-rolled on purpose: every cell is digits, '+', '/', '.', '-'
    # or a known token, so no quoting is ever needed and the byte output
    # stays trivially deterministic ('\n' endings, no locale)
    if manifest is not None:
        stream.write("# " + canonical_json(manifest) + "\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        cells = [_csv_cell(v) for v in row]
        for cell in cells:
            if "," in cell or '"' in cell or "\n" in cell:
                raise InputError(f"cell needs quoting, refusing: {cell!r}")
        stream.write(",".join(cells) + "\n")


# the records of a search output, besides its manifest
SEARCH_KINDS = ("dtuple", "search_summary")

SEARCH_CSV_HEADER = ("n", "size", "elements")
AUDIT_CSV_HEADER = ("n", "elements", "check", "margin", "verdict")
BOUNDS_CSV_HEADER = ("n", "epsilon", "k", "ell", "a_eps_bound", "b_eps_bound",
                     "c_leading", "c_certified", "m_leading", "m_certified")


def elements_str(elements: Sequence[int]) -> str:
    return "+".join(str(x) for x in elements)


def _ints(text: str) -> tuple[int, ...]:
    # the elements an elements_str of positive integers spells
    return tuple(map(int, text.split("+")))


def _audit_rows(obj: Mapping[str, Any]) -> list[tuple]:
    """The (n, first element, elements, check, margin, verdict) rows of one audit record.

    One row per individual check; margins are the measured quantities
    (c/a and d/c for lemma5, d*n^2/(b*c) for corollary4, none for
    lemma2/lemma3). A witness record is a lemma3 pass, a witness_missing
    record a lemma3 fail.
    """
    kind = obj["record"]
    n = obj["n"]
    elems = elements_str(obj["elements"])
    first = obj["elements"][0]
    if kind == "gap_audit":
        verdicts = obj["verdicts"]
        return [(n, first, elems, check, obj[margin], verdicts[check])
                for check, margin in (("lemma5_c", "lemma5_c_ratio"),
                                      ("lemma5_d", "lemma5_d_ratio"),
                                      ("corollary4", "corollary_margin"))
                if check in verdicts]
    if kind == "lemma2":
        return [(n, first, elems, "lemma2", None, obj["verdict"])]
    return [(n, first, elems, "lemma3", None, "pass" if kind == "witness" else "fail")]


def render_csv(records: Iterable[Mapping[str, Any]]) -> tuple[tuple, list[tuple]]:
    """The CSV header and rows of a record stream: search, audit, bounds or failed verify.

    Each record leaves only a small row source: (n, elements, verified)
    for a dtuple or verification_failure record, its elements one string
    in the record's order (verify() runs again, whatever the record
    claims), the rows of an audit record, or the row of a bound record.
    The shape is picked once the kinds are known. A dtuple that fails
    verification is a fault only in a search table, so it is raised at
    the end, or when a later line faults while every kind so far is a
    search kind: the first fault in file order is reported.
    """
    audit_kinds = ("gap_audit", "lemma2", "witness", "witness_missing")
    kinds = set()
    checked: list[tuple] = []  # (n, elements_str of the record's elements, verified)
    unsorted = False  # a record listed its elements out of order
    audit: list[tuple] = []
    bounds: list[tuple] = []  # ((n, epsilon), row)
    failure = None
    try:
        for obj in records:
            kind = obj.get("record")
            kinds.add(kind)
            if kind in ("dtuple", "verification_failure"):
                n, elements = tuple_fields(obj)
                result = verify(elements, n)
                ok = not isinstance(result, VerificationFailure)
                if not ok and kind == "dtuple" and failure is None:
                    failure = InputError(f"stored tuple fails verification: {result}")
                unsorted = unsorted or elements != result.elements  # verify() sorts
                checked.append((n, elements_str(elements), ok))
            elif kind in audit_kinds:
                audit.extend(_audit_rows(obj))
            elif kind == "bound":
                row = (obj["n"], obj["epsilon"], obj["k"], obj["ell"],
                       obj["a_eps_bound"], obj["b_eps_bound"],
                       obj.get("c_leading"), obj.get("c_certified"),
                       obj.get("m_leading"), obj.get("m_certified"))
                bounds.append(((row[0], parse_epsilon(row[1])), row))
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        if failure is not None and (kinds - {"manifest"}).issubset(SEARCH_KINDS):
            raise failure from exc
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed record: {exc!r}") from exc

    kinds.discard("manifest")
    if failure is not None and kinds.issubset(SEARCH_KINDS):
        raise failure
    try:
        if kinds.issubset(SEARCH_KINDS):
            # every tuple verified, so sorting the sources sorts by (n, elements)
            if unsorted:
                checked = [(n, elements_str(sorted(_ints(els))), ok) for n, els, ok in checked]
            checked.sort()
            for i, (n, els, _ok) in enumerate(checked):  # in place: one row per record
                checked[i] = (n, els.count("+") + 1, els)
            return SEARCH_CSV_HEADER, checked
        # an audit output ends in its audit_summary even when no check applied
        if kinds <= {*audit_kinds, "audit_summary"}:
            audit.sort(key=lambda r: r[:4])
            for i, (n, _first, elems, check, margin, verdict) in enumerate(audit):
                audit[i] = (n, elems, check, margin, verdict)
            return AUDIT_CSV_HEADER, audit
        if kinds <= {"bound"}:
            bounds.sort(key=lambda b: b[0])
            return BOUNDS_CSV_HEADER, [row for _key, row in bounds]
        # a verify output that holds a failure: one verify row per tuple, in
        # the numeric order of the elements as each record lists them
        if kinds <= {"dtuple", "verification_failure"}:
            checked.sort(key=lambda c: (c[0], _ints(c[1]), c[2]))
            return AUDIT_CSV_HEADER, [(n, els, "verify", None, "pass" if ok else "fail")
                                      for n, els, ok in checked]
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed record: {exc!r}") from exc
    # a record without a tag reads as None, which does not sort with strings
    raise InputError(f"mixed or unknown record kinds, cannot shape a table: "
                     f"{sorted(kinds, key=str)}")
