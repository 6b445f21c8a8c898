"""Canonical object forms and byte-stable CSV / JSON-lines emission.

Every record is a flat JSON object with a "record" tag; files are one
record per line, manifest first. Emission is deterministic: sorted keys,
compact separators, rationals as "p/q" with the reduced denominator
always present, floats via repr (shortest round-trip, '.' decimal, no
locale). Integers print in plain decimal however large, so consumers
must not assume 64-bit range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence, TextIO

from .audits import GapAuditRecord, Lemma2Verdict, LemmaThreeWitness
from .bounds import BoundReport
from .search import SearchReport
from .tuples import DTuple, InputError, VerificationFailure, verify

ARTIFACT_VERSION = "0.1.0"


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class RunManifest:
    """Provenance header embedded at the top of every emitted file.

    Timestamps stay None unless explicitly requested, so reruns with
    equal inputs emit identical bytes; the digest covers the command and
    its fully resolved parameters.
    """

    command: str
    parameters: Mapping[str, Any]
    artifact_version: str
    input_digest: str
    started: str | None = None
    finished: str | None = None

    def to_obj(self) -> dict:
        return {
            "record": "manifest",
            "command": self.command,
            "parameters": dict(self.parameters),
            "artifact_version": self.artifact_version,
            "input_digest": self.input_digest,
            "started": self.started,
            "finished": self.finished,
        }


def tuple_to_obj(t: DTuple) -> dict:
    return {
        "record": "dtuple",
        "n": t.n,
        "elements": list(t.elements),
        "witnesses": [[w.a, w.b, w.r] for w in t.witnesses],
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
        "sign_x": w.sign_x,
        "sign_y": w.sign_y,
    }


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


def search_summary_to_obj(report: SearchReport) -> dict:
    cfg = report.config
    return {
        "record": "search_summary",
        "n": cfg.n,
        "limit": cfg.limit,
        "min_report_size": cfg.min_report_size,
        "max_results": cfg.max_results,
        "tuples_found": len(report.maximal_tuples),
        "empirical_max_size": report.empirical_max_size,
        "nodes_visited": report.nodes_visited,
        "candidates_tested": report.candidates_tested,
        "result_cap_exceeded": report.result_cap_exceeded,
    }


def search_report_objs(report: SearchReport) -> list[dict]:
    # tuples first (already in lexicographic order), summary last
    objs = [tuple_to_obj(t) for t in report.maximal_tuples]
    objs.append(search_summary_to_obj(report))
    return objs


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
                manifest: RunManifest | None = None) -> None:
    if manifest is not None:
        stream.write(canonical_json(manifest.to_obj()) + "\n")
    for obj in objs:
        stream.write(canonical_json(obj) + "\n")


def read_jsonl(stream: TextIO) -> list[dict]:
    out = []
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an int past 4 300 digits
            raise InputError(f"line {line_no}: not a JSON record: {exc}") from exc
        if not isinstance(obj, dict):
            raise InputError(f"line {line_no}: expected an object record")
        out.append(obj)
    return out


def tuples_from_records(records: Iterable[Mapping[str, Any]]) -> list[DTuple]:
    """Pick out and re-verify every dtuple record, in file order."""
    return [tuple_from_obj(obj) for obj in records if obj.get("record") == "dtuple"]


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(stream: TextIO, header: Sequence[str], rows: Iterable[Sequence[Any]],
              manifest: RunManifest | None = None) -> None:
    # hand-rolled on purpose: every cell is digits, '+', '/', '.', '-'
    # or a known token, so no quoting is ever needed and the byte output
    # stays trivially deterministic ('\n' endings, no locale)
    if manifest is not None:
        stream.write("# " + canonical_json(manifest.to_obj()) + "\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        cells = [_csv_cell(v) for v in row]
        for cell in cells:
            if "," in cell or '"' in cell or "\n" in cell:
                raise InputError(f"cell needs quoting, refusing: {cell!r}")
        stream.write(",".join(cells) + "\n")


SEARCH_CSV_HEADER = ("n", "size", "elements")
AUDIT_CSV_HEADER = ("n", "elements", "check", "margin", "verdict")
BOUNDS_CSV_HEADER = ("n", "epsilon", "k", "ell", "a_eps_bound", "b_eps_bound",
                     "c_leading", "c_certified", "m_leading", "m_certified")


def elements_str(elements: Sequence[int]) -> str:
    return "+".join(str(x) for x in elements)


def search_csv_rows(tuples: Iterable[DTuple]) -> list[tuple]:
    rows = [(t.n, t.size, elements_str(t.elements)) for t in tuples]
    rows.sort(key=lambda r: (r[0], r[2]))
    return rows


def audit_csv_rows(objs: Iterable[Mapping[str, Any]]) -> list[tuple]:
    """Flatten audit records to (n, elements, check, margin, verdict) rows.

    One row per individual check; margins are the measured quantities
    (c/a and d/c for lemma5, d*n^2/(b*c) for corollary4, none for
    lemma2/lemma3). A witness record is a lemma3 pass, a witness_missing
    record a lemma3 fail. Rows sort by (n, first element, check).
    """
    rows = []
    for obj in objs:
        kind = obj.get("record")
        if kind not in ("gap_audit", "lemma2", "witness", "witness_missing"):
            continue
        n = obj["n"]
        elems = elements_str(obj["elements"])
        first = obj["elements"][0]
        if kind == "gap_audit":
            verdicts = obj["verdicts"]
            if "lemma5_c" in verdicts:
                rows.append((n, first, elems, "lemma5_c", obj["lemma5_c_ratio"], verdicts["lemma5_c"]))
            if "lemma5_d" in verdicts:
                rows.append((n, first, elems, "lemma5_d", obj["lemma5_d_ratio"], verdicts["lemma5_d"]))
            if "corollary4" in verdicts:
                rows.append((n, first, elems, "corollary4", obj["corollary_margin"], verdicts["corollary4"]))
        elif kind == "lemma2":
            rows.append((n, first, elems, "lemma2", None, obj["verdict"]))
        else:
            rows.append((n, first, elems, "lemma3", None, "pass" if kind == "witness" else "fail"))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    return [(n, elems, check, margin, verdict)
            for n, _first, elems, check, margin, verdict in rows]


def bounds_csv_rows(objs: Iterable[Mapping[str, Any]]) -> list[tuple]:
    rows = []
    for obj in objs:
        if obj.get("record") != "bound":
            continue
        rows.append((obj["n"], obj["epsilon"], obj["k"], obj["ell"],
                     obj["a_eps_bound"], obj["b_eps_bound"],
                     obj.get("c_leading"), obj.get("c_certified"),
                     obj.get("m_leading"), obj.get("m_certified")))
    rows.sort(key=lambda r: (r[0], Fraction(r[1])))
    return rows


def render_csv(records: list[dict]) -> tuple[tuple, list[tuple]]:
    """Choose the CSV shape matching a record stream (search, audit or bounds)."""
    kinds = {obj.get("record") for obj in records} - {"manifest"}
    if kinds <= {"dtuple", "search_summary"}:
        tuples = tuples_from_records(records)
        return SEARCH_CSV_HEADER, search_csv_rows(tuples)
    try:
        # an audit output ends in its audit_summary even when no check applied
        if kinds <= {"gap_audit", "lemma2", "witness", "witness_missing", "audit_summary"}:
            return AUDIT_CSV_HEADER, audit_csv_rows(records)
        if kinds <= {"bound"}:
            return BOUNDS_CSV_HEADER, bounds_csv_rows(records)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputError(f"malformed record: {exc!r}") from exc
    raise InputError(f"mixed or unknown record kinds, cannot shape a table: {sorted(kinds)}")

