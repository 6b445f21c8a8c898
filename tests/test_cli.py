import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from constructed_corpus import constructed_quadruples, corpus_text
from dntuple import cli, workers
from dntuple.cli import main
from dntuple.search import MAX_LIMIT, SearchConfig, search_maximal
from dntuple.serialize import (
    ARTIFACT_VERSION,
    canonical_json,
    fraction_str,
    line_blocks,
    parse_epsilon,
    read_jsonl,
    render_csv,
    tuple_from_obj,
    tuple_to_obj,
    utf8_lines,
    write_csv,
)
from dntuple.tuples import DTuple, InputError, verify


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records_of(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line]


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "1", "--elements", "1,3,8,120")
    assert code == 0
    recs = records_of(out)
    assert recs[0]["record"] == "manifest"
    assert recs[0]["artifact_version"]
    assert recs[1]["record"] == "dtuple"
    assert [w[2] for w in recs[1]["witnesses"]] == [2, 3, 11, 5, 19, 31]


def test_verify_failure_exit_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "1", "--elements", "1,3,7")
    assert code == 1
    recs = records_of(out)
    assert recs[1]["record"] == "verification_failure"
    assert recs[1]["pair"] == [1, 7]


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "verify", "--n", "0", "--elements", "1,3")[0] == 2
    assert run_cli(capsys, "verify", "--n", "1", "--elements", "3,3")[0] == 2
    assert run_cli(capsys, "extend", "--n", "1", "--elements", "1,3",
                   "--lo", "9", "--hi", "2")[0] == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--n", "x", "--elements", "1,3"])
    assert exc_info.value.code == 2
    # an unknown check, and an empty list, which would audit nothing
    for checks in ("lemma9", ",", "", " , "):
        with pytest.raises(SystemExit) as exc_info:
            main(["audit", "--checks", checks, "--seed-corpus", "nope"])
        assert exc_info.value.code == 2
    # --theorem1 prescribes its own epsilon
    for eps in (["--eps", "1/2"], ["--eps-grid", "1,1/2"]):
        with pytest.raises(SystemExit) as exc_info:
            main(["bounds", "--n", "16", "--theorem1", *eps])
        assert exc_info.value.code == 2


def test_extend_cli(capsys):
    code, out, _ = run_cli(capsys, "extend", "--n", "1", "--elements", "1,3,8",
                           "--lo", "1", "--hi", "200")
    assert code == 0
    rec = records_of(out)[1]
    assert rec["record"] == "extension"
    assert rec["extensions"] == [120]
    # a window below 1 holds no positive d: empty, not an error
    code, out, _ = run_cli(capsys, "extend", "--n", "1", "--elements", "1,3",
                           "--lo", "-5", "--hi", "-1")
    assert code == 0
    assert records_of(out)[1] == {"record": "extension", "n": 1, "elements": [1, 3],
                                  "lo": -5, "hi": -1, "extensions": []}
    code, _, err = run_cli(capsys, "extend", "--n", "1", "--elements", "1,3",
                           "--lo", "-1", "--hi", "-5")
    assert (code, err) == (2, "error: empty range [-1, -5]\n")


def test_witness_cli(capsys):
    code, out, _ = run_cli(capsys, "witness", "--n", "1", "--elements", "3,8,120")
    assert code == 0
    rec = records_of(out)[1]
    assert (rec["e"], rec["x"], rec["y"], rec["z"]) == (1, 2, 3, 11)


def test_search_audit_report_round_trip(tmp_path, capsys):
    search_path = tmp_path / "s.jsonl"
    code, out, _ = run_cli(capsys, "search", "--n", "1", "--limit", "200",
                           "--min-size", "3", "--out", str(search_path))
    assert code == 0 and out == ""
    with open(search_path, encoding="utf-8") as fh:
        records = list(read_jsonl(fh))
    assert records[0]["record"] == "manifest"
    summary = records[-1]
    assert summary["record"] == "search_summary"
    assert summary["empirical_max_size"] == 4
    tuples = [tuple_from_obj(r) for r in records if r["record"] == "dtuple"]
    assert (1, 3, 8, 120) in [t.elements for t in tuples]

    # the same file feeds verify and audit unchanged
    code, out, _ = run_cli(capsys, "verify", "--from-search", str(search_path))
    assert code == 0
    assert sum(1 for r in records_of(out) if r["record"] == "dtuple") == len(tuples)

    audit_path = tmp_path / "a.jsonl"
    code, out, _ = run_cli(capsys, "audit", "--from-search", str(search_path),
                           "--out", str(audit_path))
    assert code == 0
    with open(audit_path, encoding="utf-8") as fh:
        audit_records = list(read_jsonl(fh))
    summary = audit_records[-1]
    assert summary["record"] == "audit_summary"
    assert summary["failures"] == 0
    assert summary["vacuous_gap_checks"]  # |n| = 1 gates out the gap checks

    code, out, _ = run_cli(capsys, "report", "--in", str(audit_path),
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "n,elements,check,margin,verdict"
    assert any(",lemma3,,pass" in line for line in lines[2:])


def test_report_search_csv_and_reruns_identical(tmp_path, capsys):
    path = tmp_path / "s.jsonl"
    run_cli(capsys, "search", "--n", "4", "--limit", "150", "--out", str(path))
    first = path.read_bytes()
    run_cli(capsys, "search", "--n", "4", "--limit", "150", "--out", str(path))
    assert path.read_bytes() == first

    code, out1, _ = run_cli(capsys, "report", "--in", str(path), "--format", "csv")
    assert code == 0
    code, out2, _ = run_cli(capsys, "report", "--in", str(path), "--format", "csv")
    assert out1 == out2
    header = out1.splitlines()[1]
    assert header == "n,size,elements"


def test_timestamps_flag_breaks_nothing_but_fills_fields(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "1", "--elements", "1,3,8",
                           "--timestamps")
    assert code == 0
    manifest = records_of(out)[0]
    assert manifest["started"] is not None


def test_audit_seeded_quad(tmp_path, capsys):
    seed_path = tmp_path / "seed.jsonl"
    run_cli(capsys, "verify", "--n", "4", "--elements", "42,110,288,1331440",
            "--out", str(seed_path))
    code, out, _ = run_cli(capsys, "audit", "--seed-corpus", str(seed_path),
                           "--checks", "lemma5,corollary4")
    assert code == 0
    recs = records_of(out)
    gap = [r for r in recs if r["record"] == "gap_audit"]
    assert {r.get("lemma5_c_ratio") for r in gap} >= {"48/7"}
    assert {r.get("corollary_margin") for r in gap} >= {"6052/9"}
    assert recs[-1]["failures"] == 0
    assert recs[-1]["vacuous_gap_checks"] is False


def test_audit_of_a_constructed_corpus_where_every_lemma_applies(tmp_path, capsys):
    # Lemma 2 passes on the chain quadruples for n = 1, 4 and 9, and Lemma 5
    # and Corollary 4 on the four m (k - 1, k + 1, 4k, 16k^3 - 4k)
    corpus = tmp_path / "constructed.jsonl"
    corpus.write_text(corpus_text(), encoding="utf-8")
    code, out, _ = run_cli(capsys, "audit", "--seed-corpus", str(corpus))
    assert code == 0
    recs = records_of(out)
    summary = recs[-1]
    assert summary["record"] == "audit_summary"
    assert (summary["tuples"], summary["failures"]) == (7, 0)
    assert summary["vacuous_gap_checks"] is False
    assert summary["checked"] == {"lemma5": 4, "corollary4": 4, "lemma2": 7, "lemma3": 28}
    assert sorted(r["n"] for r in recs if r.get("verdict") == "pass") == [1, 4, 9]
    gap = [r for r in recs if r["record"] == "gap_audit"]
    assert len(gap) == 8
    assert all(v == "pass" for r in gap for v in r["verdicts"].values())
    assert sum(r["record"] == "witness" for r in recs) == 7 * 4  # every triple
    assert not any(r["record"] == "witness_missing" for r in recs)


def test_audit_verifies_each_tuple_record_once(tmp_path, capsys, monkeypatch):
    import dntuple.cli as cli
    import dntuple.serialize as serialize

    search_path = tmp_path / "s.jsonl"
    run_cli(capsys, "search", "--n", "1", "--limit", "200", "--min-size", "3",
            "--out", str(search_path))
    records = records_of(search_path.read_text(encoding="utf-8"))
    tuples = [r for r in records if r["record"] == "dtuple"]
    assert any(len(r["elements"]) == 4 for r in tuples)  # so quadruples are sliced
    calls = []

    def counted(elements, n):
        calls.append(tuple(elements))
        return verify(elements, n)

    monkeypatch.setattr(cli, "verify", counted)
    monkeypatch.setattr(serialize, "verify", counted)
    code, out, _ = run_cli(capsys, "audit", "--from-search", str(search_path))
    assert code == 0
    # the slices take their pair roots from the tuple verify() returned
    assert calls == [tuple(r["elements"]) for r in tuples]
    assert sum(r["record"] == "witness" for r in records_of(out)) == \
        sum(math.comb(len(r["elements"]), 3) for r in tuples)


def test_audit_witness_scan_bound_flag(tmp_path, capsys):
    seed_path = tmp_path / "seed.jsonl"
    run_cli(capsys, "verify", "--n", "1", "--elements", "1,3,8",
            "--out", str(seed_path))
    for argv in (["audit", "--seed-corpus", str(seed_path), "--checks", "lemma3"],
                 ["witness", "--n", "1", "--elements", "1,3,8"]):
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, "--e-scan-bound", "100"])
        assert exc_info.value.code == 2
    code, out, _ = run_cli(capsys, "audit", "--seed-corpus", str(seed_path),
                           "--checks", "lemma3")
    assert code == 0
    recs = records_of(out)
    assert any(r["record"] == "witness" and r["e"] == 0 for r in recs)


def test_audit_witness_miss_records_and_exits_one(tmp_path, capsys, monkeypatch):
    import dntuple.cli as cli
    from dntuple.audits import WitnessNotFoundError

    def miss(triple):
        raise WitnessNotFoundError(triple)

    seed_path = tmp_path / "seed.jsonl"
    run_cli(capsys, "verify", "--n", "1", "--elements", "1,3,8",
            "--out", str(seed_path))
    monkeypatch.setattr(cli, "find_witness_e", miss)
    code, out, _ = run_cli(capsys, "audit", "--seed-corpus", str(seed_path),
                           "--checks", "lemma3")
    assert code == 1
    recs = records_of(out)
    assert recs[1] == {"record": "witness_missing", "n": 1, "elements": [1, 3, 8]}
    assert recs[-1]["failures"] == 1
    code, _, err = run_cli(capsys, "witness", "--n", "1", "--elements", "1,3,8")
    assert code == 1
    assert err == "no witness e for (1, 3, 8) with n=1\n"


def test_report_csv_renders_a_witness_miss_as_a_lemma3_fail(tmp_path, capsys, monkeypatch):
    import dntuple.cli as cli
    from dntuple.audits import WitnessNotFoundError

    real = cli.find_witness_e

    def miss_on_1_3_8(triple):
        if triple.elements == (1, 3, 8):
            raise WitnessNotFoundError(triple)
        return real(triple)

    seed_path = tmp_path / "seed.jsonl"
    audit_path = tmp_path / "audit.jsonl"
    run_cli(capsys, "verify", "--n", "1", "--elements", "1,3,8,120", "--out", str(seed_path))
    monkeypatch.setattr(cli, "find_witness_e", miss_on_1_3_8)
    code, _, _ = run_cli(capsys, "audit", "--seed-corpus", str(seed_path),
                         "--checks", "lemma3", "--out", str(audit_path))
    assert code == 1
    code, out, err = run_cli(capsys, "report", "--in", str(audit_path), "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["n,elements,check,margin,verdict",
                                    "1,1+3+120,lemma3,,pass",
                                    "1,1+3+8,lemma3,,fail",
                                    "1,1+8+120,lemma3,,pass",
                                    "1,3+8+120,lemma3,,pass"]


def test_report_csv_renders_a_verification_failure_as_a_verify_fail(tmp_path, capsys):
    search_path = tmp_path / "search.jsonl"
    verify_path = tmp_path / "verify.jsonl"
    run_cli(capsys, "search", "--n", "1", "--limit", "16", "--out", str(search_path))
    text = search_path.read_text(encoding="utf-8")
    assert '"elements":[1,8,15]' in text
    search_path.write_text(text.replace('"elements":[1,8,15]', '"elements":[1,8,14]'),
                           encoding="utf-8")
    code, _, _ = run_cli(capsys, "verify", "--from-search", str(search_path),
                         "--out", str(verify_path))
    assert code == 1
    code, out, err = run_cli(capsys, "report", "--in", str(verify_path), "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["n,elements,check,margin,verdict",
                                    "1,1+3+8,verify,,pass",
                                    "1,1+8+14,verify,,fail",
                                    "1,2+4+12,verify,,pass",
                                    "1,3+5+16,verify,,pass"]


def test_report_csv_orders_hand_written_tuple_rows(tmp_path, capsys):
    # a search table sorts each tuple's elements and its rows by (n, elements
    # string); a verify table keeps the elements as listed, in numeric order
    path = tmp_path / "tuples.jsonl"
    records = ['{"record":"dtuple","n":1,"elements":[8,3,1]}',
               '{"record":"dtuple","n":1,"elements":[1,3,120,8]}',
               '{"record":"dtuple","n":-1,"elements":[2,1]}']
    path.write_text("\n".join(records) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "report", "--in", str(path), "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["n,size,elements", "-1,2,1+2", "1,3,1+3+8",
                                    "1,4,1+3+8+120"]
    records.append('{"record":"verification_failure","n":1,"elements":[10,2]}')
    path.write_text("\n".join(records) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "report", "--in", str(path), "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["n,elements,check,margin,verdict", "-1,2+1,verify,,pass",
                                    "1,1+3+120+8,verify,,pass", "1,8+3+1,verify,,pass",
                                    "1,10+2,verify,,fail"]


def test_bounds_grid_cli(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n-grid", "2,1000000",
                           "--eps-grid", "1,1/2")
    assert code == 0
    rows = [r for r in records_of(out) if r["record"] == "bound"]
    assert len(rows) == 4
    by_key = {(r["n"], r["epsilon"]): r for r in rows}
    assert by_key[(1000000, "1/1")]["k"] == 11
    assert by_key[(1000000, "1/2")]["ell"] == 17
    assert by_key[(1000000, "1/1")]["b_eps_bound"] == 11
    assert by_key[(2, "1/2")]["b_eps_bound"] == 3
    assert by_key[(2, "1/2")]["c_leading"] is None  # |n| <= 2 has no estimate


def test_bounds_csv_report(capsys, tmp_path):
    path = tmp_path / "bounds.jsonl"
    run_cli(capsys, "bounds", "--n-grid", "2,1000000", "--eps-grid", "1,1/2",
            "--out", str(path))
    code, out, _ = run_cli(capsys, "report", "--in", str(path), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# ")  # manifest comment survives conversion
    assert lines[1] == ("n,epsilon,k,ell,a_eps_bound,b_eps_bound,"
                        "c_leading,c_certified,m_leading,m_certified")
    assert len(lines) == 6
    assert lines[2].startswith("2,1/2,")


def test_bounds_theorem1_cli(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "1000000", "--theorem1")
    assert code == 0
    row = records_of(out)[1]
    assert (row["k"], row["ell"], row["a_eps_bound"], row["b_eps_bound"]) == (14, 18, 32, 4)
    assert row["m_certified"] is False
    code, _, err = run_cli(capsys, "bounds", "--n", "5", "--theorem1")
    assert code == 2 and "16" in err


GOLDEN = pathlib.Path(__file__).parent / "golden"


GOLDEN_BOUNDS = [
    # n = 1 and 2 carry the null b_eps_bound / c_leading / m_leading columns
    ("bounds_grid.jsonl", ["--n-grid", "1,2,3,-7,16,-20,1000000",
                           "--eps-grid", "1,1/2,1/10"]),
    ("bounds_theorem1.jsonl", ["--n-grid", "16,-20,1000000", "--theorem1"]),
]


@pytest.mark.parametrize("golden, argv", GOLDEN_BOUNDS)
def test_bounds_output_matches_golden_bytes(capsys, golden, argv):
    code, out, _ = run_cli(capsys, "bounds", *argv)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


# sha256 of the two bounds outputs that perfbench's report_pipeline digests:
# its 400 n (16 <= |n| <= 215) by five epsilons, and --theorem1 over the same
# n; recorded when the logarithms still came from mpmath
BENCH_GRID = ",".join(str(n) for k in range(16, 216) for n in (-k, k))


@pytest.mark.parametrize("argv, digest", [
    (["--eps-grid", "1,1/2,1/4,1/8,1/10"],
     "d6c77f9f61b6b09849dd3c140830cab1262ce4b94275f2e8e5247391b4614aed"),
    (["--theorem1"], "2a956636e88cd87ad629bf5085a7db64bddd7a10b6195c62b8947b71401db41f"),
])
def test_benchmark_bounds_outputs_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "bounds", f"--n-grid={BENCH_GRID}", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_bounds_requires_eps_without_theorem1(capsys):
    code, _, err = run_cli(capsys, "bounds", "--n", "7")
    assert code == 2
    assert "eps" in err


def test_search_cap_warns_on_stderr(capsys):
    code, out, err = run_cli(capsys, "search", "--n", "1", "--limit", "120",
                             "--min-size", "3", "--max-results", "2")
    assert code == 0
    assert "cap" in err
    recs = records_of(out)
    assert recs[-1]["result_cap_exceeded"] is True
    assert recs[-1]["tuples_found"] == 2


MALFORMED_DTUPLES = [
    b'{"record":"dtuple","n":1,"elements":[true,3]}',
    b'{"record":"dtuple","n":1,"elements":[1.0,3.0]}',
    b'{"record":"dtuple","n":1,"elements":"13"}',
    b'{"record":"dtuple","n":1}',
    b'{"record":"dtuple","n":true,"elements":[1,3]}',
    b'\xff',
]
# past Python's 4 300-digit int/str conversion limit, which json.loads hits
LONG_INT_DTUPLE = b'{"record":"dtuple","n":1,"elements":[1,' + b"9" * 5000 + b"]}"
MALFORMED_ROWS = [
    b'{"record":"bound","n":2}',
    b'{"record":"bound","n":2,"epsilon":"x","k":1,"ell":1,"a_eps_bound":2,"b_eps_bound":3}',
    b'{"record":"lemma2","n":1,"elements":[],"verdict":"pass"}',
    b'{"record":"bound","n":2,"epsilon":"1/0","k":1,"ell":1,"a_eps_bound":2,"b_eps_bound":3}',
]


@pytest.mark.parametrize("command, record", [
    *[(cmd, rec) for cmd in (["verify", "--from-search"], ["audit", "--from-search"])
      for rec in MALFORMED_DTUPLES],
    *[(["report", "--format", "csv", "--in"], rec) for rec in MALFORMED_ROWS],
    *[pytest.param(cmd, LONG_INT_DTUPLE, id=f"{cmd[0]}-5000-digit-element")
      for cmd in (["verify", "--from-search"], ["audit", "--from-search"],
                  ["report", "--format", "csv", "--in"])],
])
def test_malformed_record_exits_two(tmp_path, capsys, command, record):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(record + b"\n")
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# what canonical JSON never holds, though Python's json module reads it:
# constants that are not JSON, and nesting past the recursion limit
NON_JSON_LINES = {
    "nan": b'{"record":"dtuple","n":1,"elements":[1,3],"x":NaN}',
    "infinity": b'{"record":"search_summary","n":Infinity}',
    "minus-infinity": b'{"record":"dtuple","n":-Infinity,"elements":[1,3]}',
    "nested": b"[" * 200_000,
    "overflow": b'{"record":"dtuple","n":1,"elements":[1,3],"v":1e400}',
    "minus-overflow": b'{"record":"search_summary","n":-1e400}',
}


@pytest.mark.parametrize("command", [["report", "--format", "json-lines", "--in"],
                                     ["verify", "--from-search"]], ids=lambda c: c[0])
@pytest.mark.parametrize("line", NON_JSON_LINES.values(), ids=NON_JSON_LINES)
def test_non_json_line_exits_two(tmp_path, capsys, command, line):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(line + b"\n")
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1: not a JSON record: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["verify", "--from-search"], ["audit", "--from-search"]])
def test_from_search_refuses_a_file_without_search_records(tmp_path, capsys, command):
    bounds = tmp_path / "bounds.jsonl"
    assert run_cli(capsys, "bounds", "--n", "7", "--eps", "1", "--out", str(bounds))[0] == 0
    code, out, err = run_cli(capsys, *command, str(bounds))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

    # a real search output with no tuple in it is still a search output
    empty = tmp_path / "empty.jsonl"
    assert run_cli(capsys, "search", "--n", "-2", "--limit", "100", "--min-size", "4",
                   "--out", str(empty))[0] == 0
    assert '"tuples_found":0' in empty.read_text(encoding="utf-8")
    assert run_cli(capsys, *command, str(empty))[0] == 0


@pytest.mark.parametrize("corpus", ["bounds", "empty"])
def test_seed_corpus_refuses_a_file_without_tuples(tmp_path, capsys, corpus):
    path = tmp_path / "corpus.jsonl"
    if corpus == "bounds":
        assert run_cli(capsys, "bounds", "--n", "7", "--eps", "1", "--out", str(path))[0] == 0
    else:
        path.write_bytes(b"")
    code, out, err = run_cli(capsys, "audit", "--seed-corpus", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_report_csv_of_an_audit_with_only_its_summary(tmp_path, capsys):
    # no quadruple in a triple, so lemma5 never applies
    seed, audit = tmp_path / "seed.jsonl", tmp_path / "audit.jsonl"
    run_cli(capsys, "verify", "--n", "1", "--elements", "1,3,8", "--out", str(seed))
    assert run_cli(capsys, "audit", "--seed-corpus", str(seed), "--checks", "lemma5",
                   "--out", str(audit))[0] == 0
    assert [r["record"] for r in records_of(audit.read_text(encoding="utf-8"))] == \
        ["manifest", "audit_summary"]
    code, out, _ = run_cli(capsys, "report", "--in", str(audit), "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["n,elements,check,margin,verdict"]


def test_extend_window_above_cap_exits_two(capsys):
    code, out, err = run_cli(capsys, "extend", "--n", "1", "--elements", "1,3",
                             "--lo", "1", "--hi", str(10**38))
    assert code == 2
    assert out == ""
    assert err.startswith("error: window") and err.count("\n") == 1


def test_search_limit_above_cap_exits_two(capsys):
    code, out, err = run_cli(capsys, "search", "--n", "1", "--limit", "10000001")
    assert code == 2
    assert out == ""
    assert err.startswith("error: limit") and err.count("\n") == 1


@pytest.mark.parametrize("eps", ["1e-400", "1e-100000", "1e5000", "0"])
def test_bounds_epsilon_outside_range_exits_two(capsys, eps):
    for flag in ("--eps", "--eps-grid"):
        code, out, err = run_cli(capsys, "bounds", "--n", "5", flag, eps)
        assert code == 2
        assert out == ""
        assert err.startswith("error: epsilon") and err.count("\n") == 1


def test_verify_from_search_reports_non_square_tuple(tmp_path, capsys):
    path = tmp_path / "s.jsonl"
    path.write_text('{"record":"dtuple","n":1,"elements":[1,3,7]}\n', encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--from-search", str(path))
    assert code == 1
    assert records_of(out)[1]["record"] == "verification_failure"


def test_verify_from_search_refuses_tuple_flags(tmp_path, capsys):
    path = tmp_path / "s.jsonl"
    path.write_text('{"record":"dtuple","n":1,"elements":[1,3,8]}\n', encoding="utf-8")
    for extra in (["--n", "5"], ["--elements", "1,2"], ["--n", "5", "--elements", "1,2"]):
        code, out, err = run_cli(capsys, "verify", "--from-search", str(path), *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_unexpected_exception_exits_three(monkeypatch, capsys):
    import dntuple.cli as cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_bounds", boom)
    code, out, err = run_cli(capsys, "bounds", "--n", "7", "--eps", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: RuntimeError('boom') at test_cli.py:")
    assert err.count("\n") == 1


def test_failed_emission_leaves_no_partial_file(tmp_path, capsys):
    src = tmp_path / "b.jsonl"
    src.write_text('{"record":"bound","n":2,"epsilon":"1/1","k":"1,2","ell":16,'
                   '"a_eps_bound":27,"b_eps_bound":3}\n', encoding="utf-8")
    out = tmp_path / "b.csv"
    code, _, err = run_cli(capsys, "report", "--in", str(src), "--format", "csv",
                           "--out", str(out))
    assert code == 2 and "quoting" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.jsonl"]
    # an earlier artifact at the target survives a failed rerun untouched
    out.write_text("kept\n", encoding="utf-8")
    run_cli(capsys, "report", "--in", str(src), "--format", "csv", "--out", str(out))
    assert out.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv", "b.jsonl"]


def test_out_file_has_plain_open_mode(tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.open("w").close()
    out = tmp_path / "v.jsonl"
    assert run_cli(capsys, "verify", "--n", "1", "--elements", "1,3",
                   "--out", str(out))[0] == 0
    assert out.stat().st_mode == plain.stat().st_mode


def test_public_names_resolve_and_are_documented():
    import dntuple

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert set(dntuple.__all__) <= set(dir(dntuple))
    for name in dntuple.__all__:
        assert hasattr(dntuple, name), name
        assert f"`{name}`" in readme, name
    assert dntuple.__version__ == dntuple.ARTIFACT_VERSION == ARTIFACT_VERSION
    assert dntuple.SearchConfig is SearchConfig
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dntuple.no_such_name


def test_console_entry_point():
    # pytest's own pythonpath setting does not reach a child interpreter
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "dntuple.cli", "verify", "--n", "1",
         "--elements", "1,3,8,120"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert '"record":"dtuple"' in proc.stdout


def test_cli_import_leaves_out_process_pools():
    # the search forks its workers itself; a pool module would add to the
    # start-up time of every command
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dntuple.cli; print(sorted(set(sys.modules) & "
         "{'multiprocessing', 'concurrent.futures', 'pickle', 'selectors', 'signal'}))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_mpmath():
    # the bounds take their logarithms from exact.ln_bracket; the package has
    # no runtime dependency
    banned = re.compile(r"^\s*(?:import|from)\s+mpmath\b", re.MULTILINE)
    src = pathlib.Path(__file__).parents[1] / "src" / "dntuple"
    found = [path.name for path in sorted(src.rglob("*.py"))
             if banned.search(path.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("golden, argv", GOLDEN_BOUNDS)
def test_bounds_run_on_the_standard_library_alone(golden, argv):
    # with mpmath made unimportable, bounds still writes its golden bytes, and
    # every module it loaded is in the standard library or in dntuple
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys; sys.modules['mpmath'] = None; before = set(sys.modules)\n"
        "from dntuple.cli import main\n"
        f"code = main(['bounds', *{argv!r}])\n"
        "sys.stdout.flush()\n"
        "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(tops - set(sys.stdlib_module_names) - {'dntuple'}), file=sys.stderr)\n"
        "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_bytes()
    assert proc.stderr.decode().strip() == "[]"


def _modules_after(statement: str) -> set[str]:
    # the modules a fresh interpreter holds after statement, beyond its start-up ones
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; before = set(sys.modules); " + statement
         + "; print(' '.join(sorted(set(sys.modules) - before)))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_package_import_loads_no_module():
    # every public name is imported on first use
    assert {m for m in _modules_after("import dntuple") if m.startswith("dntuple.")} == set()


def test_search_import_loads_only_its_modules():
    loaded = _modules_after("import dntuple.search")
    assert {m for m in loaded if m.startswith("dntuple")} == {
        "dntuple", "dntuple.search", "dntuple.tuples", "dntuple.residues", "dntuple.exact",
        "dntuple.workers"}
    assert loaded & {"dataclasses", "inspect", "fractions", "decimal", "json"} == set()


def test_cli_import_leaves_out_dataclasses():
    assert _modules_after("import dntuple.cli") & {"dataclasses", "inspect"} == set()


def test_no_module_imports_dataclasses():
    # records are NamedTuples; dataclasses (and inspect with it) would load on every start
    banned = re.compile(r"^\s*(?:import|from)\s+dataclasses\b", re.MULTILINE)
    src = pathlib.Path(__file__).parents[1] / "src" / "dntuple"
    found = [path.name for path in sorted(src.rglob("*.py"))
             if banned.search(path.read_text(encoding="utf-8"))]
    assert found == []


# serialization internals


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_fraction_str_always_carries_denominator():
    assert fraction_str(Fraction(48, 7)) == "48/7"
    assert fraction_str(Fraction(4)) == "4/1"
    assert fraction_str(Fraction(388, 100)) == "97/25"  # reduced


def test_tuple_round_trip_reverifies():
    t = verify((1, 3, 8, 120), 1)
    assert isinstance(t, DTuple)
    obj = tuple_to_obj(t)
    back = tuple_from_obj(json.loads(canonical_json(obj)))
    assert back == t
    tampered = dict(obj)
    tampered["elements"] = [1, 3, 7]
    with pytest.raises(InputError):
        tuple_from_obj(tampered)
    with pytest.raises(InputError):
        tuple_from_obj({"record": "dtuple"})


def test_read_jsonl_rejects_garbage():
    with pytest.raises(InputError):
        list(read_jsonl(io.StringIO("{not json}\n")))
    with pytest.raises(InputError):
        list(read_jsonl(io.StringIO('"a bare string"\n')))
    with pytest.raises(InputError, match="record tag"):
        list(read_jsonl(io.StringIO('{"record":["dtuple"]}\n')))
    assert list(read_jsonl(io.StringIO("\n# comment\n"))) == []


def test_read_jsonl_refuses_nesting_past_its_cap():
    def line(depth):  # the object itself is the first level
        return '{"v":' + "[" * (depth - 1) + "]" * (depth - 1) + "}\n"

    assert list(read_jsonl(io.StringIO(line(16))))
    with pytest.raises(InputError, match="nests deeper"):
        list(read_jsonl(io.StringIO(line(17))))


def test_report_refuses_nesting_that_could_not_be_written_back(tmp_path, capsys):
    # a value nested just short of the recursion limit decodes, yet encoding
    # it again recurses as deep with more frames below; sweep that band
    path = tmp_path / "deep.jsonl"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 200, limit + 1):
        path.write_text('{"record":"x","v":' + "[" * depth + "]" * depth + "}\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "report", "--in", str(path), "--format", "json-lines")
        assert (code, out) == (2, ""), err
        assert err.startswith("error: line 1: ")


def test_canonical_json_refuses_non_finite_floats():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            canonical_json({"v": value})


def test_render_csv_empty_is_header_only():
    header, rows = render_csv([])
    assert header == ("n", "size", "elements")
    assert rows == []
    buf = io.StringIO()
    write_csv(buf, header, rows)
    assert buf.getvalue() == "n,size,elements\n"


def test_render_csv_rejects_mixed_kinds():
    with pytest.raises(InputError):
        render_csv([{"record": "dtuple", "n": 1, "elements": [1, 3]},
                    {"record": "bound"}])


def test_write_csv_refuses_cells_needing_quotes():
    buf = io.StringIO()
    with pytest.raises(ValueError):
        write_csv(buf, ("a",), [("x,y",)])


# fuzzing the record readers: valid lines mixed with malformed ones

def _strict_float(token: str) -> float:  # also sees NaN and Infinity tokens
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token!r}")
    return value


STRICT_DECODER = json.JSONDecoder(parse_constant=_strict_float, parse_float=_strict_float)

VALID_LINES = [
    b'{"record":"dtuple","n":1,"elements":[1,3,8,120],'
    b'"witnesses":[[1,3,2],[1,8,3],[1,120,11],[3,8,5],[3,120,19],[8,120,31]]}',
    b'{"record":"dtuple","n":4,"elements":[42,110,288]}',
    b'{"record":"dtuple","n":1,"elements":[1,3,7]}',
    b'{"record":"search_summary","n":1,"limit":200,"min_report_size":3,"max_results":null,'
    b'"tuples_found":1,"empirical_max_size":4,"nodes_visited":9,"candidates_tested":9,'
    b'"result_cap_exceeded":false}',
    b'{"record":"witness","n":1,"elements":[1,3,8],"e":0,"x":1,"y":1,"z":1,"sign_x":1,"sign_y":1}',
    b'{"record":"lemma2","n":4,"elements":[42,110,288,1331440],"verdict":"not_applicable"}',
    b'{"record":"bound","n":16,"epsilon":"1/2","k":4,"ell":5,"a_eps_bound":6,"b_eps_bound":7}',
    b"# a comment",
    b"",
]

_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.text(max_size=8))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


def _is_utf8(blob: bytes) -> bool:
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _field(key: str, value: bytes) -> bytes:
    return b'{"record":"dtuple","n":1,"elements":[1,3],"' + key.encode() + b'":' + value + b"}"


MALFORMED_LINES = st.one_of(
    # floats that overflow to an infinity, and the non-JSON constants
    st.builds(lambda sign, exp: _field("v", b"%s1e%d" % (sign, exp)),
              st.sampled_from((b"", b"-")), st.integers(309, 10**6)),
    st.builds(lambda key, tok: _field(key, tok), st.sampled_from(("n", "v")),
              st.sampled_from((b"NaN", b"Infinity", b"-Infinity"))),
    # ints past the 4 300-digit conversion limit
    st.builds(lambda key, k: _field(key, b"7" * k), st.sampled_from(("n", "v")),
              st.integers(4301, 6000)),
    # nesting up to and past the recursion limit, bare or inside a field
    st.builds(lambda d, bare: b"[" * d + b"]" * d if bare else _field("v", b"[" * d + b"]" * d),
              st.integers(1, 3 * sys.getrecursionlimit()), st.booleans()),
    # bytes that are not UTF-8
    st.builds(lambda junk, line: line + junk, st.binary(min_size=1, max_size=4).filter(
        lambda b: not _is_utf8(b)), st.sampled_from(VALID_LINES)),
    # wrong field types in otherwise well-formed records
    st.builds(lambda kind, key, value: json.dumps(
        {**json.loads(VALID_LINES[kind]), key: value}).encode(),
        st.sampled_from(range(7)),
        st.sampled_from(("record", "n", "elements", "witnesses", "verdict", "epsilon", "k")),
        _JSON_VALUES),
)


@pytest.mark.parametrize("command", [["report", "--format", "json-lines", "--in"],
                                     ["report", "--format", "csv", "--in"],
                                     ["verify", "--from-search"],
                                     ["audit", "--from-search"]], ids=lambda c: c[-2])
@given(lines=st.lists(st.one_of(st.sampled_from(VALID_LINES), MALFORMED_LINES),
                      min_size=1, max_size=5))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_record_files_never_crash(tmp_path, command, lines):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, str(path)])
    assert code in (0, 1, 2), err.getvalue()
    assert "internal error" not in err.getvalue()
    if code == 2:  # a refused file prints nothing, however late its fault
        assert out.getvalue() == ""
    if command[-2] != "csv":
        for line in out.getvalue().splitlines():
            assert isinstance(STRICT_DECODER.decode(line), dict)


# fuzzing the search's argv: valid and invalid values of every flag, valid
# limits small enough that each example runs in well under a second

_HUGE_INT_TEXT = st.builds(lambda sign, k: sign + "9" * k, st.sampled_from(("", "-")),
                           st.integers(4290, 4310))  # around the 4 300-digit limit
_NOT_INT_TEXT = st.sampled_from(("", "x", "1.5", "1e3", "0x10", "nan", "--limit"))


def _flag(valid, *invalid):  # three draws in four valid
    invalid = st.one_of(*invalid, _HUGE_INT_TEXT, _NOT_INT_TEXT)
    return st.integers(0, 3).flatmap(lambda k: valid.map(str) if k else invalid)


SEARCH_FLAGS = {
    "--n": _flag(st.one_of(st.integers(-30, 30), st.builds(lambda sign, k: sign * 10**k,
                                                         st.sampled_from((1, -1)),
                                                         st.integers(1, 4299))),
                 st.just("0")),
    "--limit": _flag(st.integers(1, 2000), st.integers(-3, 0).map(str),
                     st.integers(MAX_LIMIT + 1, 10**12).map(str)),
    "--min-size": _flag(st.integers(1, 6), st.integers(-1, 0).map(str)),
    "--max-results": _flag(st.integers(1, 50), st.integers(-1, 0).map(str)),
}


def _run_fuzzed(argv, budget):
    """main(argv)'s exit code and stdout, checked as every fuzzed argv must be.

    It ends within budget seconds with exit 0, 1 or 2, never an internal
    error, and prints nothing on exit 2.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    assert time.perf_counter() - start < budget
    assert code in (0, 1, 2), err.getvalue()
    assert "internal error" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    return code, out.getvalue()


@given(flags=st.fixed_dictionaries({k: SEARCH_FLAGS[k] for k in ("--n", "--limit")},
                                   optional={k: SEARCH_FLAGS[k] for k in ("--min-size",
                                                                          "--max-results")}),
       dropped=st.sampled_from((None, None, None, "--n", "--limit")))
@settings(max_examples=200, deadline=None)
def test_fuzzed_search_argv_never_crashes(flags, dropped):
    flags.pop(dropped, None)
    argv = ["search", *(part for flag, value in flags.items() for part in (flag, value))]
    code, out = _run_fuzzed(argv, 10)  # the budget; the slowest takes about 0.5 s
    if code != 2:
        assert json.loads(out.splitlines()[-1])["record"] == "search_summary"


# fuzzing the bounds' argv: one n or a grid of them, with one epsilon, a
# grid of them or --theorem1. The n include 0, +-1, duplicates and ints
# near the 4 300-digit limit; the epsilons include malformed rationals and
# values just outside [2^-1024, 1]

_BOUNDS_N = st.one_of(st.integers(-300, -1), st.integers(1, 300),
                     st.builds(lambda sign, k: sign * 10**k, st.sampled_from((1, -1)),
                               st.integers(1, 4299)))
_EPSILON = st.one_of(st.sampled_from(("1", "1/2", "2/4", "0.5", "1/10", "0.001", "3/7")),
                     st.integers(1, 2**64).map(lambda q: f"1/{q}"), st.just(f"1/{2**1024}"))
_BAD_EPSILON = st.sampled_from(("0", "2", "-1/2", "1/0", "1e-3", "1/3/4", " 1", "1.", ".5",
                                f"1/{2**1024 + 1}", "0." + "0" * 400 + "1"))


def _grid(valid, *invalid, longest):
    # two grids in three all valid; the rest hold one bad entry among valid ones
    items = st.integers(1, longest).flatmap(
        lambda size: st.lists(valid.map(str), min_size=size, max_size=size))
    bad = st.one_of(*invalid, _HUGE_INT_TEXT, _NOT_INT_TEXT)
    spoiled = st.builds(lambda good, at, entry: good[:at] + [entry] + good[at:],
                        items, st.integers(0, longest), bad)
    return st.one_of(items, items, spoiled).map(",".join)


@given(n=st.one_of(st.tuples(st.just("--n"), _flag(_BOUNDS_N, st.just("0"))),
                   st.tuples(st.just("--n-grid"), _grid(_BOUNDS_N, st.just("0"), longest=60)),
                   st.just(None)),
       eps=st.one_of(st.tuples(st.just("--eps"), _flag(_EPSILON, _BAD_EPSILON)),
                     st.tuples(st.just("--eps-grid"), _grid(_EPSILON, _BAD_EPSILON, longest=30)),
                     st.just(("--theorem1", None)), st.just(None)),
       both=st.sampled_from((False,) * 5 + (True,)))
@settings(max_examples=100, deadline=None)
def test_fuzzed_bounds_argv_never_crashes(n, eps, both):
    argv = ["bounds", *(flag if value is None else f"{flag}={value}"
                        for flag, value in filter(None, (n, eps)))]
    if both and eps is not None and eps[0] != "--theorem1":
        argv.append("--theorem1")  # two of the exclusive epsilon flags
    code, out = _run_fuzzed(argv, 5)  # the budget; the slowest takes under 0.1 s
    if code == 2:
        return
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()[1:]]
    ns = {int(v) for v in n[1].split(",")}
    epsilons = {parse_epsilon(v) for v in eps[1].split(",")} if eps[1] else {None}
    assert len(rows) == len(ns) * len(epsilons)
    assert [row["n"] for row in rows] == sorted(v for v in ns for _ in epsilons)


# fuzzing the argv of the commands that take a tuple: --elements lists
# long and short, of 2 to 4 members of a known tuple or of drawn integers,
# and --lo/--hi windows on both sides of MAX_WINDOW_STEPS, patched down so
# that the widest accepted window stays fast

_KNOWN_TUPLES = [(1, (1, 3, 8, 120)), (4, (42, 110, 288, 1331440)), (-1, (1, 2, 5)),
                 *((q.n, q.elements) for q in constructed_quadruples())]
_ELEMENT = st.one_of(st.integers(1, 10**6), st.builds(lambda k: 10**k, st.integers(1, 4299)))
# 2, 3 or 4 members of a known tuple, in any order, so most draws verify
_KNOWN_FLAGS = st.builds(lambda t, k, order: (str(t[0]), ",".join(
    [str(t[1][i]) for i in order if i < len(t[1])][:k])),
    st.sampled_from(_KNOWN_TUPLES), st.sampled_from((2, 3, 3, 4)), st.permutations(range(4)))
_TUPLE_FLAGS = st.one_of(
    _KNOWN_FLAGS, _KNOWN_FLAGS, _KNOWN_FLAGS,
    st.tuples(SEARCH_FLAGS["--n"],
              _grid(_ELEMENT, st.just("0"), st.just("-7"), st.just("3,3"), longest=80)))
_WINDOW_CAP = 100  # square roots
# the square roots of a*d + n run to isqrt(a*hi + n), so for a = 1 and lo
# near 1, hi = (cap + t)^2 puts the window t square roots from the cap
_WINDOW_END = st.integers(0, 7).flatmap(lambda k: st.integers(-10, 10**k))
_WINDOW_LO = _flag(st.one_of(st.integers(-10, 10), _WINDOW_END), st.just(str(10**40)))
_WINDOW_HI = _flag(st.one_of(st.integers(-3, 3).map(lambda t: (_WINDOW_CAP + t) ** 2),
                             _WINDOW_END), st.just(str(10**40)))


@pytest.mark.parametrize("command", ["verify", "extend", "witness"])
@given(tuple_flags=_TUPLE_FLAGS, lo=_WINDOW_LO, hi=_WINDOW_HI,
       dropped=st.sampled_from((None,) * 12 + ("--n", "--elements", "--lo")))
@settings(max_examples=100, deadline=None)
def test_fuzzed_tuple_argv_never_crashes(command, tuple_flags, lo, hi, dropped):
    flags = dict(zip(("--n", "--elements"), tuple_flags))
    if command == "extend":
        flags.update({"--lo": lo, "--hi": hi})
    flags.pop(dropped, None)
    argv = [command, *(f"{flag}={value}" for flag, value in flags.items())]
    with mock.patch("dntuple.tuples.MAX_WINDOW_STEPS", _WINDOW_CAP):
        code, out = _run_fuzzed(argv, 5)  # the budget; the slowest takes under 0.1 s
    if code == 2:
        return
    rec = json.loads(out.splitlines()[1])
    if code == 1:
        assert rec["record"] == "verification_failure"
    elif command == "extend":
        assert all(max(int(lo), 1) <= d <= int(hi) for d in rec["extensions"])
    else:
        assert rec["record"] == {"verify": "dtuple", "witness": "witness"}[command]


# fuzzing the argv of the commands that read a record file: each of the
# pipeline's outputs, a constructed seed corpus or a path that does not
# exist, verify's two modes mixed, and --checks lists empty, unknown or
# repeated

_CHECKS_FLAG = st.one_of(st.just(","), st.lists(
    st.sampled_from(("lemma5", "corollary4", "lemma2", "lemma3", "lemma9", "", " ")),
    max_size=6).map(",".join))


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("records")
    paths = {kind: str(root / f"{kind}.jsonl") for kind in ("search", "verify", "audit", "bounds")}
    for argv in (["search", "--n", "4", "--limit", "300"],
                 ["verify", "--from-search", paths["search"]],
                 ["audit", "--from-search", paths["search"]],
                 ["bounds", "--n-grid", "16,-20", "--eps-grid", "1,1/3"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", paths[argv[0]]]) == 0
    (root / "corpus.jsonl").write_text(corpus_text(), encoding="utf-8")
    paths.update(corpus=str(root / "corpus.jsonl"), missing=str(root / "missing.jsonl"))
    return paths


_RECORD_ARGV = dict(
    data=st.data(), command=st.sampled_from(("verify", "audit", "report")),
    files=st.lists(st.sampled_from(("search", "search", "verify", "audit", "bounds",
                                    "corpus", "corpus", "missing")), min_size=2, max_size=2),
    count=st.sampled_from((1,) * 6 + (0, 2)))


@given(**_RECORD_ARGV)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_record_argv_never_crashes(record_files, data, command, files, count):
    _fuzz_record_argv(record_files, data, command, files, count)


@given(**_RECORD_ARGV)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_record_argv_never_crashes_forked(record_files, monkeypatch, data, command,
                                                 files, count):
    # every file, however small, reaches the block reader in forked workers
    force_record_workers(monkeypatch, 2)
    _fuzz_record_argv(record_files, data, command, files, count)


def _fuzz_record_argv(record_files, data, command, files, count):
    sources = {"verify": ("--from-search",), "audit": ("--from-search", "--seed-corpus"),
               "report": ("--in",)}[command]
    # one source mostly, none or both now and then, each reading one of the files
    flags = {flag: record_files[kind]
             for flag, kind in zip(data.draw(st.permutations(sources)), files[:count])}
    if command == "verify" and data.draw(st.integers(0, 2 if count else 0)) == 0:
        # the tuple mode, or now and then both modes
        flags.update(zip(("--n", "--elements"), data.draw(_TUPLE_FLAGS)))
    if command == "audit" and data.draw(st.booleans()):
        flags["--checks"] = data.draw(_CHECKS_FLAG)
    if command == "report":
        flags["--format"] = data.draw(st.sampled_from(("csv", "json-lines", "xml")))
    argv = [command, *(f"{flag}={value}" for flag, value in flags.items())]
    code, out = _run_fuzzed(argv, 5)  # the budget; the slowest takes under 0.2 s
    if code != 2:
        assert out.startswith("# {" if flags.get("--format") == "csv" else '{"artifact_version"')


# the one parser of epsilon strings, for --eps, --eps-grid and bound records

def test_parse_epsilon_takes_integers_fractions_and_plain_decimals():
    assert parse_epsilon("1") == 1
    assert parse_epsilon("3/6") == Fraction(1, 2)
    assert parse_epsilon("0.125") == Fraction(1, 8)
    assert parse_epsilon("-1/2") == Fraction(-1, 2)  # the range is bounds' to check
    for bad in ("1e-5", "1E5", "1/2e3", "1_000", " 1/2", "1/2 ", "1.", ".5", "0x10", "inf",
                "nan", "", "1/-2", "\u0661", "9" * 5000, "0." + "0" * 5000 + "1", 1, None):
        with pytest.raises(InputError, match="^epsilon"):
            parse_epsilon(bad)
    with pytest.raises(InputError, match="zero denominator"):
        parse_epsilon("1/0")


def test_epsilon_exponent_forms_exit_two_at_once(tmp_path, capsys):
    # Fraction() alone spends seconds to minutes building these powers of ten
    for flag in ("--eps", "--eps-grid"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bounds", "--n", "5", flag, "1e-999999999")
        assert (code, out) == (2, "")
        assert err.startswith("error: epsilon") and err.count("\n") == 1
        assert time.perf_counter() - start < 0.5
    path = tmp_path / "b.jsonl"
    path.write_text('{"record":"bound","n":2,"epsilon":"1e99999999","k":1,"ell":1,'
                    '"a_eps_bound":2,"b_eps_bound":3}\n', encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "report", "--in", str(path), "--format", "csv")
    assert (code, out) == (2, "")
    assert err.startswith("error: epsilon") and err.count("\n") == 1
    assert time.perf_counter() - start < 0.5


def test_bounds_reads_a_plain_decimal_epsilon(capsys):
    code, decimal, _ = run_cli(capsys, "bounds", "--n", "7", "--eps-grid", "0.5,1")
    assert code == 0
    assert run_cli(capsys, "bounds", "--n", "7", "--eps-grid", "1/2,1/1")[1] == decimal


# records are read one at a time: a fault is found when its line is reached

RECORD_COMMANDS = [["verify", "--from-search"], ["audit", "--from-search"],
                   ["report", "--format", "csv", "--in"],
                   ["report", "--format", "json-lines", "--in"]]


@pytest.mark.parametrize("command", RECORD_COMMANDS, ids=lambda c: c[-2])
def test_a_fault_on_the_last_line_leaves_no_output(tmp_path, capsys, command):
    search = tmp_path / "search.jsonl"
    assert run_cli(capsys, "search", "--n", "1", "--limit", "200", "--min-size", "3",
                   "--out", str(search))[0] == 0
    assert run_cli(capsys, *command, str(search))[0] == 0
    lines = search.read_text(encoding="utf-8").count("\n")
    with search.open("a", encoding="utf-8") as fh:
        fh.write('{"record":"dtuple","n":1,"elements":[1,3],"v":NaN}\n')
    code, out, err = run_cli(capsys, *command, str(search))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {lines + 1}: not a JSON record")
    # an earlier output at the --out target survives byte for byte
    target = tmp_path / "out"
    target.write_bytes(b"earlier\n")
    code, out, err = run_cli(capsys, *command, str(search), "--out", str(target))
    assert (code, out) == (2, "")
    assert target.read_bytes() == b"earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "search.jsonl"]


@pytest.mark.parametrize("command, earlier", [
    (["verify", "--from-search"], False),  # a failed tuple is a finding there, not a fault
    (["audit", "--from-search"], True),
    (["report", "--format", "csv", "--in"], True),  # a search table refuses one
    (["report", "--format", "json-lines", "--in"], False),  # re-emits records unchecked
], ids=lambda c: c[-2] if isinstance(c, list) else None)
def test_the_first_fault_in_file_order_is_reported(tmp_path, capsys, command, earlier):
    path = tmp_path / "search.jsonl"
    path.write_text('{"record":"dtuple","n":1,"elements":[1,3,7]}\n'
                    '{"record":"dtuple","n":1,"elements":[1,3,8]}\n'
                    "not json\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    if earlier:  # line 1's tuple, although line 3 is not JSON
        assert err == ("error: stored tuple fails verification: "
                       "1*7+1 = 8 is not a perfect square\n")
    else:
        assert err.startswith("error: line 3: not a JSON record")


@pytest.mark.parametrize("command", RECORD_COMMANDS, ids=lambda c: c[-2])
def test_a_line_that_is_not_utf8_is_a_fault_of_that_line(tmp_path, capsys, command):
    # each line is decoded as it is read, so a later fault does not win
    path = tmp_path / "search.jsonl"
    path.write_bytes(b'{"record":"dtuple","n":1,"elements":[1,3,8]}\n'
                     b'{"record":"dtuple","n":1,"elements":[1,3]}\xff\n')
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: input is not UTF-8: ") and err.count("\n") == 1
    path.write_bytes(b"not json\n\xff\n")
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1: not a JSON record")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_record_commands_read_a_pipe(tmp_path, capsys):
    # each command reads its input once, so a pipe serves as well as a file
    search = tmp_path / "search.jsonl"
    assert run_cli(capsys, "search", "--n", "1", "--limit", "200", "--min-size", "3",
                   "--out", str(search))[0] == 0
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for command in RECORD_COMMANDS:
        code, out, _ = run_cli(capsys, *command, str(search))
        proc = subprocess.run([sys.executable, "-m", "dntuple.cli", *command, "/dev/stdin"],
                              input=search.read_bytes(), capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (code, b""), command
        # past the manifest line, whose parameters name the input
        assert proc.stdout.decode().split("\n", 1)[1] == out.split("\n", 1)[1], command


def test_only_newline_ends_a_record_line(tmp_path, capsys):
    # JSON takes U+2028 and U+0085 raw in a string; str.splitlines() would
    # split the record there, and a "\r\n" ending is stripped as before
    path = tmp_path / "x.jsonl"
    path.write_bytes('{"record":"x","v":"a\u2028b\x85c"}\r\n{"record":"y"}'.encode("utf-8"))
    code, out, err = run_cli(capsys, "report", "--in", str(path), "--format", "json-lines")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ['{"record":"x","v":"a\\u2028b\\u0085c"}', '{"record":"y"}']


def test_record_commands_hold_one_record_at_a_time(tmp_path, capsys):
    # The traced peak of each command grows with the file by its bytes, read
    # whole for the manifest's digest and decoded one line at a time, plus,
    # for a CSV, one short row source per record. Measured with CPython 3.11
    # on files of 500 and 2 000 records of about 106 bytes: verify 117, audit
    # 98 to 181, report csv 184 and json-lines 100 bytes per record. Holding
    # the decoded text beside the bytes read 208 to 284, and the CSV rows
    # beside their sources 395 to 462; holding every record as objects read
    # 1 571 to 1 888.
    bound = 280
    report = search_maximal(SearchConfig(n=4, limit=2000, min_report_size=3))
    lines = [canonical_json(tuple_to_obj(t)) + "\n" for t in report.maximal_tuples]
    paths = {}
    for count in (50, 500, 2000):
        paths[count] = tmp_path / f"{count}.jsonl"
        paths[count].write_text("".join(lines[i % len(lines)] for i in range(count)),
                                encoding="utf-8")
    out = str(tmp_path / "out")

    def peak(command, count):
        tracemalloc.start()
        try:
            code = main([*command, str(paths[count]), "--out", out])
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return traced

    for command in RECORD_COMMANDS:
        peak(command, 50)  # first calls fill caches that are not per record
        growth = (peak(command, 2000) - peak(command, 500)) / 1500
        assert growth < bound, (command, growth)


def test_search_holds_one_block_of_tuples(tmp_path):
    # The traced peak of search --out for n = 9, in one process, grows with
    # the sieve and the pair graph, not with the tuples, which are written
    # as their block is read. Measured with CPython 3.11 at limits 600 and
    # 2 000 (699 and 3 031 tuples): 30 bytes per tuple. Collecting every
    # DTuple with its witnesses before writing read 640 to 670.
    out = str(tmp_path / "s.jsonl")

    def peak(limit):
        tracemalloc.start()
        try:
            code = main(["search", "--n", "9", "--limit", str(limit), "--out", out])
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            return traced, sum('"record":"dtuple"' in line for line in fh)

    peak(200)  # first calls fill caches that are not per tuple
    (small, few), (large, many) = peak(600), peak(2000)
    assert many > 4 * few
    assert (large - small) / (many - few) < 200


# verify --from-search and audit fork over blocks of whole lines


def force_record_workers(monkeypatch, jobs):
    """Fork the record commands over jobs workers, whatever the size of their input."""
    monkeypatch.setattr(cli, "FORK_MIN_BYTES", 0)
    monkeypatch.setattr(workers, "usable_cpus", lambda: jobs)


def spy_record_forks(monkeypatch):
    """The (jobs, blocks) of each fork_map the record commands make."""
    calls = []
    fork_map = cli.fork_map

    def spy(fn, blocks, jobs):
        calls.append((jobs, len(blocks)))
        return fork_map(fn, blocks, jobs)

    monkeypatch.setattr(cli, "fork_map", spy)
    return calls


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def record_inputs(tmp_path_factory):
    # a search output of 1 337 lines and a seed corpus of quadruples
    root = tmp_path_factory.mktemp("inputs")
    search = root / "search.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["search", "--n", "4", "--limit", "1000", "--out", str(search)]) == 0
    assert search.read_text(encoding="utf-8").count("\n") == 1337
    corpus = root / "corpus.jsonl"
    corpus.write_text(corpus_text() * 3, encoding="utf-8")
    return {"--from-search": search, "--seed-corpus": corpus}


FORKED_COMMANDS = [["verify", "--from-search"], ["audit", "--from-search"],
                   ["audit", "--seed-corpus"]]


def test_line_blocks_cut_after_newlines_only():
    blob = "a\nbb\r\x85\u2028\n\n\u2028\nlast".encode()
    for count in range(1, 12):
        blocks = line_blocks(blob, count)
        assert blocks[0][0] == 0 and blocks[-1][1] == len(blob)
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(blob[hi - 1:hi] == b"\n" for _lo, hi in blocks[:-1])
        assert len(blocks) <= min(count, 5)
        # the blocks, each decoded on its own, hold the whole file's lines
        lines = [line for lo, hi in blocks for line in utf8_lines(blob[lo:hi])]
        assert lines == list(utf8_lines(blob))
    assert line_blocks(b"", 4) == []
    assert line_blocks(b"one line, no end", 4) == [(0, 16)]
    assert line_blocks(b"\n" * 100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]


def test_readers_number_lines_from_the_first_line_given():
    with pytest.raises(InputError, match="^line 41: input is not UTF-8"):
        list(utf8_lines(b"{}\n\xff\n", 40))
    with pytest.raises(InputError, match="^line 12: not a JSON record"):
        list(read_jsonl(["{}\n", "# c\n", "[\n"], 10))


@pytest.mark.parametrize("command", FORKED_COMMANDS, ids=lambda c: "-".join(c))
def test_forked_record_commands_write_the_same_bytes(tmp_path, capsys, monkeypatch,
                                                     record_inputs, command):
    path = str(record_inputs[command[1]])
    single = run_cli(capsys, *command, path)  # below the floor: one process
    assert single[0] == 0
    calls = spy_record_forks(monkeypatch)
    for jobs in (1, 2, 3):
        force_record_workers(monkeypatch, jobs)
        assert run_cli(capsys, *command, path) == single
        out = tmp_path / f"out{jobs}"
        assert run_cli(capsys, *command, path, "--out", str(out)) == (0, "", "")
        assert out.read_text(encoding="utf-8") == single[1]
        no_child_left()
    # more blocks than workers, so each worker's stripe holds several
    assert [jobs for jobs, _ in calls] == [1, 1, 2, 2, 3, 3]
    assert all(blocks > 2 * jobs for jobs, blocks in calls)


def _fault(kind: str, command: str, line_no: int) -> tuple[bytes, str]:
    """A line that makes command exit 2, of one kind, and the start of its error."""
    if kind == "malformed":
        return (b'{"record":"dtuple","n":4,"elements":[5,12,',
                f"error: line {line_no}: not a JSON record: ")
    if kind == "non-utf8":
        return (b'{"record":"dtuple","n":4,"elements":[5,12]}\xff',
                f"error: line {line_no}: input is not UTF-8: ")
    # a tampered tuple: for audit one that fails verification; verify
    # reports such a tuple as a finding, so there an element is not an int
    if command == "audit":
        return (b'{"record":"dtuple","n":4,"elements":[5,12,22]}',
                "error: stored tuple fails verification: 5*22+4 = 114 is not a perfect square\n")
    return (b'{"record":"dtuple","n":4,"elements":[5,12,21.0]}',
            "error: element 21.0 is not an integer\n")


FAULT_KINDS = ["malformed", "non-utf8", "tampered"]


@pytest.mark.parametrize("command", ["verify", "audit"])
@pytest.mark.parametrize("late", FAULT_KINDS)
def test_forked_record_commands_report_the_first_fault_in_file_order(
        tmp_path, capsys, monkeypatch, record_inputs, command, late):
    # the late fault sits in a late block; the earlier one, of another
    # kind, in an earlier block that the other worker reads
    early = FAULT_KINDS[(FAULT_KINDS.index(late) + 1) % 3]
    lines = record_inputs["--from-search"].read_bytes().splitlines(keepends=True)
    early_no, late_no = 301, 1001
    target = tmp_path / "out"
    target.write_bytes(b"earlier\n")
    for faults in ({late_no: late}, {early_no: early, late_no: late}):
        path = tmp_path / "faulty.jsonl"
        for no, kind in faults.items():
            lines[no - 1] = _fault(kind, command, no)[0] + b"\n"
        blob = b"".join(lines)
        path.write_bytes(blob)
        starts = [lo for lo, _hi in line_blocks(blob, 2 * cli.LINE_BLOCKS_PER_WORKER)]
        block = {no: bisect.bisect_right(starts, len(b"".join(lines[:no - 1]))) - 1
                 for no in faults}
        assert block[late_no] >= len(starts) // 2
        assert block.get(early_no, block[late_no] + 1) % 2 != block[late_no] % 2

        first = min(faults)
        expected = _fault(faults[first], command, first)[1]
        for jobs in (1, 2):
            force_record_workers(monkeypatch, jobs)
            code, out, err = run_cli(capsys, command, "--from-search", str(path))
            assert (code, out) == (2, "")
            assert err.startswith(expected) and err.count("\n") == 1
            assert run_cli(capsys, command, "--from-search", str(path),
                           "--out", str(target)) == (code, out, err)
            assert target.read_bytes() == b"earlier\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["faulty.jsonl", "out"]
            no_child_left()


@pytest.mark.parametrize("command", FORKED_COMMANDS, ids=lambda c: "-".join(c))
def test_forked_worker_crash_exits_three_and_leaves_nothing(tmp_path, capsys, monkeypatch,
                                                            record_inputs, command):
    def boom(*args):
        raise RuntimeError("boom")

    raising = boom.__code__.co_firstlineno + 1
    # the per-record work runs in the workers alone
    monkeypatch.setattr(cli, "tuple_fields", boom)
    monkeypatch.setattr(cli, "tuple_from_obj", boom)
    force_record_workers(monkeypatch, 2)
    target = tmp_path / "out"
    target.write_bytes(b"earlier\n")
    path = str(record_inputs[command[1]])
    for out_flag in ([], ["--out", str(target)]):
        code, out, err = run_cli(capsys, *command, path, *out_flag)
        assert (code, out) == (3, "")
        # the worker's raising line, once: not also the line that re-raised it
        assert err == ("internal error: WorkerError(\"worker failed: RuntimeError('boom') at "
                       f"test_cli.py:{raising}\")\n")
        assert target.read_bytes() == b"earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        no_child_left()


def test_record_commands_fork_from_the_floor(tmp_path, capsys, monkeypatch, record_inputs):
    # the real floor on 2 CPUs, one byte on either side
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    calls = spy_record_forks(monkeypatch)
    records = record_inputs["--from-search"].read_bytes()
    body = records * (cli.FORK_MIN_BYTES // len(records))
    for size in (cli.FORK_MIN_BYTES - 1, cli.FORK_MIN_BYTES):
        path = tmp_path / f"{size}.jsonl"
        # a comment line pads the copies of the search to the size
        path.write_bytes(body + b"#" * (size - len(body) - 1) + b"\n")
        assert path.stat().st_size == size
        assert run_cli(capsys, "verify", "--from-search", str(path),
                       "--out", str(tmp_path / "out"))[0] == 0
    assert [jobs for jobs, _ in calls] == [1, 2]
    no_child_left()


def test_forked_record_commands_under_the_benchmark_record_counter(capsys, monkeypatch,
                                                                   record_inputs):
    # perfbench's tracer rebinds cli.write_jsonl to a wrapper that takes
    # len() of its records argument; the workers call the rebound name
    path = str(record_inputs["--from-search"])
    plain = {command: run_cli(capsys, command, "--from-search", path)
             for command in ("verify", "audit")}
    write_jsonl, sizes = cli.write_jsonl, []

    def counted(*args, **kwargs):
        sizes.append(len(args[1]))
        return write_jsonl(*args, **kwargs)

    monkeypatch.setattr(cli, "write_jsonl", counted)
    force_record_workers(monkeypatch, 2)
    for command in ("verify", "audit"):
        assert run_cli(capsys, command, "--from-search", path) == plain[command]
    # the parent writes the manifests and the audit summary, the workers the rest
    assert sizes == [0, 0, 1]
    no_child_left()
