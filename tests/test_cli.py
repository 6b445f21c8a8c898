import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dntuple.cli import main
from dntuple.search import SearchConfig, search_maximal
from dntuple.serialize import (
    canonical_json,
    fraction_str,
    parse_epsilon,
    read_jsonl,
    render_csv,
    tuple_from_obj,
    tuple_to_obj,
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


@pytest.mark.parametrize("golden, argv", [
    # n = 1 and 2 carry the null b_eps_bound / c_leading / m_leading columns
    ("bounds_grid.jsonl", ["--n-grid", "1,2,3,-7,16,-20,1000000",
                           "--eps-grid", "1,1/2,1/10"]),
    ("bounds_theorem1.jsonl", ["--n-grid", "16,-20,1000000", "--theorem1"]),
])
def test_bounds_output_matches_golden_bytes(capsys, golden, argv):
    code, out, _ = run_cli(capsys, "bounds", *argv)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


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
    for name in dntuple.__all__:
        assert hasattr(dntuple, name), name
        assert f"`{name}`" in readme, name


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


def test_cli_import_leaves_out_mpmath():
    # only bounds needs mpmath; the other commands should not import it
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dntuple.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


def test_only_newline_ends_a_record_line(tmp_path, capsys):
    # JSON takes U+2028 and U+0085 raw in a string; str.splitlines() would
    # split the record there, and a "\r\n" ending is stripped as before
    path = tmp_path / "x.jsonl"
    path.write_bytes('{"record":"x","v":"a\u2028b\x85c"}\r\n{"record":"y"}'.encode("utf-8"))
    code, out, err = run_cli(capsys, "report", "--in", str(path), "--format", "json-lines")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ['{"record":"x","v":"a\\u2028b\\u0085c"}', '{"record":"y"}']


def test_record_commands_hold_one_record_at_a_time(tmp_path, capsys):
    # The traced peak of each command grows with the file by its bytes (the
    # file and its decoded text) plus, for a CSV, one small row source and
    # row per record. Measured with CPython 3.11 on files of 500 and 2 000
    # records of about 106 bytes: verify 219, audit 187, report csv 429 and
    # json-lines 213 bytes per record. Holding every record as objects read
    # 1 571 to 1 888.
    bound = 640
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
