import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from dntuple.cli import main
from dntuple.serialize import (
    canonical_json,
    fraction_str,
    read_jsonl,
    render_csv,
    tuple_from_obj,
    tuple_to_obj,
    tuples_from_records,
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
    with pytest.raises(SystemExit) as exc_info:
        main(["audit", "--checks", "lemma9", "--seed-corpus", "nope"])
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
        records = read_jsonl(fh)
    assert records[0]["record"] == "manifest"
    summary = records[-1]
    assert summary["record"] == "search_summary"
    assert summary["empirical_max_size"] == 4
    tuples = tuples_from_records(records)
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
        audit_records = read_jsonl(fh)
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
        read_jsonl(io.StringIO("{not json}\n"))
    with pytest.raises(InputError):
        read_jsonl(io.StringIO('"a bare string"\n'))
    assert read_jsonl(io.StringIO("\n# comment\n")) == []


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
