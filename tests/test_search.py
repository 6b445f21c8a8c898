import errno
import hashlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from naive_oracle import naive_maximal
from dntuple import cli, search, workers
from dntuple.residues import RootTable, smallest_factor_sieve, walk
from dntuple.search import (
    MAX_LIMIT,
    SearchConfig,
    SearchReport,
    empirical_max_size,
    search_maximal,
)
from dntuple.tuples import InputError, ZeroNError, window_parts


def found_elements(report):
    return [t.elements for t in report.maximal_tuples]


def test_config_validation():
    with pytest.raises(ZeroNError):
        SearchConfig(n=0, limit=10)
    with pytest.raises(InputError):
        SearchConfig(n=1, limit=0)
    with pytest.raises(InputError):
        SearchConfig(n=1, limit=10, min_report_size=0)
    with pytest.raises(InputError):
        SearchConfig(n=1, limit=10, max_results=0)


def test_config_and_report_records():
    config = SearchConfig(4, 100)
    assert config == SearchConfig(n=4, limit=100, min_report_size=3, max_results=None)
    with pytest.raises(AttributeError):
        config.limit = 10
    with pytest.raises(InputError, match=r"limit must be in \[1, 10000000\], got 0"):
        SearchConfig(4, 0)
    with pytest.raises(InputError, match="got 0"):
        config._replace(limit=0)
    assert config._replace(limit=50) == SearchConfig(4, 50)
    report = SearchReport(config)
    assert report.config is config
    assert report.maximal_tuples == []
    assert (report.empirical_max_size, report.nodes_visited, report.candidates_tested,
            report.result_cap_exceeded) == (0, 0, 0, False)
    assert SearchReport(config).maximal_tuples is not report.maximal_tuples


def test_limit_above_cap_is_rejected_before_allocation(monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieve of {limit} allocated")

    monkeypatch.setattr(search, "smallest_factor_sieve", no_sieve)
    SearchConfig(n=1, limit=MAX_LIMIT)
    with pytest.raises(InputError):
        SearchConfig(n=1, limit=MAX_LIMIT + 1)
    with pytest.raises(InputError):
        empirical_max_size(1, MAX_LIMIT + 1)


def test_fermat_quadruple_is_found_and_maximal():
    report = search_maximal(SearchConfig(n=1, limit=150, min_report_size=4))
    assert found_elements(report) == [(1, 3, 8, 120)]
    assert report.empirical_max_size == 4
    assert not report.result_cap_exceeded


def test_output_is_lexicographic():
    report = search_maximal(SearchConfig(n=1, limit=120, min_report_size=3))
    elems = found_elements(report)
    assert elems == sorted(elems)
    assert all(t.n == 1 for t in report.maximal_tuples)


def test_equals_oracle_on_fixed_grid():
    for n, limit, min_size in [(1, 80, 3), (4, 60, 2), (-1, 60, 2), (2, 100, 1),
                               (9, 50, 2), (-4, 70, 3), (13, 40, 1), (-11, 70, 2)]:
        report = search_maximal(SearchConfig(n=n, limit=limit, min_report_size=min_size))
        assert found_elements(report) == naive_maximal(n, limit, min_size), (n, limit)


@given(st.integers(min_value=-10, max_value=10).filter(lambda n: n != 0),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_equals_oracle_property(n, limit, min_size):
    report = search_maximal(SearchConfig(n=n, limit=limit, min_report_size=min_size))
    assert found_elements(report) == naive_maximal(n, limit, min_size)


@pytest.mark.parametrize("n", [n for n in range(-10, 11) if n])
def test_maximality_matches_oracle_for_every_small_n(n):
    # every n class, perfect squares and n = +-1 included, against the
    # oracle's independent "nothing in [1, limit] extends it" rule
    for min_size in (2, 3, 4):
        report = search_maximal(SearchConfig(n=n, limit=200, min_report_size=min_size))
        assert found_elements(report) == naive_maximal(n, 200, min_size), (n, min_size)


def test_reported_tuples_admit_no_extension():
    def sq(x):
        return x >= 0 and math.isqrt(x) ** 2 == x

    report = search_maximal(SearchConfig(n=4, limit=100, min_report_size=2))
    assert report.maximal_tuples
    for t in report.maximal_tuples:
        members = set(t.elements)
        for d in range(1, 101):
            if d not in members:
                assert not all(sq(x * d + 4) for x in t.elements)


def test_max_results_cap_is_deterministic_prefix():
    full = search_maximal(SearchConfig(n=1, limit=120, min_report_size=3))
    capped = search_maximal(SearchConfig(n=1, limit=120, min_report_size=3,
                                         max_results=5))
    assert capped.result_cap_exceeded
    assert found_elements(capped) == found_elements(full)[:5]
    again = search_maximal(SearchConfig(n=1, limit=120, min_report_size=3,
                                        max_results=5))
    assert found_elements(again) == found_elements(capped)
    # reported tuples are traversal leaves, so the traversal order is the
    # sorted order and every cap keeps its exact prefix
    for n, cap in [(1, 1), (4, 3), (-2, 11), (9, 20)]:
        full = search_maximal(SearchConfig(n=n, limit=150, min_report_size=2))
        assert len(full.maximal_tuples) > cap
        capped = search_maximal(SearchConfig(n=n, limit=150, min_report_size=2,
                                             max_results=cap))
        assert capped.result_cap_exceeded
        assert found_elements(capped) == found_elements(full)[:cap]


def count_cliques(n, limit):
    # every nonempty sorted clique of the brute-force pair graph on [1, limit]
    up = {a: {d for d in range(a + 1, limit + 1)
              if a * d + n >= 0 and math.isqrt(a * d + n) ** 2 == a * d + n}
          for a in range(1, limit + 1)}

    def below(cand):
        return sum(1 + below(cand & up[d]) for d in cand)

    return below(set(up))


@pytest.mark.parametrize("n", [n for n in range(-10, 11) if n])
def test_nodes_visited_counts_every_clique(n):
    want = count_cliques(n, 300)
    for min_size in (1, 4):
        report = search_maximal(SearchConfig(n=n, limit=300, min_report_size=min_size))
        assert report.nodes_visited == want, (n, min_size)


@pytest.mark.parametrize("n", [sign * n for n in range(11, 31) for sign in (1, -1)] + [49])
def test_equals_oracle_around_the_walked_seeds_floor(n):
    # stage 1 walks the seeds up to max(limit // 4, |n|), which is |n| at
    # these limits; the lists above it are regular extensions, and the
    # square n (16, 25, 49) also give d + 2*sqrt(n)
    for limit in (3 * abs(n), 4 * abs(n) - 1, 4 * abs(n), 4 * abs(n) + 3):
        report = search_maximal(SearchConfig(n=n, limit=limit, min_report_size=1))
        assert found_elements(report) == naive_maximal(n, limit, 1), (n, limit)
        assert report.nodes_visited == count_cliques(n, limit), (n, limit)


def test_empirical_max_size_tracks_sub_threshold_nodes():
    # no quadruple below 200 for n = 2, but pairs and triples abound
    report = search_maximal(SearchConfig(n=2, limit=200, min_report_size=4))
    assert found_elements(report) == []
    assert report.empirical_max_size == 3


def test_empirical_max_size_helper():
    assert empirical_max_size(1, 200) == 4
    assert empirical_max_size(1, 2) == 1
    assert empirical_max_size(-1, 50) == 3


@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=-20, max_value=20).filter(lambda n: n != 0),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=100)
def test_candidates_for_brute_force(a, n, hi):
    # Partners of a in [1, hi], the range the search draws from.
    want = [d for d in range(1, hi + 1)
            if a * d + n >= 0 and math.isqrt(a * d + n) ** 2 == a * d + n]
    assert [d for part in window_parts(a, n, 1, hi) for d in part] == want
    # the search's roots, from the table rather than a scan of one period
    assert walk(a, n, RootTable(n, smallest_factor_sieve(a)).roots(a), 1, hi) == want


def test_every_reported_tuple_is_verified():
    report = search_maximal(SearchConfig(n=-4, limit=300, min_report_size=3))
    for t in report.maximal_tuples:
        for a, b in itertools.combinations(t.elements, 2):
            r = t.witness_for(a, b).r
            assert r * r == a * b - 4


# seed-sharded searches: forked workers, identical reports


def spy_fork_map(monkeypatch, jobs):
    """Give searches jobs CPUs; return the (jobs, blocks) of each fork_map."""
    calls = []
    fork_map = search.fork_map

    def spy(fn, blocks, jobs):
        calls.append((jobs, len(blocks)))
        return fork_map(fn, blocks, jobs)

    monkeypatch.setattr(workers, "usable_cpus", lambda: jobs)
    monkeypatch.setattr(search, "fork_map", spy)
    return calls


def force_workers(monkeypatch, jobs, split=False):
    """Shard every stage of every search over jobs workers, or stage 2 alone if split.

    Returns the (jobs, blocks) of each fork_map.
    """
    monkeypatch.setattr(search, "FORK_MIN_SEEDS", MAX_LIMIT + 1 if split else 0)
    monkeypatch.setattr(search, "FORK_MIN_PAIRS", 0)
    return spy_fork_map(monkeypatch, jobs)


def walked(n, limit):
    # the seeds that stage 1 walks: [1, low]
    return min(limit, max(limit // 4, abs(n)))


def report_fields(report):
    return ([(t.elements, t.witnesses) for t in report.maximal_tuples], report.nodes_visited,
            report.candidates_tested, report.empirical_max_size, report.result_cap_exceeded)


def test_seed_blocks_cover_the_seeds_in_order():
    for limit in (1, 2, 7, 300, 5_000, 10**6):
        for jobs in (1, 2, 3, 64):
            blocks = search.seed_blocks(limit, jobs)
            assert blocks[0][0] == 1 and blocks[-1][1] == limit + 1
            assert all(lo < hi for lo, hi in blocks)
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert len(blocks) <= jobs * search.BLOCKS_PER_WORKER
    # the small seeds, which root the most cliques, get the small blocks
    blocks = search.seed_blocks(10**6, 2)
    assert len(blocks) > search.BLOCKS_PER_WORKER
    assert blocks[0] == (1, 4) and blocks[-1] == (976_746, 10**6 + 1)


@pytest.mark.parametrize("n, limit, min_size, live, pairs, forks", [
    (4, 6000, 3, 1500, 28557, [1, 2]),  # the report pipeline's searches:
    (9, 6000, 3, 1500, 27855, [1, 2]),  # stage 2 alone is forked
    (-2, 10_000, 4, 557, 6747, [1, 1]),  # small and sparse: neither
    (-2, 40_000, 3, 2047, 27007, [1, 2]),
    (-2, 40_000, 4, 2047, 27007, [1, 1]),  # the same pairs at min size 4
    # every seed has a root for a square n: one seed either side of the floor
    (4, 4 * search.FORK_MIN_SEEDS - 4, 4, search.FORK_MIN_SEEDS - 1, 85673, [1, 1]),
    (4, 4 * search.FORK_MIN_SEEDS, 4, search.FORK_MIN_SEEDS, 85697, [2, 1]),
    (-2, 300_000, 4, 13855, 202555, [2, 2]),  # the sparse benchmark's: both
])
def test_each_stage_forks_by_its_own_work(monkeypatch, n, limit, min_size, live, pairs, forks):
    # the real floors on 2 CPUs: stage 1 forks from FORK_MIN_SEEDS live
    # seeds, stage 2 from FORK_MIN_PAIRS pairs, each counted 8 times below
    # min size 4
    class Stage2(Exception):
        pass

    calls = spy_fork_map(monkeypatch, 2)
    fork_map = search.fork_map

    def stop_at_stage_2(fn, blocks, jobs):
        if calls:  # stage 1 has run; the decision for stage 2 is all this needs
            calls.append((jobs, len(blocks)))
            raise Stage2
        return fork_map(fn, blocks, jobs)

    monkeypatch.setattr(search, "fork_map", stop_at_stage_2)
    low = walked(n, limit)
    assert RootTable(n, smallest_factor_sieve(limit)).solvable(low).count(1) == live
    report = SearchReport(SearchConfig(n, limit, min_size))
    with pytest.raises(Stage2):
        next(search.stream_maximal(report))
    assert report.candidates_tested == pairs
    assert calls == [(forks[0], len(search.seed_blocks(low, forks[0]))),
                     (forks[1], len(search.seed_blocks(limit, forks[1])))]


@pytest.mark.parametrize("jobs", [2, 3])
def test_sharded_search_equals_in_process(monkeypatch, jobs):
    configs = [SearchConfig(n=n, limit=300, min_report_size=m)
               for n in range(-10, 11) if n for m in (1, 2, 4)]
    want = [report_fields(search_maximal(c)) for c in configs]
    calls = force_workers(monkeypatch, jobs)
    for config, fields in zip(configs, want):
        calls.clear()
        assert report_fields(search_maximal(config)) == fields, config
        # both stages went to jobs workers over many blocks, stage 1 over
        # the walked seeds only
        assert calls == [(jobs, len(search.seed_blocks(walked(config.n, 300), jobs))),
                         (jobs, len(search.seed_blocks(300, jobs)))]


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_list_stage_2_reads_is_the_direct_walk(monkeypatch, jobs):
    # the lists above low come from regular extensions and a counting
    # sort; each must equal the walk of its own seed. -1000 at 2 000 has
    # |n| > limit // 4, so low is |n| there
    graphs = []
    force_workers(monkeypatch, jobs)
    fork_map = search.fork_map

    def spy(fn, blocks, jobs):
        if fn.__name__ == "grow":  # stage 2 reads the CSR from its closure
            cells = dict(zip(fn.__code__.co_freevars, fn.__closure__))
            graphs.append((cells["adj"].cell_contents, cells["start"].cell_contents))
        return fork_map(fn, blocks, jobs)

    monkeypatch.setattr(search, "fork_map", spy)
    for n, limit in [(4, 3000), (9, 3000), (-2, 3000), (-6, 3000), (1, 3000), (-1, 3000),
                     (-1000, 2000)]:
        empirical_max_size(n, limit)
        adj, start = graphs.pop()
        assert len(start) == limit + 2 and start[1] == 0 and start[-1] == len(adj)
        roots = RootTable(n, smallest_factor_sieve(limit)).roots
        assert walked(n, limit) < limit
        for a in range(1, limit + 1):
            assert list(adj[start[a]:start[a + 1]]) == walk(a, n, roots(a), a + 1, limit), (n, a)


def test_sparse_search_memory_is_pinned(monkeypatch):
    # the traced peak of the sparse benchmark's n = -2 in one process, set
    # while the CSR is built: 5.55 MB (Python 3.11) through staging copies
    # and an int32 sieve, 3.73 MB with the 16-bit sieve and start filled
    # in place
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    tracemalloc.start()
    try:
        search_maximal(SearchConfig(n=-2, limit=300_000, min_report_size=4))
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 5.55 and abs(peak - 3.73) <= 0.1 * 3.73


@pytest.mark.parametrize("jobs", [2, 3])
def test_sharded_capped_search_keeps_its_prefix(monkeypatch, jobs):
    cases = [(1, 120, 3, 5), (1, 150, 2, 1), (4, 150, 2, 3), (-2, 150, 2, 11),
             (9, 150, 2, 20)]
    full = {c: search_maximal(SearchConfig(n=c[0], limit=c[1], min_report_size=c[2]))
            for c in cases}
    capped = {c: report_fields(search_maximal(SearchConfig(
        n=c[0], limit=c[1], min_report_size=c[2], max_results=c[3]))) for c in cases}
    calls = force_workers(monkeypatch, jobs)
    for n, limit, min_size, cap in cases:
        calls.clear()
        report = search_maximal(SearchConfig(n=n, limit=limit, min_report_size=min_size,
                                             max_results=cap))
        assert report.result_cap_exceeded
        assert found_elements(report) == found_elements(full[n, limit, min_size, cap])[:cap]
        assert report_fields(report) == capped[n, limit, min_size, cap]
        # both stages went to jobs workers over many blocks
        assert calls == [(jobs, len(search.seed_blocks(walked(n, limit), jobs))),
                         (jobs, len(search.seed_blocks(limit, jobs)))]
        # the workers still busy past the cap were killed and reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_capped_search_in_one_process_stops_after_the_capping_block(monkeypatch):
    # stage 1 reads every block; stage 2 stops at the block holding the cap
    parts_read = []
    fork_map = search.fork_map

    def counting(fn, blocks, jobs):
        parts_read.append(0)
        for part in fork_map(fn, blocks, jobs):
            parts_read[-1] += 1
            yield part

    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    monkeypatch.setattr(search, "fork_map", counting)
    report = search_maximal(SearchConfig(n=9, limit=1500, min_report_size=4, max_results=1))
    assert found_elements(report) == [(1, 7, 40, 216)]
    assert parts_read[0] == len(search.seed_blocks(walked(9, 1500), 1)) > parts_read[1] == 1


# (n, limit, min size, cap) -> nodes_visited, candidates_tested, empirical_max_size,
# result_cap_exceeded, tuple count, last tuple, sha256 of the element lists.
# Recorded from a search that sent every seed through explore(). A capped
# search stops part way through its seeds, so a shortcut that counts any
# seed ahead of the traversal changes these.
CAPPED_COUNTERS = [
    (-2, 20000, 2, 5, 8, 14211, 3, True, 5, (1, 3, 66), "b0386aba4631fa07"),
    (-2, 3000, 1, 900, 1830, 12501, 3, True, 900, (187, 921, 1938), "f8c82fef32c2c6f3"),
    (-2, 3000, 2, 60, 113, 3230, 3, True, 60, (1, 2603, 2706), "1fa483884f193368"),
    (-2, 3000, 3, 950, 2563, 13711, 3, True, 950, (402, 443, 1689), "c5309c0a877f017b"),
    (-2, 3000, 4, 1, 6042, 11160, 3, False, 0, None, "4f53cda18c2baa0c"),
    (-6, 3000, 3, 1100, 2878, 14974, 3, True, 1100, (393, 742, 2215), "ed701cbb5a80d2d5"),
    (4, 2000, 1, 50, 123, 11226, 4, True, 50, (2, 126, 160), "010c5b3cf3cbbd30"),
    (4, 2000, 2, 300, 665, 21016, 4, True, 300, (9, 544, 693), "45cc16838b09394b"),
    (4, 2000, 3, 100, 234, 13593, 4, True, 100, (3, 644, 735), "86195dfe2691ea54"),
    (4, 2000, 4, 12, 280, 12509, 4, True, 12, (4, 8, 24, 840), "566c164cae95d264"),
    (9, 1500, 4, 1, 5, 5852, 4, True, 1, (1, 7, 40, 216), "9961ab647e34a358"),
]


@pytest.mark.parametrize("jobs, split", [(1, False), (2, False), (2, True)],
                         ids=["1", "2", "2-split"])
@pytest.mark.parametrize("case", CAPPED_COUNTERS, ids=lambda c: "n%d-%d-min%d-cap%d" % c[:4])
def test_capped_search_counters_are_pinned(monkeypatch, jobs, split, case):
    n, limit, min_size, cap, nodes, cands, best, exceeded, count, last, digest = case
    force_workers(monkeypatch, jobs, split)
    report = search_maximal(SearchConfig(n=n, limit=limit, min_report_size=min_size,
                                         max_results=cap))
    elements = found_elements(report)
    assert (report.nodes_visited, report.candidates_tested, report.empirical_max_size,
            report.result_cap_exceeded) == (nodes, cands, best, exceeded)
    assert len(elements) == count and (elements[-1] if elements else None) == last
    assert hashlib.sha256(repr(elements).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("name", ["walk", "extenders"])
def test_failed_worker_fails_the_search(monkeypatch, capsys, name):
    # walk fails in stage 1, extenders in stage 2; the parent keeps working
    parent = os.getpid()
    real = getattr(search, name)

    def failing(*args):
        if os.getpid() != parent:
            raise ValueError("worker failure")
        return real(*args)

    force_workers(monkeypatch, 2)
    monkeypatch.setattr(search, name, failing)
    with pytest.raises(workers.WorkerError, match="worker failure"):
        search_maximal(SearchConfig(n=4, limit=300, min_report_size=3))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    capsys.readouterr()
    assert cli.main(["search", "--n", "4", "--limit", "300"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: WorkerError(") and "worker failure" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the search streams its tuples: each is written as its block is read


@pytest.mark.parametrize("n, limit, min_size, cap", [
    (4, 800, 3, None), (4, 800, 3, 40), (9, 800, 3, None), (9, 800, 3, 25),
    (-2, 2500, 2, None), (-2, 2500, 2, 30)])
def test_search_output_is_the_same_at_any_worker_count(monkeypatch, capsys, tmp_path,
                                                      n, limit, min_size, cap):
    argv = ["search", "--n", str(n), "--limit", str(limit), "--min-size", str(min_size)]
    if cap is not None:
        argv += ["--max-results", str(cap)]
    out = tmp_path / "s.jsonl"
    outputs = []
    # both stages in the workers, then stage 1 in this process and stage 2 in the workers
    for split in (False, True):
        for jobs in (1, 2, 3):
            calls = force_workers(monkeypatch, jobs, split)
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr())
            assert cli.main([*argv, "--out", str(out)]) == 0
            assert capsys.readouterr() == ("", outputs[-1].err)
            assert out.read_text(encoding="utf-8") == outputs[-1].out
            assert [c[0] for c in calls] == [1 if split else jobs, jobs] * 2
    assert all(output == outputs[0] for output in outputs)
    # the summary counts the records written, and matches the collected report
    text = outputs[0].out
    summary = json.loads(text.splitlines()[-1])
    report = search_maximal(SearchConfig(n, limit, min_size, cap))
    assert summary["tuples_found"] == text.count('"record":"dtuple"') == len(report.maximal_tuples)
    assert (summary["nodes_visited"], summary["candidates_tested"], summary["empirical_max_size"],
            summary["result_cap_exceeded"]) == report_fields(report)[1:]
    assert report.result_cap_exceeded == (cap is not None)
    assert ("result cap" in outputs[0].err) == (cap is not None)


def test_abandoned_stream_kills_and_reaps_its_workers(monkeypatch):
    force_workers(monkeypatch, 2)
    report = SearchReport(SearchConfig(n=4, limit=1500, min_report_size=3))
    stream = search.stream_maximal(report)
    assert next(stream).elements == (1, 5, 12, 96)
    stream.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_failing_mid_stream_leaves_the_out_target(monkeypatch, capsys, tmp_path):
    # the workers fail only on seeds above 100, so the early blocks' tuples
    # are written before the failure arrives
    parent = os.getpid()
    real = search.extenders

    def failing(candidates, members, rest, n):
        if os.getpid() != parent and min(members) > 100:
            raise ValueError("late worker failure")
        return real(candidates, members, rest, n)

    written = []
    write_jsonl = cli.write_jsonl

    def counting(fh, objs, manifest=None):
        written.extend(objs)
        write_jsonl(fh, objs, manifest)

    force_workers(monkeypatch, 2)
    monkeypatch.setattr(search, "extenders", failing)
    monkeypatch.setattr(cli, "write_jsonl", counting)
    target = tmp_path / "s.jsonl"
    target.write_bytes(b"earlier\n")
    assert cli.main(["search", "--n", "4", "--limit", "1500", "--out", str(target)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "late worker failure" in err
    assert sum(obj["record"] == "dtuple" for obj in written) > 100
    assert target.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["s.jsonl"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_write_that_raises_stops_the_workers_before_it_propagates(monkeypatch):
    # an exception that cli.main does not catch: while `stopped` still holds
    # its traceback, and with it the search's frames, no worker is left
    class Stop(BaseException):
        pass

    calls = itertools.count()
    write_jsonl = cli.write_jsonl

    def stopping(fh, objs, manifest=None):
        if next(calls) == 10:
            raise Stop
        write_jsonl(fh, objs, manifest)

    force_workers(monkeypatch, 2)
    monkeypatch.setattr(cli, "write_jsonl", stopping)
    with pytest.raises(Stop) as stopped:
        cli.main(["search", "--n", "4", "--limit", "1500"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert stopped.type is Stop


def run_script(script, *args):
    # a fresh interpreter that imports this checkout's dntuple
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, env=env)


# the first lines of a script that shards its search when its argument is 'forked'
FORCE_FORK = ("import sys\n"
              "from dntuple import cli, search, workers\n"
              "if sys.argv[1] == 'forked':\n"
              "    search.FORK_MIN_SEEDS = search.FORK_MIN_PAIRS = 0\n"
              "    workers.usable_cpus = lambda: 2\n")


def test_sharded_cli_output_is_written_once():
    # stdout to a pipe is block buffered: a worker that flushed it on exit
    # would repeat the line printed before the search
    script = FORCE_FORK + (
        "print('before')\n"
        "sys.exit(cli.main(['search', '--n', '4', '--limit', '400', '--min-size', '2']))\n")
    runs = [run_script(script, mode) for mode in ("in-process", "forked")]
    assert [p.returncode for p in runs] == [0, 0]
    assert runs[0].stdout.startswith(b"before\n")
    assert runs[0].stdout.count(b"before") == 1
    assert runs[1].stdout == runs[0].stdout


def test_search_does_not_import_multiprocessing(tmp_path):
    # the workers reply through plain pipes, forked or not
    script = FORCE_FORK + (
        "code = cli.main(['search', '--n', '4', '--limit', '400', '--out', sys.argv[2]])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n")
    out = str(tmp_path / "s.jsonl")
    assert run_script(script, "in-process", out).stdout == b"0 []\n"
    assert run_script(script, "forked", out).stdout == b"0 []\n"


def test_failed_fork_fails_the_search(monkeypatch, capsys):
    # every second fork fails, as when the system is out of processes: the
    # worker already forked is killed and reaped, and the CLI exits 3
    real_fork = os.fork
    calls = itertools.count(1)

    def fork():
        if next(calls) % 2 == 0:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    force_workers(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(workers.WorkerError, match="cannot fork a worker"):
        search_maximal(SearchConfig(n=4, limit=300, min_report_size=3))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    capsys.readouterr()
    assert cli.main(["search", "--n", "4", "--limit", "300"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: WorkerError(") and "cannot fork" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
