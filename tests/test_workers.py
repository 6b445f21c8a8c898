import os
import pathlib
import re
import select
import signal
import time

import pytest

from dntuple import search, workers
from dntuple.search import SearchConfig, search_maximal


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# jobs_for: the one decision to fork


def test_jobs_for_forks_from_the_floor(monkeypatch):
    floor = 1_000
    assert workers.jobs_for(floor, floor) == workers.usable_cpus()
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    assert workers.jobs_for(floor - 1, floor) == 1
    assert workers.jobs_for(floor, floor) == 3
    assert workers.jobs_for(0, 0) == 3


def test_jobs_for_is_one_without_an_affinity_mask(monkeypatch):
    # the usable_cpus fallback for a platform without sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity")
    assert workers.usable_cpus() == 1
    assert workers.jobs_for(10**9, 0) == 1


def test_nothing_forks_without_fork(monkeypatch):
    # every stage's floor is 0 and there are 2 CPUs, but no os.fork: a
    # fork would raise AttributeError, and the search runs in this process
    config = SearchConfig(n=4, limit=300, min_report_size=3)
    want = search_maximal(config).maximal_tuples
    calls = []
    fork_map = search.fork_map

    def spy(fn, blocks, jobs):
        calls.append(jobs)
        return fork_map(fn, blocks, jobs)

    monkeypatch.setattr(search, "FORK_MIN_SEEDS", 0)
    monkeypatch.setattr(search, "FORK_MIN_PAIRS", 0)
    monkeypatch.setattr(search, "fork_map", spy)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert workers.jobs_for(10**9, 0) == 1
    assert search_maximal(config).maximal_tuples == want
    assert calls == [1, 1]


# fork_map itself


def test_fork_map_of_no_blocks_forks_nothing(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert list(workers.fork_map(lambda lo, hi: lo, [], 2)) == []
    assert forks == []
    no_child_left()


def test_fork_map_yields_in_block_order_when_later_blocks_finish_first():
    # block 0 waits until block 3 is done, so its worker finishes last
    blocks = [(0, 1), (1, 2), (2, 3), (3, 4)]
    done_3, signal_3 = os.pipe()

    def fn(lo, hi):
        if lo == 0:
            return lo, bool(select.select([done_3], [], [], 30)[0])
        if lo == 3:
            os.write(signal_3, b"x")
        return lo, True

    try:
        assert list(workers.fork_map(fn, blocks, 2)) == [(0, True), (1, True), (2, True),
                                                         (3, True)]
    finally:
        os.close(done_3)
        os.close(signal_3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_worker_that_exits_without_reply_fails_the_map():
    parent = os.getpid()

    def fn(lo, hi):
        if lo == 2 and os.getpid() != parent:
            os._exit(0)
        return lo

    with pytest.raises(workers.WorkerError, match="without block 2"):
        list(workers.fork_map(fn, [(k, k + 1) for k in range(6)], 2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_worker_killed_mid_reply_fails_the_map():
    # block 1's reply outgrows the pipe buffer, so its worker is still
    # writing it when block 0's worker kills it
    pid_out, pid_in = os.pipe()

    def fn(lo, hi):
        if lo == 0:
            victim = int(os.read(pid_out, 32))
            time.sleep(0.2)
            os.kill(victim, signal.SIGKILL)
            return b""
        os.write(pid_in, str(os.getpid()).encode())
        return bytes(1 << 20)

    try:
        with pytest.raises(workers.WorkerError, match="without block 1"):
            list(workers.fork_map(fn, [(0, 1), (1, 2)], 2))
    finally:
        os.close(pid_out)
        os.close(pid_in)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_unpicklable_result_fails_the_map():
    def fn(lo, hi):
        return (k for k in range(lo, hi))

    with pytest.raises(workers.WorkerError, match="cannot pickle 'generator' object"):
        list(workers.fork_map(fn, [(0, 1), (1, 2), (2, 3)], 2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the contract stays in one module


def test_only_workers_forks_or_probes_cpus():
    # a second place that forks or counts CPUs would split the fork contract
    banned = re.compile(r'os\.fork|os\._exit|sched_getaffinity|hasattr\(os, "fork"\)')
    src = pathlib.Path(workers.__file__).parent
    found = {path.name: banned.findall(path.read_text(encoding="utf-8"))
             for path in sorted(src.rglob("*.py"))}
    assert found.pop("workers.py")
    assert {name: hits for name, hits in found.items() if hits} == {}
