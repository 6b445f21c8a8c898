# Bounded exhaustive search for maximal D(n) tuples inside [1, limit].
#
# Two stages, the shape of the brute-force oracle (tests/naive_oracle.py).
# Stage 1 walks each seed a once and stores its upper neighbours
# {d in (a, limit] : a*d + n square} in a CSR: an int32 array of
# neighbours and one of per-seed offsets. residues.walk steps
# t = sqrt(a*d + n) through the classes of RootTable.roots(a), so every
# step lands on a neighbour. a*d + n = t*t needs t*t = n (mod a), so a
# seed without such a root has no neighbour: RootTable.solvable marks the
# seeds that have one, by slice writes over the sieve's primes, and only
# those are walked (52 187 of 300 000 for n = -2 at limit 3*10^5).
# Stage 2 grows cliques depth first, seeds ascending: the children of a
# node through candidate d are d's stored upper neighbours among the
# node's candidates. Children exceed the current maximum, so every tuple
# is visited once, in lexicographic order. A seed with no upper neighbour
# is a one-node leaf; when min_report > 1 it cannot be reported, so it is
# counted where the seed loop reaches it, and a capped search that stops
# early counts only the seeds before the stop.
# A leaf has no common upper neighbour, so it is maximal iff no lower
# neighbour of its top member is adjacent to all other members: one walk
# of top's classes below top lists the lower neighbours, and
# tuples.extenders, the filter extend() uses, looks for one adjacent to
# the rest. candidates_tested counts the walks' outputs and the adjacency
# entries read in stage 2.
#
# Both stages run seed by seed, so both split over blocks of consecutive
# seeds, and the blocks run in workers forked from the search, one per CPU
# in the process's affinity mask (taskset narrows it). Stage 1 workers
# return each block's neighbours and per-seed counts, spliced into the CSR
# in block order; stage 2 workers inherit the CSR and the root table
# through the fork and return each block's element lists, each with the
# counters as they stood when it was found, and the block's counters.
# Block order is seed order, so the concatenated tuples are already
# lexicographic, the counters sum, and the report is byte-identical for
# any number of workers. A capped search reads the blocks in order and
# stops at the tuple that reaches the cap, with the counters of the blocks
# before it plus those recorded with that tuple: what one pass over the
# seeds that stopped there would count. A search below FORK_MIN_LIMIT, on
# one CPU, or without os.fork runs its blocks in one process, one after
# another, so a capped one stops after the block that reaches the cap.

from __future__ import annotations

import os
import sys
from array import array
from collections.abc import Callable, Iterator
from contextlib import closing
from dataclasses import dataclass, field
from itertools import accumulate, compress, pairwise
from typing import TYPE_CHECKING, NoReturn, TypeVar

from .residues import RootTable, smallest_factor_sieve, walk
from .tuples import DTuple, InputError, ZeroNError, extenders, verify

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

T = TypeVar("T")

# the sieve and the pair graph hold int32 entries per element of [1, limit]
MAX_LIMIT = 10**7

# below this limit a search runs in one process. Forking the workers of
# both stages costs about 20 ms, and the first forked search in a process
# about 15 ms more to import multiprocessing.connection. On 2 vCPUs (one process / forked, medians
# of 11 fresh interpreters) n = -2 takes 16.6/29.0 ms at 10 000 and
# 33.2/46.6 ms at 20 000 since stage 1 walks only the seeds with a root
# (25.3/40.6 and 51.0/69.8 ms before), so a sparse n now breaks even above
# 20 000; n = 4 at 6 000, min size 3, takes 228/243 ms. A lower floor
# would fork such small searches for no gain, so it stays at 10 000
FORK_MIN_LIMIT = 10_000

# seed blocks per worker, so that a worker that drew heavy blocks is
# balanced by the others drawing more light ones
BLOCKS_PER_WORKER = 64

# at most this many blocks: their 4-byte indices must fit in a pipe's
# smallest buffer, one page, before any worker reads them
MAX_BLOCKS = 1024


class WorkerError(RuntimeError):
    """A forked search worker failed; the search has no result."""


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one bounded search."""

    n: int
    limit: int
    min_report_size: int = 3
    max_results: int | None = None

    def __post_init__(self):
        # before anything is allocated
        if self.n == 0:
            raise ZeroNError("n must be nonzero")
        if not 1 <= self.limit <= MAX_LIMIT:
            raise InputError(f"limit must be in [1, {MAX_LIMIT}], got {self.limit}")
        if self.min_report_size < 1:
            raise InputError(f"min_report_size must be >= 1, got {self.min_report_size}")
        if self.max_results is not None and self.max_results < 1:
            raise InputError(f"max_results must be >= 1, got {self.max_results}")


@dataclass
class SearchReport:
    """Everything one search produced, in deterministic order.

    empirical_max_size is the largest tuple size visited anywhere in the
    traversal, whether or not it cleared min_report_size; it is a lower
    bound for the true maximum over [1, limit]. When the cap stops a
    search, it, nodes_visited and candidates_tested count the traversal
    up to the last reported tuple; candidates_tested also counts the pair
    graph, which is built over every seed first.
    """

    config: SearchConfig
    maximal_tuples: list[DTuple] = field(default_factory=list)
    empirical_max_size: int = 0
    nodes_visited: int = 0
    candidates_tested: int = 0
    result_cap_exceeded: bool = False


def search_maximal(config: SearchConfig) -> SearchReport:
    """Enumerate every maximal D(n) tuple within [1, limit] of size >= min_report_size.

    Maximal means extend(t, 1, limit) is empty: nothing in range extends
    the tuple, below or above its maximum. Output order is lexicographic
    on element lists and byte-stable across reruns, whatever the number
    of workers. With max_results set, the report keeps the first that
    many tuples and is flagged result_cap_exceeded once they are reached
    (a deterministic prefix, never a silent truncation); the whole pair
    graph is still built first, and the clique growth stops at the block
    of seeds that holds the last kept tuple.
    """
    n, limit = config.n, config.limit
    min_report, max_results = config.min_report_size, config.max_results
    table = RootTable(n, smallest_factor_sieve(limit))
    roots = table.roots
    # a*d + n = r*r needs r*r = n (mod a): only seeds with a root have partners
    live = table.solvable(limit)
    jobs = usable_cpus() if limit >= FORK_MIN_LIMIT and hasattr(os, "fork") else 1
    blocks = seed_blocks(limit, jobs)

    def neighbours(lo: int, hi: int) -> tuple[array, array]:
        # stage 1 on seeds [lo, hi): their upper neighbours, concatenated,
        # and how many each seed has
        chunk = array("i")
        counts = array("i", [0]) * (hi - lo)
        for a in compress(range(lo, hi), live[lo:hi]):
            up = walk(a, n, roots(a), a + 1, limit)
            chunk.extend(up)
            counts[a - lo] = len(up)
        return chunk, counts

    # stage 1: up(a) = adj[start[a]:start[a + 1]], ascending
    parts = fork_map(neighbours, blocks, jobs)
    adj, counts = next(parts)
    for more_adj, more_counts in parts:
        adj.extend(more_adj)
        counts.extend(more_counts)
    start = array("i", [0])
    start.extend(accumulate(counts, initial=0))
    del counts

    def grow(lo: int, hi: int) -> tuple[list, int, int, int]:
        # stage 2 on seeds [lo, hi): the reported tuples, each as its
        # elements with the largest size, nodes and candidates counted up
        # to it, then the block's totals of those three
        found: list[tuple[tuple[int, ...], int, int, int]] = []
        best = nodes = cands = 0

        def has_left_extension(stack: list[int], members: set[int]) -> bool:
            # only lower neighbours of top can extend a leaf (see above)
            nonlocal cands
            top = stack[-1]
            below = walk(top, n, roots(top), 1, top - 1)
            cands += len(below)
            return next(extenders(below, members, stack[-2::-1], n), None) is not None

        def explore(stack: list[int], members: set[int], kids: array | list[int]) -> None:
            nonlocal best, nodes, cands
            nodes += 1
            size = len(stack)
            if size > best:
                best = size
            if kids:
                pool = set(kids)
                next_size = size + 1
                for d in kids:
                    up = adj[start[d]:start[d + 1]]
                    cands += len(up)
                    grand = [k for k in up if k in pool]
                    if not grand and next_size < min_report:
                        # childless and unreportable, no need to descend
                        nodes += 1
                        if next_size > best:
                            best = next_size
                        continue
                    stack.append(d)
                    members.add(d)
                    explore(stack, members, grand)
                    members.discard(d)
                    stack.pop()
            elif size >= min_report and not has_left_extension(stack, members):
                found.append((tuple(stack), best, nodes, cands))

        for a in range(lo, hi):
            if min_report > 1 and start[a] == start[a + 1]:
                # a childless seed is a one-node leaf, too small to report
                nodes += 1
                best = best or 1
                continue
            explore([a], {a}, adj[start[a]:start[a + 1]])
        return found, best, nodes, cands

    # stage 2: cliques seed by seed, read in block order up to the cap
    report = SearchReport(config=config, candidates_tested=len(adj))
    tuples = report.maximal_tuples
    with closing(fork_map(grow, blocks, jobs)) as parts:
        for found, best, nodes, cands in parts:
            for els, *upto in found:
                tuples.append(verify(els, n))
                if len(tuples) == max_results:
                    best, nodes, cands = upto
                    report.result_cap_exceeded = True
                    break
            report.empirical_max_size = max(report.empirical_max_size, best)
            report.nodes_visited += nodes
            report.candidates_tested += cands
            if report.result_cap_exceeded:
                break
    return report


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which taskset narrows."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return 1


def seed_blocks(limit: int, jobs: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges of consecutive seeds that cover [1, limit], ascending.

    Up to BLOCKS_PER_WORKER per worker, capped at MAX_BLOCKS, even for
    one process, so that a capped search stops after few blocks. The k-th
    of K blocks ends near limit * (k/K)^3: a small seed roots far more
    cliques than a large one, so the blocks hold about even shares of the
    clique growth.
    """
    count = min(jobs * BLOCKS_PER_WORKER, MAX_BLOCKS)
    ends = dict.fromkeys(1 + limit * k**3 // count**3 for k in range(count + 1))
    return list(pairwise(ends))


def fork_map(fn: Callable[[int, int], T], blocks: list[tuple[int, int]],
             jobs: int) -> Iterator[T]:
    """fn(lo, hi) for each block in turn, computed by up to jobs forked workers.

    fn runs in a child forked from this process, so it sees this
    process's data as it was at the fork, and it returns a picklable
    value. The workers draw block indices from one shared pipe and send
    each result back on their own connection; results are yielded in
    block order, each held only until its turn. The children end with
    os._exit, so they never run this process's exit handlers or flush its
    buffers. If a worker fails, the iteration raises WorkerError; on any
    exit, closing the iterator early included, every worker is killed if
    still running and reaped.
    """
    jobs = min(jobs, len(blocks))
    if jobs == 1:
        for lo, hi in blocks:
            yield fn(lo, hi)
        return
    import signal  # only a forked run pays for these imports
    from multiprocessing.connection import Pipe, wait

    queue, queue_in = os.pipe()
    os.write(queue_in, array("i", range(len(blocks))).tobytes())
    os.close(queue_in)  # an empty queue now reads as end of file
    pids: list[int] = []
    replies: list[Connection] = []
    try:
        for _ in range(jobs):
            reply, reply_in = Pipe(duplex=False)
            replies.append(reply)
            try:
                pid = os.fork()
                if pid == 0:
                    reply.close()
                    _serve(fn, blocks, queue, reply_in)
            finally:
                reply_in.close()  # in this process only: _serve never returns
            pids.append(pid)
        done: dict[int, T] = {}  # results that arrived before their turn
        live = list(replies)
        for i in range(len(blocks)):
            while i not in done:
                if not live:
                    raise WorkerError(f"search workers ended without block {i}")
                for reply in wait(live):
                    try:
                        j, ok, value = reply.recv()
                    except (EOFError, OSError):  # the worker ended, perhaps mid-message
                        live.remove(reply)
                        continue
                    if not ok:
                        raise WorkerError(f"search worker failed: {value}")
                    done[j] = value
            yield done.pop(i)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for reply in replies:
            reply.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(fn: Callable[[int, int], object], blocks: list[tuple[int, int]], queue: int,
           reply: Connection) -> NoReturn:
    # a worker's whole life: run the blocks it draws, send each result (or
    # the failure) back, and exit without unwinding into the parent's code
    status = 1
    try:
        while index := os.read(queue, 4):
            i = int.from_bytes(index, sys.byteorder)
            lo, hi = blocks[i]
            reply.send((i, True, fn(lo, hi)))
        status = 0
    except BaseException as exc:
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        reply.send((-1, False, f"{exc!r} at {os.path.basename(where.filename)}:{where.lineno}"))
    finally:
        os._exit(status)


def empirical_max_size(n: int, limit: int) -> int:
    """Size of the largest D(n) tuple inside [1, limit].

    Runs the full traversal with reporting disabled, so it is exact, not
    a heuristic, and serves as the desk-scale lower bound for the true
    maximum tuple size.
    """
    # min_report_size above limit is unreachable
    return search_maximal(SearchConfig(n, limit, min_report_size=limit + 2)).empirical_max_size
