# Bounded exhaustive search for maximal D(n) tuples inside [1, limit], in
# two stages, the shape of the brute-force oracle (tests/naive_oracle.py):
# pair_graph builds the pairs, and stream_maximal grows their cliques.
# Both run seed by seed, over blocks of consecutive seeds (stage 1 over
# [1, low], stage 2 over [1, limit]) that workers.fork_map runs and
# returns in block order, which is seed order: in forked workers once the
# stage's work clears its floor (below), else in one process, in turn, so
# a capped stage 2 there stops after the block that reaches the cap.

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterator
from contextlib import closing
from itertools import accumulate, chain, compress, pairwise, repeat
from math import isqrt
from operator import ne
from typing import NamedTuple

from .residues import RootTable, smallest_factor_sieve, walk
from .tuples import DTuple, InputError, ZeroNError, extenders, verify
from .workers import fork_map, jobs_for

# the pair graph holds an int32 offset and the sieve a 16-bit factor per
# element of [1, limit]; at 10^7, forked on 2 vCPUs at min size 5, n = 4
# ran 149.7 s with peaks of 532 MB in the parent and 438 MB in a child;
# n = -2 12.2 s, 127 and 100 MB
MAX_LIMIT = 10**7

# Each stage forks its workers only when its own work repays the fork,
# judged from counts the search has before that fork. Stage 1 walks the
# seeds with a root, so it forks from FORK_MIN_SEEDS of them. Stage 2
# grows cliques over the pairs: in one process about 1.3 us per pair at
# min size 4 and above, and 7 to 11 us below it, where nearly every
# triangle is a leaf that is walked for maximality and reported (and the
# parent verifies and writes each while the workers grow the rest). So it
# forks from FORK_MIN_PAIRS pairs, each counted 8 times below min size 4.
# CLI search --out on 2 vCPUs, n at limit and min size (seeds with a root
# or pairs): one process / forked ms, medians of 11 alternated fresh
# interpreters (15 where marked *), and the runs the fork won.
#   stage 1, stage 2 in one process:
#     -2 at 2*10^4, 4 (1 064)          35.5 / 54.1     0 of 11
#     -2 at 4*10^4, 4 (2 047)          77.0 / 95.6     3 of 11
#     -2 at 8*10^4, 4 (3 944)         112.7 / 109.8    6 of 11
#   stage 1, stage 2 forked:
#      4 at 6 000, 3 (1 500)          331.9 / 333.3    4 of 11
#      4 at 2*10^4, 4 (5 000)         235.7 / 210.3   10 of 11
#     -2 at 1.6*10^5, 4 (7 611)       289.3 / 251.2   11 of 11
#   stage 2, stage 1 in one process:
#     -2 at 2*10^4, 3 (13 497)        201.1 / 220.3    4 of 15*
#     -6 at 2*10^4, 3 (15 592)        375.1 / 397.6    1 of 15*
#      4 at 6 000, 3 (28 557)         511.9 / 375.5    9 of 11
#      9 at 6 000, 3 (27 855)         551.5 / 371.6   11 of 11
#     -2 at 4*10^4, 3 (27 007)        584.3 / 420.6   10 of 15*
#     -2 at 1.6*10^5, 4 (108 039)     231.4 / 260.9    3 of 11
#      4 at 3*10^4, 4 (172 135)       388.8 / 311.2   11 of 11
#     -2 at 3*10^5, 4 (202 555)       603.6 / 538.4    9 of 11
# The host's second vCPU is shared, so near a floor the outcome moves
# between sets of runs (4 at 3 000, min size 3, 13 013 pairs: won 11 of 11
# in one set, 1 of 15 in another); each floor sits where the fork won
# most runs of every set above it.
FORK_MIN_SEEDS = 4_000
FORK_MIN_PAIRS = 160_000

# seed blocks per worker. The cubic spacing of seed_blocks gives each
# block about an even share of the work, and worker w takes every jobs-th
# block from w on, so each worker's blocks sample the whole seed range
BLOCKS_PER_WORKER = 64


class _SearchFields(NamedTuple):
    n: int
    limit: int
    min_report_size: int = 3
    max_results: int | None = None


class SearchConfig(_SearchFields):
    """Parameters of one bounded search."""

    __slots__ = ()

    def __new__(cls, n: int, limit: int, min_report_size: int = 3,
                max_results: int | None = None) -> SearchConfig:
        # before anything is allocated
        if n == 0:
            raise ZeroNError("n must be nonzero")
        if not 1 <= limit <= MAX_LIMIT:
            raise InputError(f"limit must be in [1, {MAX_LIMIT}], got {limit}")
        if min_report_size < 1:
            raise InputError(f"min_report_size must be >= 1, got {min_report_size}")
        if max_results is not None and max_results < 1:
            raise InputError(f"max_results must be >= 1, got {max_results}")
        return super().__new__(cls, n, limit, min_report_size, max_results)

    @classmethod
    def _make(cls, fields) -> SearchConfig:
        # _replace builds through _make, which would skip the checks above
        return cls(*fields)


class SearchReport:
    """Everything one search produced, in deterministic order.

    stream_maximal fills the four counters while its stream runs; they
    are final only once the stream has ended. maximal_tuples is filled by
    search_maximal alone, which collects the whole stream.

    empirical_max_size is the largest tuple size visited anywhere in the
    traversal, whether or not it cleared min_report_size; it is a lower
    bound for the true maximum over [1, limit]. When the cap stops a
    search, it, nodes_visited and candidates_tested count the traversal
    up to the last reported tuple; candidates_tested starts at the pair
    count, len(pair_graph(n, limit).adj), built over every seed first.
    """

    __slots__ = ("config", "maximal_tuples", "empirical_max_size", "nodes_visited",
                 "candidates_tested", "result_cap_exceeded")

    def __init__(self, config: SearchConfig):
        self.config = config
        self.maximal_tuples: list[DTuple] = []
        self.empirical_max_size = self.nodes_visited = self.candidates_tested = 0
        self.result_cap_exceeded = False


def search_maximal(config: SearchConfig) -> SearchReport:
    """The report of a search, with every tuple of stream_maximal in maximal_tuples."""
    report = SearchReport(config)
    report.maximal_tuples = list(stream_maximal(report))
    return report


# Stage 1 stores each seed a's upper neighbours
# {d in (a, limit] : a*d + n square} in a CSR: an int32 array of
# neighbours and one of per-seed offsets. The seeds a <= low, with
# low = min(limit, max(limit // 4, |n|)), are walked: residues.walk steps
# t = sqrt(a*d + n) through the classes of RootTable.roots(a), so every
# step lands on a neighbour. a*d + n = t*t needs t*t = n (mod a), so a
# seed without such a root has no neighbour: RootTable.solvable marks the
# seeds up to low that have one, by slice writes over the sieve's primes,
# and only those are walked (13 855 of 75 000 for n = -2 at limit
# 3*10^5).
# The seeds above low are never factored or walked. Their lists come from
# regular extensions: if a*d + n = r*r, then e = a + d + 2r gives
# a*e + n = (a + r)^2 and d*e + n = (d + r)^2. This is exact for d > low:
# - a root r in [0, d) of x^2 = n (mod d) is either sqrt(n), or
#   sqrt(a*d + n) for exactly one lower partner a = (r*r - n)/d, since
#   d > |n| (r*r - n lies in (-d, d*d) and is a multiple of d);
# - an upper partner e has sqrt(d*e + n) = r + j*d with j >= 1, and
#   j >= 2 gives e > 4d - 1 >= limit, so each class holds at most one
#   partner in range, at j = 1: e = a + d + 2r, or d + 2*sqrt(n);
# - a lower partner a > low would give e > 4*low + 5 > limit, so every e
#   in range comes from a pair (a, d) with a <= low, which the walks found.
# So for each pair (a, d) with a <= low < d, the walk of a also emits its
# extension e while e <= limit (e rises with d), and d's list gathers
# these by a counting sort in seed order, after d + 2*sqrt(n) for a
# square n: within one d, e rises with a, so each list is ascending. The
# sort fills the CSR's one offset array in place, and reads each e's d
# back from its seed's stored list.
class PairGraph(NamedTuple):
    """The graph on [1, limit] whose edges are the pairs {a, d} with a*d + n square."""

    n: int
    limit: int
    adj: array  # the CSR of the upper neighbours (see pair_graph)
    start: array
    roots: Callable[[int], tuple[int, ...]]  # the root table's, which down walks

    def up(self, a: int) -> array:
        """The neighbours of a above a, ascending."""
        return self.adj[self.start[a]:self.start[a + 1]]

    def down(self, a: int) -> list[int]:
        """The neighbours of a below a, ascending, by one walk of a's classes."""
        return walk(a, self.n, self.roots(a), 1, a - 1)


def pair_graph(n: int, limit: int) -> PairGraph:
    """The pair graph of D(n) on [1, limit], built by stage 1 (above)."""
    table = RootTable(n, smallest_factor_sieve(limit))
    low = min(limit, max(limit // 4, abs(n)))
    # a*d + n = r*r needs r*r = n (mod a): only seeds with a root have partners
    live = table.solvable(low)
    jobs = jobs_for(live.count(1), FORK_MIN_SEEDS)

    def neighbours(lo: int, hi: int) -> tuple[array, array, array, array]:
        # stage 1 on seeds [lo, hi), all <= low: their upper neighbours,
        # concatenated, and how many each seed has; the regular extensions
        # e <= limit of their pairs (a, d) with d > low; and for each seed
        # with any, the span of the chunk that holds those d
        chunk, ext, spans = array("i"), array("i"), array("i")
        counts = array("i", [0]) * (hi - lo)
        for a in compress(range(lo, hi), live[lo:hi]):
            up = walk(a, n, table.roots(a), a + 1, limit)
            i = len(chunk) + bisect_right(up, low)  # a's first partner above low
            chunk.extend(up)
            counts[a - lo] = len(up)
            had = len(ext)
            for d in chunk[i:]:
                e = a + d + 2 * isqrt(a * d + n)
                if e > limit:
                    break  # e rises with d
                ext.append(e)
            if len(ext) > had:
                spans.extend((i, i + len(ext) - had))
        return chunk, counts, ext, spans

    # the CSR: up(a) = adj[start[a]:start[a + 1]], ascending. start first
    # counts each list, that of a <= low at start[a + 1] and that of d > low
    # one further up, at start[d + 2] (up(limit) is empty); prefix sums then
    # make start[a] the first index of up(a), and start[d + 1] that of up(d),
    # which the counting sort walks forward to the first index of up(d + 1)
    start = array("i", [0]) * (limit + 2)
    adj, ext, spans = array("i"), array("i"), array("i")
    blocks = seed_blocks(low, jobs)
    for (chunk, counts, es, where), (lo, hi) in zip(fork_map(neighbours, blocks, jobs), blocks):
        spans.extend(map(len(adj).__add__, where))  # spans into adj, not chunk
        adj.extend(chunk)
        start[lo + 1:hi + 1] = counts
        ext.extend(es)
    # a square n = m*m puts d + 2m first in each list above low: its
    # lower partner is 0
    m = isqrt(n) if n > 0 else 0
    rooted = range(low + 1, limit - 2 * m + 1 if m * m == n else low + 1)

    def owners() -> Iterator[int]:
        # the d whose list each extension in ext joins, in seed order
        return chain.from_iterable(adj[i:j] for i, j in zip(spans[::2], spans[1::2]))

    # the lists above low, by a counting sort
    start[low + 3:low + 3 + len(rooted)] = array("i", [1]) * len(rooted)
    for d in owners():
        start[d + 2] += 1
    for lo, hi in seed_blocks(limit + 1, 1):  # in slices, not a copy of start
        start[lo - 1:hi] = array("i", accumulate(start[lo - 1:hi]))
    adj.extend(repeat(0, start[-1] - len(adj)))
    tops = range(rooted.start + 2 * m, rooted.stop + 2 * m)  # d + 2m for d in rooted
    for d, e in zip(chain(rooted, owners()), chain(tops, ext)):
        i = start[d + 1]  # where d's next entry goes
        adj[i] = e
        start[d + 1] = i + 1
    return PairGraph(n, limit, adj, start, table.roots)


# Stage 2 grows cliques depth first, seeds ascending: the children of a
# node through candidate d are d's upper neighbours among the node's
# candidates. Children exceed the current maximum, so every tuple is
# visited once, in lexicographic order, and the last candidate has no
# children. A seed with no upper neighbour, and a child with no children
# or one childless child, is counted without a descent when it cannot be
# reported.
# A leaf has no common upper neighbour, so it is maximal iff no lower
# neighbour of its top member is adjacent to all other members: down(top)
# lists them by one walk of top's classes, and tuples.extenders, the
# filter extend() uses, looks for one adjacent to the rest.
# candidates_tested counts the pairs, the adjacency entries stage 2 reads
# (the lengths of the lists of a node's candidates) and the lower
# neighbours the leaf walks list.
# Stage 2 workers, forked once pair_graph has returned, inherit the graph
# and return each block's tuples, each with the counters as they stood
# when it was found, and the block's counters. So the tuples are
# lexicographic, the counters sum, and the report is byte-identical for
# any number of workers. A capped search stops at the tuple that reaches
# the cap, with the counters of the blocks before it plus those recorded
# with that tuple: what one pass over the seeds that stopped there would
# count.
def stream_maximal(report: SearchReport) -> Iterator[DTuple]:
    """Yield every maximal D(n) tuple within [1, limit] of size >= min_report_size.

    The search is report.config, and its counters go into report (a new
    one). Each tuple is verified and yielded as its block of seeds is
    read, so the stream holds one block's tuples at a time. Closing the
    stream early, or an error, kills and reaps every worker.

    Maximal means extend(t, 1, limit) is empty: nothing in range extends
    the tuple, below or above its maximum. Output order is lexicographic
    on element lists and byte-stable across reruns, whatever the number
    of workers. With max_results set, the stream ends after the first
    that many tuples and report is flagged result_cap_exceeded once they
    are reached (a deterministic prefix, never a silent truncation); the
    whole pair graph is still built first, and the clique growth stops at
    the block of seeds that holds the last kept tuple.
    """
    n, limit, min_report, max_results = report.config
    graph = pair_graph(n, limit)

    def grow(lo: int, hi: int) -> tuple[list, int, int, int]:
        # stage 2 on seeds [lo, hi): the reported tuples, each as its
        # elements with the largest size, nodes and candidates counted up
        # to it, then the block's totals of those three
        adj, start = graph.adj, graph.start
        found: list[tuple[tuple[int, ...], int, int, int]] = []
        best = nodes = cands = 0

        def explore(stack: list[int], kids: array | list[int]) -> None:
            nonlocal best, nodes, cands
            nodes += 1
            size = len(stack)
            if size > best:
                best = size
            if kids:
                pool = set(kids)
                last = kids[-1]
                next_size = size + 1
                for d in kids:
                    i, j = start[d], start[d + 1]
                    cands += j - i
                    # up(d) lies above d, so the last kid has no children
                    grand = [k for k in adj[i:j] if k in pool] if d != last else []
                    if next_size < min_report:
                        # unreportable: count a childless kid, and a kid
                        # with one (childless) grandchild, without descending
                        if not grand:
                            nodes += 1
                            if next_size > best:
                                best = next_size
                            continue
                        if len(grand) == 1 and next_size + 1 < min_report:
                            g = grand[0]
                            cands += start[g + 1] - start[g]
                            nodes += 2
                            if next_size + 1 > best:
                                best = next_size + 1
                            continue
                    stack.append(d)
                    explore(stack, grand)
                    stack.pop()
            elif size >= min_report:
                # only lower neighbours of top can extend a leaf (see above)
                below = graph.down(stack[-1])
                cands += len(below)
                if next(extenders(below, set(stack), stack[-2::-1], n), None) is None:
                    found.append((tuple(stack), best, nodes, cands))

        seeds = range(lo, hi)
        if min_report > 1:
            # a childless seed is a one-node leaf, too small to report:
            # only the others are explored, and the skipped ones counted
            seeds = compress(seeds, map(ne, start[lo:hi], start[lo + 1:hi + 1]))
        counted = lo  # the seeds below this one are counted
        for a in chain(seeds, (hi,)):
            if a > counted:
                nodes += a - counted
                best = best or 1
            if a < hi:
                explore([a], graph.up(a))
            counted = a + 1
        # explore refers to itself; the cycle would keep this block's tuples
        # and the CSR alive until the cyclic collector ran
        del explore
        return found, best, nodes, cands

    # stage 2: cliques seed by seed, read in block order up to the cap
    report.candidates_tested = len(graph.adj)
    # below min size 4 a pair costs about 8 times the clique growth (see FORK_MIN_SEEDS)
    jobs = jobs_for((8 if min_report <= 3 else 1) * len(graph.adj), FORK_MIN_PAIRS)
    count = 0
    with closing(fork_map(grow, seed_blocks(limit, jobs), jobs)) as parts:
        for found, best, nodes, cands in parts:
            for els, *upto in found:
                yield verify(els, n)
                count += 1
                if count == max_results:
                    best, nodes, cands = upto
                    report.result_cap_exceeded = True
                    break
            report.empirical_max_size = max(report.empirical_max_size, best)
            report.nodes_visited += nodes
            report.candidates_tested += cands
            if report.result_cap_exceeded:
                break


def seed_blocks(limit: int, jobs: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges of consecutive seeds that cover [1, limit], ascending.

    Up to BLOCKS_PER_WORKER per worker, even for one process, so that a
    capped search stops after few blocks. The k-th of K blocks ends near
    limit * (k/K)^3: a small seed roots far more cliques than a large one,
    so the blocks hold about even shares of the clique growth.
    """
    count = jobs * BLOCKS_PER_WORKER
    ends = dict.fromkeys(1 + limit * k**3 // count**3 for k in range(count + 1))
    return list(pairwise(ends))


def empirical_max_size(n: int, limit: int) -> int:
    """Size of the largest D(n) tuple inside [1, limit].

    Runs the full traversal with reporting disabled, so it is exact, not
    a heuristic, and serves as the desk-scale lower bound for the true
    maximum tuple size.
    """
    return search_maximal(SearchConfig(n, limit, min_report_size=limit + 2)).empirical_max_size
