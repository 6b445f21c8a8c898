# Bounded exhaustive search for maximal D(n) tuples inside [1, limit].
#
# Two stages, the shape of the brute-force oracle (tests/naive_oracle.py).
# Stage 1 walks every seed a once and stores its upper neighbours
# {d in (a, limit] : a*d + n square} in a CSR: an int32 array of
# neighbours and one of per-seed offsets. residues.walk steps
# t = sqrt(a*d + n) through the classes of RootTable.roots(a), so every
# step lands on a neighbour. Stage 2 grows cliques depth first, seeds
# ascending: the children of a node through candidate d are d's stored
# upper neighbours among the node's candidates. Children exceed the
# current maximum, so every tuple is visited once, in lexicographic order.
# A leaf has no common upper neighbour, so it is maximal iff no lower
# neighbour of its top member is adjacent to all other members: one walk
# of top's classes below top lists the lower neighbours, and
# tuples.extenders, the filter extend() uses, looks for one adjacent to
# the rest. candidates_tested counts the walks' outputs and the adjacency
# entries read in stage 2.

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .residues import RootTable, smallest_factor_sieve, walk
from .tuples import DTuple, InputError, ZeroNError, extenders, verify

# the sieve and the pair graph hold int32 entries per element of [1, limit]
MAX_LIMIT = 10**7


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
    bound for the true maximum over [1, limit].
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
    on element lists and byte-stable across reruns. With max_results set,
    traversal stops after that many reported tuples and the report is
    flagged result_cap_exceeded (a deterministic prefix, never a silent
    truncation); the whole pair graph is still built first.
    """
    n, limit = config.n, config.limit
    min_report, max_results = config.min_report_size, config.max_results
    roots = RootTable(n, smallest_factor_sieve(limit)).roots

    # stage 1: up(a) = adj[start[a]:start[a + 1]], ascending
    adj = array("i")
    start = array("i", [0]) * (limit + 2)
    for a in range(1, limit + 1):
        adj.extend(walk(a, n, roots(a), a + 1, limit))
        start[a + 1] = len(adj)

    cands = len(adj)  # walk outputs, then adjacency entries read
    results: list[DTuple] = []
    best = 0
    capped = False
    nodes = 0

    def has_left_extension(stack: list[int], members: set[int]) -> bool:
        # only lower neighbours of top can extend a leaf (see above)
        nonlocal cands
        top = stack[-1]
        below = walk(top, n, roots(top), 1, top - 1)
        cands += len(below)
        return next(extenders(below, members, stack[-2::-1], n), None) is not None

    def explore(stack: list[int], members: set[int], kids: array | list[int]) -> None:
        nonlocal best, capped, nodes, cands
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
                if capped:
                    return
        elif size >= min_report and not has_left_extension(stack, members):
            results.append(verify(tuple(stack), n))
            if max_results is not None and len(results) >= max_results:
                capped = True

    # stage 2: cliques seed by seed
    for a in range(1, limit + 1):
        explore([a], {a}, adj[start[a]:start[a + 1]])
        if capped:
            break

    return SearchReport(
        config=config,
        maximal_tuples=results,
        empirical_max_size=best,
        nodes_visited=nodes,
        candidates_tested=cands,
        result_cap_exceeded=capped,
    )


def empirical_max_size(n: int, limit: int) -> int:
    """Size of the largest D(n) tuple inside [1, limit].

    Runs the full traversal with reporting disabled, so it is exact, not
    a heuristic, and serves as the desk-scale lower bound for the true
    maximum tuple size.
    """
    # min_report_size above limit is unreachable
    return search_maximal(SearchConfig(n, limit, min_report_size=limit + 2)).empirical_max_size
