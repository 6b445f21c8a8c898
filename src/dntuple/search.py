# Bounded exhaustive search for maximal D(n) tuples inside [1, limit].
#
# Two stages, the shape of the brute-force oracle (tests/naive_oracle.py).
# Stage 1 walks every seed a once and stores its upper neighbours
# {d in (a, limit] : a*d + n square} in a CSR: an int32 array of
# neighbours and one of per-seed offsets. The walk steps t = sqrt(a*d + n)
# through the residue classes of n mod a (residues.RootTable), so every
# step lands on a neighbour. Stage 2 grows cliques depth first, seeds
# ascending: the children of a node through candidate d are d's stored
# upper neighbours among the node's candidates. Children exceed the
# current maximum, so every tuple is visited once, in lexicographic order.
# A leaf has no common upper neighbour, so it is maximal iff no lower
# neighbour of its top member is adjacent to all other members; one walk
# of top's residue classes below top finds those. candidates_tested counts
# the walks' outputs and the adjacency entries read in stage 2.

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .exact import ceil_sqrt, integer_sqrt, square_root_if_square
from .residues import RootTable, smallest_factor_sieve
from .tuples import DTuple, InputError, ZeroNError, verify

# the sieve and the pair graph hold int32 entries per element of [1, limit]
MAX_LIMIT = 10**7


def _check_range(n: int, limit: int) -> None:
    # before anything is allocated
    if n == 0:
        raise ZeroNError("n must be nonzero")
    if not 1 <= limit <= MAX_LIMIT:
        raise InputError(f"limit must be in [1, {MAX_LIMIT}], got {limit}")


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one bounded search."""

    n: int
    limit: int
    min_report_size: int = 3
    max_results: int | None = None

    def __post_init__(self):
        _check_range(self.n, self.limit)
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


class _Engine:
    def __init__(self, n: int, limit: int):
        self.n = n
        self.limit = limit
        self.table = RootTable(n, smallest_factor_sieve(limit))
        self.nodes = 0
        self.cands = 0

    def walk(self, a: int, lo: int, hi: int) -> list[int]:
        # residue-class enumeration of {d in [lo, hi] : a*d + n is square}
        n = self.n
        if lo > hi:
            return []
        hi_val = a * hi + n
        if hi_val < 0:
            return []
        t_lo = ceil_sqrt(max(0, a * lo + n))
        t_hi = integer_sqrt(hi_val)
        if t_lo > t_hi:
            return []
        out = []
        append = out.append
        for r in self.table.roots(a):
            t = t_lo + (r - t_lo) % a
            while t <= t_hi:
                append((t * t - n) // a)
                t += a
        out.sort()
        self.cands += len(out)
        return out

    def run(self, min_report: int, max_results: int | None) -> tuple[list[DTuple], int, bool]:
        n, limit = self.n, self.limit
        # stage 1: up(a) = adj[start[a]:start[a + 1]], ascending
        adj = array("i")
        start = array("i", [0]) * (limit + 2)
        for a in range(1, limit + 1):
            adj.extend(self.walk(a, a + 1, limit))
            start[a + 1] = len(adj)

        results: list[DTuple] = []
        best = 0
        capped = False
        nodes = 0
        cands = 0  # adjacency entries read; walk() tallies its own output

        def has_left_extension(stack: list[int], members: set[int]) -> bool:
            # only lower neighbours of top can extend a leaf (see above)
            top = stack[-1]
            rest = stack[-2::-1]
            for d in self.walk(top, 1, top - 1):
                if d in members:
                    continue
                if all(square_root_if_square(x * d + n) is not None for x in rest):
                    return True
            return False

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

        self.nodes += nodes
        self.cands += cands
        return results, best, capped


def search_maximal(config: SearchConfig) -> SearchReport:
    """Enumerate every maximal D(n) tuple within [1, limit] of size >= min_report_size.

    Maximal means extend(t, 1, limit) is empty: nothing in range extends
    the tuple, below or above its maximum. Output order is lexicographic
    on element lists and byte-stable across reruns. With max_results set,
    traversal stops after that many reported tuples and the report is
    flagged result_cap_exceeded (a deterministic prefix, never a silent
    truncation); the whole pair graph is still built first.
    """
    engine = _Engine(config.n, config.limit)
    results, best, capped = engine.run(config.min_report_size, config.max_results)
    return SearchReport(
        config=config,
        maximal_tuples=results,
        empirical_max_size=best,
        nodes_visited=engine.nodes,
        candidates_tested=engine.cands,
        result_cap_exceeded=capped,
    )


def empirical_max_size(n: int, limit: int) -> int:
    """Size of the largest D(n) tuple inside [1, limit].

    Runs the full traversal with reporting disabled, so it is exact, not
    a heuristic, and serves as the desk-scale lower bound for the true
    maximum tuple size.
    """
    _check_range(n, limit)
    engine = _Engine(n, limit)
    _, best, _ = engine.run(limit + 2, None)  # reporting threshold unreachable
    return best
