# Bounded exhaustive search for maximal D(n) tuples inside [1, limit].
#
# The traversal is a depth-first enumeration of verified tuples in sorted
# order: seeds are single elements, children always exceed the current
# maximum, so every tuple is visited exactly once and reported tuples are
# emitted in lexicographic order.
#
# The hot path never tests square roots one value at a time. Candidates d
# with a*d + n square satisfy t^2 = n (mod a) for t = sqrt(a*d + n), so the
# walk steps t through the residue classes of n mod a (residues.RootTable)
# and every step lands on a candidate. Child sets reuse the parent's
# candidate list when the remaining suffix is short, and re-walk the new
# maximum element's residue classes otherwise; both produce the same set,
# and criterion-grade tests pin the whole engine to a naive oracle.

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .exact import ceil_sqrt, integer_sqrt, is_perfect_square
from .residues import RootTable, smallest_factor_sieve
from .tuples import DTuple, InputError, ZeroNError, verify

# parent-suffix reuse pays off until the suffix outgrows a fresh residue walk
_SUFFIX_CUTOFF = 24


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one bounded search."""

    n: int
    limit: int
    min_report_size: int = 3
    max_results: int | None = None

    def __post_init__(self):
        if self.n == 0:
            raise ZeroNError("n must be nonzero")
        if self.limit < 1:
            raise InputError(f"limit must be >= 1, got {self.limit}")
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
        isqrt = math.isqrt  # every use is guarded by v >= 0
        results: list[DTuple] = []
        best = 0
        capped = False
        nodes = 0
        cands = 0  # suffix-filter tests; walk() tallies its own output

        def has_left_extension(stack: list[int], members: set[int]) -> bool:
            # anything below the maximum that extends the whole tuple?
            top = stack[-1]
            if top == 1:
                return False
            for d in self.walk(stack[0], 1, top - 1):
                if d in members:
                    continue
                if all(is_perfect_square(x * d + n) for x in stack[:0:-1]):
                    return True
            return False

        def explore(stack: list[int], members: set[int], kids: list[int]) -> None:
            nonlocal best, capped, nodes, cands
            nodes += 1
            size = len(stack)
            if size > best:
                best = size
            if kids:
                pair_level = size == 1
                x0 = stack[0]
                rev = stack[::-1]  # larger members reject candidates fastest
                total = len(kids)
                next_size = size + 1
                for i, d in enumerate(kids):
                    if total - i - 1 <= _SUFFIX_CUTOFF:
                        suffix = kids[i + 1 :]
                        cands += len(suffix)
                        grand = [k for k in suffix
                                 if (v := d * k + n) >= 0 and (r := isqrt(v)) * r == v]
                    elif pair_level:
                        grand = [k for k in self.walk(d, d + 1, limit)
                                 if (v := x0 * k + n) >= 0 and (r := isqrt(v)) * r == v]
                    else:
                        grand = [k for k in self.walk(d, d + 1, limit)
                                 if all(is_perfect_square(x * k + n) for x in rev)]
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

        for a in range(1, limit + 1):
            explore([a], {a}, self.walk(a, a + 1, limit))
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
    truncation).
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
    if n == 0:
        raise ZeroNError("n must be nonzero")
    if limit < 1:
        raise InputError(f"limit must be >= 1, got {limit}")
    engine = _Engine(n, limit)
    _, best, _ = engine.run(limit + 2, None)  # reporting threshold unreachable
    return best
