# Verified D(n) tuples: a set of distinct positive integers such that the
# product of any two members plus n is a perfect square. A verified tuple
# carries the square root witness r for every pair, so downstream audits
# never have to trust, only to recompute.

from __future__ import annotations

import itertools
import math
from collections.abc import Container, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, NamedTuple

from .exact import ceil_sqrt, pow_compare, square_root_if_square
from .residues import walk

if TYPE_CHECKING:
    from fractions import Fraction


class InputError(ValueError):
    """Malformed input, as opposed to a genuine verification failure."""


class EmptyInputError(InputError):
    pass


class DuplicateElementError(InputError):
    pass


class NonPositiveElementError(InputError):
    pass


class ZeroNError(InputError):
    pass


class InvalidRangeError(InputError):
    pass


class PairWitness(NamedTuple):
    """a*b + n = r*r with a < b and r >= 0."""

    a: int
    b: int
    r: int


class VerificationFailure(NamedTuple):
    """First pair (in lexicographic order) whose product plus n is not a square."""

    n: int
    elements: tuple[int, ...]
    pair: tuple[int, int]

    def __str__(self) -> str:
        a, b = self.pair
        return f"{a}*{b}+{self.n} = {a * b + self.n} is not a perfect square"


class DTuple(NamedTuple):
    """A fully witnessed D(n) tuple, elements strictly increasing.

    Construct through verify(); the constructor itself does not check.
    As a NamedTuple it iterates over n, elements and witnesses, not over
    the elements.
    """

    n: int
    elements: tuple[int, ...]
    witnesses: tuple[PairWitness, ...]  # sorted by (a, b)

    @property
    def size(self) -> int:
        return len(self.elements)

    def witness_for(self, a: int, b: int) -> PairWitness:
        if a > b:
            a, b = b, a
        for w in self.witnesses:
            if w.a == a and w.b == b:
                return w
        raise KeyError((a, b))

    def subtuple(self, elements: Iterable[int]) -> DTuple:
        """The tuple of the given members, with their stored witnesses.

        Every subset of a D(n) tuple is one, so nothing is checked again;
        a non-member raises KeyError.
        """
        keep = set(elements)
        if not keep <= set(self.elements):
            raise KeyError(sorted(keep - set(self.elements)))
        return DTuple(self.n, tuple(x for x in self.elements if x in keep),
                      tuple(w for w in self.witnesses if w.a in keep and w.b in keep))


class RangeClassification(NamedTuple):
    """Element counts of one tuple split by the standard ranges.

    small        [1, n^2]
    intermediate (n^2, |n|^3)
    large        [|n|^3, infinity)

    and the epsilon split of everything above n^2:

    eps_intermediate (n^2, |n|^(2+eps)]
    eps_large        (|n|^(2+eps), infinity)

    For |n| = 1 the written ranges collide (the intermediate band is
    empty and 1 falls in both end ranges); the small slot wins and
    degenerate_ranges is set. That is a property of the ranges, not an
    input error.
    """

    n: int
    epsilon: Fraction
    small_count: int
    intermediate_count: int
    large_count: int
    eps_intermediate_count: int
    eps_large_count: int
    degenerate_ranges: bool


def _check_inputs(elements, n) -> tuple[int, ...]:
    # exact type tests: bool is an int subclass, and a float or a string
    # would pass the comparisons below
    if type(n) is not int:
        raise InputError(f"n must be an integer, got {n!r}")
    if n == 0:
        raise ZeroNError("n must be nonzero")
    els = tuple(elements)
    for x in els:
        if type(x) is not int:
            raise InputError(f"element {x!r} is not an integer")
    els = tuple(sorted(els))
    if not els:
        raise EmptyInputError("need at least one element")
    for x in els:
        if x < 1:
            raise NonPositiveElementError(f"element {x} is not a positive integer")
    for x, y in zip(els, els[1:]):
        if x == y:
            raise DuplicateElementError(f"element {x} repeats")
    return els


def verify(elements, n: int) -> DTuple | VerificationFailure:
    """Check the defining property pair by pair and collect witnesses.

    Returns a witnessed DTuple, or a VerificationFailure naming the first
    offending pair in lexicographic order. Malformed input (empty, has a
    duplicate, a non-positive or non-integer element, or n = 0 or not an
    integer) raises InputError.
    """
    els = _check_inputs(elements, n)
    wits = []
    for a, b in itertools.combinations(els, 2):
        r = square_root_if_square(a * b + n)
        if r is None:
            return VerificationFailure(n=n, elements=els, pair=(a, b))
        wits.append(PairWitness(a, b, r))
    return DTuple(n=n, elements=els, witnesses=tuple(wits))


def extend(t: DTuple, lo: int, hi: int) -> list[int]:
    """All d in [lo, hi], not already a member, with x*d + n square for every member x.

    Exact and exhaustive over the window: the partners of the smallest
    member (the cheapest progression) are square tested against the rest,
    one part of the window at a time, so memory stays bounded however
    many partners the window holds.
    """
    if lo > hi:
        raise InvalidRangeError(f"empty range [{lo}, {hi}]")
    if hi < 1:  # the window holds no positive d
        return []
    els = t.elements
    members, rest = set(els), els[:0:-1]
    return [d for part in window_parts(els[0], t.n, max(lo, 1), hi)
            for d in extenders(part, members, rest, t.n)]


def extenders(candidates: Iterable[int], members: Container[int],
              rest: Sequence[int], n: int) -> Iterator[int]:
    """The candidates d, not in members, with x*d + n square for every x in rest.

    Lazy, so a caller that needs only one stops at the first. Put the
    larger members first in rest: they reject fastest.
    """
    return (d for d in candidates if d not in members
            and all(square_root_if_square(x * d + n) is not None for x in rest))


# the most square root values a window_parts window may span:
# extend() over 10**7 of them takes about 6 s on 2 vCPUs, and windows far
# past it would run for hours
MAX_WINDOW_STEPS = 10**7

# window_parts splits a window into parts of at most this many square
# root values, which bounds the partners held at once
PART_STEPS = 1 << 16


def window_parts(a: int, n: int, lo: int, hi: int) -> Iterator[list[int]]:
    """All d in [lo, hi] with a*d + n a perfect square, in ascending parts.

    The square roots t = sqrt(a*d + n) run over ceil(sqrt(max(0, a*lo+n)))
    .. floor(sqrt(a*hi+n)); a window of more than MAX_WINDOW_STEPS values
    is refused with InputError. The input checks and one period of t,
    which finds the classes t mod a that divide, run before the first
    part; each part then walks those classes with residues.walk over at
    most PART_STEPS consecutive square roots.
    """
    if a < 1:
        raise InputError(f"a must be a positive integer, got {a}")
    if n == 0:
        raise ZeroNError("n must be nonzero")
    if lo > hi:
        raise InvalidRangeError(f"empty range [{lo}, {hi}]")
    hi_val = a * hi + n
    if hi_val < 0:
        return iter(())
    t_lo = ceil_sqrt(max(0, a * lo + n))
    t_hi = math.isqrt(hi_val)
    if t_hi - t_lo + 1 > MAX_WINDOW_STEPS:
        # no values in the message: str() of an int past 4 300 digits raises
        raise InputError(f"window spans more than {MAX_WINDOW_STEPS} square roots of a*d + n")
    roots = [t % a for t in range(t_lo, t_lo + min(a, t_hi - t_lo + 1))
             if (t * t - n) % a == 0]
    # the part from square root t holds the d in [lo, hi] with t <= sqrt(a*d + n) < t + PART_STEPS
    return (walk(a, n, roots, max(lo, -(-(t * t - n) // a)),
                 min(hi, ((t + PART_STEPS) ** 2 - n - 1) // a))
            for t in range(t_lo, t_hi + 1, PART_STEPS))


def classify(t: DTuple, epsilon: Fraction) -> RangeClassification:
    """Count members in each range band, all boundaries decided exactly.

    The epsilon boundary x <= |n|^(2+eps) with eps = p/q is evaluated as
    x^q <= |n|^(2q+p) in integers, no rounding anywhere. A float epsilon
    raises InputError.
    """
    epsilon = exact_epsilon(epsilon)
    if epsilon <= 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    n = t.n
    n_abs = abs(n)
    n_sq = n * n
    n_cube = n_abs ** 3
    p = epsilon.numerator
    q = epsilon.denominator
    small = inter = large = eps_inter = eps_large = 0
    for x in t.elements:
        if x <= n_sq:
            small += 1
        elif x >= n_cube:
            large += 1
        else:
            inter += 1
        if x > n_sq:
            # x <= n_abs^(2 + p/q)  iff  x^q <= n_abs^(2q + p)
            if pow_compare(x, q, n_abs, 2 * q + p) <= 0:
                eps_inter += 1
            else:
                eps_large += 1
    return RangeClassification(
        n=n,
        epsilon=epsilon,
        small_count=small,
        intermediate_count=inter,
        large_count=large,
        eps_intermediate_count=eps_inter,
        eps_large_count=eps_large,
        degenerate_ranges=(n_abs == 1),
    )


def exact_epsilon(value) -> Fraction:
    """value as a Fraction; a float or bool raises InputError.

    A float's binary rounding would pass silently, and a bool would run as 0 or 1.
    """
    from fractions import Fraction  # not at the top: the search never needs it

    if isinstance(value, (float, bool)):
        raise InputError(f"epsilon must be an exact rational, got {type(value).__name__} {value!r}")
    return Fraction(value)
