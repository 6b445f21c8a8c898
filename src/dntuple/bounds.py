"""Certified counting bounds driven by the shifted Fibonacci recurrence.

The growth argument for tuples with property D(n) splits elements at
n^2 and |n|^(2+eps). Elements above the upper cut are counted by two
index thresholds k(eps) and ell(eps) on the recurrence beta_2 = beta_3
= 1, beta_{i+2} = beta_i + beta_{i+1}; elements in the middle window by
a sliding-gap count. Every certified number is exact: the thresholds
come from integer scans, and the window cap and the prescribed epsilon
are floors of logarithm quotients, decided from exact.ln_bracket's
integer brackets. The only floating point in this module is an Estimate
carrying certified=False (leading-order terms whose absolute constants
are not pinned down).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .exact import ln_bracket
from .tuples import InputError, ZeroNError, exact_epsilon

# smallest accepted epsilon: k and ell grow like log(1/eps), and the cached
# beta sequence with them, up to an entry near 260/eps; at 2^-1024 that is
# about 1 500 entries
MIN_EPSILON = Fraction(1, 2**1024)


class IndexTooSmallError(ValueError):
    """beta is only defined from index 2."""


class NotApplicableError(ValueError):
    """The bound's hypothesis excludes this n."""


_BETA = [1, 1]  # beta_2, beta_3, extended on demand


def beta(i: int) -> int:
    """beta_i of beta_2 = beta_3 = 1, beta_{i+2} = beta_i + beta_{i+1}."""
    if i < 2:
        raise IndexTooSmallError(f"beta is defined for i >= 2, got {i}")
    while len(_BETA) < i - 1:
        _BETA.append(_BETA[-2] + _BETA[-1])
    return _BETA[i - 2]


def _as_epsilon(value) -> Fraction:
    eps = exact_epsilon(value)
    # no value in the message: str() of a huge numerator or denominator raises
    if not MIN_EPSILON <= eps <= 1:
        raise InputError("epsilon must lie in [2^-1024, 1]")
    return eps


def _first_index_above(p: int, c: int) -> int:
    # smallest i >= 2 with beta_i * p > c, for p >= 1
    i = 2
    while beta(i) * p <= c:
        i += 1
    return i


def k_epsilon(epsilon) -> int:
    """Smallest k >= 2 with (beta_k - 11)*(2+eps) > 2*beta_k + 9, exactly."""
    return thresholds(epsilon).k


def ell_epsilon(epsilon) -> int:
    """Smallest ell >= 2 with (beta_ell - 131)*(2+eps) > 2*beta_ell - 2, exactly."""
    return thresholds(epsilon).ell


class EpsilonThresholds(NamedTuple):
    epsilon: Fraction
    k: int
    ell: int


def thresholds(epsilon) -> EpsilonThresholds:
    """k(eps) and ell(eps) by integer scans.

    With eps = p/q, (beta - 11)*(2+eps) > 2*beta + 9 iff beta*p > 31q + 11p,
    and (beta - 131)*(2+eps) > 2*beta - 2 iff beta*p > 260q + 131p.
    """
    eps = _as_epsilon(epsilon)
    p, q = eps.numerator, eps.denominator
    return EpsilonThresholds(
        epsilon=eps,
        k=_first_index_above(p, 31 * q + 11 * p),
        ell=_first_index_above(p, 260 * q + 131 * p),
    )


def a_eps_bound(epsilon) -> int:
    """Certified cap, uniform in n, on elements above |n|^(2+eps): k(eps)+ell(eps).

    The threshold argument in fact shows the count is strictly below
    k+ell, so k+ell-1 would also serve; the looser published form is
    kept as stated.
    """
    th = thresholds(epsilon)
    return th.k + th.ell


def b_eps_bound(n: int, epsilon) -> int:
    """Certified cap on elements of one tuple inside (n^2, |n|^(2+eps)].

    Consecutive elements there grow by more than 4.89x from the fourth
    onward (the sliding-window gap bound), so beyond the first three the
    window admits at most log_{4.89}(|n|^eps) more. The cap is the exact
    floor(eps*ln|n| / ln 4.89) + 3, with no rounding slop: see
    _window_caps for how the floor is decided and why that ends.
    """
    eps = _as_epsilon(epsilon)
    if abs(_as_n(n)) == 1:
        raise NotApplicableError("window count bound needs |n| >= 2")
    return _window_caps(abs(n), (eps,))[0]


def _as_n(n) -> int:
    # exact type test: bool is an int subclass, and a float would pass the
    # range checks and give a bound for a non-integer n
    if type(n) is not int:
        raise InputError(f"n must be an integer, got {n!r}")
    if n == 0:
        raise ZeroNError("n must be nonzero")
    return n


def _window_caps(m: int, epsilons: Sequence[Fraction]) -> list[int]:
    """floor(eps*ln m / ln 4.89) + 3 for each eps, exactly, for m >= 2.

    With eps = p/q and brackets lo_a <= 2^b*ln m <= hi_a and
    lo_g <= 2^b*ln 4.89 <= hi_g, the quotient lies between
    p*lo_a/(q*hi_g) and p*hi_a/(q*lo_g). When both have the same floor,
    that is the floor; otherwise b doubles. This ends: the brackets
    shrink to the quotient, and the quotient is no integer. It is
    positive, and a quotient equal to j >= 1 would need
    m^p * 100^(jq) = 489^(jq), whose left side is even and right odd.
    """
    bits = 64  # settles nearly every floor at the first try
    lo_a, hi_a = ln_bracket(m, 1, bits)
    caps = []
    for eps in epsilons:
        p, q = eps.numerator, eps.denominator
        while True:
            lo_g, hi_g = _ln_gap(bits)
            floor = p * lo_a // (q * hi_g)
            if floor == p * hi_a // (q * lo_g):
                break
            bits *= 2
            lo_a, hi_a = ln_bracket(m, 1, bits)
        caps.append(floor + 3)
    return caps


@cache
def _ln_gap(bits: int) -> tuple[int, int]:
    # the bracket of ln 4.89, the window's growth factor, at each precision used
    return ln_bracket(489, 100, bits)


class Estimate(NamedTuple):
    """A leading-order value whose lower-order constant is not certified."""

    value: float
    certified: bool = False


def c_bound_leading(n: int) -> Estimate:
    """Leading term 2*log|n| for the count of elements <= n^2.

    The second-order term has an unknown constant, so this is an
    estimate and is flagged as such, never a certified bound.
    """
    if abs(_as_n(n)) <= 2:
        raise NotApplicableError("leading-term estimate needs |n| >= 3")
    return Estimate(value=2 * math.log(abs(n)), certified=False)


class BoundReport(NamedTuple):
    """Every bound at one (n, eps); None where the bound's hypothesis excludes n."""

    n: int
    epsilon: Fraction
    k: int
    ell: int
    a_eps_bound: int
    b_eps_bound: int | None  # needs |n| >= 2
    c_bound_leading: Estimate | None  # needs |n| >= 3
    m_bound_leading: Estimate | None  # needs |n| >= 3
    notes: tuple[str, ...] = ()


def bound_report(n: int, epsilon) -> BoundReport:
    """All bounds at one (n, eps): k, ell, the A-part, the window cap and the estimates."""
    return bound_grid((n,), (epsilon,))[0]


def bound_grid(ns: Sequence[int], epsilons: Iterable) -> list[BoundReport]:
    """bound_report(n, eps) for each n in turn, and each eps within one n.

    The thresholds are computed once per eps, and the bracket of ln|n|
    and the estimate once per n, not once per row.
    """
    for n in ns:
        _as_n(n)
    ths = [thresholds(eps) for eps in epsilons]
    rows = []
    for n in ns:
        if abs(n) >= 2:
            caps = _window_caps(abs(n), [th.epsilon for th in ths])
        else:
            caps = [None] * len(ths)
        c = c_bound_leading(n) if abs(n) >= 3 else None
        for th, b in zip(ths, caps):
            a = th.k + th.ell
            rows.append(BoundReport(
                n=n,
                epsilon=th.epsilon,
                k=th.k,
                ell=th.ell,
                a_eps_bound=a,
                b_eps_bound=b,
                c_bound_leading=c,
                m_bound_leading=None if c is None else Estimate(value=a + b + c.value),
            ))
    return rows


def _prescribed_epsilon_bracket(m: int) -> tuple[Fraction, Fraction]:
    """[(F-1)/2^64, (F+2)/2^64] with F = floor(2^64*ln ln m / ln m), for m >= 3.

    F is decided like the window cap: ln m lies in a bracket
    [lo, hi]/2^b, ln ln m between the logarithms of its ends, and b
    doubles until both ends of the quotient have the same floor. That
    ends because the quotient is irrational: ln ln m = (u/v)*ln m would
    make (ln m)^v = m^u algebraic, but ln m is transcendental. The ends
    are clamped into [2^-64, 1].
    """
    bits = 128
    while True:
        lo, hi = ln_bracket(m, 1, bits)
        # lo >= 1 for m >= 3, so its logarithm is defined
        ll_lo, ll_hi = ln_bracket(lo, 1 << bits, bits)[0], ln_bracket(hi, 1 << bits, bits)[1]
        floor = (ll_lo << 64) // hi
        if floor == (ll_hi << 64) // lo:
            break
        bits *= 2
    lo_eps = max(Fraction(floor - 1, 2**64), Fraction(1, 2**64))
    return lo_eps, min(Fraction(floor + 2, 2**64), Fraction(1))


def m_bound_report(n: int) -> BoundReport:
    """Assemble the headline size report at the prescribed epsilon.

    Sets eps = loglog|n|/log|n|, bracketed between two 64-bit rationals
    since the exact value is irrational. The thresholds k, ell are
    nonincreasing in eps, so the bracket's lower end gives the safe
    (larger) certified A-part; the window cap uses the upper end for the
    same reason in the other direction. The published epsilon is the
    upper rounding and the notes record the bracket.
    """
    if abs(_as_n(n)) < 16:
        raise NotApplicableError("prescribed-epsilon report needs |n| >= 16")
    eps_lo, eps_hi = _prescribed_epsilon_bracket(abs(n))
    rep = bound_report(n, eps_hi)
    lo = thresholds(eps_lo)
    # max of the two evaluations; ties broken toward the lower-eps pair
    k, ell = (rep.k, rep.ell) if rep.a_eps_bound > lo.k + lo.ell else (lo.k, lo.ell)
    a = k + ell
    return rep._replace(
        k=k,
        ell=ell,
        a_eps_bound=a,
        m_bound_leading=Estimate(value=a + rep.b_eps_bound + rep.c_bound_leading.value),
        notes=(
            f"prescribed epsilon bracketed in [{eps_lo}, {eps_hi}]; "
            "thresholds evaluated at both ends and the larger certified "
            "count published",
            "the threshold argument gives strict inequality, so "
            "a_eps_bound - 1 would also serve; the looser form is kept",
        ),
    )
