"""Certified counting bounds driven by the shifted Fibonacci recurrence.

The growth argument for tuples with property D(n) splits elements at
n^2 and |n|^(2+eps). Elements above the upper cut are counted by two
index thresholds k(eps) and ell(eps) on the recurrence beta_2 = beta_3
= 1, beta_{i+2} = beta_i + beta_{i+1}; elements in the middle window by
a sliding-gap count. All threshold decisions run in exact integer
arithmetic. The only floating point in this module sits behind explicit
directed-rounding slop (b_eps_bound) or an Estimate carrying
certified=False (leading-order terms whose absolute constants are not
pinned down).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache
from typing import NamedTuple

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
    window admits at most log_{4.89}(|n|^eps) more. The cap is
    floor(eps*log|n| / log 4.89) + 3, with the quotient nudged upward a
    few ulps before flooring so float rounding can never understate it.
    """
    eps = _as_epsilon(epsilon)
    return _window_cap(eps, _log_gaps(n))


def _log_gaps(n: int):
    # log|n| / log 4.89, the part of b_eps_bound that depends on n alone
    if n == 0:
        raise ZeroNError("n must be nonzero")
    if abs(n) == 1:
        raise NotApplicableError("window count bound needs |n| >= 2")
    import mpmath  # only the commands that compute a bound pay for this import

    with mpmath.workprec(128):
        return mpmath.log(abs(n)) / _log_gap()


def _window_cap(eps: Fraction, log_gaps) -> int:
    # b_eps_bound from its n part, _log_gaps(n)
    import mpmath

    with mpmath.workprec(128):
        q = mpmath.mpf(eps.numerator) / eps.denominator
        q *= log_gaps
        q += mpmath.ldexp(q, -96) + mpmath.ldexp(mpmath.mpf(1), -96)
        return int(mpmath.floor(q)) + 3


@cache
def _log_gap():
    # log of the window's growth factor 4.89, computed once
    import mpmath

    with mpmath.workprec(128):
        return mpmath.log(mpmath.mpf(489) / 100)


class Estimate(NamedTuple):
    """A leading-order value whose lower-order constant is not certified."""

    value: float
    certified: bool = False


def c_bound_leading(n: int) -> Estimate:
    """Leading term 2*log|n| for the count of elements <= n^2.

    The second-order term has an unknown constant, so this is an
    estimate and is flagged as such, never a certified bound.
    """
    if n == 0:
        raise ZeroNError("n must be nonzero")
    if abs(n) <= 2:
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

    The thresholds are computed once per eps, and the window cap's log|n|
    quotient and the estimate once per n, not once per row.
    """
    if 0 in ns:
        raise ZeroNError("n must be nonzero")
    ths = [thresholds(eps) for eps in epsilons]
    rows = []
    for n in ns:
        log_gaps = _log_gaps(n) if abs(n) >= 2 else None
        c = c_bound_leading(n) if abs(n) >= 3 else None
        for th in ths:
            a = th.k + th.ell
            b = None if log_gaps is None else _window_cap(th.epsilon, log_gaps)
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
    # rationals with 64 fractional bits enclosing loglog(m)/log(m),
    # slopped one ulp outward on each side
    import mpmath

    with mpmath.workprec(192):
        scaled = mpmath.ldexp(mpmath.log(mpmath.log(m)) / mpmath.log(m), 64)
        lo = Fraction(int(mpmath.floor(scaled)) - 1, 2**64)
        hi = Fraction(int(mpmath.ceil(scaled)) + 1, 2**64)
    return max(lo, Fraction(1, 2**64)), min(hi, Fraction(1))


def m_bound_report(n: int) -> BoundReport:
    """Assemble the headline size report at the prescribed epsilon.

    Sets eps = loglog|n|/log|n|, bracketed between two 64-bit rationals
    since the exact value is irrational. The thresholds k, ell are
    nonincreasing in eps, so the bracket's lower end gives the safe
    (larger) certified A-part; the window cap uses the upper end for the
    same reason in the other direction. The published epsilon is the
    upper rounding and the notes record the bracket.
    """
    if n == 0:
        raise ZeroNError("n must be nonzero")
    if abs(n) < 16:
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
