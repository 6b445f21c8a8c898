"""Certified counting bounds driven by the shifted Fibonacci recurrence.

The growth argument for tuples with property D(n) splits elements at
n^2 and |n|^(2+eps). Elements above the upper cut are counted by two
index thresholds k(eps) and ell(eps) on the recurrence beta_2 = beta_3
= 1, beta_{i+2} = beta_i + beta_{i+1}; elements in the middle window by
a sliding-gap count. All threshold decisions run in exact rational
arithmetic. The only floating point in this module sits behind explicit
directed-rounding slop (b_eps_bound) or an Estimate carrying
certified=False (leading-order terms whose absolute constants are not
pinned down).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath

from .tuples import InputError, ZeroNError

_GAP = Fraction(489, 100)  # consecutive-element growth factor in the window


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
    # floats carry silent binary rounding; insist on exact input
    if isinstance(value, float):
        raise InputError(f"epsilon must be an exact rational, got float {value!r}")
    eps = Fraction(value)
    if not 0 < eps <= 1:
        raise InputError(f"epsilon must lie in (0, 1], got {eps}")
    return eps


def k_epsilon(epsilon) -> int:
    """Smallest k >= 2 with (beta_k - 11)*(2+eps) > 2*beta_k + 9, exactly."""
    eps = _as_epsilon(epsilon)
    for k in itertools.count(2):
        if (beta(k) - 11) * (2 + eps) > 2 * beta(k) + 9:
            return k
    raise AssertionError("unreachable: beta is unbounded")


def ell_epsilon(epsilon) -> int:
    """Smallest ell >= 2 with (beta_ell - 131)*(2+eps) > 2*beta_ell - 2, exactly."""
    eps = _as_epsilon(epsilon)
    for ell in itertools.count(2):
        if (beta(ell) - 131) * (2 + eps) > 2 * beta(ell) - 2:
            return ell
    raise AssertionError("unreachable: beta is unbounded")


@dataclass(frozen=True)
class EpsilonThresholds:
    epsilon: Fraction
    k: int
    ell: int


def thresholds(epsilon) -> EpsilonThresholds:
    eps = _as_epsilon(epsilon)
    return EpsilonThresholds(epsilon=eps, k=k_epsilon(eps), ell=ell_epsilon(eps))


def a_eps_bound(epsilon) -> int:
    """Certified cap, uniform in n, on elements above |n|^(2+eps): k(eps)+ell(eps).

    The threshold argument in fact shows the count is strictly below
    k+ell, so k+ell-1 would also serve; the looser published form is
    kept as stated.
    """
    eps = _as_epsilon(epsilon)
    return k_epsilon(eps) + ell_epsilon(eps)


def b_eps_bound(n: int, epsilon) -> int:
    """Certified cap on elements of one tuple inside (n^2, |n|^(2+eps)].

    Consecutive elements there grow by more than 4.89x from the fourth
    onward (the sliding-window gap bound), so beyond the first three the
    window admits at most log_{4.89}(|n|^eps) more. The cap is
    floor(eps*log|n| / log 4.89) + 3, with the quotient nudged upward a
    few ulps before flooring so float rounding can never understate it.
    """
    eps = _as_epsilon(epsilon)
    if n == 0:
        raise ZeroNError("n must be nonzero")
    if abs(n) == 1:
        raise NotApplicableError("window count bound needs |n| >= 2")
    with mpmath.workprec(128):
        q = mpmath.mpf(eps.numerator) / eps.denominator
        q *= mpmath.log(abs(n)) / mpmath.log(mpmath.mpf(_GAP.numerator) / _GAP.denominator)
        q += mpmath.ldexp(q, -96) + mpmath.ldexp(mpmath.mpf(1), -96)
        return int(mpmath.floor(q)) + 3


@dataclass(frozen=True)
class Estimate:
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


@dataclass(frozen=True)
class BoundReport:
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
    if n == 0:
        raise ZeroNError("n must be nonzero")
    th = thresholds(epsilon)
    a = th.k + th.ell
    b = b_eps_bound(n, th.epsilon) if abs(n) >= 2 else None
    c = c_bound_leading(n) if abs(n) >= 3 else None
    return BoundReport(
        n=n,
        epsilon=th.epsilon,
        k=th.k,
        ell=th.ell,
        a_eps_bound=a,
        b_eps_bound=b,
        c_bound_leading=c,
        m_bound_leading=None if c is None else Estimate(value=a + b + c.value),
    )


def _prescribed_epsilon_bracket(m: int) -> tuple[Fraction, Fraction]:
    # rationals with 64 fractional bits enclosing loglog(m)/log(m),
    # slopped one ulp outward on each side
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
    return replace(
        rep,
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
