# Exact integer square roots and power comparisons.
#
# Everything here is plain bignum arithmetic: no floats anywhere near a
# verdict. math.isqrt is exact for arbitrary precision, so it is the
# backend; the wrappers pin down domains and give the square test a
# total, None-returning form.

from __future__ import annotations

import math


def square_root_if_square(x: int) -> int | None:
    """The exact square root of x, or None when x is not a perfect square.

    Negative inputs are never squares, so they return None rather than
    raising: callers probing a*b+n for negative n rely on that.
    """
    if x < 0:
        return None
    r = math.isqrt(x)
    return r if r * r == x else None


def ceil_sqrt(x: int) -> int:
    """Smallest r >= 0 with r*r >= x, for x >= 0."""
    if x < 0:
        raise ValueError(f"ceil_sqrt of negative value {x}")
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def pow_compare(lhs_base: int, lhs_exp: int, rhs_base: int, rhs_exp: int) -> int:
    """Sign of lhs_base**lhs_exp - rhs_base**rhs_exp, all arguments >= 1.

    Used for range boundaries of the form x**q vs |n|**(2q+p) and for the
    lemma 2 conclusion d <= c**131. Bit-length bounds first; the exact
    powers are only built when the two sides are within a factor-of-two
    band of each other, and a size guard refuses comparisons whose exact
    form would not fit in memory.
    """
    for v in (lhs_base, lhs_exp, rhs_base, rhs_exp):
        if v < 1:
            raise ValueError("pow_compare arguments must be >= 1")
    if lhs_base == 1:
        return 0 if rhs_base == 1 else -1
    if rhs_base == 1:
        return 1
    lo_l = (lhs_base.bit_length() - 1) * lhs_exp      # lhs >= 2**lo_l
    hi_l = lhs_base.bit_length() * lhs_exp            # lhs <  2**hi_l
    lo_r = (rhs_base.bit_length() - 1) * rhs_exp
    hi_r = rhs_base.bit_length() * rhs_exp
    if hi_l <= lo_r:
        return -1  # lhs < 2**hi_l <= 2**lo_r <= rhs
    if hi_r <= lo_l:
        return 1
    if max(hi_l, hi_r) > 10**8:  # ~12 MB of bignum, far past desk scale
        raise ValueError(
            "exact power comparison too large; reduce the epsilon denominator"
        )
    lhs = lhs_base ** lhs_exp
    rhs = rhs_base ** rhs_exp
    return (lhs > rhs) - (lhs < rhs)
