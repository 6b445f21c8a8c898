# Exact integer square roots, power comparisons and logarithm brackets.
#
# Everything here is plain bignum arithmetic: no floats anywhere near a
# verdict. math.isqrt is exact for arbitrary precision, so it is the
# backend; the wrappers pin down domains and give the square test a
# total, None-returning form. Logarithms come as integer brackets in
# fixed point, proved in ln_bracket's docstring.

from __future__ import annotations

import math
from functools import cache


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


def ln_bracket(num: int, den: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2**bits * ln(num/den) <= hi, with hi - lo <= 2.

    num and den are integers >= 1 and bits >= 0. With x = num/den, k is
    the integer with m = x/2**k in [2/3, 4/3], so that z = (m-1)/(m+1)
    has |z| <= 1/5, and

        ln x = k*ln 2 + 2*atanh(z),   ln 2 = 2*atanh(1/3),
        atanh(z) = sum over i >= 0 of z**(2i+1)/(2i+1).

    Both series run in integer fixed point with p = bits + g fractional
    bits; _atanh_fixed proves that each falls short of 2**p*atanh by at
    least 0 and less than its d = 2K + 2 after K terms. In units of
    2**-p, the ln 2 term is then off by less than 2|k|*d2 and the atanh
    term by less than 2*d, so the bracket is at most
    w = 2*(|k|*d2 + d) wide before it is rounded outward to units of
    2**-bits. A series stops by the first K with 2**p*|z|**(2K+1) < 1,
    so K <= p/3 + 1 for |z| <= 1/3 and both d are at most p + 4; g is the
    least with 2**g >= 2*(|k| + 1)*(bits + g + 4), which makes
    w <= 2**g and the rounded bracket at most 2 wide.
    """
    if num < 1 or den < 1 or bits < 0:
        raise ValueError("ln_bracket needs num, den >= 1 and bits >= 0")
    k = num.bit_length() - den.bit_length()  # now x/2**k lies in (1/2, 2)
    while True:
        a, b = (num, den << k) if k >= 0 else (num << -k, den)
        if 3 * a < 2 * b:
            k -= 1
        elif 3 * a > 4 * b:
            k += 1
        else:
            break
    g = (2 * (abs(k) + 1) * (bits + 4)).bit_length()  # no smaller g qualifies
    while 1 << g < 2 * (abs(k) + 1) * (bits + g + 4):
        g += 1
    p = bits + g
    s2, d2 = _ln2_half(p)
    s, d = _atanh_fixed(abs(a - b), a + b, p)
    # 2**p*ln 2 is in [2*s2, 2*s2 + 2*d2), and 2**p*2*atanh|z| in [2*s, 2*s + 2*d)
    lo = hi = 2 * k * s2
    if k >= 0:
        hi += 2 * k * d2
    else:
        lo += 2 * k * d2
    if a >= b:
        lo, hi = lo + 2 * s, hi + 2 * s + 2 * d
    else:
        lo, hi = lo - 2 * s - 2 * d, hi - 2 * s
    return lo >> g, -(-hi >> g)


@cache
def _ln2_half(p: int) -> tuple[int, int]:
    # 2**p*atanh(1/3) = 2**p*ln(2)/2 as _atanh_fixed gives it; the bounds take a few p only
    return _atanh_fixed(1, 3, p)


def _atanh_fixed(u: int, v: int, p: int) -> tuple[int, int]:
    """(s, d) with 0 <= 2**p*atanh(u/v) - s < d, for 0 <= u/v <= 1/3.

    Write z = u/v and P_i = 2**p*z**(2i+1). The loop keeps
    t_0 = floor(2**p*u/v) and t_{i+1} = floor(t_i*u*u/(v*v)), adds
    floor(t_i/(2i+1)) for each i and stops at the first K with t_K = 0.

    Truncations: e_i = P_i - t_i satisfies e_0 in [0, 1) and
    e_{i+1} = z*z*e_i + (a fraction in [0, 1)), so by induction
    0 <= e_i < 1/(1 - z*z) <= 9/8. Term i then falls short of
    P_i/(2i+1) by e_i/(2i+1) plus one floor, in [0, 2) for i = 0
    (e_0 < 1) and in [0, 3/8 + 1) for i >= 1: less than 2K in all.

    Tail: the terms from K on sum to at most
    2**p*|z|**(2K+1)/((2K+1)*(1 - z*z)) = P_K/((2K+1)*(1 - z*z)),
    since 1/(2i+1) <= 1/(2K+1) and the P_i fall by z*z. As t_K = 0,
    P_K = e_K < 9/8, so the tail is below (9/8)**2 < 2.

    Hence 0 <= 2**p*atanh(z) - s < 2K + 2 = d; at z = 0 the sum is
    exact and d = 0.
    """
    if u == 0:
        return 0, 0
    t = (u << p) // v
    uu, vv = u * u, v * v
    s = i = 0
    while t:
        s += t // (2 * i + 1)
        t = t * uu // vv
        i += 1
    return s, 2 * i + 2
