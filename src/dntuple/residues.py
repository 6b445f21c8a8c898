# Square roots of n modulo small integers, used by the search engine to
# enumerate candidate partners in arithmetic progressions instead of
# testing every square root value one by one.
#
# Internal module. Observable search results never depend on it being
# used: the t-by-t filter and this enumeration agree on every input
# (property-tested against brute force and against sympy's sqrt_mod).

from __future__ import annotations

from array import array
from collections.abc import Sequence
from math import isqrt


def smallest_factor_sieve(limit: int) -> array:
    """spf[k] = smallest prime factor of k for 2 <= k <= limit, spf[k] = 0 for prime k.

    The 0-for-prime convention keeps the sieve pass to cheap slice writes:
    primes descending, so the smallest factor lands last. Only composites
    need marks, and every composite k has a factor <= sqrt(k). An int32
    array, half the size of a list.
    """
    spf = array("i", [0]) * (limit + 1)
    primes = []
    for p in range(2, isqrt(limit) + 1):
        if all(p % q for q in primes):
            primes.append(p)
    for p in reversed(primes):
        width = len(range(p * p, limit + 1, p))
        spf[p * p :: p] = array("i", [p]) * width
    return spf


def factorize(a: int, spf: Sequence[int]) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of 1 <= a <= len(spf)-1, p ascending."""
    out = []
    while a > 1:
        p = spf[a] or a
        e = 0
        while a % p == 0:
            a //= p
            e += 1
        out.append((p, e))
    return out


def _sqrt_mod_prime(n: int, p: int) -> int | None:
    """One square root of n mod an odd prime p with p not dividing n, else None.

    Tonelli-Shanks, with the p % 4 == 3 shortcut. Returns the smaller root
    is not promised; callers pair it with p - root themselves.
    """
    n %= p
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def _unit_roots_odd(n: int, p: int, e: int) -> tuple[int, ...]:
    # roots of x^2 = n mod p^e, p odd prime, p not dividing n
    r = _sqrt_mod_prime(n, p)
    if r is None:
        return ()
    pk = p
    for _ in range(e - 1):
        pk_next = pk * p
        # Newton step: r <- r - (r^2 - n) / (2r), exact mod pk_next
        r = (r - (r * r - n) * pow(2 * r, -1, pk_next)) % pk_next
        pk = pk_next
    s = p ** e - r
    return (r, s) if r < s else (s, r)


def _unit_roots_two(n: int, e: int) -> tuple[int, ...]:
    # roots of x^2 = n mod 2^e, n odd
    if e == 1:
        return (1,)
    if e == 2:
        return (1, 3) if n % 4 == 1 else ()
    if n % 8 != 1:
        return ()
    roots = [1, 3, 5, 7]  # everything odd squares to 1 mod 8
    mod = 8
    for _ in range(e - 3):
        mod2 = mod * 2
        lift = []
        for r in roots:
            for cand in (r, r + mod):  # the two lifts of r mod 2^k to mod 2^(k+1)
                if (cand * cand - n) % mod2 == 0:
                    lift.append(cand)
        roots = sorted(lift)
        mod = mod2
    return tuple(roots)


def sqrt_mod_prime_power(n: int, p: int, e: int) -> tuple[int, ...]:
    """All x in [0, p^e) with x^2 = n (mod p^e), sorted. p prime, e >= 1.

    Handles p | n by stripping the even part of the p-valuation: with
    n = p^f * m and p not dividing m, solutions exist only for f even
    (or n = 0 mod p^e), and are p^(f/2) * (u + j * p^(e-f)) over unit
    roots u mod p^(e-f).
    """
    pe = p ** e
    c = n % pe
    if c == 0:
        step = p ** ((e + 1) // 2)
        return tuple(range(0, pe, step))
    f, m = 0, c
    while m % p == 0:
        m //= p
        f += 1
    if f % 2:
        return ()
    e2 = e - f
    base = _unit_roots_two(m, e2) if p == 2 else _unit_roots_odd(m, p, e2)
    if not base:
        return ()
    half = p ** (f // 2)
    pe2 = p ** e2
    out = []
    for u in base:
        for j in range(half):
            out.append(half * (u + pe2 * j))
    out.sort()
    return tuple(out)


class RootTable:
    """Roots of x^2 = n (mod a) for varying a, with a prime-power cache.

    One instance per (n, sieve); the cache is keyed on prime powers, so
    the cost of a composite a is its factorization plus a CRT fold.
    """

    def __init__(self, n: int, spf: Sequence[int]):
        self.n = n
        self.spf = spf
        self._pp: dict[int, tuple[int, ...]] = {}  # keyed on p**e

    def roots(self, a: int) -> tuple[int, ...]:
        """Sorted residues r in [0, a) with r*r = n (mod a)."""
        if a == 1:
            return (0,)
        spf = self.spf
        pp = self._pp
        combined = None
        mod = 1
        rest = a
        while rest > 1:
            p = spf[rest] or rest
            pe = p
            rest //= p
            while rest % p == 0:
                rest //= p
                pe *= p
            rts = pp.get(pe)
            if rts is None:
                e = 1
                q = pe
                while q > p:
                    q //= p
                    e += 1
                rts = sqrt_mod_prime_power(self.n, p, e)
                pp[pe] = rts
            if not rts:
                return ()
            if combined is None:
                combined = rts
                mod = pe
                continue
            inv = pow(mod, -1, pe)
            combined = [c + mod * (((r - c) * inv) % pe)
                        for c in combined for r in rts]
            mod *= pe
        if isinstance(combined, tuple):
            return combined  # single prime power, already sorted
        return tuple(sorted(combined))
