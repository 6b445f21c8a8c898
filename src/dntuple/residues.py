# Square roots of n modulo small integers, and the walk that lists the
# partners {d : a*d + n square} of an element a by stepping t = sqrt(a*d + n)
# through the classes t = r (mod a) with r*r = n (mod a), instead of
# testing every square root value one by one. The search and extend() both
# list partners through walk(); the search walks only the a that
# RootTable.solvable marks as having a root at all.
#
# Internal module, property-tested against brute force and against
# sympy's sqrt_mod.

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from itertools import chain, compress
from math import isqrt
from operator import not_

from .exact import ceil_sqrt


def smallest_factor_sieve(limit: int) -> array:
    """spf[k] = smallest prime factor of k for 2 <= k <= limit, spf[k] = 0 for prime k.

    The 0-for-prime convention keeps the sieve pass to cheap slice writes:
    primes descending, so the smallest factor lands last. Only composites
    need marks, and every composite k has a factor <= sqrt(k), so 16-bit
    entries hold any limit below 2**32 (a larger factor raises OverflowError).
    """
    spf = array("H", [0]) * (limit + 1)
    primes = []
    for p in range(2, isqrt(limit) + 1):
        if all(p % q for q in primes):
            primes.append(p)
    for p in reversed(primes):
        width = len(range(p * p, limit + 1, p))
        spf[p * p :: p] = array("H", [p]) * width
    return spf


def _sqrt_mod_prime(n: int, p: int) -> int | None:
    """One square root of n mod an odd prime p with p not dividing n, else None.

    Tonelli-Shanks, with the p % 4 == 3 shortcut. Either root may come
    back; callers pair it with p - root themselves.
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


def sqrt_mod_prime_power(n: int, p: int, e: int) -> tuple[int, ...]:
    """All x in [0, p^e) with x^2 = n (mod p^e), sorted. p prime, e >= 1.

    Roots mod p are 0 when p | n, n % 2 when p = 2, else the Tonelli-Shanks
    pair. Every root mod p^(k+1) reduces to a root mod p^k, so lifting each
    root r mod p^k to r + j*p^k (0 <= j < p) and keeping the lifts that
    square to n mod p^(k+1) finds them all.
    """
    if n % p == 0 or p == 2:
        roots = [n % p]
    else:
        r = _sqrt_mod_prime(n, p)
        if r is None:
            return ()
        roots = [r, p - r]
    pk = p
    for _ in range(e - 1):
        pk_next = pk * p
        roots = [x for r in roots for x in range(r, pk_next, pk)
                 if (x * x - n) % pk_next == 0]
        pk = pk_next
    return tuple(sorted(roots))


class RootTable:
    """Roots of x^2 = n (mod a) for varying a, with a prime-power cache.

    One instance per (n, sieve); the cache is keyed on prime powers, so
    the cost of a composite a is its factorization plus a CRT fold.
    """

    def __init__(self, n: int, spf: Sequence[int]):
        self.n = n
        self.spf = spf
        self._pp: dict[int, tuple[int, ...]] = {}  # keyed on p**e

    def _prime_power(self, p: int, pe: int) -> tuple[int, ...]:
        # roots mod pe = p**e, through the cache
        rts = self._pp.get(pe)
        if rts is None:
            e = 1
            q = pe
            while q > p:
                q //= p
                e += 1
            rts = self._pp[pe] = sqrt_mod_prime_power(self.n, p, e)
        return rts

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
                rts = self._prime_power(p, pe)
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

    def solvable(self, limit: int) -> bytearray:
        """mask[a] = 1 for 1 <= a <= limit exactly when x^2 = n (mod a) has a root, else 0.

        A root mod a exists iff one exists mod each prime power exactly
        dividing a, and there is none mod p^(e+1) when there is none mod
        p^e. So each prime zeroes the multiples of its smallest power
        without a root: for an odd prime p not dividing n, p itself when n
        is not a square mod p (Euler's criterion) and no power otherwise;
        for p = 2 and each p dividing n, the first power whose roots are
        empty. The sieve must reach limit. A square n has the root sqrt(n)
        mod every a, so every mask entry from 1 on is 1.
        """
        mask = bytearray([1]) * (limit + 1)
        mask[0] = 0
        n = self.n
        if n > 0 and isqrt(n) ** 2 == n:
            return mask
        odd_primes = compress(range(3, limit + 1, 2), map(not_, self.spf[3::2]))
        for p in chain((2,), odd_primes):
            if p > 2 and n % p:
                if pow(n, (p - 1) // 2, p) != 1:
                    mask[p::p] = bytes(limit // p)
                continue
            pe = p
            while pe <= limit:
                if not self._prime_power(p, pe):
                    mask[pe::pe] = bytes(limit // pe)
                    break
                pe *= p
        return mask


def walk(a: int, n: int, roots: Iterable[int], lo: int, hi: int) -> list[int]:
    """All d in [lo, hi] with a*d + n a perfect square, ascending.

    roots are the residues r in [0, a) with r*r = n (mod a), such as
    RootTable.roots(a); t = sqrt(a*d + n) steps through each class t = r
    (mod a), so every step lands on a partner.
    """
    hi_val = a * hi + n
    if hi_val < 0:
        return []
    t_lo = ceil_sqrt(max(0, a * lo + n))
    t_hi = isqrt(hi_val)
    out = []
    append = out.append
    for r in roots:
        t = t_lo + (r - t_lo) % a
        while t <= t_hi:
            append((t * t - n) // a)
            t += a
    out.sort()
    return out
