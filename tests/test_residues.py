import random
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st
from sympy.ntheory.residue_ntheory import sqrt_mod

from dntuple.residues import (
    RootTable,
    smallest_factor_sieve,
    sqrt_mod_prime_power,
)
from dntuple.search import MAX_LIMIT

SPF_2K = smallest_factor_sieve(2000)


def brute_roots(n, m):
    return tuple(x for x in range(m) if (x * x - n) % m == 0)


def test_sieve_marks_composites_with_smallest_factor():
    spf = smallest_factor_sieve(100)
    assert spf[4] == 2 and spf[9] == 3 and spf[91] == 7 and spf[97] == 0
    for k in range(2, 101):
        p = spf[k] or k
        assert k % p == 0
        assert all(k % q for q in range(2, p))  # nothing smaller divides


def test_sieve_entries_are_16_bit_and_hold_every_factor_below_the_search_cap():
    # every stored factor is at most isqrt(limit), so each fits up to MAX_LIMIT
    assert smallest_factor_sieve(100).typecode == "H"
    assert isqrt(MAX_LIMIT) < 2**16


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 3),
                                 (5, 2), (7, 1), (11, 2), (13, 1), (41, 1)])
@pytest.mark.parametrize("n", [-9, -4, -1, 0, 1, 2, 3, 4, 8, 9, 12, 18, 25, 49, 50])
def test_prime_power_roots_match_brute_force(p, e, n):
    assert sqrt_mod_prime_power(n, p, e) == brute_roots(n, p ** e)


def test_prime_power_roots_exhaustive_small_moduli():
    # every prime power below 700, every residue class of n plus negatives
    spf = SPF_2K
    pps = [(p, e) for p in range(2, 700) if not spf[p]
           for e in range(1, 11) if p ** e < 700]
    rng = random.Random(7)
    for p, e in pps:
        m = p ** e
        for n in list(range(min(m, 30))) + [rng.randrange(-3 * m, 3 * m) for _ in range(6)]:
            assert sqrt_mod_prime_power(n, p, e) == brute_roots(n, m), (n, p, e)


@pytest.mark.parametrize("n", [2**12 * 3**6, -(2**11) * 5**4, 3 * 7**6])
def test_composite_roots_at_high_valuations_match_brute_force(n):
    # p | n to a high power is where a wrong lift of the root 0 would hide
    table = RootTable(n, SPF_2K)
    for a in range(1, 2001):
        assert table.roots(a) == brute_roots(n, a), a


@given(a=st.integers(min_value=1, max_value=2000),
       n=st.integers(min_value=-400, max_value=400))
@settings(max_examples=300, deadline=None)
def test_composite_roots_match_brute_force(a, n):
    table = RootTable(n, SPF_2K)
    assert table.roots(a) == brute_roots(n, a)


@given(a=st.integers(min_value=2, max_value=1500),
       n=st.integers(min_value=-300, max_value=300))
@settings(max_examples=200, deadline=None)
def test_composite_roots_match_sympy(a, n):
    ours = RootTable(n, SPF_2K).roots(a)
    theirs = sqrt_mod(n % a, a, all_roots=True) or []
    assert list(ours) == sorted(theirs)


def test_root_table_reuses_prime_power_cache():
    table = RootTable(3, SPF_2K)
    table.roots(22)
    table.roots(44)
    assert 4 in table._pp and 11 in table._pp


@pytest.mark.parametrize("n", [-(2**9) * 5, 2 * 3**7, 2**10, -(2**7), 7**4 * 3, -(5**2) * 11,
                               3**2 * 2, 4 * 13, -1, 1, 2, -2])
def test_solvable_mask_matches_roots(n):
    # high powers of 2 and of odd primes dividing n are where the first
    # power without a root sits above p itself
    table = RootTable(n, smallest_factor_sieve(3000))
    mask = table.solvable(3000)
    assert len(mask) == 3001 and mask[0] == 0
    fresh = RootTable(n, smallest_factor_sieve(3000))
    assert [a for a in range(1, 3001) if mask[a]] == [
        a for a in range(1, 3001) if fresh.roots(a) != ()]


@given(n=st.integers(min_value=-60, max_value=60).filter(bool),
       k=st.integers(min_value=0, max_value=11),
       limit=st.integers(min_value=1, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_solvable_mask_property(n, k, limit):
    n *= (2, 3, 5, 7)[k % 4] ** k
    spf = smallest_factor_sieve(limit)
    mask = RootTable(n, spf).solvable(limit)
    table = RootTable(n, spf)
    assert all(mask[a] == (table.roots(a) != ()) for a in range(1, limit + 1))
