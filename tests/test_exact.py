import pytest
from hypothesis import given, strategies as st

from dntuple.exact import (
    ceil_sqrt,
    pow_compare,
    square_root_if_square,
)


@given(st.integers(min_value=0, max_value=10**20))
def test_square_root_if_square_inverts_squaring(r):
    assert square_root_if_square(r * r) == r


@given(st.integers(min_value=2, max_value=10**20))
def test_between_consecutive_squares_is_not_square(r):
    # r*r + 1 .. (r+1)*(r+1) - 1 are all non-squares; probe the edges
    assert square_root_if_square(r * r + 1) is None
    assert square_root_if_square(r * r + 2 * r) is None


def test_square_probes_tolerate_negatives():
    assert square_root_if_square(-4) is None
    assert square_root_if_square(-9) is None


def test_ceil_sqrt():
    assert ceil_sqrt(0) == 0
    assert ceil_sqrt(1) == 1
    assert ceil_sqrt(2) == 2
    assert ceil_sqrt(4) == 2
    assert ceil_sqrt(5) == 3
    with pytest.raises(ValueError):
        ceil_sqrt(-1)


@given(st.integers(min_value=0, max_value=10**30))
def test_ceil_sqrt_contract(x):
    r = ceil_sqrt(x)
    assert r * r >= x
    assert r == 0 or (r - 1) * (r - 1) < x


def pow_le(lhs, base, exp):
    """lhs <= base**exp, asked the way audits.lemma2_verdict asks it."""
    return pow_compare(lhs, 1, base, exp) <= 0


def test_pow_le_equality_boundary():
    # d <= c**131 with d exactly c**131: the growth check's edge case
    assert pow_le(2**131, 2, 131)
    assert not pow_le(2**131 + 1, 2, 131)


def test_pow_le_domain():
    with pytest.raises(ValueError):
        pow_le(-1, 2, 3)
    with pytest.raises(ValueError):
        pow_le(1, 0, 3)
    assert pow_le(1, 1, 10**18)  # base 1 never materializes the power
    assert not pow_le(2, 1, 10**18)


@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=2, max_value=40),
       st.integers(min_value=1, max_value=20))
def test_pow_le_matches_direct(lhs, base, exponent):
    assert pow_le(lhs, base, exponent) == (lhs <= base**exponent)


@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=12))
def test_pow_compare_matches_direct(a, p, b, q):
    want = (a**p > b**q) - (a**p < b**q)
    assert pow_compare(a, p, b, q) == want


def test_pow_compare_one_bases():
    assert pow_compare(1, 5, 1, 9) == 0
    assert pow_compare(1, 5, 2, 1) == -1
    assert pow_compare(2, 1, 1, 7) == 1


def test_pow_compare_far_apart_without_materializing():
    # exponents so large the powers must be decided by bit bounds alone
    assert pow_compare(2, 10**9, 5, 10**9) == -1
    assert pow_compare(5, 10**9, 2, 10**9) == 1


def test_pow_compare_size_guard():
    # equal bases and exponents in the close band, too big to build
    with pytest.raises(ValueError):
        pow_compare(3, 10**8, 3, 10**8)


def test_pow_compare_rejects_nonpositive():
    with pytest.raises(ValueError):
        pow_compare(0, 1, 1, 1)
    with pytest.raises(ValueError):
        pow_compare(2, 1, 2, 0)
