import mpmath  # test-only: sympy's own dependency, an independent logarithm
import pytest
from hypothesis import given, settings, strategies as st

from dntuple.exact import (
    ceil_sqrt,
    ln_bracket,
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


def check_ln_bracket(num, den, bits):
    # the bracket holds against mpmath at twice the bits, and is at most 2 wide
    lo, hi = ln_bracket(num, den, bits)
    prec = 2 * bits + max(num.bit_length(), den.bit_length()) + 64
    with mpmath.workprec(prec):
        scaled = mpmath.ldexp(mpmath.log(mpmath.mpf(num) / den), bits)
        assert lo <= scaled <= hi, (num, den, bits, lo, hi)
    assert 0 <= hi - lo <= 2, (num, den, bits, lo, hi)
    return lo, hi


@given(st.integers(min_value=1, max_value=10**60), st.integers(min_value=1, max_value=10**60),
       st.integers(min_value=0, max_value=256))
@settings(max_examples=300)
def test_ln_bracket_holds_and_is_narrow(num, den, bits):
    check_ln_bracket(num, den, bits)


def test_ln_bracket_edges():
    for bits in (0, 1, 64, 200):
        assert ln_bracket(1, 1, bits) == (0, 0)  # z = 0 and k = 0: exact
        assert ln_bracket(7, 7, bits) == (0, 0)
        for k in (1, 2, 63, 64, 1000):
            # m = 1: only the k*ln 2 part carries an error
            check_ln_bracket(2**k, 1, bits)
            check_ln_bracket(1, 2**k, bits)
            check_ln_bracket(3 << k, 3, bits)
            # m at the ends of [2/3, 4/3], so |z| = 1/5 and 1/7
            check_ln_bracket(2 << k, 3, bits)
            check_ln_bracket(4 << k, 3, bits)
            check_ln_bracket(2, 3 << k, bits)
            check_ln_bracket(4, 3 << k, bits)
        # num or den near 10^300, and quotients near 1 at that size
        big = 10**300
        for num, den in ((big, 1), (1, big), (big + 1, big), (big, big + 1),
                         (big - 1, 7), (3, big + 7), (big, 10**299 * 3)):
            check_ln_bracket(num, den, bits)


def test_ln_bracket_is_antisymmetric_and_additive():
    # ln(a/b) = -ln(b/a) and ln(ab) = ln a + ln b, within the brackets' widths
    for a, b in ((3, 5), (489, 100), (10**40 + 3, 17)):
        lo, hi = ln_bracket(a, b, 80)
        rlo, rhi = ln_bracket(b, a, 80)
        assert lo <= -rlo and -rhi <= hi
        plo, phi = ln_bracket(a * b, 1, 80)
        alo, ahi = ln_bracket(a, 1, 80)
        blo, bhi = ln_bracket(b, 1, 80)
        assert plo <= ahi + bhi and alo + blo <= phi


def test_ln_bracket_refuses_bad_arguments():
    for args in ((0, 1, 8), (1, 0, 8), (-3, 2, 8), (3, 2, -1)):
        with pytest.raises(ValueError):
            ln_bracket(*args)
