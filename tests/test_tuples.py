import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dntuple import tuples
from dntuple.tuples import (
    DTuple,
    DuplicateElementError,
    EmptyInputError,
    InputError,
    InvalidRangeError,
    NonPositiveElementError,
    VerificationFailure,
    ZeroNError,
    classify,
    extend,
    verify,
    window_parts,
)


def test_verify_fermat_quadruple():
    t = verify((1, 3, 8, 120), 1)
    assert isinstance(t, DTuple)
    assert t.elements == (1, 3, 8, 120)
    assert [w.r for w in t.witnesses] == [2, 3, 11, 5, 19, 31]


def test_verify_sorts_input():
    t = verify([120, 1, 8, 3], 1)
    assert t.elements == (1, 3, 8, 120)


def test_verify_negative_n():
    t = verify((1, 2, 5), -1)
    assert isinstance(t, DTuple)
    assert [w.r for w in t.witnesses] == [1, 2, 3]


def test_verify_failure_names_lex_first_pair():
    fail = verify((1, 3, 7), 1)
    assert isinstance(fail, VerificationFailure)
    assert fail.pair == (1, 7)
    assert "1*7+1" in str(fail)


def test_verify_singleton_trivially_holds():
    t = verify((5,), 3)
    assert isinstance(t, DTuple)
    assert t.witnesses == ()


def test_input_errors():
    with pytest.raises(EmptyInputError):
        verify((), 1)
    with pytest.raises(DuplicateElementError):
        verify((3, 3), 1)
    with pytest.raises(NonPositiveElementError):
        verify((0, 3), 1)
    with pytest.raises(NonPositiveElementError):
        verify((-5, 3), 1)
    with pytest.raises(ZeroNError):
        verify((1, 3), 0)
    assert issubclass(ZeroNError, InputError)


@pytest.mark.parametrize("elements, n", [
    ((True, 3), 1),
    ((1.0, 3.0), 1),
    ("13", 1),
    ((1, "3"), 1),
    ((1, 3), True),
    ((1, 3), 1.0),
])
def test_verify_rejects_non_integers(elements, n):
    with pytest.raises(InputError):
        verify(elements, n)


def test_witness_for_either_order():
    t = verify((1, 3, 8), 1)
    assert t.witness_for(3, 1).r == 2
    assert t.witness_for(1, 3).r == 2
    with pytest.raises(KeyError):
        t.witness_for(1, 5)


def test_subtuple_keeps_the_stored_witnesses():
    t = verify((1, 3, 8, 120), 1)
    for k in range(1, 5):
        for elems in itertools.combinations((120, 8, 3, 1), k):
            assert t.subtuple(elems) == verify(elems, 1)
    with pytest.raises(KeyError):
        t.subtuple((1, 5))


def test_extend_fermat_triple():
    t = verify((1, 3, 8), 1)
    assert extend(t, 1, 200) == [120]


@pytest.mark.parametrize("part", [1, 2, 5])
def test_extend_across_window_parts(monkeypatch, part):
    # the same extensions when the window is walked a few square roots at a time
    monkeypatch.setattr(tuples, "PART_STEPS", part)
    assert extend(verify((1, 3, 8), 1), 1, 200) == [120]
    assert extend(verify((1, 3), 1), -50, 15) == [8]
    assert extend(verify((2,), 2), 10, 100) == [17, 31, 49, 71, 97]


def test_extend_excludes_members_and_clamps():
    t = verify((1, 3), 1)
    found = extend(t, -50, 15)
    assert 3 not in found and 1 not in found
    assert found == [8]  # 8 is the only non-member extender up to 15


def test_extend_empty_window_raises():
    t = verify((1, 3), 1)
    with pytest.raises(InvalidRangeError):
        extend(t, 10, 5)
    with pytest.raises(InvalidRangeError):
        extend(t, -1, -5)


def test_extend_window_below_one_is_empty():
    t = verify((1, 3), 1)
    assert extend(t, -5, -1) == []
    assert extend(t, -5, 0) == []
    assert extend(t, 1, 1) == []


def window(a, n, lo, hi):  # every d of window_parts(a, n, lo, hi), in order
    return [d for part in window_parts(a, n, lo, hi) for d in part]


def test_candidates_in_window_frozen_example():
    assert window(2, 2, 1, 100) == [1, 7, 17, 31, 49, 71, 97]
    cands = window(3, 1, 1, 200)
    assert 8 in cands and 120 in cands


def test_candidates_in_window_rejects_bad_input():
    with pytest.raises(InputError):
        window(0, 2, 1, 10)
    with pytest.raises(ZeroNError):
        window(2, 0, 1, 10)
    with pytest.raises(InvalidRangeError):
        window(2, 2, 10, 1)


def test_candidates_in_window_refuses_a_window_above_the_cap(monkeypatch):
    # a = 1, n = 1, lo = 1: t runs from 2 to isqrt(hi + 1)
    with pytest.raises(InputError):
        window(1, 1, 1, 10**38)
    monkeypatch.setattr(tuples, "MAX_WINDOW_STEPS", 10)
    assert window(1, 1, 1, 142) == [t * t - 1 for t in range(2, 12)]
    with pytest.raises(InputError):
        window(1, 1, 1, 143)


@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=-25, max_value=25).filter(lambda n: n != 0),
       st.integers(min_value=1, max_value=120),
       st.integers(min_value=0, max_value=80),
       st.sampled_from([1, 2, 3, 7, tuples.PART_STEPS]))
@settings(max_examples=200)
def test_candidates_in_window_matches_brute_force(a, n, lo, span, part):
    hi = lo + span
    want = [d for d in range(lo, hi + 1)
            if a * d + n >= 0 and math.isqrt(a * d + n) ** 2 == a * d + n]
    # small parts split the window at many square roots
    with mock.patch.object(tuples, "PART_STEPS", part):
        assert window(a, n, lo, hi) == want


@given(st.integers(min_value=-10, max_value=10).filter(lambda n: n != 0),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=150),
       st.sampled_from([1, 3, tuples.PART_STEPS]))
@settings(max_examples=150)
def test_extend_matches_brute_force(n, seed, hi, part):
    t = verify((seed,), n)
    want = [d for d in range(1, hi + 1)
            if d != seed and d * seed + n >= 0
            and math.isqrt(d * seed + n) ** 2 == d * seed + n]
    with mock.patch.object(tuples, "PART_STEPS", part):
        assert extend(t, 1, hi) == want


def test_classify_degenerate_unit_n():
    t = verify((1, 3, 8, 120), 1)
    c = classify(t, Fraction(1, 2))
    assert (c.small_count, c.intermediate_count, c.large_count) == (1, 0, 3)
    assert c.degenerate_ranges


def test_classify_n2_triple():
    t = verify((1, 2, 7), 2)
    c = classify(t, Fraction(1, 2))
    assert (c.small_count, c.intermediate_count, c.large_count) == (2, 1, 0)
    assert not c.degenerate_ranges


def test_classify_eps_boundary_cross_power():
    # 5 <= 2^2.5 iff 5^2 <= 2^5, i.e. 25 <= 32: inside the eps window
    t = verify((5,), 2)
    c = classify(t, Fraction(1, 2))
    assert c.eps_intermediate_count == 1
    assert c.eps_large_count == 0
    # 6^2 = 36 > 32: outside
    t6 = verify((6,), 2)
    c6 = classify(t6, Fraction(1, 2))
    assert c6.eps_intermediate_count == 0
    assert c6.eps_large_count == 1


def test_classify_rejects_nonpositive_epsilon():
    t = verify((1, 3, 8), 1)
    with pytest.raises(InputError):
        classify(t, Fraction(0))


@given(st.integers(min_value=-8, max_value=8).filter(lambda n: n != 0),
       st.integers(min_value=1, max_value=400))
@settings(max_examples=150)
def test_classify_counts_partition(n, seed):
    t = verify((seed,), n)
    for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        c = classify(t, eps)
        assert c.small_count + c.intermediate_count + c.large_count == t.size
        assert c.small_count + c.eps_intermediate_count + c.eps_large_count == t.size
        # the eps split refines everything above n^2
        n_abs = abs(n)
        if seed <= n * n:
            assert (c.eps_intermediate_count, c.eps_large_count) == (0, 0)
        # brute-force the boundary with exact integer powers
        p, q = eps.numerator, eps.denominator
        if seed > n * n:
            inside = seed**q <= n_abs ** (2 * q + p)
            assert c.eps_intermediate_count == (1 if inside else 0)
