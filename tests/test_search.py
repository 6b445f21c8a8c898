import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from naive_oracle import naive_maximal
from dntuple.search import (
    SearchConfig,
    empirical_max_size,
    search_maximal,
)
from dntuple.tuples import InputError, ZeroNError, candidates_in_window


def found_elements(report):
    return [t.elements for t in report.maximal_tuples]


def test_config_validation():
    with pytest.raises(ZeroNError):
        SearchConfig(n=0, limit=10)
    with pytest.raises(InputError):
        SearchConfig(n=1, limit=0)
    with pytest.raises(InputError):
        SearchConfig(n=1, limit=10, min_report_size=0)
    with pytest.raises(InputError):
        SearchConfig(n=1, limit=10, max_results=0)


def test_fermat_quadruple_is_found_and_maximal():
    report = search_maximal(SearchConfig(n=1, limit=150, min_report_size=4))
    assert found_elements(report) == [(1, 3, 8, 120)]
    assert report.empirical_max_size == 4
    assert not report.result_cap_exceeded


def test_output_is_lexicographic():
    report = search_maximal(SearchConfig(n=1, limit=120, min_report_size=3))
    elems = found_elements(report)
    assert elems == sorted(elems)
    assert all(t.n == 1 for t in report.maximal_tuples)


def test_equals_oracle_on_fixed_grid():
    for n, limit, min_size in [(1, 80, 3), (4, 60, 2), (-1, 60, 2), (2, 100, 1),
                               (9, 50, 2), (-4, 70, 3), (13, 40, 1), (-11, 70, 2)]:
        report = search_maximal(SearchConfig(n=n, limit=limit, min_report_size=min_size))
        assert found_elements(report) == naive_maximal(n, limit, min_size), (n, limit)


@given(st.integers(min_value=-10, max_value=10).filter(lambda n: n != 0),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_equals_oracle_property(n, limit, min_size):
    report = search_maximal(SearchConfig(n=n, limit=limit, min_report_size=min_size))
    assert found_elements(report) == naive_maximal(n, limit, min_size)


def test_reported_tuples_admit_no_extension():
    def sq(x):
        return x >= 0 and math.isqrt(x) ** 2 == x

    report = search_maximal(SearchConfig(n=4, limit=100, min_report_size=2))
    assert report.maximal_tuples
    for t in report.maximal_tuples:
        members = set(t.elements)
        for d in range(1, 101):
            if d not in members:
                assert not all(sq(x * d + 4) for x in t.elements)


def test_max_results_cap_is_deterministic_prefix():
    full = search_maximal(SearchConfig(n=1, limit=120, min_report_size=3))
    capped = search_maximal(SearchConfig(n=1, limit=120, min_report_size=3,
                                         max_results=5))
    assert capped.result_cap_exceeded
    assert len(capped.maximal_tuples) == 5
    full_elems = found_elements(full)
    # the capped run returns a prefix of the full run's traversal order,
    # which is not necessarily a prefix of the sorted output
    assert set(found_elements(capped)) <= set(full_elems)
    again = search_maximal(SearchConfig(n=1, limit=120, min_report_size=3,
                                        max_results=5))
    assert found_elements(again) == found_elements(capped)


def test_empirical_max_size_tracks_sub_threshold_nodes():
    # no quadruple below 200 for n = 2, but pairs and triples abound
    report = search_maximal(SearchConfig(n=2, limit=200, min_report_size=4))
    assert found_elements(report) == []
    assert report.empirical_max_size == 3


def test_empirical_max_size_helper():
    assert empirical_max_size(1, 200) == 4
    assert empirical_max_size(1, 2) == 1
    assert empirical_max_size(-1, 50) == 3


@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=-20, max_value=20).filter(lambda n: n != 0),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=100)
def test_candidates_for_brute_force(a, n, hi):
    # Partners of a in [1, hi], the range the search draws from.
    want = [d for d in range(1, hi + 1)
            if a * d + n >= 0 and math.isqrt(a * d + n) ** 2 == a * d + n]
    assert candidates_in_window(a, n, 1, hi) == want


def test_every_reported_tuple_is_verified():
    report = search_maximal(SearchConfig(n=-4, limit=300, min_report_size=3))
    for t in report.maximal_tuples:
        for a, b in itertools.combinations(t.elements, 2):
            r = t.witness_for(a, b).r
            assert r * r == a * b - 4
