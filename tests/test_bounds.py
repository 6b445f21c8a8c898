import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dntuple import bounds
from dntuple.bounds import (
    MIN_EPSILON,
    BoundReport,
    Estimate,
    IndexTooSmallError,
    NotApplicableError,
    a_eps_bound,
    b_eps_bound,
    beta,
    bound_report,
    c_bound_leading,
    ell_epsilon,
    k_epsilon,
    m_bound_report,
    thresholds,
    _prescribed_epsilon_bracket,
)
from dntuple.tuples import InputError, ZeroNError


def fib_doubling(m: int) -> int:
    """Independent Fibonacci oracle (fast doubling), F(1) = F(2) = 1."""
    def pair(k):
        if k == 0:
            return (0, 1)
        a, b = pair(k >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if k & 1 else (c, d)

    return pair(m)[0]


def scan_k(eps: Fraction, top: int = 64) -> int:
    # brute force over i <= top, written against the inequality directly
    for i in range(2, top + 1):
        if (beta(i) - 11) * (2 + eps) > 2 * beta(i) + 9:
            return i
    raise AssertionError(f"not found below {top + 1}")


def scan_ell(eps: Fraction) -> int:
    for i in range(2, 65):
        if (beta(i) - 131) * (2 + eps) > 2 * beta(i) - 2:
            return i
    raise AssertionError("not found below 65")


def test_beta_base_and_recurrence():
    assert beta(2) == 1 and beta(3) == 1
    assert beta(6) == 5
    assert beta(16) == 610
    for i in range(2, 60):
        assert beta(i + 2) == beta(i) + beta(i + 1)


def test_beta_matches_shifted_fibonacci():
    # beta_i = F(i-1) under the doubling oracle
    for i in range(2, 80):
        assert beta(i) == fib_doubling(i - 1)


def test_beta_strictly_increasing_from_four():
    for i in range(4, 50):
        assert beta(i + 1) > beta(i)


def test_beta_index_gate():
    with pytest.raises(IndexTooSmallError):
        beta(1)
    with pytest.raises(IndexTooSmallError):
        beta(0)
    with pytest.raises(IndexTooSmallError):
        beta(-3)


def test_threshold_table():
    table = {
        Fraction(1): (11, 16),
        Fraction(1, 2): (12, 17),
        Fraction(1, 10): (15, 20),
    }
    for eps, (k, ell) in table.items():
        assert k_epsilon(eps) == k
        assert ell_epsilon(eps) == ell
        # validated two ways: the independent scan oracle...
        assert scan_k(eps) == k
        assert scan_ell(eps) == ell
        # ...and minimality one index lower
        assert not (beta(k - 1) - 11) * (2 + eps) > 2 * beta(k - 1) + 9
        assert not (beta(ell - 1) - 131) * (2 + eps) > 2 * beta(ell - 1) - 2
        th = thresholds(eps)
        assert (th.k, th.ell) == (k, ell)


def test_a_eps_bound_table():
    assert a_eps_bound(1) == 27
    assert a_eps_bound(Fraction(1, 2)) == 29
    assert a_eps_bound(Fraction(1, 10)) == 35


@given(st.fractions(min_value=Fraction(1, 300), max_value=1))
@settings(max_examples=120)
def test_thresholds_match_scan_oracle(eps):
    assert k_epsilon(eps) == scan_k(eps)
    assert ell_epsilon(eps) == scan_ell(eps)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=1),
       st.fractions(min_value=Fraction(1, 1000), max_value=1))
@settings(max_examples=80)
def test_threshold_monotonicity(e1, e2):
    if e1 > e2:
        e1, e2 = e2, e1
    assert k_epsilon(e1) >= k_epsilon(e2)
    assert ell_epsilon(e1) >= ell_epsilon(e2)


def test_thresholds_match_scan_oracle_at_equality():
    # at eps = 31/(beta_i - 11) the k inequality holds with equality at i,
    # so a wrong strictness shows up exactly here; likewise for ell. Indices
    # stop at 58 so that both thresholds stay within the oracle's reach
    k_cases = [Fraction(31, beta(i) - 11) for i in range(2, 59) if beta(i) - 11 >= 31]
    ell_cases = [Fraction(260, beta(i) - 131) for i in range(2, 59) if beta(i) - 131 >= 260]
    assert len(k_cases) > 40 and len(ell_cases) > 40
    for eps in k_cases + ell_cases:
        assert k_epsilon(eps) == scan_k(eps), eps
        assert ell_epsilon(eps) == scan_ell(eps), eps


def test_thresholds_match_scan_oracle_on_prescribed_brackets():
    ms = [16, 17, 100, 1000, 12345, 2**64 + 13] + [10**j for j in range(2, 300, 11)]
    for m in ms:
        for eps in _prescribed_epsilon_bracket(m):
            assert (eps * 2**64).denominator == 1
            assert k_epsilon(eps) == scan_k(eps), (m, eps)
            assert ell_epsilon(eps) == scan_ell(eps), (m, eps)


def test_epsilon_below_cap_is_refused_before_beta_grows():
    assert MIN_EPSILON == Fraction(1, 2**1024)
    cached = len(bounds._BETA)
    for tiny in (Fraction(1, 2**1025), MIN_EPSILON - Fraction(1, 2**2000),
                 Fraction("1e-400"), Fraction(1, 10**100000)):
        for fn in (k_epsilon, ell_epsilon, thresholds, a_eps_bound):
            with pytest.raises(InputError):
                fn(tiny)
        with pytest.raises(InputError):
            bound_report(5, tiny)
    assert len(bounds._BETA) == cached
    # the cap itself is accepted
    assert k_epsilon(MIN_EPSILON) == scan_k(MIN_EPSILON, top=2000)


def test_log_growth_over_halvings():
    ks = [k_epsilon(Fraction(1, 2**j)) for j in range(21)]
    ells = [ell_epsilon(Fraction(1, 2**j)) for j in range(21)]
    for a, b in zip(ks, ks[1:]):
        assert 0 <= b - a <= 3
    for a, b in zip(ells, ells[1:]):
        assert 0 <= b - a <= 3
    sums = [k + ell for k, ell in zip(ks, ells)]
    assert sums == sorted(sums)  # nonincreasing in eps = nondecreasing in j
    assert sums[0] == 27


def test_epsilon_domain():
    with pytest.raises(InputError):
        k_epsilon(Fraction(0))
    with pytest.raises(InputError):
        k_epsilon(Fraction(3, 2))
    with pytest.raises(InputError):
        k_epsilon(0.5)  # floats carry silent rounding; rejected
    with pytest.raises(InputError, match="epsilon must be an exact rational, got float 0.1"):
        b_eps_bound(4, 0.1)
    with pytest.raises(InputError):
        ell_epsilon(-1)


def test_bound_records_are_immutable_with_their_defaults():
    est = Estimate(value=1.5)
    assert est.certified is False
    rep = bound_report(10**6, 1)
    assert rep.notes == ()
    th = thresholds(Fraction(1, 2))
    for record, field in ((est, "value"), (rep, "k"), (th, "ell")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert BoundReport(**rep._asdict()) == rep


def test_b_eps_examples():
    assert b_eps_bound(10**6, 1) == 11
    assert b_eps_bound(-(10**6), 1) == 11
    assert b_eps_bound(2, Fraction(1, 2)) == 3
    assert b_eps_bound(-2, Fraction(1, 2)) == 3


def test_b_eps_gates():
    with pytest.raises(NotApplicableError):
        b_eps_bound(1, 1)
    with pytest.raises(NotApplicableError):
        b_eps_bound(-1, 1)
    with pytest.raises(ZeroNError):
        b_eps_bound(0, 1)


@given(st.integers(min_value=2, max_value=10**9),
       st.fractions(min_value=Fraction(1, 64), max_value=1))
@settings(max_examples=150)
def test_b_eps_never_undershoots_the_real_quotient(n_abs, eps):
    # recompute the defining quotient with plain floats; the certified
    # integer must be at least floor(quotient) + 3 (upward rounding), and
    # close: no more than one above
    got = b_eps_bound(n_abs, eps)
    q = float(eps) * math.log(n_abs) / math.log(4.89)
    assert got >= math.floor(q - 1e-9) + 3
    assert got <= math.floor(q + 1e-9) + 4


def test_c_bound_leading():
    est = c_bound_leading(3)
    assert est.value == pytest.approx(2 * math.log(3))
    assert est.certified is False
    assert c_bound_leading(-5).value == pytest.approx(2 * math.log(5))
    near_e10 = round(math.exp(10))
    assert c_bound_leading(near_e10).value == pytest.approx(20.0, abs=1e-4)
    with pytest.raises(NotApplicableError):
        c_bound_leading(2)
    with pytest.raises(ZeroNError):
        c_bound_leading(0)


def test_bound_report_leaves_excluded_bounds_empty():
    one, two, three = (bound_report(n, Fraction(1, 2)) for n in (-1, 2, 3))
    assert (one.k, one.ell, one.a_eps_bound) == (12, 17, 29)
    assert one.b_eps_bound is None and one.c_bound_leading is None
    assert two.b_eps_bound == b_eps_bound(2, Fraction(1, 2))
    assert two.c_bound_leading is None and two.m_bound_leading is None
    assert three.c_bound_leading == c_bound_leading(3)
    assert three.m_bound_leading.value == 29 + three.b_eps_bound + three.c_bound_leading.value
    assert three.m_bound_leading.certified is False
    assert three.notes == ()
    with pytest.raises(ZeroNError):
        bound_report(0, 1)
    with pytest.raises(InputError):
        bound_report(3, 2)


def test_m_bound_report_million():
    rep = m_bound_report(10**6)
    assert (rep.k, rep.ell) == (14, 18)
    assert rep.a_eps_bound == 32
    assert rep.b_eps_bound == 4
    assert rep.c_bound_leading.value == pytest.approx(2 * math.log(10**6))
    assert rep.c_bound_leading.certified is False
    assert rep.m_bound_leading.certified is False
    assert rep.m_bound_leading.value == pytest.approx(
        32 + 4 + rep.c_bound_leading.value)
    # the prescribed epsilon is about 0.19
    assert abs(float(rep.epsilon) - math.log(math.log(10**6)) / math.log(10**6)) < 1e-12
    assert rep.notes


def test_m_bound_gates():
    with pytest.raises(NotApplicableError):
        m_bound_report(15)
    with pytest.raises(NotApplicableError):
        m_bound_report(-15)
    assert m_bound_report(-16).a_eps_bound == m_bound_report(16).a_eps_bound
    with pytest.raises(ZeroNError):
        m_bound_report(0)


def test_monotonicity_spot_check():
    assert a_eps_bound(Fraction(1, 2)) >= a_eps_bound(1)


@given(st.integers(min_value=16, max_value=10**12))
@settings(max_examples=60)
def test_m_bound_report_internally_consistent(n):
    rep = m_bound_report(n)
    assert rep.a_eps_bound == rep.k + rep.ell
    assert 0 < rep.epsilon <= 1
    assert rep.k == k_epsilon(rep.epsilon) or rep.k >= k_epsilon(rep.epsilon)
    # evaluating at the published (upper) epsilon can only shrink k, ell
    assert k_epsilon(rep.epsilon) <= rep.k
    assert ell_epsilon(rep.epsilon) <= rep.ell
