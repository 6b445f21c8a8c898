import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from dntuple.audits import (
    GapAuditRecord,
    Lemma2Verdict,
    LemmaThreeWitness,
    PreconditionNotMetError,
    WitnessNotFoundError,
    audit_gap_corollary,
    audit_gap_lemma5,
    audit_lemma2,
    find_witness_e,
    lemma2_verdict,
)
from dntuple.search import SearchConfig, search_maximal
from dntuple.serialize import witness_to_obj
from dntuple.tuples import DTuple, InputError, verify


def vt(elements, n) -> DTuple:
    t = verify(elements, n)
    assert isinstance(t, DTuple)
    return t


# the doubled Fibonacci D(1) quadruple {21,55,144,665720}, scaled by 2
# into a D(4) instance: the workhorse example with all elements > n^2
DOUBLED_FIB = (42, 110, 288, 1331440)


def test_witness_fermat_triple_zero_e():
    t = vt((1, 3, 8), 1)
    w = find_witness_e(t)
    assert (w.e, w.x, w.y, w.z) == (0, 1, 1, 1)
    assert w.satisfies(t)
    # the record keeps its sign fields, always (+1, +1), until a version bump
    obj = witness_to_obj(t, w)
    assert (obj["e"], obj["x"], obj["y"], obj["z"]) == (0, 1, 1, 1)
    assert (obj["sign_x"], obj["sign_y"]) == (1, 1)


def test_witness_upper_fermat_triple():
    t = vt((3, 8, 120), 1)
    w = find_witness_e(t)
    assert (w.e, w.x, w.y, w.z) == (1, 2, 3, 11)
    assert w.satisfies(t)


def test_witness_n2_triple_by_scan_oracle():
    # independent exhaustive scan over |e| <= 10^4 for the n = 2 triple
    t = vt((1, 2, 7), 2)
    w = find_witness_e(t)
    assert w.satisfies(t)
    valid_e = [e for e in range(-10**4, 10**4 + 1)
               if all(x * e + 4 >= 0 and x * e + 4 == math.isqrt(x * e + 4) ** 2
                      for x in (1, 2, 7))]
    assert w.e in valid_e


def test_witness_satisfies_rejects_tampering():
    t = vt((1, 3, 8), 1)
    w = find_witness_e(t)
    assert not LemmaThreeWitness(e=w.e + 1, x=w.x, y=w.y, z=w.z).satisfies(t)
    assert not LemmaThreeWitness(e=w.e, x=w.x + 1, y=w.y, z=w.z).satisfies(t)
    assert not LemmaThreeWitness(e=w.e, x=w.x, y=w.y, z=w.z + 1).satisfies(t)
    # the record writes e, x, y, z as found, and the sign fields as constants
    assert witness_to_obj(t, w) == {"record": "witness", "n": 1, "elements": [1, 3, 8],
                                    "e": 0, "x": 1, "y": 1, "z": 1,
                                    "sign_x": 1, "sign_y": 1}


def test_witness_doubled_fib_slices():
    frozen = {
        (42, 110, 288): 0,
        (42, 110, 1331440): 1152,
        (42, 288, 1331440): 440,
        (110, 288, 1331440): 168,
    }
    for elems, expected_e in frozen.items():
        t = vt(elems, 4)
        w = find_witness_e(t)
        assert w.e == expected_e
        assert w.satisfies(t)
        # all elements exceed n^2 = 16, so e must be nonnegative
        assert w.e >= 0


def test_witness_found_over_search_corpus_small():
    for n in [m for k in range(1, 11) for m in (k, -k)]:
        report = search_maximal(SearchConfig(n=n, limit=300, min_report_size=3))
        for t in report.maximal_tuples:
            for tri_elems in itertools.combinations(t.elements, 3):
                tri = vt(tri_elems, n)
                w = find_witness_e(tri)
                assert w.satisfies(tri)
                if tri.elements[0] > n * n:
                    assert w.e >= 0


def test_witness_not_found_carries_triple():
    # fabricated non-D(1) triple: its e0 = 1*15 + 144 - 0 = 159 makes
    # 2e0+1 = 319 no square, so the closed form misses
    from dntuple.tuples import PairWitness

    fake = DTuple(n=1, elements=(2, 4, 9), witnesses=(
        PairWitness(2, 4, 3), PairWitness(2, 9, 0), PairWitness(4, 9, 0)))
    with pytest.raises(WitnessNotFoundError) as exc_info:
        find_witness_e(fake)
    err = exc_info.value
    assert err.triple is fake
    assert not hasattr(err, "search_bound")
    assert str(err) == "no witness e for (2, 4, 9) with n=1"


def test_witness_size_gate_and_bound_validation():
    with pytest.raises(InputError):
        find_witness_e(vt((1, 3), 1))
    # the positional call shape perfbench's tracer uses: None only
    t = vt((3, 8, 120), 1)
    assert find_witness_e(t, None) == find_witness_e(t)
    with pytest.raises(InputError):
        find_witness_e(t, 50)


def test_gap_lemma5_doubled_fib():
    rec = audit_gap_lemma5(vt(DOUBLED_FIB, 4))
    assert rec.lemma5_c_ratio == Fraction(48, 7)
    assert rec.lemma5_d_ratio == Fraction(83215, 18)
    assert rec.lemma5_c_ratio > Fraction(388, 100)
    assert rec.lemma5_d_ratio > Fraction(489, 100)
    assert rec.verdicts == {"lemma5_c": True, "lemma5_d": True}
    assert rec.passed
    assert rec.corollary_margin is None


def test_gap_corollary_doubled_fib():
    rec = audit_gap_corollary(vt(DOUBLED_FIB, 4))
    assert rec.corollary_margin == Fraction(6052, 9)
    assert rec.verdicts == {"corollary4": True}
    assert rec.passed
    assert rec.lemma5_c_ratio is None


def test_gap_precondition_gates():
    fermat = vt((1, 3, 8, 120), 1)
    with pytest.raises(PreconditionNotMetError):
        audit_gap_lemma5(fermat)  # |n| = 1
    with pytest.raises(PreconditionNotMetError):
        audit_gap_corollary(fermat)
    # a = n^2 exactly fails the strict gate; fabricate via the raw
    # constructor since no real instance is needed to test the gate
    fake = DTuple(n=2, elements=(4, 5, 6, 7), witnesses=())
    with pytest.raises(PreconditionNotMetError):
        audit_gap_lemma5(fake)


def test_gap_size_gate():
    with pytest.raises(InputError):
        audit_gap_lemma5(vt((1, 3, 8), 1))
    with pytest.raises(InputError):
        audit_lemma2(vt((1, 3, 8), 1))


def test_lemma2_fermat_not_applicable():
    assert audit_lemma2(vt((1, 3, 8, 120), 1)) is Lemma2Verdict.NOT_APPLICABLE


def test_lemma2_synthetic_equality_boundary():
    # not a D(n) instance; exercises the comparison path only
    assert lemma2_verdict(1, 2, 2**131, 1) is Lemma2Verdict.PASS
    assert lemma2_verdict(1, 2, 2**131 + 1, 1) is Lemma2Verdict.FAIL
    assert lemma2_verdict(2, 2, 2**131, 1) is Lemma2Verdict.NOT_APPLICABLE


@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=-6, max_value=6).filter(lambda n: n != 0))
@settings(max_examples=60, deadline=None)
def test_witness_agrees_with_exhaustive_scan(seed, n):
    # grow a triple from the seed if one exists in a small window; then
    # the returned witness must re-verify from scratch
    cands = [d for d in range(1, 400)
             if d != seed and seed * d + n >= 0
             and math.isqrt(seed * d + n) ** 2 == seed * d + n]
    triple = None
    for i, b in enumerate(cands):
        for c in cands[i + 1:]:
            if b * c + n >= 0 and math.isqrt(b * c + n) ** 2 == b * c + n:
                triple = tuple(sorted((seed, b, c)))
                break
        if triple:
            break
    if triple is None:
        return
    t = vt(triple, n)
    w = find_witness_e(t)
    assert w.satisfies(t)


@given(st.integers(min_value=1, max_value=2**100 - 1),
       st.integers(min_value=1, max_value=2**100 - 1),
       st.integers(min_value=0, max_value=2**100 - 1),
       st.sampled_from((1, -1)))
@settings(max_examples=500, deadline=None)
def test_witness_closed_form_beyond_search_scale(a, b, r, sign):
    # {a, b, a + b +- 2r} is a D(r^2 - ab) triple: a*c + n = (a +- r)^2
    # and b*c + n = (b +- r)^2, at sizes no search reaches
    n = r * r - a * b
    c = a + b + sign * 2 * r
    assume(n != 0 and a != b and c > 0 and c not in (a, b))
    t = verify((a, b, c), n)
    assert isinstance(t, DTuple)
    lo, mid, hi = t.elements
    r1, r2, r3 = (t.witness_for(lo, mid).r, t.witness_for(lo, hi).r,
                  t.witness_for(mid, hi).r)
    w = find_witness_e(t)
    assert w.e == n * (lo + mid + hi) + 2 * lo * mid * hi - 2 * r1 * r2 * r3
    assert w.satisfies(t)
