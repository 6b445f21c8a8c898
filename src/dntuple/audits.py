"""Exact audits of the classical gap and growth facts behind the bounds.

Every check here runs on concrete verified tuples and decides with integer
or rational arithmetic only; the triple witness is built from the pair
roots the tuple carries. The audits cannot prove anything; they exist
to catch defects in our own arithmetic (a genuine verified quadruple that
fails a proven inequality means the artifact is wrong, not the theorem).

Check names (lemma2, lemma3, lemma5, corollary4) follow the conventional
numbering for these statements and match the CLI's --checks vocabulary.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .exact import pow_compare
from .tuples import DTuple, InputError

# gap thresholds, kept rational so no verdict touches a float
_C_OVER_A = Fraction(388, 100)
_D_OVER_C = Fraction(489, 100)


class PreconditionNotMetError(ValueError):
    """The instance is outside a check's hypothesis (not a violation)."""


class WitnessNotFoundError(RuntimeError):
    """The closed-form e0 is not a witness for the triple.

    On a verified triple this cannot happen (see find_witness_e), so a miss
    is a defect in our own arithmetic, not an inconclusive search.
    """

    def __init__(self, triple: DTuple):
        self.triple = triple
        super().__init__(f"no witness e for {triple.elements} with n={triple.n}")


class LemmaThreeWitness(NamedTuple):
    """Integers (e, x, y, z) tying a triple a<b<c together.

    With n the tuple's shift and r the root of a*b + n, a valid witness
    satisfies, exactly:

        a*e + n^2 = x^2,  b*e + n^2 = y^2,  c*e + n^2 = z^2
        n^2*c = n^2*(a+b) + n*e + 2*(a*b*e + r*x*y)

    x, y, z are nonnegative; find_witness_e builds them from the pair roots
    verify() stored, and says why r*x*y needs no sign.
    """

    e: int
    x: int
    y: int
    z: int

    def satisfies(self, triple: DTuple) -> bool:
        """Re-derive all four equations from scratch against the triple."""
        n = triple.n
        a, b, c = triple.elements
        n2 = n * n
        if self.x * self.x != a * self.e + n2:
            return False
        if self.y * self.y != b * self.e + n2:
            return False
        if self.z * self.z != c * self.e + n2:
            return False
        r = triple.witness_for(a, b).r
        return n2 * c == n2 * (a + b) + n * self.e + 2 * (a * b * self.e + r * self.x * self.y)


class GapAuditRecord(NamedTuple):
    """Exact ratios and verdicts for one quadruple slice a<b<c<d."""

    quad: DTuple
    lemma5_c_ratio: Fraction | None = None  # c/a, tested against 3.88
    lemma5_d_ratio: Fraction | None = None  # d/c, tested against 4.89
    corollary_margin: Fraction | None = None  # d*n^2 / (b*c), tested against 1
    verdicts: Mapping[str, bool] = MappingProxyType({})  # read-only: the default is shared

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


class Lemma2Verdict(enum.Enum):
    NOT_APPLICABLE = "not_applicable"
    PASS = "pass"
    FAIL = "fail"


def find_witness_e(triple: DTuple, search_bound: None = None) -> LemmaThreeWitness:
    """The witness (e, x, y, z) of the triple identity, from the stored roots.

    With r^2 = a*b + n, s^2 = a*c + n and t^2 = b*c + n the pair roots
    verify() found, the extension value e0 = n*(a+b+c) + 2*a*b*c - 2*r*s*t
    gives

        a*e0 + n^2 = (a*t - r*s)^2
        b*e0 + n^2 = (b*s - r*t)^2
        c*e0 + n^2 = (c*r - s*t)^2

    For a < b < c, a^2*t^2 - r^2*s^2 = n*(a^2 - a*b - a*c - n) and
    b^2*s^2 - r^2*t^2 = n*(b^2 - a*b - b*c - n), and both brackets are
    negative, so a*t - r*s and b*s - r*t share the sign of -n and their
    product is x*y with x, y, z the absolute values. The closing identity
    then reduces to 2*r*s*t*(r^2 - a*b - n) = 0. So e0 is a witness of
    every verified triple and no other e needs trying. It is still a hint,
    never trusted: it only wins if satisfies() passes, and a miss raises
    WitnessNotFoundError.

    search_bound takes only None: perfbench's tracer still passes it
    positionally.
    """
    if search_bound is not None:
        raise InputError(f"search_bound takes only None, got {search_bound}")
    if triple.size != 3:
        raise InputError(f"witness search takes exactly three elements, got {triple.size}")
    n = triple.n
    a, b, c = triple.elements
    r, s, t = (w.r for w in triple.witnesses)  # stored in (a, b) order: ab, ac, bc
    e0 = n * (a + b + c) + 2 * a * b * c - 2 * r * s * t
    found = LemmaThreeWitness(e0, abs(a * t - r * s), abs(b * s - r * t), abs(c * r - s * t))
    if not found.satisfies(triple):
        raise WitnessNotFoundError(triple)
    return found


def _gap_elements(quad: DTuple) -> tuple[int, int, int, int]:
    # shared hypothesis gate for the two gap checks: |n| >= 2 and n^2
    # strictly below the whole quadruple
    if quad.size != 4:
        raise InputError(f"gap audits take exactly four elements, got {quad.size}")
    n = quad.n
    if abs(n) < 2:
        raise PreconditionNotMetError(f"need |n| >= 2, got n={n}")
    a, b, c, d = quad.elements
    if a <= n * n:
        raise PreconditionNotMetError(f"need n^2 < a, got a={a} with n^2={n * n}")
    return a, b, c, d


def audit_gap_lemma5(quad: DTuple) -> GapAuditRecord:
    """Check the gap bounds c > 3.88*a and d > 4.89*c on a quadruple.

    Applies when |n| >= 2 and n^2 < a; outside that hypothesis raises
    PreconditionNotMetError. Ratios are exact rationals and the verdicts
    are strict rational comparisons.
    """
    a, b, c, d = _gap_elements(quad)
    c_ratio = Fraction(c, a)
    d_ratio = Fraction(d, c)
    return GapAuditRecord(
        quad=quad,
        lemma5_c_ratio=c_ratio,
        lemma5_d_ratio=d_ratio,
        verdicts={"lemma5_c": c_ratio > _C_OVER_A, "lemma5_d": d_ratio > _D_OVER_C},
    )


def audit_gap_corollary(quad: DTuple) -> GapAuditRecord:
    """Check d*n^2 > b*c on a quadruple, under the same hypothesis gate."""
    a, b, c, d = _gap_elements(quad)
    n = quad.n
    margin = Fraction(d * n * n, b * c)
    return GapAuditRecord(
        quad=quad,
        corollary_margin=margin,
        verdicts={"corollary4": d * n * n > b * c},
    )


def lemma2_verdict(b: int, c: int, d: int, n: int) -> Lemma2Verdict:
    """Decide the growth implication: if c > (b*|n|)^11 then d <= c^131.

    NOT_APPLICABLE when the hypothesis does not fire, which is the
    expected outcome at desk scale; the conclusion is compared through
    bit-length fast paths so astronomically large d stay cheap.
    """
    if c <= (b * abs(n)) ** 11:
        return Lemma2Verdict.NOT_APPLICABLE
    return Lemma2Verdict.PASS if pow_compare(d, 1, c, 131) <= 0 else Lemma2Verdict.FAIL


def audit_lemma2(quad: DTuple) -> Lemma2Verdict:
    if quad.size != 4:
        raise InputError(f"gap audits take exactly four elements, got {quad.size}")
    _, b, c, d = quad.elements
    return lemma2_verdict(b, c, d, quad.n)
