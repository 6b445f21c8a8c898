"""Verified D(n) quadruples, built with no search, on which the lemma audits apply.

A search at desk scale never meets the hypothesis of Lemma 2, and meets
that of Lemma 5 and Corollary 4 only on a few quadruples, so their pass
paths would go unchecked on real tuples. These classical constructions
reach far past the search's limit:

- The D(1) triples {1, 3, c} with c = 8, 120, 1 680, ... and
  c_{k+2} = 14 c_{k+1} - c_k + 8. The regular fourth element of
  {1, 3, c_k} is c_{k+1} (Arkin, Hoggatt and Strauss, 1979), and m times
  a D(1) quadruple is a D(m^2) quadruple. A late enough member of the
  chain makes Lemma 2's hypothesis c > (b|n|)^11 hold for n = 1, 4 and 9.
- m (k - 1, k + 1, 4k, 16k^3 - 4k) with k = m^3 + 2, a D(m^2) quadruple
  whose smallest element is above n^2 = m^4, so Lemma 5 and Corollary 4
  apply. Its c/a = 4k/(k - 1) falls towards Lemma 5's 3.88 as m grows.

Every tuple is accepted only through verify().
"""

from dntuple.serialize import canonical_json, tuple_to_obj
from dntuple.tuples import DTuple, VerificationFailure, verify


def _verified(elements, n) -> DTuple:
    result = verify(elements, n)
    if isinstance(result, VerificationFailure):
        raise AssertionError(f"construction failed: {result}")
    return result


def _lemma2_quadruple(m: int) -> DTuple:
    # m {1, 3, c, d} for the first (c, d) of the chain with m*c > (3m * m^2)^11
    c, d = 8, 120
    while m * c <= (3 * m ** 3) ** 11:
        c, d = d, 14 * d - c + 8
    return _verified((m, 3 * m, m * c, m * d), m * m)


def constructed_quadruples() -> list[DTuple]:
    quads = [_lemma2_quadruple(m) for m in (1, 2, 3)]
    for m in (2, 3, 7, 10):
        k = m ** 3 + 2
        quads.append(_verified(tuple(m * x for x in (k - 1, k + 1, 4 * k, 16 * k ** 3 - 4 * k)),
                               m * m))
    return quads


def corpus_text() -> str:
    """The quadruples as dtuple records, one line each, in a fixed order."""
    return "".join(canonical_json(tuple_to_obj(q)) + "\n" for q in constructed_quadruples())
