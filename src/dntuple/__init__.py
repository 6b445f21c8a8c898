"""Exact search, verification and auditing for D(n) tuples.

A D(n) tuple is a set of distinct positive integers whose pairwise
products, shifted by a fixed nonzero integer n, are all perfect squares.
The package verifies such tuples with exact integer arithmetic, searches
ranges exhaustively for maximal ones, audits classical gap and witness
facts on concrete instances, and tabulates certified counting bounds.
"""

from .audits import (
    PreconditionNotMetError,
    WitnessNotFoundError,
    audit_gap_corollary,
    audit_gap_lemma5,
    audit_lemma2,
    find_witness_e,
)
from .bounds import (
    NotApplicableError,
    a_eps_bound,
    b_eps_bound,
    beta,
    bound_report,
    c_bound_leading,
    ell_epsilon,
    k_epsilon,
    m_bound_report,
)
from .search import SearchConfig, SearchReport, empirical_max_size, search_maximal
from .serialize import ARTIFACT_VERSION
from .tuples import DTuple, InputError, VerificationFailure, classify, extend, verify

__version__ = ARTIFACT_VERSION

__all__ = [
    "ARTIFACT_VERSION",
    "DTuple",
    "InputError",
    "NotApplicableError",
    "PreconditionNotMetError",
    "SearchConfig",
    "SearchReport",
    "VerificationFailure",
    "WitnessNotFoundError",
    "a_eps_bound",
    "audit_gap_corollary",
    "audit_gap_lemma5",
    "audit_lemma2",
    "b_eps_bound",
    "beta",
    "bound_report",
    "c_bound_leading",
    "classify",
    "ell_epsilon",
    "empirical_max_size",
    "extend",
    "find_witness_e",
    "k_epsilon",
    "m_bound_report",
    "search_maximal",
    "verify",
    "__version__",
]
