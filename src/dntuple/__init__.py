"""Exact search, verification and auditing for D(n) tuples.

A D(n) tuple is a set of distinct positive integers whose pairwise
products, shifted by a fixed nonzero integer n, are all perfect squares.
The package verifies such tuples with exact integer arithmetic, searches
ranges exhaustively for maximal ones, audits classical gap and witness
facts on concrete instances, and tabulates certified counting bounds.

Importing the package loads none of its modules: each public name is
imported from its module on first use, so a search loads only the
modules it runs. __version__ and ARTIFACT_VERSION come from serialize.
"""

from importlib import import_module

# each public name by the module that defines it
_MODULE_OF = {
    **dict.fromkeys(("PreconditionNotMetError", "WitnessNotFoundError", "audit_gap_corollary",
                     "audit_gap_lemma5", "audit_lemma2", "find_witness_e"), "audits"),
    **dict.fromkeys(("NotApplicableError", "a_eps_bound", "b_eps_bound", "beta", "bound_report",
                     "c_bound_leading", "ell_epsilon", "k_epsilon", "m_bound_report"), "bounds"),
    **dict.fromkeys(("SearchConfig", "SearchReport", "empirical_max_size", "search_maximal"),
                    "search"),
    "ARTIFACT_VERSION": "serialize",
    **dict.fromkeys(("DTuple", "InputError", "VerificationFailure", "classify", "extend",
                     "verify"), "tuples"),
}

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


def __getattr__(name: str):
    # PEP 562: called only for a name not yet in the module globals
    source = "ARTIFACT_VERSION" if name == "__version__" else name
    if source not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[source]}"), source)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
