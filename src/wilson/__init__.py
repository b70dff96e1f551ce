"""Computational engine for a wreath-recursion group of non-uniformly
exponential growth and its intermediate-growth sibling.

The package's names resolve on first use: reading ``wilson.make_tilde``
imports ``wilson.catalog``, so a program loads only the submodules it
touches.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the submodule that defines it; a submodule maps to itself
_HOME = {
    **{m: m for m in ("fano", "wreath", "catalog", "growth", "bounds", "words")},
    **dict.fromkeys(("Perm", "PermGroup", "closure", "psl32", "X", "Y", "Z"), "fano"),
    **dict.fromkeys(("Atom", "Element", "StateBudgetExceeded", "act", "decompose",
                     "equals", "is_identity", "signature"), "wreath"),
    **dict.fromkeys(("GeneratingSet", "abar_act_prefix", "identity_catalog", "make_S",
                     "make_abar", "make_base", "make_free_quadruple", "make_tilde",
                     "prime_triple", "run_identity_catalog"), "catalog"),
    **dict.fromkeys(("Ball", "ball_sizes", "enumerate_ball", "find_min_n_local_iso",
                     "free_monoid_check", "growth_estimates"), "growth"),
    **dict.fromkeys(("EtaStep", "eval_growth_bound", "g_eta", "lambda_sequence",
                     "solve_crossing"), "bounds"),
    **dict.fromkeys(("DELTA", "contains_delta", "count_delta_free",
                     "count_delta_occurrences", "finite_bound_F_less", "reduced_words",
                     "verify_lemma30"), "words"),
}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import the submodule that ``name`` lives in (PEP 562); a submodule is
    then bound on the package by the import itself."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
