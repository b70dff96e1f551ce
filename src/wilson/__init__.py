"""Computational engine for a wreath-recursion group of non-uniformly
exponential growth and its intermediate-growth sibling."""

__version__ = "0.1.0"

from .fano import Perm, PermGroup, closure, psl32, X, Y, Z
from .wreath import (
    Atom,
    Element,
    StateBudgetExceeded,
    act,
    decompose,
    equals,
    is_identity,
    signature,
)
from .catalog import (
    GeneratingSet,
    abar_act_prefix,
    identity_catalog,
    make_S,
    make_abar,
    make_base,
    make_free_quadruple,
    make_tilde,
    prime_triple,
    run_identity_catalog,
)
from .growth import (
    Ball,
    ball_sizes,
    enumerate_ball,
    find_min_n_local_iso,
    free_monoid_check,
    growth_estimates,
)
from .bounds import EtaStep, eval_growth_bound, g_eta, lambda_sequence, solve_crossing
from .words import (
    DELTA,
    contains_delta,
    count_delta_free,
    count_delta_occurrences,
    finite_bound_F_less,
    reduced_words,
    verify_lemma30,
)

__all__ = [name for name in dir() if not name.startswith("_")]
