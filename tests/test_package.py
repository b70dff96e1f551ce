"""The package's lazy names, the modules each command loads, and the records
that replaced dataclasses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wilson
from wilson.bounds import EtaStep, solve_crossing
from wilson.catalog import CatalogClaim, identity_catalog, make_S, make_free_quadruple
from wilson.fano import psl32
from wilson.wreath import Element

# the names ``wilson`` exported when its __init__ imported every submodule,
# by the submodule that defines them
EXPORTS = {
    "fano": ("Perm", "PermGroup", "closure", "psl32", "X", "Y", "Z"),
    "wreath": ("Atom", "Element", "StateBudgetExceeded", "act", "decompose", "equals",
               "is_identity", "signature"),
    "catalog": ("GeneratingSet", "abar_act_prefix", "identity_catalog", "make_S",
                "make_abar", "make_base", "make_free_quadruple", "make_tilde",
                "prime_triple", "run_identity_catalog"),
    "growth": ("Ball", "ball_sizes", "enumerate_ball", "find_min_n_local_iso",
               "free_monoid_check", "growth_estimates"),
    "bounds": ("EtaStep", "eval_growth_bound", "g_eta", "lambda_sequence",
               "solve_crossing"),
    "words": ("DELTA", "contains_delta", "count_delta_free", "count_delta_occurrences",
              "finite_bound_F_less", "reduced_words", "verify_lemma30"),
}


def test_all_is_unchanged():
    names = [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]
    assert wilson.__all__ == sorted(names)


@pytest.mark.parametrize("home", sorted(EXPORTS))
def test_every_name_is_its_home_modules_object(home):
    module = getattr(wilson, home)
    assert module is sys.modules[f"wilson.{home}"]
    for name in EXPORTS[home]:
        assert getattr(wilson, name) is getattr(module, name), name


def test_from_import_and_dir():
    from wilson import make_tilde
    from wilson.catalog import make_tilde as home

    assert make_tilde is home
    assert set(wilson.__all__) <= set(dir(wilson))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wilson.no_such_name
    assert not hasattr(wilson, "Deduper")  # defined in growth, not exported


# In a fresh interpreter: import the CLI, run the command given as arguments
# (if any), and print the modules loaded.
FOOTPRINT = """
import os, sys
import wilson.cli
code = wilson.cli.main([*sys.argv[1:], "-o", os.devnull]) if sys.argv[1:] else 0
print(" ".join(sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize("argv, absent", [
    ((), ("dataclasses", "wilson.growth", "wilson.words", "wilson.bounds")),
    (("lemma30", "--max-n", "3"), ("wilson.growth", "wilson.bounds")),
    (("lambda", "--steps", "2"), ("wilson.growth", "wilson.words")),
])
def test_a_command_imports_only_the_modules_it_runs(argv, absent):
    src = str(Path(wilson.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    loaded = set(proc.stdout.split())
    assert {"wilson.cli", "wilson.fano", "wilson.wreath", "wilson.catalog"} <= loaded
    assert not loaded & set(absent)


def test_read_only_records():
    claim = identity_catalog()[0]
    records = [(make_S(1), "name"), (psl32(), "elements"),
               (make_free_quadruple(), "a"), (claim, "lhs"),
               (solve_crossing(2.0), "eta_n")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_value_records_compare_by_value():
    assert solve_crossing(2.0) == solve_crossing(2.0)
    assert solve_crossing(2.0) is not solve_crossing(2.0)
    assert EtaStep(1, 2.0, 0.1, 1.9, 0.0) != EtaStep(1, 2.0, 0.1, 1.9, 1e-16)
    one = Element()
    claim = CatalogClaim("sanity", "1 = 1", "equal", one, one)
    assert claim == CatalogClaim("sanity", "1 = 1", "equal", one, one)
    assert claim != CatalogClaim("sanity", "1 = 1", "not-identity", one)
    assert CatalogClaim("id", "s", "not-identity", one).rhs is None


def test_generating_set_length():
    assert len(make_S(1)) == 3
    assert make_S(1).elements() == tuple(e for _, e in make_S(1).symbols)
