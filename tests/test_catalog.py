import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wilson.catalog import (
    _nf,
    _verify_free_decompositions,
    abar_act_prefix,
    check_claim,
    identity_catalog,
    make_S,
    make_abar,
    make_base,
    make_free_quadruple,
    make_tilde,
    prime_triple,
    run_identity_catalog,
    swapper_pairs,
)
from wilson.fano import X, Y, Z, Perm, psl32
from wilson.wreath import act, decompose, equals, is_identity, perm_element

A_ELEMENTS = psl32().sorted_elements()
perms = st.sampled_from(A_ELEMENTS)


def test_base_set():
    base = make_base()
    assert [name for name, _ in base.symbols] == ["x", "y", "z"]
    assert act(base.elements()[0], "1") == "5"
    els = base.elements()
    assert len({e for e in els}) == 3
    from wilson.fano import closure

    assert closure({X, Y, Z}).size == 168


def test_make_abar_identity():
    assert make_abar(Perm.identity()).letters == ()


def test_make_abar_action():
    # bar(y) applies y to the letter after the first 2; y fixes 1
    assert act(make_abar(Y), "21") == "21"
    assert act(make_abar(Y), "23") == "2" + str(Y.apply(3))


def test_abar_prefix_oracle_edge_cases():
    assert abar_act_prefix("111", X) == "111"
    assert abar_act_prefix("2", X) == "2"
    assert abar_act_prefix("1124", X) == "112" + str(X.apply(4))
    assert abar_act_prefix("", X) == ""


@given(perms, perms)
@settings(max_examples=40, deadline=None)
def test_abar_is_homomorphism(a, b):
    assert equals(make_abar(a) * make_abar(b), make_abar(a * b))


@given(perms, st.text(alphabet="1234567", max_size=6))
@settings(max_examples=120, deadline=None)
def test_abar_matches_prefix_oracle(a, s):
    assert act(make_abar(a), s) == abar_act_prefix(s, a)


def test_prime_triple_of_trivial_inputs():
    from wilson.wreath import Element

    e = Element()
    pa, pb, pc = prime_triple(e, e, e, names=("p1", "p2", "p3"))
    assert equals(pa, perm_element(X))
    assert equals(pb, perm_element(Y))
    assert equals(pc, perm_element(Z))


def test_prime_triple_sections():
    base = make_base()
    pa, pb, pc = prime_triple(*base.elements(), names=("q1", "q2", "q3"))
    assert decompose(pa).sections[3] == base.elements()[0]
    assert decompose(pb).sections[0] == base.elements()[1]
    assert decompose(pc).sections[1] == base.elements()[2]
    for p in (pa, pb, pc):
        assert is_identity(p * p)


def test_prime_triple_rejects_non_involutions():
    good = [make_abar(X), make_abar(Y), make_abar(Z)]
    for k, bad in enumerate((make_abar(X * Y), perm_element(X * Y), make_abar(X) * make_abar(Y))):
        triple = good[:k] + [bad] + good[k + 1:]
        with pytest.raises(ValueError, match="^priming requires involutions, got "):
            prime_triple(*triple)


def test_every_generator_squares_to_the_empty_word():
    """The engine finds each generator an involution when it is built, so its
    square cancels letter by letter."""
    gensets = [make_base(), *(make_S(n) for n in (1, 2, 3)), make_tilde()]
    bars = [make_abar(a) for a in A_ELEMENTS if (a * a).is_identity()]
    assert len(bars) == 22  # the identity's and the 21 involutions'
    for g in [*(e for gs in gensets for e in gs.elements()), *bars]:
        assert (g * g).letters == (), g


def test_make_S():
    s1 = make_S(1)
    for e in s1.elements():
        assert is_identity(e * e)
        assert not is_identity(e)
    for e, f in itertools.combinations(s1.elements(), 2):
        assert not equals(e, f)
    s2 = make_S(2)
    expected = prime_triple(*s1.elements(), names=("S2.a", "S2.b", "S2.c"))
    assert s2.elements() == expected


def test_tilde_is_priming_fixed_point():
    tilde = make_tilde()
    primed = prime_triple(*tilde.elements(), names=("t1", "t2", "t3"))
    for orig, new in zip(tilde.elements(), primed):
        assert equals(orig, new)
    for e in tilde.elements():
        assert is_identity(e * e)
    assert act(tilde.elements()[0], "44") == "44"


def test_free_quadruple_canonical():
    q = make_free_quadruple()
    # decompositions checked on construction; spot-check roots
    assert decompose(q.a).root == decompose(q.c).root == q.u
    assert decompose(q.b).root == decompose(q.d).root == q.v
    assert decompose(q.a).root != decompose(q.b).root
    for name in "abcd":
        root = decompose(getattr(q, name)).root
        assert root.apply(1) == 2 and root.apply(2) == 1
    for e, f in itertools.combinations([q.a, q.b, q.c, q.d], 2):
        assert not equals(e, f)


def test_verify_free_decompositions_names_a_wrong_letter():
    q = make_free_quadruple()
    _verify_free_decompositions(q)
    def nf(root, barred, extra):  # <bar(barred), barred, 1, ..., 1> root, amended
        return _nf(root, {1: make_abar(barred), 2: perm_element(barred), **extra})

    wrongs = {  # the expected (root, barred) are a: (u, u), b: (v, u), c: (u, v), d: (v, v)
        "a": q._replace(a=q.b),  # wrong root
        "b": q._replace(b=q.d),  # right root, wrong first and second sections
        "c": q._replace(c=nf(q.u, q.v, {2: perm_element(q.u)})),  # wrong second section
        "d": q._replace(d=nf(q.v, q.v, {7: perm_element(X)})),  # nontrivial seventh section
    }
    for name, bad in wrongs.items():
        with pytest.raises(RuntimeError, match=f"^{name}: unexpected node form"):
            _verify_free_decompositions(bad)


def test_verify_free_decompositions_needs_roots_exchanging_1_and_2():
    q = make_free_quadruple()
    with pytest.raises(RuntimeError, match="^a: root does not exchange 1 and 2"):
        _verify_free_decompositions(q._replace(u=Perm.identity()))


def test_swapper_pairs_count():
    assert len(swapper_pairs()) == 6


def test_identity_catalog_passes():
    report = run_identity_catalog()
    assert report["all_pass"], [c for c in report["claims"] if not c["verdict"]]
    assert len(report["claims"]) >= 14


def test_claim_relations():
    claims = {c.id: c for c in identity_catalog()}
    assert check_claim(claims["sanity"])
    assert claims["extend-comm-nontrivial"].relation == "not-identity"
    assert claims["invol-comm-nontrivial"].relation == "not-identity"


def test_generating_sets_have_distinct_nontrivial_symbols():
    for gs in (make_S(1), make_S(2), make_S(3), make_tilde()):
        els = gs.elements()
        for e in els:
            assert not is_identity(e)
        for e, f in itertools.combinations(els, 2):
            assert not equals(e, f)
