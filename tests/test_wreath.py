import pytest
from hypothesis import given, settings, strategies as st

from wilson.catalog import make_S, make_abar, make_tilde
from wilson.fano import X, Y, Z, Perm
from wilson.wreath import (
    Atom,
    Element,
    StateBudgetExceeded,
    act,
    atom_element,
    decompose,
    equals,
    is_identity,
    node_equals,
    order_bounded,
    perm_element,
    portrait,
    recompose,
    set_state_budget,
    signature,
)

E = Element()
XE, YE, ZE = perm_element(X), perm_element(Y), perm_element(Z)
XBAR, YBAR, ZBAR = make_abar(X), make_abar(Y), make_abar(Z)
S1 = make_S(1)
TILDE = make_tilde()

# bar(u) for the order-4 swapper u and bar(xy) are not involutions, so their
# inverses are atoms of their own; their roots are trivial, so W (root xy of
# order 4, which moves the points 3 and 6 of its sections) is what checks that
# an inverse atom permutes its sections
U4BAR = make_abar(Perm.from_cycles((1, 2), (4, 5, 7, 6)))
XYBAR = make_abar(X * Y)
W = atom_element(Atom("w", X * Y, (E, E, XBAR, E, E, YE, E)))

ATOMS = [XE, YE, ZE, XBAR, YBAR, ZBAR, *S1.elements(), *TILDE.elements(),
         U4BAR, XYBAR, U4BAR.inverse(), W]
atom_words = st.lists(st.sampled_from(ATOMS), max_size=6)


def product(parts):
    acc = Element()
    for p in parts:
        acc = acc * p
    return acc


def test_decompose_abar_product():
    nf = decompose(XBAR * YBAR)
    assert nf.root.is_identity()
    assert nf.sections[0] == XBAR * YBAR
    assert nf.sections[1] == perm_element(X * Y)
    assert all(s == E for s in nf.sections[2:])


def test_decompose_perm_is_root_only():
    nf = decompose(XE)
    assert nf.root == X
    assert all(s == E for s in nf.sections)


def test_decompose_is_homomorphism_on_samples():
    for g, h in [(XBAR, YBAR), (S1.elements()[0], S1.elements()[1]),
                 (TILDE.elements()[0], ZE)]:
        gh = decompose(g * h)
        dg, dh = decompose(g), decompose(h)
        assert gh.root == dg.root * dh.root
        for p in range(7):
            lhs = gh.sections[p]
            rhs = dg.sections[p] * dh.sections[dg.root.apply(p + 1) - 1]
            assert equals(lhs, rhs)


def test_group_laws():
    g = S1.elements()[0] * S1.elements()[1]
    assert is_identity(g * g.inverse())
    assert g ** 0 == E
    assert equals(g ** 3, g * g * g)


def test_inverse_atom_letters():
    g = U4BAR * XE * XYBAR
    assert g.inverse().inverse().letters == g.letters
    assert (g * g.inverse()).letters == ()
    assert (g.inverse() * g).letters == ()
    assert repr(g.inverse()).endswith("^-1")
    assert repr(U4BAR.inverse()) == repr(U4BAR) + "^-1"


def test_certify_involution():
    s = Atom("s", X, (E,) * 7)
    s.certify_involution()
    assert s.inverse() is s
    assert (atom_element(s) * atom_element(s)).letters == ()


def test_certify_rejects_non_involution():
    with pytest.raises(ValueError, match="not an involution"):
        Atom("r", X * Y, (E,) * 7).certify_involution()


def test_certify_rejects_atom_with_distinct_inverse():
    s = Atom("s", X, (E,) * 7)
    s.inverse()
    with pytest.raises(ValueError, match="distinct inverse"):
        s.certify_involution()


def test_power_of_involution():
    xt = TILDE.elements()[0]
    assert is_identity(xt ** 2)


def test_act_examples():
    xt = TILDE.elements()[0]
    assert act(xt, "15") == "55"
    assert act(xt, "") == ""
    assert act(XBAR, "2345") == "2845".replace("8", str(X.apply(3)))
    assert act(XBAR, "111") == "111"


def test_act_prefix_consistent():
    g = S1.elements()[0] * S1.elements()[2]
    s = "1234567"
    img = act(g, s)
    for k in range(len(s)):
        assert act(g, s[:k]) == img[:k]


def test_is_identity_basic():
    assert is_identity(XE * XE)
    assert not is_identity(XBAR)
    assert is_identity((XE * YBAR) ** 4)


def test_order_bounded():
    assert order_bounded(XE, 4) == 2
    assert order_bounded(E, 1) == 1
    # derived by the engine: x * bar(y) has order exactly 4
    assert order_bounded(XE * YBAR, 8) == 4
    assert order_bounded(XBAR * YBAR * ZBAR, 2) in (1, 2, None)


def test_equals():
    assert equals(XBAR * XBAR, make_abar(X * X))
    assert equals(YBAR * YBAR, E)
    assert not equals(S1.elements()[0], XE)


def test_signature_basics():
    assert signature(E, 3) == signature(XE * XE, 3)
    assert signature(XE, 1) != signature(YE, 1)
    assert signature(XBAR, 1) == signature(E, 1)
    assert signature(XBAR, 2) != signature(E, 2)


def test_portrait():
    root, children = portrait(XBAR, 2)
    assert root.is_identity()
    assert children[1][0] == X  # point 2 carries the folded permutation
    assert children[0][0].is_identity()  # point 1 repeats the recursion
    assert portrait(E, 2) == (Perm.identity(),
                              tuple((Perm.identity(), tuple((Perm.identity(), ())
                                                            for _ in range(7)))
                                    for _ in range(7)))
    assert portrait(XE, 3)[0] == X


def test_recompose_roundtrip():
    nf = decompose(S1.elements()[0] * S1.elements()[1])
    assert node_equals(recompose(nf), nf)


def test_state_budget_error():
    from wilson.wreath import clear_caches

    clear_caches()  # results may already be memoized by earlier tests
    set_state_budget(2)
    try:
        with pytest.raises(StateBudgetExceeded):
            # trivial root but several distinct nonempty sections
            is_identity((S1.elements()[0] * S1.elements()[1]) ** 4)
    finally:
        set_state_budget(None)
        clear_caches()  # drop partial results computed under the tiny budget


@given(atom_words, atom_words)
@settings(max_examples=60, deadline=None)
def test_equality_iff_signatures_agree(ws, hs):
    g, h = product(ws), product(hs)
    eq = equals(g, h)
    # depth 8 covers everything word length <= 6 can distinguish here
    sig_eq = signature(g, 8) == signature(h, 8)
    assert eq == sig_eq


@given(atom_words)
@settings(max_examples=60, deadline=None)
def test_inverse_act_law(ws):
    g = product(ws)
    for s in ("1", "27", "345", "1111", "2163"):
        assert act(g.inverse(), act(g, s)) == s


@given(atom_words, atom_words)
@settings(max_examples=40, deadline=None)
def test_decompose_homomorphism_property(ws, hs):
    g, h = product(ws), product(hs)
    gh = decompose(g * h)
    dg, dh = decompose(g), decompose(h)
    assert gh.root == dg.root * dh.root
    for p in range(7):
        assert equals(gh.sections[p],
                      dg.sections[p] * dh.sections[dg.root.apply(p + 1) - 1])


@given(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=12))
@settings(max_examples=30, deadline=None)
def test_state_closure_stays_small(ws):
    # closures for short catalog words must stay far below the budget
    seen = {product(ws)}
    stack = list(seen)
    while stack:
        nf = decompose(stack.pop())
        for s in nf.sections:
            if s.letters and s not in seen:
                seen.add(s)
                stack.append(s)
    assert len(seen) < 10**4
