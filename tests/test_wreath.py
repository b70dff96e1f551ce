import itertools
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from wilson import fano, wreath
from wilson.catalog import (make_S, make_abar, make_base, make_free_quadruple,
                            make_tilde)
from wilson.fano import DEGREE, X, Y, Z, Perm, psl32
from wilson.wreath import (
    Atom,
    Element,
    StateBudgetExceeded,
    act,
    atom_element,
    clear_caches,
    decompose,
    equals,
    is_identity,
    node_key,
    perm_element,
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
W = atom_element(Atom("w", X * Y, {3: XBAR, 6: YE}))

ATOMS = [XE, YE, ZE, XBAR, YBAR, ZBAR, *S1.elements(), *TILDE.elements(),
         U4BAR, XYBAR, U4BAR.inverse(), W]
atom_words = st.lists(st.sampled_from(ATOMS), max_size=6)
# every inverse atom and the level-2 atoms besides, for the tests of the
# sparse section updates and of the signature tables
SPARSE_ATOMS = ATOMS + [XYBAR.inverse(), W.inverse(), *make_S(2).elements()]
sparse_words = st.lists(st.sampled_from(SPARSE_ATOMS), max_size=6)


def product(parts):
    acc = Element()
    for p in parts:
        acc = acc * p
    return acc


def reference_normalize(letters):
    """The stack walk: drop identity permutations, fold adjacent permutations
    and cancel an atom against the atom it is linked to as inverse."""
    out = []
    for letter in letters:
        if isinstance(letter, Perm):
            if letter.is_identity():
                continue
            if out and isinstance(out[-1], Perm):
                folded = out.pop() * letter
                if not folded.is_identity():
                    out.append(folded)
                continue
            out.append(letter)
        elif out and isinstance(out[-1], Atom) and out[-1]._inverse is letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


# raw letters: the identity, permutations that fold with each other, and atoms
# next to their inverse atoms (involutions are their own)
LETTERS = [Perm.identity(), X, Y, Z, X * Y,
           *(g.letters[0] for g in (XBAR, *S1.elements(), *TILDE.elements(), U4BAR, W)),
           U4BAR.inverse().letters[0], W.inverse().letters[0]]


@given(st.lists(st.sampled_from(LETTERS), max_size=12))
@settings(max_examples=100, deadline=None)
def test_normalize_matches_reference(letters):
    assert Element(tuple(letters)).letters == reference_normalize(letters)


letter_words = st.lists(st.sampled_from(LETTERS), max_size=12)


@given(letter_words, letter_words)
@settings(max_examples=100, deadline=None)
def test_one_object_per_normal_word(ws, hs):
    g, h = Element(tuple(ws)), Element(tuple(hs))
    assert Element(tuple(ws)) is g
    assert Element(g.letters) is g
    assert g * h is Element(g.letters + h.letters)
    assert g.inverse().inverse() is g
    assert (g == h) == (g.letters == h.letters)


@given(letter_words)
@settings(max_examples=100, deadline=None)
def test_trie_node_is_its_prefix_and_last_letter(ws):
    g = Element(tuple(ws))
    if g is not E:
        assert g.prefix * Element((g.last,)) is g
        assert g.prefix.letters + (g.last,) == g.letters


def test_intern_table_is_a_trie():
    Element((XBAR.letters[0], X, U4BAR.letters[0], Y))
    assert wreath._CHILDREN[None] == {None: E}
    for last, children in wreath._CHILDREN.items():
        for prefix, e in children.items():
            if e is not E:
                assert (prefix, last) == (e.prefix, e.last)
                assert wreath._CHILDREN[prefix.last][prefix.prefix] is prefix


def test_long_word_walks_its_prefix_chain_in_a_loop():
    letters = (XBAR.letters[0], X) * 10_000
    g = Element(letters)
    assert g.letters == letters
    assert decompose(g).sections is not None
    assert g.inverse().letters[:2] == (X, XBAR.letters[0].inverse())
    assert is_identity(g * g.inverse())


@given(letter_words)
@settings(max_examples=60, deadline=None)
def test_interning_survives_clear_caches(ws):
    g = Element(tuple(ws))
    decompose(g)
    try:
        clear_caches()
        assert Element(tuple(ws)) is g and g.sections is None
        assert letters_of(decompose(g)) == letters_of(reference_decompose(g))
        assert all(s is Element(s.letters) for s in decompose(g).sections)
    finally:
        clear_caches()


def test_engine_stats_counts():
    clear_caches()
    stats = wreath.engine_stats()
    assert stats["decompose_cache"] == stats["signature_cache"] == 0
    g = XBAR * YBAR * Element((X * Y, TILDE.elements()[0].letters[0]))
    signature(g, 2)
    # a node form and a signature for g and for each distinct section of g
    read = {g, *decompose(g).sections}
    assert wreath.engine_stats() == {
        "decompose_cache": len(read),
        "signature_cache": len(read),
        "elements": sum(len(children) for children in wreath._CHILDREN.values()),
        "perms": len(fano._PERMS),
    }


class RefNodeForm(NamedTuple):
    """A node form built apart from the engine's elements."""

    root: Perm
    sections: tuple


def reference_decompose(e):
    """The whole-word walk: collect each point's section chunks, root by
    root, and normalize each concatenation once.  No cache is read."""
    acc = Perm.identity()
    pieces = [[] for _ in range(DEGREE)]
    for letter in e.letters:
        if isinstance(letter, Perm):
            acc = acc * letter
            continue
        for p in range(DEGREE):
            s = letter.sections[acc.apply(p + 1) - 1]
            if s.letters:
                pieces[p].append(s.letters)
        acc = acc * letter.root
    return RefNodeForm(acc, tuple(
        Element(tuple(itertools.chain.from_iterable(chunks))) for chunks in pieces))


def reference_closure(e):
    """Every word reachable from ``e`` by taking sections, found with
    ``reference_decompose``.  No cache is read and no budget applies."""
    seen = {e}
    stack = [e]
    while stack:
        for s in reference_decompose(stack.pop()).sections:
            if s.letters and s not in seen:
                seen.add(s)
                stack.append(s)
    return seen


def reference_is_identity(e):
    """The single-word closure: ``e = 1`` iff every word reachable from it by
    taking sections has a trivial root."""
    return all(reference_decompose(s).root.is_identity() for s in reference_closure(e))


def letters_of(nf):
    return nf.root, tuple(s.letters for s in nf.sections)


@given(sparse_words)
@settings(max_examples=60, deadline=None)
def test_decompose_matches_reference(ws):
    g = product(ws)
    expected = letters_of(reference_decompose(g))
    try:
        clear_caches()
        assert letters_of(decompose(g)) == expected
        clear_caches()
        for k in range(len(g.letters)):
            decompose(Element(g.letters[:k]))
        assert letters_of(decompose(g)) == expected
    finally:
        clear_caches()


def reachable_atoms(elements):
    """Every atom met in the words of ``elements``, their atoms' sections and
    the inverses of all of them."""
    seen = set()
    stack = [letter for e in elements for letter in e.letters if isinstance(letter, Atom)]
    while stack:
        atom = stack.pop()
        if atom in seen:
            continue
        seen.add(atom)
        stack.append(atom.inverse())
        stack += [letter for s in atom.sections for letter in s.letters
                  if isinstance(letter, Atom)]
    return seen


def catalog_atoms():
    """The atoms reachable from every generating set, every bar(a) and the
    test atoms."""
    quad = make_free_quadruple()
    roots = [*make_base().elements(), *TILDE.elements(), quad.a, quad.b, quad.c,
             quad.d, *(make_abar(p) for p in psl32().sorted_elements()), U4BAR, XYBAR, W,
             *(e for n in (1, 2, 3) for e in make_S(n).elements())]
    return reachable_atoms(roots)


def test_nontrivial_sections_table():
    atoms = catalog_atoms()
    assert len(atoms) > 170
    for atom in atoms:
        assert atom.nontrivial == tuple(
            (q, s) for q, s in enumerate(atom.sections) if s.letters), atom
    # a late assignment, as in a self-referential atom, sets the table too
    late = Atom("late", X)
    with pytest.raises(AttributeError):
        decompose(atom_element(late))
    late.sections = {5: atom_element(late), 2: XBAR}
    assert late.nontrivial == ((1, XBAR), (4, atom_element(late)))
    assert late.sections == (E, XBAR, E, E, atom_element(late), E, E)


@given(atom_words, atom_words)
@settings(max_examples=60, deadline=None)
def test_product_joins_at_the_seam(ws, hs):
    g, h = product(ws), product(hs)
    assert (g * h).letters == Element(g.letters + h.letters).letters
    assert (g * g.inverse()).letters == ()


def test_seam_cases():
    u, u_inv = U4BAR.letters[0], U4BAR.inverse().letters[0]
    cases = [
        # x x folds to the identity, then bar(x) cancels against itself
        (XBAR * XE, XE * XBAR, ()),
        # x y folds to a permutation, which ends the cascade
        (XBAR * XE, YE * XBAR, (XBAR.letters[0], X * Y, XBAR.letters[0])),
        # bar(u) has order 4: it cancels only against its own inverse atom
        (U4BAR * XE, XE * U4BAR.inverse(), ()),
        (U4BAR * XE, XE * U4BAR, (u, u)),
        (U4BAR.inverse(), U4BAR.inverse(), (u_inv, u_inv)),
        (W * XBAR * YE, YE * XBAR * W.inverse(), ()),
    ]
    for g, h, letters in cases:
        assert (g * h).letters == letters
        assert Element(g.letters + h.letters).letters == letters


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


STRINGS = ["".join(t) for n in range(4) for t in itertools.product("1234567", repeat=n)]


def test_an_atom_is_its_own_inverse_iff_it_is_an_involution():
    for atom in catalog_atoms():
        a = atom_element(atom)
        if atom.inverse() is atom:  # a * a cancels: read the square's action
            assert all(act(a, act(a, s)) == s for s in STRINGS), atom
        else:  # a * a is a word of two letters
            assert not is_identity(a * a), atom
    s = Atom("s", X, {})
    assert s.inverse() is s
    # x fixes 4, where the section has order 4
    r = Atom("r", X, {4: U4BAR})
    assert r.inverse() is not r


def test_a_non_involution_gets_a_distinct_linked_inverse():
    r = Atom("r", X * Y, {})
    inv = r.inverse()
    assert inv is not r and inv.name == "r^-1" and inv.root == (X * Y).inverse()
    assert inv.inverse() is r and r.inverse() is inv
    g = atom_element(r)
    assert (g * atom_element(inv)).letters == () and (g * g).letters == (r, r)
    # the section at p.a of the inverse of <g_p> a is g_p^-1
    w = W.letters[0]
    assert w.inverse().nontrivial == tuple(sorted(
        (w.root.apply(q + 1) - 1, s.inverse()) for q, s in w.nontrivial))


def test_setting_sections_late_decides_the_question():
    # bar(x) read with late sections, and a copy with a section of order 4
    late, odd = Atom("late", Perm.identity()), Atom("odd", Perm.identity())
    late.sections = {1: atom_element(late), 2: XE}
    odd.sections = {1: atom_element(odd), 2: perm_element(X * Y)}
    assert late.inverse() is late and equals(atom_element(late), XBAR)
    assert odd.inverse() is not odd and equals(atom_element(odd), XYBAR)


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
    """Orders of small elements, checked power by power."""
    assert not is_identity(XE) and is_identity(XE ** 2)
    # derived by the engine: x * bar(y) has order exactly 4
    assert [is_identity((XE * YBAR) ** k) for k in range(1, 5)] == [
        False, False, False, True]


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
    """The top of bar(x)'s portrait: a trivial root, the recursion at point 1
    and the folded permutation x at point 2.  The identity's is trivial."""
    assert decompose(E).root.is_identity() and set(decompose(E).sections) == {E}
    nf = decompose(XBAR)
    assert nf.root.is_identity()
    assert nf.sections[0] == XBAR
    assert decompose(nf.sections[1]).root == X
    assert all(s == E for s in nf.sections[2:])


def test_state_budget_error(monkeypatch):
    monkeypatch.setattr(wreath, "STATE_BUDGET", 2)
    with pytest.raises(StateBudgetExceeded):
        # trivial root but several distinct nonempty sections
        is_identity((S1.elements()[0] * S1.elements()[1]) ** 4)


def test_budget_holds_after_an_earlier_verdict(monkeypatch):
    # S2.b and y~ agree off their sections at point 1, where S1.b and y~
    # commute, so the closure holds three pairs: (w, 1), ((S1.b y~)^2, 1) and
    # one more below it; no verdict from the first call is reused
    w = (make_S(2).elements()[1] * TILDE.elements()[1]) ** 2
    assert w.letters and is_identity(w)
    monkeypatch.setattr(wreath, "STATE_BUDGET", 3)
    assert is_identity(w)
    monkeypatch.setattr(wreath, "STATE_BUDGET", 2)
    with pytest.raises(StateBudgetExceeded):
        is_identity(w)


def truncated_bar(a, depth):
    """bar(a) cut below ``depth``: sections <t_(depth-1), a, 1, ..., 1> with
    t_0 = 1, so it differs from bar(a) first on strings of length depth + 2."""
    t = E
    for _ in range(depth):
        t = atom_element(Atom("t", Perm.identity(), {1: t, 2: perm_element(a)}))
    return t


def test_equals_closure_cases(monkeypatch):
    # a nonempty word of the identity keeps equal elements' words apart
    r = (XE * YBAR) ** 4
    assert r.letters and equals(XE * r, XE) and equals(XE, r * XE)
    # the roots of both sides are compared
    for g, h in ((E, XE), (XE, E), (XBAR, XE * XBAR), (XE * XBAR, XBAR)):
        assert not equals(g, h)
    # a difference is found at any depth
    for depth in range(1, 6):
        assert not equals(truncated_bar(X, depth), XBAR)
        assert equals(truncated_bar(X, depth), truncated_bar(X, depth))
    # a pair whose node forms agree word for word is settled at once: pairs
    # of equal section words are not followed, so one pair suffices
    g = XBAR * S1.elements()[0]
    nf = decompose(g)
    twin = atom_element(Atom("twin", nf.root, dict(enumerate(nf.sections, 1))))
    monkeypatch.setattr(wreath, "STATE_BUDGET", 1)
    assert g != twin and equals(g, twin) and equals(twin, g)


@given(atom_words, atom_words)
@settings(max_examples=60, deadline=None)
def test_equality_iff_signatures_agree(ws, hs):
    g, h = product(ws), product(hs)
    eq = equals(g, h)
    # depth 8 covers everything word length <= 6 can distinguish here
    sig_eq = signature(g, 8) == signature(h, 8)
    assert eq == sig_eq


def reference_signature(e, depth):
    """The portrait of ``e`` down to ``depth``: the nested tuple of roots, read
    through ``reference_decompose``.  No cache is read."""
    if depth == 0:
        return ()
    nf = reference_decompose(e)
    return nf.root, tuple(reference_signature(s, depth - 1) for s in nf.sections)


# nonempty words of the identity, so that equal elements with distinct words occur
RELATORS = [(XE * YBAR) ** 4, (TILDE.elements()[0] * TILDE.elements()[1]) ** 4,
            (make_S(2).elements()[1] * TILDE.elements()[1]) ** 2]


@given(sparse_words, sparse_words, st.sampled_from(RELATORS), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_signature_matches_reference(ws, hs, r, depth):
    g, h = product(ws), product(hs)
    try:
        for a, b in ((g, h), (g, g * r), (r * h, h)):
            for warm in (False, True):
                clear_caches()
                if warm:  # a's node reads its children by ``map``, b's may recurse
                    for s in decompose(a).sections:
                        signature(s, depth - 1)
                same = reference_signature(a, depth) == reference_signature(b, depth)
                assert (signature(a, depth) == signature(b, depth)) == same
                assert (node_key(a, depth) == node_key(b, depth)) == same
                for e in (a, b):
                    assert signature(e, depth) == wreath._SIG_INTERN[node_key(e, depth)]
    finally:
        clear_caches()


@given(atom_words, atom_words, st.sampled_from(RELATORS))
@settings(max_examples=60, deadline=None)
def test_equals_matches_reference(ws, hs, r):
    g, h = product(ws), product(hs)
    for a, b in ((g, h), (g * r, h), (g, r * g), (g * r, g)):
        assert equals(a, b) == reference_is_identity(a * b.inverse())
    assert is_identity(g) == reference_is_identity(g)
    assert is_identity(r * g) == reference_is_identity(r * g)


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
    assert len(reference_closure(product(ws))) < 10**4
