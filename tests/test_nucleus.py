"""The nucleus N of each generating set, built explicitly and checked.

For ``S:n`` the nucleus is bar(A) ∪ A: the 168 recursive copies
bar(a) = <bar(a), a, 1, ..., 1> and the 168 permutations of A, with
bar(1) = 1 shared, so 335 elements.  For ``tilde`` it is {1, x~, y~, z~}.
Membership in N is one ``equals`` against the one member a key can name: an
element with root r != 1 can only be the permutation r, and one with root 1
only bar of the root of its section at point 2 (bar(1) = 1 included).  No
``Deduper`` and no signature is involved.
"""

import itertools

import pytest

from wilson.catalog import GeneratingSet, make_abar, make_S, make_tilde
from wilson.fano import X, Y, Perm, psl32
from wilson.growth import enumerate_ball
from wilson.wreath import Element, decompose, equals, perm_element

ID = Perm.identity()


def key(g: Element) -> tuple:
    """The root of ``g``, and the root of its section at point 2 when the root
    is trivial: the one nucleus member ``g`` can equal has this key."""
    nf = decompose(g)
    if nf.root is not ID:
        return (nf.root, None)
    return (ID, decompose(nf.sections[1]).root)


def nucleus(genset: GeneratingSet) -> dict[tuple, Element]:
    """N by key: bar(A) ∪ A for ``S:n``, {1, x~, y~, z~} for ``tilde``."""
    if genset.name == "tilde":
        members = [Element(), *genset.elements()]
    else:
        group = psl32().sorted_elements()
        members = [make_abar(a) for a in group] + [perm_element(a) for a in group]
    return {key(g): g for g in members}


def in_nucleus(g: Element, n: dict[tuple, Element]) -> bool:
    member = n.get(key(g))
    return member is not None and equals(g, member)


def sections(g: Element) -> tuple[Element, ...]:
    return decompose(g).sections


def on_a_cycle(g: Element) -> bool:
    """Whether ``g`` is reachable from its own sections in the section graph."""
    seen, stack = set(), list(sections(g))
    while stack:
        s = stack.pop()
        if s is g:
            return True
        if s not in seen:
            seen.add(s)
            stack.extend(sections(s))
    return False


def levels_to_nucleus(g: Element, n: dict[tuple, Element], memo: dict) -> int:
    """The least k such that every section of ``g`` at depth k lies in N."""
    if g in memo:
        assert memo[g] is not None, f"{g!r} lies on a section cycle outside N"
        return memo[g]
    if in_nucleus(g, n):
        depth = 0
    else:
        memo[g] = None  # on the path being followed
        depth = 1 + max(levels_to_nucleus(s, n, memo) for s in sections(g))
    memo[g] = depth
    return depth


# for S:n, 168 + 168 elements less the shared bar(1) = 1
@pytest.mark.parametrize("genset, size", [(make_S(1), 335), (make_tilde(), 4)],
                         ids=["S:1", "tilde"])
def test_nucleus_is_closed_under_sections(genset, size):
    n = nucleus(genset)
    members = set(n.values())
    assert len(n) == len(members) == size
    for g in members:
        for s in sections(g):
            assert s in members  # the very object, not only an equal one
            assert in_nucleus(s, n)


@pytest.mark.parametrize("genset, pairs", [(make_S(1), 55_945), (make_tilde(), 6)],
                         ids=["S:1", "tilde"])
def test_nucleus_members_are_pairwise_distinct(genset, pairs):
    members = list(nucleus(genset).values())
    assert len(members) * (len(members) - 1) // 2 == pairs
    assert not any(equals(g, h) for g, h in itertools.combinations(members, 2))


def test_cycle_members_are_the_recursive_copies():
    n = nucleus(make_S(1))
    on_cycles = {g for g in n.values() if on_a_cycle(g)}
    assert on_cycles == {make_abar(a) for a in psl32().sorted_elements()}
    assert len(on_cycles) == 168
    assert all(on_a_cycle(g) for g in nucleus(make_tilde()).values())


def test_membership_is_decided_by_one_equals():
    n = nucleus(make_S(1))
    a, b, _ = make_S(1).elements()
    assert in_nucleus(perm_element(X), n)
    assert not in_nucleus(a, n)  # its root is x, but it is not x
    assert not in_nucleus(a * b, n)
    assert not in_nucleus((a * b) ** 4, n)  # root 1, but not 1
    # bar is a homomorphism, so this product is a member under another word
    assert in_nucleus(make_abar(X) * make_abar(Y), n)


@pytest.mark.parametrize("genset, radius, most", [
    (make_S(1), 8, 2),
    (make_S(2), 8, 3),
    (make_S(3), 8, 3),
    (make_tilde(), 12, 2),
], ids=["S:1", "S:2", "S:3", "tilde"])
def test_ball_members_contract_into_the_nucleus(genset, radius, most):
    """Every member of the ball has all its sections in N after at most
    ``most`` levels, and some member needs all of them."""
    n, memo = nucleus(genset), {}
    depths = [levels_to_nucleus(g, n, memo) for g in enumerate_ball(genset, radius).members]
    assert min(depths) == 0  # the identity
    assert max(depths) == most
