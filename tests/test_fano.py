import hashlib

import pytest
from hypothesis import given, strategies as st

from wilson import fano
from wilson.fano import (
    POINTS,
    X,
    Y,
    Z,
    Perm,
    closure,
    commutator,
    find_fix_move,
    find_swappers,
    is_perfect,
    is_simple,
    is_two_transitive,
    psl32,
)

A = psl32()
A_ELEMENTS = A.sorted_elements()
perms = st.sampled_from(A_ELEMENTS)


def test_generators_are_involutions():
    for g in (X, Y, Z):
        assert (g * g).is_identity()
        assert g.order() == 2


def test_compose_identity():
    assert (Perm.identity() * Y) == Y
    assert (Y * Perm.identity()) == Y


def test_compose_applies_left_then_right():
    # 1.x = 5 and y fixes 5
    assert (X * Y).apply(1) == 5


def test_cycle_rendering():
    assert X.cycles() == "(1 5)(3 7)"
    assert Perm.identity().cycles() == "()"


def test_closure_order_168():
    assert A.size == 168


def test_closure_of_identity():
    assert closure({Perm.identity()}).size == 1


def test_alternative_generators():
    assert closure({X * Y, Y * Z, Z * X}).elements == A.elements


def test_group_properties():
    assert is_perfect(A)
    assert is_simple(A)
    assert is_two_transitive(A)
    assert any(g * h != h * g for g in A_ELEMENTS[:10] for h in A_ELEMENTS[:10])


def test_small_subgroups():
    cx = closure({X})
    assert cx.size == 2
    assert not is_perfect(cx)
    assert is_simple(cx)  # prime order
    assert not is_two_transitive(closure({Perm.identity()}))


def is_perfect_all_pairs(group):
    """Oracle: the closure of all |G|^2 commutators is the whole group."""
    comms = {commutator(g, h) for g in group.elements for h in group.elements}
    return closure(comms).elements == group.elements


def test_is_perfect_matches_all_pairs_oracle():
    stabilizer = closure(g for g in A.elements if g.apply(1) == 1)
    assert stabilizer.size == 24
    groups = [A, closure({X}), closure({X, Y}), stabilizer, closure({Perm.identity()})]
    verdicts = [is_perfect(g) for g in groups]
    assert verdicts == [is_perfect_all_pairs(g) for g in groups]
    assert verdicts == [True, False, False, False, True]


def test_xy_yz_generate_everything():
    # derived: the two products already generate the full group
    sub = closure({X * Y, Y * Z})
    assert sub.size == 168
    assert is_perfect(sub)
    assert is_simple(sub)


def test_find_swappers():
    swappers = find_swappers(A, 1, 2)
    assert len(swappers) == 4
    for g in swappers:
        assert g.apply(1) == 2 and g.apply(2) == 1
    assert swappers == sorted(swappers)
    assert find_swappers(closure({Perm.identity()}), 1, 2) == []


def test_find_fix_move():
    u = find_fix_move(A, 1, 2)
    assert u.apply(1) == 1 and u.apply(2) != 2
    for g in A.sorted_elements():
        if g.apply(1) == 1 and g.apply(2) != 2:
            assert u <= g
            break
    with pytest.raises(LookupError):
        find_fix_move(closure({Perm.identity()}), 1, 2)


@given(perms, perms, perms)
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(perms)
def test_inverse_law(p):
    assert (p.inverse() * p).is_identity()
    assert (p * p.inverse()).is_identity()


# sha256 of the image tuples of psl32().sorted_elements(), from the frozen
# dataclass that ordered permutations before they were hash-consed
SORTED_IMAGES_SHA256 = "a1462f2f3dcaebbda94c11bb4cfad74dc087e869e077d14a5ddac03d00dbc738"


@given(st.permutations(POINTS))
def test_one_object_per_image_tuple(images):
    p = Perm(tuple(images))
    assert Perm(tuple(images)) is p
    assert Perm(list(images)) is p
    assert p.images == tuple(images)
    assert (p == Perm(POINTS)) == (p.images == POINTS) == p.is_identity()
    assert p.inverse().inverse() is p


def test_products_match_the_image_formula():
    for p in A_ELEMENTS:
        for q in A_ELEMENTS:
            images = tuple(q.images[i - 1] for i in p.images)
            r = p * q
            assert r.images == images
            assert p * q is r is Perm(images)


@pytest.mark.parametrize("images", [
    (1, 1, 2, 3, 4, 5, 6),
    (1, 2, 3),
    (0, 1, 2, 3, 4, 5, 6),
    (1, 2, 3, 4, 5, 6, 8),
    (1, 2, 3, 4, 5, 6, 7, 8),
])
def test_non_bijection_raises(images):
    with pytest.raises(ValueError, match="not a bijection"):
        Perm(images)
    assert images not in fano._PERMS


def test_sorted_elements_order_unchanged():
    order = A.sorted_elements()
    assert order == sorted(A.elements, key=lambda p: p.images)
    digest = hashlib.sha256(repr([p.images for p in order]).encode()).hexdigest()
    assert digest == SORTED_IMAGES_SHA256
    assert all(p < q and q > p and p <= q and not q <= p for p, q in zip(order, order[1:]))


def test_perm_is_immutable():
    for name in ("images", "_inverse", "other"):
        with pytest.raises(AttributeError):
            setattr(X, name, (1, 2, 3, 4, 5, 6, 7))
    with pytest.raises(AttributeError):
        del X.images
    assert X.images == (5, 2, 7, 4, 1, 6, 3)
    assert X.inverse() is X
