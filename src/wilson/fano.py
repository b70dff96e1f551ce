"""Permutations of the 7-point alphabet and the order-168 simple group they generate.

Everything acts on the right: ``p.apply`` maps a point through a permutation,
and ``p * q`` means "apply p, then q".  Canonical order on permutations is
lexicographic on the image tuple, so "pick the least element" is well defined.

Permutations are hash-consed: each image tuple is one :class:`Perm` object,
interned in ``_PERMS``, so ``==`` and ``hash`` are identity's.  Only images
given from outside are checked to be a bijection; a product reads its images
through the left factor's ``operator.itemgetter`` and looks them up in the
table, and an inverse is kept on the permutation once computed.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from operator import itemgetter

DEGREE = 7
POINTS = tuple(range(1, DEGREE + 1))

_set = object.__setattr__  # Perm forbids assignment; the table fills slots this way


@functools.total_ordering
class Perm:
    """A bijection of {1, ..., 7}, stored as its image tuple.

    ``Perm(images)`` returns the one object with these images, checking a
    tuple it has not seen before.  Instances are immutable and ordered
    lexicographically by ``images``.
    """

    __slots__ = ("images", "_take", "_inverse")

    def __new__(cls, images):
        images = tuple(images)
        p = _PERMS.get(images)
        if p is None:
            if sorted(images) != list(POINTS):
                raise ValueError(f"not a bijection of {POINTS}: {images}")
            p = _intern(images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"Perm is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Perm is immutable: cannot delete {name!r}")

    @staticmethod
    def identity() -> "Perm":
        return _IDENTITY

    @staticmethod
    def from_cycles(*cycles: tuple[int, ...]) -> "Perm":
        images = list(POINTS)
        for cycle in cycles:
            for i, pt in enumerate(cycle):
                images[pt - 1] = cycle[(i + 1) % len(cycle)]
        return Perm(images)

    def apply(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # apply self first, then other: images[i] = other.images[self.images[i] - 1]
        images = self._take(other.images)
        return _PERMS.get(images) or _intern(images)

    def inverse(self) -> "Perm":
        inv = self._inverse
        if inv is None:
            images = tuple(self.images.index(q) + 1 for q in POINTS)
            inv = _PERMS.get(images) or _intern(images)
            _set(self, "_inverse", inv)
            _set(inv, "_inverse", self)
        return inv

    def is_identity(self) -> bool:
        return self is _IDENTITY

    def __lt__(self, other):
        return self.images < other.images if other.__class__ is Perm else NotImplemented

    def order(self) -> int:
        k, p = 1, self
        while not p.is_identity():
            p = p * self
            k += 1
        return k

    def cycles(self) -> str:
        """Canonical cycle notation, e.g. ``(1 5)(3 7)``; identity is ``()``."""
        seen = set()
        parts = []
        for start in POINTS:
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self.apply(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self.apply(nxt)
            if len(cycle) > 1:
                parts.append("(" + " ".join(map(str, cycle)) + ")")
        return "".join(parts) or "()"

    def __repr__(self):
        return f"Perm[{self.cycles()}]"


_PERMS: dict[tuple[int, ...], Perm] = {}  # the intern table: images -> permutation


def _intern(images: tuple[int, ...]) -> Perm:
    """A new permutation for images that are a bijection and not yet interned."""
    p = object.__new__(Perm)
    _set(p, "images", images)
    _set(p, "_take", itemgetter(*(i - 1 for i in images)))
    _set(p, "_inverse", None)
    _PERMS[images] = p
    return p


_IDENTITY = Perm(POINTS)


def commutator(g, h):
    """[g, h] = g^-1 h^-1 g h, for any two values with ``*`` and
    ``.inverse()``: two ``Perm``s or two wreath ``Element``s."""
    return g.inverse() * h.inverse() * g * h


def conjugate(g, h):
    """g^h = h^-1 g h (right conjugation), for two ``Perm``s or two wreath
    ``Element``s."""
    return h.inverse() * g * h


class PermGroup(namedtuple("PermGroup", "elements generators")):
    """A finite permutation group: its ``elements`` (a frozenset of ``Perm``)
    and the ``generators`` (a sorted tuple) that ``closure`` built it from."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list[Perm]:
        return sorted(self.elements)


def closure(gens) -> PermGroup:
    """Smallest group containing ``gens`` (breadth-first multiplication)."""
    gens = tuple(sorted(set(gens)))
    if not gens:
        raise ValueError("need at least one generator")
    seen = {_IDENTITY}
    frontier = [_IDENTITY]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return PermGroup(frozenset(seen), gens)


def conjugacy_classes(group: PermGroup) -> list[frozenset[Perm]]:
    classes = []
    assigned = set()
    for g in group.sorted_elements():
        if g in assigned:
            continue
        cls = frozenset(conjugate(g, h) for h in group.elements)
        assigned |= cls
        classes.append(cls)
    return classes


def is_perfect(group: PermGroup) -> bool:
    """True iff the group equals its commutator subgroup.

    [G, G] is the normal closure of the generators' commutators: modulo that
    normal subgroup the generators commute, so the quotient is abelian.  The
    group's ``generators`` must generate it, as ``closure`` makes them.
    """
    comms = {commutator(x, y) for x in group.generators for y in group.generators}
    derived = closure({conjugate(c, g) for c in comms for g in group.elements})
    return derived.elements == group.elements


def is_simple(group: PermGroup) -> bool:
    """True iff the normal closure of every nontrivial element is the whole group.

    The trivial group is conventionally not simple.  Normal closures are
    constant on conjugacy classes, so one representative per class suffices.
    """
    if group.size == 1:
        return False
    for cls in conjugacy_classes(group):
        rep = next(iter(cls))
        if rep.is_identity():
            continue
        if closure(cls).elements != group.elements:
            return False
    return True


def is_two_transitive(group: PermGroup) -> bool:
    """True iff the orbit of the ordered pair (1, 2) has size 7 * 6 = 42."""
    orbit = {(g.apply(1), g.apply(2)) for g in group.elements}
    return len(orbit) == DEGREE * (DEGREE - 1)


def find_swappers(group: PermGroup, p: int, q: int) -> list[Perm]:
    """All elements exchanging p and q, in canonical (lexicographic) order."""
    if p == q:
        raise ValueError("points must differ")
    return [g for g in group.sorted_elements() if g.apply(p) == q and g.apply(q) == p]


def find_fix_move(group: PermGroup, fix: int, move: int) -> Perm:
    """Canonically least element fixing ``fix`` and moving ``move``."""
    if fix == move:
        raise ValueError("points must differ")
    for g in group.sorted_elements():
        if g.apply(fix) == fix and g.apply(move) != move:
            return g
    raise LookupError(f"no element fixes {fix} and moves {move}")


# The three reflections generating PSL(3,2) in its action on the Fano labels.
X = Perm.from_cycles((1, 5), (3, 7))
Y = Perm.from_cycles((2, 3), (6, 7))
Z = Perm.from_cycles((4, 6), (5, 7))


@functools.cache
def psl32() -> PermGroup:
    """The order-168 group generated by the reflections x, y, z."""
    return closure({X, Y, Z})
