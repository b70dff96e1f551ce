"""Named generator families and their machine-checkable witness identities.

Wherever a construction says "pick an element", the canonically least
candidate (lexicographic on image tuples) is used, so every downstream
artifact is reproducible.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .fano import (X, Y, Z, Perm, commutator, conjugate, find_fix_move,
                   find_swappers, psl32)
from .wreath import (
    Atom,
    Element,
    atom_element,
    equals,
    is_identity,
    perm_element,
)

_E = Element()


class GeneratingSet:
    """A named tuple of ``(symbol, element)`` pairs.  Read-only: ``make_S``
    and ``make_tilde`` are cached, so one set is shared by every caller."""

    __slots__ = ("name", "symbols")

    def __init__(self, name: str, symbols: tuple[tuple[str, Element], ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "symbols", symbols)

    def __setattr__(self, name, value):
        raise AttributeError(f"GeneratingSet is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GeneratingSet is read-only: cannot delete {name!r}")

    def elements(self) -> tuple[Element, ...]:
        return tuple(e for _, e in self.symbols)

    def __len__(self):
        return len(self.symbols)


def make_base() -> GeneratingSet:
    """The three root reflections as a generating set of the finite group."""
    return GeneratingSet(
        "base",
        (("x", perm_element(X)), ("y", perm_element(Y)), ("z", perm_element(Z))),
    )


@functools.cache
def make_abar(a: Perm) -> Element:
    """The recursive copy of ``a``: root trivial, sections <self, a, 1, ..., 1>."""
    if a.is_identity():
        return Element()
    atom = Atom(f"bar[{a.cycles()}]", Perm.identity())
    atom.sections = {1: atom_element(atom), 2: perm_element(a)}
    return atom_element(atom)


def abar_act_prefix(s: str, a: Perm) -> str:
    """Independent oracle for the recursive copies' action.

    Scans for the prefix 1^(m-1) 2 and applies ``a`` to the letter that
    follows; strings without the pattern (all 1s, or nothing after the first
    2-after-1s) are fixed.
    """
    i = 0
    while i < len(s) and s[i] == "1":
        i += 1
    if i < len(s) and s[i] == "2" and i + 1 < len(s):
        j = i + 1
        return s[:j] + str(a.apply(int(s[j]))) + s[j + 1 :]
    return s


# each primed atom's root and the one point its section sits at
_PRIMING = ((X, 4), (Y, 1), (Z, 2))


def _primed(names, sections=(None, None, None)) -> tuple[Element, ...]:
    """The atoms ``<1,...,g,...,1> r`` for the (root r, point) pairs of
    ``_PRIMING``, with g the given section, or the atom itself when no
    sections are given: the fixed point of priming."""
    atoms = []
    for name, (root, point), g in zip(names, _PRIMING, sections):
        atom = Atom(name, root)
        atom.sections = {point: atom_element(atom) if g is None else g}
        atoms.append(atom_element(atom))
    return tuple(atoms)


@functools.cache
def prime_triple(a: Element, b: Element, c: Element, names=("a'", "b'", "c'")):
    """The priming transform on a triple of involutions.

    a' = <1,1,1,a,1,1,1> x,  b' = <b,1,...,1> y,  c' = <1,c,1,...,1> z.
    Inputs must be involutions; the outputs are then involutions too, because
    x fixes 4, y fixes 1 and z fixes 2, and the engine finds them so.
    """
    for t in (a, b, c):
        if not is_identity(t * t):
            raise ValueError(f"priming requires involutions, got {t!r}")
    return _primed(names, (a, b, c))


@functools.cache
def make_S(n: int) -> GeneratingSet:
    """The level-n involutive generating triple; level 1 is explicit, and
    levels 2..n are primed bottom-up through the cached ``prime_triple``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        a = Atom("S1.a", X, {2: make_abar(X), 4: perm_element(X)})
        b = Atom("S1.b", Y, {1: perm_element(Y), 4: make_abar(Y)})
        c = Atom("S1.c", Z, {1: make_abar(Z), 2: perm_element(Z)})
        symbols = (("a", atom_element(a)), ("b", atom_element(b)), ("c", atom_element(c)))
        return GeneratingSet("S:1", symbols)
    triple = make_S(1).elements()
    for k in range(2, n + 1):
        triple = prime_triple(*triple, names=(f"S{k}.a", f"S{k}.b", f"S{k}.c"))
    return GeneratingSet(f"S:{n}", tuple(zip("abc", triple)))


@functools.cache
def make_tilde() -> GeneratingSet:
    """The self-similar fixed point of priming: x~, y~, z~."""
    names = ("x~", "y~", "z~")
    return GeneratingSet("tilde", tuple(zip(names, _primed(names))))


class FreeQuadruple(namedtuple("FreeQuadruple", "u v a b c d")):
    """The two swapping permutations ``u``, ``v`` and the four products
    ``a``..``d`` (elements) feeding the free-monoid witness."""

    __slots__ = ()

    def word(self, letters: str) -> Element:
        table = {"a": self.a, "b": self.b, "c": self.c, "d": self.d}
        acc = Element()
        for ch in letters:
            acc = acc * table[ch]
        return acc


def swapper_pairs() -> list[tuple[Perm, Perm]]:
    """All unordered pairs of distinct elements exchanging points 1 and 2."""
    sw = find_swappers(psl32(), 1, 2)
    return [(sw[i], sw[j]) for i in range(len(sw)) for j in range(i + 1, len(sw))]


def make_free_quadruple(pair: tuple[Perm, Perm] | None = None) -> FreeQuadruple:
    """a = bar(u) u, b = bar(u) v, c = bar(v) u, d = bar(v) v for a pair of
    1<->2 swappers; verifies the expected decompositions before returning."""
    if pair is None:
        pairs = swapper_pairs()
        if not pairs:
            raise RuntimeError("expected at least two swapping elements")
        pair = pairs[0]
    u, v = pair
    if u == v:
        raise ValueError("swappers must be distinct")
    ub, vb = make_abar(u), make_abar(v)
    a = ub * perm_element(u)
    b = ub * perm_element(v)
    c = vb * perm_element(u)
    d = vb * perm_element(v)
    quad = FreeQuadruple(u, v, a, b, c, d)
    _verify_free_decompositions(quad)
    return quad


def _verify_free_decompositions(q: FreeQuadruple) -> None:
    """Each letter is ``<bar(w), w, 1, ..., 1> r`` for its (root r, barred w)
    and its root r exchanges 1 and 2."""
    expected = {
        "a": (q.u, q.u), "b": (q.v, q.u), "c": (q.u, q.v), "d": (q.v, q.v),
    }
    for name, (root, barred) in expected.items():
        if not (root.apply(1) == 2 and root.apply(2) == 1):
            raise RuntimeError(f"{name}: root does not exchange 1 and 2")
        nf = _nf(root, {1: make_abar(barred), 2: perm_element(barred)})
        if not equals(getattr(q, name), nf):
            raise RuntimeError(f"{name}: unexpected node form")


# relation is "equal" (lhs = rhs) or "not-identity" (lhs != 1, rhs None)
CatalogClaim = namedtuple("CatalogClaim", "id statement relation lhs rhs",
                          defaults=(None,))


def check_claim(claim: CatalogClaim) -> bool:
    if claim.relation == "equal":
        return equals(claim.lhs, claim.rhs)
    if claim.relation == "not-identity":
        return not is_identity(claim.lhs)
    raise ValueError(f"unknown relation {claim.relation!r}")


def _nf(root: Perm, sections: dict[int, Element]) -> Element:
    """The element ``<g_1,...,g_7> root`` (unset g_p are 1), as an anonymous atom."""
    secs = ",".join(repr(sections.get(p, _E)) for p in range(1, 8))
    return atom_element(Atom(f"<{secs}>{root.cycles()}", root, sections))


def identity_catalog() -> list[CatalogClaim]:
    """The witness identities backing the decomposition, extension, involution
    and lower-growth arguments, instantiated at the (x, y, z) reflections."""
    one = Perm.identity()
    group = psl32()
    u1 = find_fix_move(group, 1, 2)
    v1 = find_fix_move(group, 2, 1)
    xb, yb, zb = make_abar(X), make_abar(Y), make_abar(Z)

    pa, pb, pc = prime_triple(
        perm_element(X), perm_element(Y), perm_element(Z), names=("x'", "y'", "z'")
    )
    abcb3 = (pa * pb * pc * pb) ** 3
    bcac3 = (pb * pc * pa * pc) ** 3
    v_el = commutator(abcb3, bcac3)

    s1 = make_S(1)
    sa, sb, sc = s1.elements()
    ab4 = (sa * sb) ** 4
    bc4 = (sb * sc) ** 4
    ca4 = (sc * sa) ** 4
    u_el = commutator(commutator(ab4, bc4), ca4)

    claims = [
        CatalogClaim(
            "sanity",
            "1 = 1 (harness sanity item)",
            "equal",
            Element(),
            Element(),
        ),
        CatalogClaim(
            "decomp-first",
            "[bar(x), bar(y)^u] = <[bar(x),bar(y)],1,...,1> with u the least "
            "element fixing 1 and moving 2",
            "equal",
            commutator(xb, conjugate(yb, perm_element(u1))),
            _nf(one, {1: commutator(xb, yb)}),
        ),
        CatalogClaim(
            "decomp-second",
            "[bar(x), bar(y)^v] = <1,[x,y],1,...,1> with v the least element "
            "fixing 2 and moving 1",
            "equal",
            commutator(xb, conjugate(yb, perm_element(v1))),
            _nf(one, {2: perm_element(commutator(X, Y))}),
        ),
        CatalogClaim(
            "extend-cube",
            "(x'y'z'y')^3 = <1,1,xz,xz,1,1,zx>",
            "equal",
            abcb3,
            _nf(one, {3: perm_element(X * Z), 4: perm_element(X * Z),
                      7: perm_element(Z * X)}),
        ),
        CatalogClaim(
            "extend-comm",
            # the seventh sections of the two cubes are zx and xy, so the
            # commutator's only nontrivial section is [zx, xy]
            "[(x'y'z'y')^3, (y'z'x'z')^3] = <1,...,1,[zx,xy]>",
            "equal",
            v_el,
            _nf(one, {7: perm_element(commutator(Z * X, X * Y))}),
        ),
        CatalogClaim(
            "extend-comm-nontrivial",
            "[(x'y'z'y')^3, (y'z'x'z')^3] != 1",
            "not-identity",
            v_el,
        ),
        CatalogClaim(
            "invol-ab4",
            "(ab)^4 = <1,bar(x),bar(x),1,1,bar(x),bar(x)>",
            "equal",
            ab4,
            _nf(one, {2: xb, 3: xb, 6: xb, 7: xb}),
        ),
        CatalogClaim(
            "invol-bc4",
            "(bc)^4 = <1,1,1,bar(y),bar(y),bar(y),bar(y)>",
            "equal",
            bc4,
            _nf(one, {4: yb, 5: yb, 6: yb, 7: yb}),
        ),
        CatalogClaim(
            "invol-ca4",
            "(ca)^4 = <bar(z),1,bar(z),1,bar(z),1,bar(z)>",
            "equal",
            ca4,
            _nf(one, {1: zb, 3: zb, 5: zb, 7: zb}),
        ),
        CatalogClaim(
            "invol-comm",
            "[[(ab)^4,(bc)^4],(ca)^4] = <1,...,1,[[bar(x),bar(y)],bar(z)]>",
            "equal",
            u_el,
            _nf(one, {7: commutator(commutator(xb, yb), zb)}),
        ),
        CatalogClaim(
            "invol-comm-nontrivial",
            "[[(ab)^4,(bc)^4],(ca)^4] != 1",
            "not-identity",
            u_el,
        ),
        CatalogClaim(
            "invol-prime",
            "<1,bar(x),1,...,1> a = <1,1,1,x,1,1,1> x",
            "equal",
            atom_element(Atom("<1,bar(x),1,...,1>", one, {2: xb})) * sa,
            pa,
        ),
        CatalogClaim(
            "lower-aba",
            "x'y'x' = <1,1,1,1,y,1,1> xyx",
            "equal",
            pa * pb * pa,
            _nf(X * Y * X, {5: perm_element(Y)}),
        ),
        CatalogClaim(
            "lower-nine",
            "x'z'y'x'z'x'y'z'x' = <x,zy,1,1,yz,x,z> yzxzy",
            "equal",
            pa * pc * pb * pa * pc * pa * pb * pc * pa,
            _nf(Y * Z * X * Z * Y,
                {1: perm_element(X), 2: perm_element(Z * Y),
                 5: perm_element(Y * Z), 6: perm_element(X),
                 7: perm_element(Z)}),
        ),
    ]
    return claims


def run_identity_catalog() -> dict:
    results = []
    for claim in identity_catalog():
        verdict = check_claim(claim)
        results.append(
            {
                "id": claim.id,
                "statement": claim.statement,
                "relation": claim.relation,
                "verdict": verdict,
            }
        )
    return {"claims": results, "all_pass": all(r["verdict"] for r in results)}
