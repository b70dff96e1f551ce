"""Named generator families and their machine-checkable witness identities.

Wherever a construction says "pick an element", the canonically least
candidate (lexicographic on image tuples) is used, so every downstream
artifact is reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .fano import X, Y, Z, Perm, find_fix_move, find_swappers, psl32
from .fano import commutator as perm_commutator
from .wreath import (
    Atom,
    Element,
    NodeForm,
    atom_element,
    equals,
    is_identity,
    node_equals,
    perm_element,
    recompose,
)

_E = Element()


@dataclass(frozen=True)
class GeneratingSet:
    name: str
    symbols: tuple[tuple[str, Element], ...]
    level: int = 0

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.symbols)

    def elements(self) -> tuple[Element, ...]:
        return tuple(e for _, e in self.symbols)

    def __len__(self):
        return len(self.symbols)


def commutator(g: Element, h: Element) -> Element:
    return g.inverse() * h.inverse() * g * h


def conjugate(g: Element, h: Element) -> Element:
    """g^h = h^-1 g h."""
    return h.inverse() * g * h


def make_base() -> GeneratingSet:
    """The three root reflections as a generating set of the finite group."""
    return GeneratingSet(
        "base",
        (("x", perm_element(X)), ("y", perm_element(Y)), ("z", perm_element(Z))),
    )


_ABAR_ATOMS: dict[Perm, Atom] = {}


def make_abar(a: Perm) -> Element:
    """The recursive copy of ``a``: root trivial, sections <self, a, 1, ..., 1>."""
    if a.is_identity():
        return Element()
    atom = _ABAR_ATOMS.get(a)
    if atom is None:
        atom = Atom(f"bar[{a.cycles()}]", Perm.identity())
        atom.sections = (atom_element(atom), perm_element(a), _E, _E, _E, _E, _E)
        _ABAR_ATOMS[a] = atom
        if (a * a).is_identity():
            atom.certify_involution()
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


_PRIME_CACHE: dict[tuple[Element, Element, Element], tuple[Element, Element, Element]] = {}


def prime_triple(a: Element, b: Element, c: Element, names=("a'", "b'", "c'")):
    """The priming transform on a triple of involutions.

    a' = <1,1,1,a,1,1,1> x,  b' = <b,1,...,1> y,  c' = <1,c,1,...,1> z.
    Inputs must be involutions (engine-checked); outputs are involutions
    because x fixes 4, y fixes 1 and z fixes 2.
    """
    key = (a, b, c)
    cached = _PRIME_CACHE.get(key)
    if cached is not None:
        return cached
    for t in (a, b, c):
        if not is_identity(t * t):
            raise ValueError(f"priming requires involutions, got {t!r}")
    pa = Atom(names[0], X, (_E, _E, _E, a, _E, _E, _E))
    pb = Atom(names[1], Y, (b, _E, _E, _E, _E, _E, _E))
    pc = Atom(names[2], Z, (_E, c, _E, _E, _E, _E, _E))
    for atom in (pa, pb, pc):
        atom.certify_involution()
    out = (atom_element(pa), atom_element(pb), atom_element(pc))
    _PRIME_CACHE[key] = out
    return out


@functools.cache
def make_S(n: int) -> GeneratingSet:
    """The level-n involutive generating triple; level 1 is explicit, higher
    levels are obtained by priming."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        a = Atom("S1.a", X, (_E, make_abar(X), _E, perm_element(X), _E, _E, _E))
        b = Atom("S1.b", Y, (perm_element(Y), _E, _E, make_abar(Y), _E, _E, _E))
        c = Atom("S1.c", Z, (make_abar(Z), perm_element(Z), _E, _E, _E, _E, _E))
        for atom in (a, b, c):
            atom.certify_involution()
        symbols = (("a", atom_element(a)), ("b", atom_element(b)), ("c", atom_element(c)))
        return GeneratingSet("S:1", symbols, level=1)
    prev = make_S(n - 1)
    pa, pb, pc = prime_triple(
        *prev.elements(), names=(f"S{n}.a", f"S{n}.b", f"S{n}.c")
    )
    return GeneratingSet(f"S:{n}", (("a", pa), ("b", pb), ("c", pc)), level=n)


@functools.cache
def make_tilde() -> GeneratingSet:
    """The self-similar fixed point of priming: x~, y~, z~."""
    tx = Atom("x~", X)
    ty = Atom("y~", Y)
    tz = Atom("z~", Z)
    tx.sections = (_E, _E, _E, atom_element(tx), _E, _E, _E)
    ty.sections = (atom_element(ty), _E, _E, _E, _E, _E, _E)
    tz.sections = (_E, atom_element(tz), _E, _E, _E, _E, _E)
    for atom in (tx, ty, tz):
        atom.certify_involution()
    return GeneratingSet(
        "tilde",
        (("x~", atom_element(tx)), ("y~", atom_element(ty)), ("z~", atom_element(tz))),
    )


@dataclass(frozen=True)
class FreeQuadruple:
    """The two swapping permutations and the four products feeding the
    free-monoid witness."""

    u: Perm
    v: Perm
    a: Element
    b: Element
    c: Element
    d: Element

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
        swappers = find_swappers(psl32(), 1, 2)
        if len(swappers) < 2:
            raise RuntimeError("expected at least two swapping elements")
        pair = (swappers[0], swappers[1])
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
    from .wreath import decompose

    expected = {
        "a": (q.u, q.u), "b": (q.v, q.u), "c": (q.u, q.v), "d": (q.v, q.v),
    }
    for name, (root, barred) in expected.items():
        e = getattr(q, name)
        nf = decompose(e)
        if nf.root != root:
            raise RuntimeError(f"{name}: unexpected root {nf.root!r}")
        if not (root.apply(1) == 2 and root.apply(2) == 1):
            raise RuntimeError(f"{name}: root does not exchange 1 and 2")
        if not equals(nf.sections[0], make_abar(barred)):
            raise RuntimeError(f"{name}: first section mismatch")
        if not equals(nf.sections[1], perm_element(barred)):
            raise RuntimeError(f"{name}: second section mismatch")
        for i in range(2, 7):
            if not is_identity(nf.sections[i]):
                raise RuntimeError(f"{name}: section {i + 1} not trivial")


@dataclass(frozen=True)
class CatalogClaim:
    id: str
    statement: str
    relation: str  # equal | not-identity
    lhs: Element
    rhs: Element | NodeForm | None = None


def check_claim(claim: CatalogClaim) -> bool:
    if claim.relation == "equal":
        if isinstance(claim.rhs, NodeForm):
            return node_equals(claim.lhs, claim.rhs)
        return equals(claim.lhs, claim.rhs)
    if claim.relation == "not-identity":
        return not is_identity(claim.lhs)
    raise ValueError(f"unknown relation {claim.relation!r}")


def _nf(root: Perm, sections: dict[int, Element]) -> NodeForm:
    secs = [_E] * 7
    for pos, el in sections.items():
        secs[pos - 1] = el
    return NodeForm(root, tuple(secs))


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
            _nf(one, {2: perm_element(perm_commutator(X, Y))}),
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
            _nf(one, {7: perm_element(perm_commutator(Z * X, X * Y))}),
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
            recompose(_nf(one, {2: xb})) * sa,
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
