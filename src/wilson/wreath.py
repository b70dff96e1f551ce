"""Self-similar transformations of strings over the 7-letter alphabet.

An :class:`Element` is a normalized word whose letters are plain root
permutations (:class:`~wilson.fano.Perm`) and named recursive atoms
(:class:`Atom`).  The inverse of an atom is again an atom, built once and
cached, and an atom certified as an involution is its own inverse, so a word
never carries exponents.  ``decompose`` turns an element into its node form
``<g_1,...,g_7> a`` (root permutation plus seven suffix sections); the exact
identity test closes a set of canonical words under taking sections, which
terminates because atom sections are again atoms or permutations, so section
words never grow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fano import DEGREE, Perm

DEFAULT_STATE_BUDGET = 10**6

_BUDGET_OVERRIDE: int | None = None


class StateBudgetExceeded(RuntimeError):
    """Raised when the identity-test state closure outgrows the budget."""


def state_budget() -> int:
    if _BUDGET_OVERRIDE is not None:
        return _BUDGET_OVERRIDE
    return DEFAULT_STATE_BUDGET


def set_state_budget(value: int | None) -> None:
    global _BUDGET_OVERRIDE
    if value is not None and value < 1:
        raise ValueError(f"the state budget must be >= 1, got {value}")
    _BUDGET_OVERRIDE = value


class Atom:
    """A named transformation given by a root permutation and 7 section elements.

    Sections may refer back to the atom itself (e.g. the recursive copies of
    the base reflections).  ``inverse`` returns the inverse atom, named
    ``name^-1``; the two atoms are linked to each other, so a word cancels an
    atom against its inverse.  An atom becomes its own inverse only through
    ``certify_involution``, which first checks ``atom * atom == 1`` exactly.
    """

    __slots__ = ("name", "root", "sections", "_inverse")

    def __init__(self, name: str, root: Perm, sections=None):
        self.name = name
        self.root = root
        self.sections = sections  # tuple of 7 Elements, may be filled in late
        self._inverse: Atom | None = None

    def inverse(self) -> "Atom":
        """The inverse of ``<g_p> a``: root ``a^-1``, section at q ``(g_{q.a^-1})^-1``."""
        inv = self._inverse
        if inv is None:
            root = self.root.inverse()
            inv = Atom(self.name + "^-1", root)
            # link first: the sections of a self-referential atom need ``inv``
            self._inverse, inv._inverse = inv, self
            inv.sections = tuple(
                self.sections[root.apply(q) - 1].inverse() for q in range(1, DEGREE + 1)
            )
        return inv

    def certify_involution(self) -> None:
        """Check ``self * self == 1`` exactly, then make the atom its own inverse."""
        inv = self._inverse
        if inv is not None and inv is not self:
            # words holding the older inverse would never cancel against self
            raise ValueError(f"{self.name} already has the distinct inverse {inv.name}")
        el = Element((self,))
        if not is_identity(el * el):
            raise ValueError(f"{self.name} is not an involution")
        self._inverse = self

    def __repr__(self):
        return self.name


def _normalize(letters):
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


class Element:
    """A group element as a canonical word of atoms and folded permutations."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters=()):
        self.letters = _normalize(letters)
        self._hash = hash(self.letters)

    def __eq__(self, other):
        return isinstance(other, Element) and self.letters == other.letters

    def __hash__(self):
        return self._hash

    def __mul__(self, other: "Element") -> "Element":
        return Element(self.letters + other.letters)

    def inverse(self) -> "Element":
        return Element(tuple(letter.inverse() for letter in reversed(self.letters)))

    def __pow__(self, k: int) -> "Element":
        if k < 0:
            return self.inverse() ** (-k)
        acc = Element()
        for _ in range(k):
            acc = acc * self
        return acc

    @property
    def is_trivial_word(self) -> bool:
        return not self.letters

    def __repr__(self):
        if not self.letters:
            return "e"
        return ".".join(
            letter.cycles() if isinstance(letter, Perm) else letter.name
            for letter in self.letters
        )


IDENTITY = Element()


def perm_element(p: Perm) -> Element:
    return Element((p,))


def atom_element(a: Atom) -> Element:
    return Element((a,))


@dataclass(frozen=True)
class NodeForm:
    """Wreath decomposition: a root permutation and 7 suffix sections."""

    root: Perm
    sections: tuple[Element, ...]


_DECOMPOSE_CACHE: dict[Element, NodeForm] = {}


def decompose(e: Element) -> NodeForm:
    """Node form of ``e``; product rule ``(gh)_p = g_p * h_{p.root(g)}``."""
    nf = _DECOMPOSE_CACHE.get(e)
    if nf is not None:
        return nf
    acc = Perm.identity()
    pieces: list[list] = [[] for _ in range(DEGREE)]
    for letter in e.letters:
        if isinstance(letter, Perm):
            acc = acc * letter
            continue
        for p in range(DEGREE):
            s = letter.sections[acc.apply(p + 1) - 1]
            if s.letters:
                pieces[p].append(s.letters)
        acc = acc * letter.root
    secs = tuple(
        Element(tuple(itertools.chain.from_iterable(chunks))) for chunks in pieces
    )
    nf = NodeForm(acc, secs)
    _DECOMPOSE_CACHE[e] = nf
    return nf


_ANON_COUNTER = itertools.count()


def recompose(nf: NodeForm) -> Element:
    """An element whose decomposition is ``nf``."""
    if all(not s.letters for s in nf.sections):
        return perm_element(nf.root)
    return atom_element(Atom(f"node#{next(_ANON_COUNTER)}", nf.root, nf.sections))


_IDENTITY_CACHE: dict[Element, bool] = {}


def is_identity(e: Element) -> bool:
    """Exact identity test by closing {e} under sections.

    Identity holds iff every reachable canonical word has a trivial root
    permutation.  All reachable words are cached on a positive verdict.
    """
    if not e.letters:
        return True
    cached = _IDENTITY_CACHE.get(e)
    if cached is not None:
        return cached
    budget = state_budget()
    seen = {e}
    stack = [e]
    verdict = True
    while stack:
        cur = stack.pop()
        known = _IDENTITY_CACHE.get(cur)
        if known is True:
            continue
        if known is False:
            verdict = False
            break
        nf = decompose(cur)
        if not nf.root.is_identity():
            _IDENTITY_CACHE[cur] = False
            verdict = False
            break
        for s in nf.sections:
            if s.letters and s not in seen:
                if len(seen) >= budget:
                    raise StateBudgetExceeded(
                        f"state closure exceeded {budget} states while testing {e!r}"
                    )
                seen.add(s)
                stack.append(s)
    if verdict:
        for s in seen:
            _IDENTITY_CACHE[s] = True
    else:
        _IDENTITY_CACHE[e] = False
    return verdict


def equals(g: Element, h: Element) -> bool:
    if g == h:
        return True
    return is_identity(g * h.inverse())


def node_equals(e: Element, nf: NodeForm) -> bool:
    """True iff ``e`` decomposes exactly to ``nf`` (sections up to equality)."""
    d = decompose(e)
    if d.root != nf.root:
        return False
    return all(equals(d.sections[i], nf.sections[i]) for i in range(DEGREE))


def act(e: Element, s: str) -> str:
    """Image of the digit string ``s`` (letters '1'..'7') under ``e``."""
    out = []
    cur = e
    for ch in s:
        p = int(ch)
        if not 1 <= p <= DEGREE:
            raise ValueError(f"invalid point {ch!r}")
        nf = decompose(cur)
        out.append(str(nf.root.apply(p)))
        cur = nf.sections[p - 1]
    return "".join(out)


# Signatures are hash-consed encodings of the action on all strings of length
# <= depth: equal elements get equal signatures at every depth, and comparing
# two signatures is O(1).
_SIG_MEMO: dict[tuple[Element, int], int] = {}
_SIG_INTERN: dict[tuple, int] = {}


def signature(e: Element, depth: int) -> int:
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return -1
    key = (e, depth)
    sig = _SIG_MEMO.get(key)
    if sig is None:
        nf = decompose(e)
        node = (nf.root.images, tuple(signature(s, depth - 1) for s in nf.sections))
        sig = _SIG_INTERN.setdefault(node, len(_SIG_INTERN))
        _SIG_MEMO[key] = sig
    return sig


def order_bounded(e: Element, max_pow: int) -> int | None:
    """Least k <= max_pow with e^k = 1, or None if the bound is exceeded."""
    if max_pow < 1:
        raise ValueError("max_pow must be >= 1")
    acc = e
    for k in range(1, max_pow + 1):
        if is_identity(acc):
            return k
        acc = acc * e
    return None


def portrait(e: Element, depth: int):
    """Tree of root permutations of iterated sections down to ``depth``."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    nf = decompose(e)
    if depth == 0:
        return (nf.root, ())
    return (nf.root, tuple(portrait(s, depth - 1) for s in nf.sections))


def clear_caches() -> None:
    """Drop all memo tables (identity, decomposition, signatures)."""
    _DECOMPOSE_CACHE.clear()
    _IDENTITY_CACHE.clear()
    _SIG_MEMO.clear()
    _SIG_INTERN.clear()


def engine_stats() -> dict[str, int]:
    return {
        "decompose_cache": len(_DECOMPOSE_CACHE),
        "identity_cache": len(_IDENTITY_CACHE),
        "signature_cache": len(_SIG_MEMO),
    }
