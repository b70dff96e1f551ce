"""Self-similar transformations of strings over the 7-letter alphabet.

An :class:`Element` is a normalized word whose letters are plain root
permutations (:class:`~wilson.fano.Perm`) and named recursive atoms
(:class:`Atom`).  The inverse of an atom is again an atom, built once and
cached, and an atom certified as an involution is its own inverse, so a word
never carries exponents.  Elements are hash-consed: each normal word is one
object, so two elements have the same word exactly when they are the same
object.  A product of two normal words is normalized only at the seam where
they meet.  ``decompose`` turns an element into its node form
``<g_1,...,g_7> a`` (root permutation plus seven suffix sections), kept on
the element, building it from the node form of the word without its last
letter by the product rule.  An atom letter updates only the sections its
atom has nontrivial (one or two of seven for the catalog's atoms, which are
bounded automata), read from the atom's ``nontrivial`` table.  ``signature``
reads an element's seven child signatures from the memo of the depth below
in one C-level ``map`` and recurses only for the missing ones.  ``equals``
is the one exact equality test: ``g = h`` iff their roots agree and
``g_p = h_p`` at every point p, so it closes the pair ``(g, h)`` under
taking sections.  The closure terminates because atom sections are again
atoms or permutations, so section words never grow and only finitely many
pairs of them are reachable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fano import _PERMS, DEGREE, Perm

STATE_BUDGET = 10**6  # the pairs one equality closure may hold


class StateBudgetExceeded(RuntimeError):
    """Raised when an equality closure outgrows ``STATE_BUDGET`` pairs."""


class Atom:
    """A named transformation given by a root permutation and 7 section elements.

    Sections may refer back to the atom itself (e.g. the recursive copies of
    the base reflections).  ``inverse`` returns the inverse atom, named
    ``name^-1``; the two atoms are linked to each other, so a word cancels an
    atom against its inverse.  An atom becomes its own inverse only through
    ``certify_involution``, which first checks ``atom * atom == 1`` exactly.

    Setting ``sections`` also sets ``nontrivial``, the ``(point index,
    section)`` pairs of the sections with a nonempty word: the only ones
    ``decompose`` visits.
    """

    __slots__ = ("name", "root", "_sections", "nontrivial", "_inverse")

    def __init__(self, name: str, root: Perm, sections=None):
        self.name = name
        self.root = root
        self.sections = sections  # tuple of 7 Elements, may be filled in late
        self._inverse: Atom | None = None

    @property
    def sections(self):
        return self._sections

    @sections.setter
    def sections(self, sections) -> None:
        self._sections = sections
        if sections is not None:  # until then ``decompose`` fails on the atom
            self.nontrivial = tuple((q, s) for q, s in enumerate(sections) if s.letters)

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


def _join(left: tuple, right: tuple) -> tuple:
    """The normal form of ``left + right`` for two words that are both normal
    under the current inverse links.

    Only the seam can reduce: working inward, an atom cancels against its
    inverse and two permutations fold, until a pair does not reduce.  A fold
    to a non-identity permutation ends the cascade, because a normal word has
    no two permutations side by side.  The rewriting is confluent, so the
    result is the normal form of the concatenation.
    """
    i, j = len(left), 0
    while i and j < len(right):
        x, y = left[i - 1], right[j]
        if isinstance(x, Perm):
            if not isinstance(y, Perm):
                break
            folded = x * y
            if not folded.is_identity():
                return left[:i - 1] + (folded,) + right[j + 1:]
        elif x._inverse is not y:
            break
        i -= 1
        j += 1
    return left[:i] + right[j:]


def _normalize(letters) -> tuple:
    """The normal form of any word: ``_join`` folded over its letters, each a
    one-letter normal word once identity permutations are dropped."""
    out = ()
    for letter in letters:
        if not (isinstance(letter, Perm) and letter.is_identity()):
            out = _join(out, (letter,))
    return out


class Element:
    """A group element as a canonical word of atoms and folded permutations.

    Elements are hash-consed: each normal word is one object, interned in
    ``_ELEMENTS`` by its letters, so ``==`` and ``hash`` are identity's.  The
    slot ``nf`` holds the element's node form once ``decompose`` has built it.
    """

    __slots__ = ("letters", "nf")

    def __new__(cls, letters=()):
        return cls._wrap(_normalize(letters))

    @classmethod
    def _wrap(cls, letters: tuple) -> "Element":
        """The element of a word that is already normal, with no second pass."""
        e = _ELEMENTS.get(letters)
        if e is None:
            e = object.__new__(cls)
            e.letters = letters
            e.nf = None
            _ELEMENTS[letters] = e
        return e

    def __mul__(self, other: "Element") -> "Element":
        return Element._wrap(_join(self.letters, other.letters))

    def inverse(self) -> "Element":
        return Element(tuple(letter.inverse() for letter in reversed(self.letters)))

    def __pow__(self, k: int) -> "Element":
        if k < 0:
            return self.inverse() ** (-k)
        acc = Element()
        for _ in range(k):
            acc = acc * self
        return acc

    def __repr__(self):
        if not self.letters:
            return "e"
        return ".".join(
            letter.cycles() if isinstance(letter, Perm) else letter.name
            for letter in self.letters
        )


_ELEMENTS: dict[tuple, Element] = {}  # the intern table: letters -> element


def perm_element(p: Perm) -> Element:
    return Element((p,))


def atom_element(a: Atom) -> Element:
    return Element((a,))


@dataclass(frozen=True, slots=True)
class NodeForm:
    """Wreath decomposition: a root permutation and 7 suffix sections."""

    root: Perm
    sections: tuple[Element, ...]


_E = Element()
_TRIVIAL = NodeForm(Perm.identity(), (_E,) * DEGREE)


def decompose(e: Element) -> NodeForm:
    """Node form of ``e``, folded letter by letter with the product rule
    ``(gh)_p = g_p * h_{p.root(g)}``.

    The node form is kept on the element (``e.nf``).  The fold starts from
    the node form of the word without its last letter when that word is
    interned and has one (a BFS candidate ``m * s`` finds ``m``'s there),
    else from the trivial node form.  A permutation letter changes only the
    root.  An atom letter visits only its nontrivial sections (``nontrivial``
    on the atom, one or two of seven for the catalog's atoms): the section at
    q reaches the point ``q.root^-1`` of the root folded so far, found
    through the inverse kept on the permutation, and is joined onto the
    section there.  Every other section is shared with the node form the
    fold started from.
    """
    nf = e.nf
    if nf is not None:
        return nf
    letters = e.letters
    prefix = _ELEMENTS.get(letters[:-1]) if letters else None
    start = prefix.nf if prefix is not None else None
    if start is None:
        start, rest = _TRIVIAL, letters
    else:
        rest = letters[-1:]
    root, secs = start.root, start.sections
    for letter in rest:
        if isinstance(letter, Perm):
            root = root * letter
            continue
        pairs = letter.nontrivial
        if pairs:
            new = list(secs)
            back = root.inverse().images  # section q lands on point q.root^-1
            for q, s in pairs:
                p = back[q] - 1
                prev = secs[p].letters
                new[p] = Element._wrap(_join(prev, s.letters)) if prev else s
            secs = tuple(new)
        root = root * letter.root
    nf = e.nf = NodeForm(root, secs)
    return nf


def equals(g: Element, h: Element) -> bool:
    """Exact equality, by closing ``{(g, h)}`` under sections.

    ``g = h`` iff every reachable pair of section words has equal roots.
    Pairs whose two words are equal need no test and are not followed.
    """
    if g is h:
        return True
    seen = {(g, h)}
    stack = [(g, h)]
    while stack:
        a, b = stack.pop()
        na, nb = decompose(a), decompose(b)
        if na.root != nb.root:
            return False
        for pair in zip(na.sections, nb.sections):
            if pair[0] is not pair[1] and pair not in seen:
                if len(seen) >= STATE_BUDGET:
                    raise StateBudgetExceeded(
                        f"equality closure exceeded {STATE_BUDGET} pairs while "
                        f"comparing {g!r} with {h!r}"
                    )
                seen.add(pair)
                stack.append(pair)
    return True


def is_identity(e: Element) -> bool:
    """Exact identity test: ``equals(e, 1)``."""
    return equals(e, _E)


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
# two signatures is O(1).  ``_SIG_MEMO[depth]`` maps an element to its
# signature at that depth; ``_SIG_INTERN`` numbers the nodes (root, the seven
# child signatures), keyed by the hash-consed root permutation itself.
_SIG_MEMO: dict[int, dict[Element, int]] = {}
_SIG_INTERN: dict[tuple, int] = {}
_LEAVES = (-1,) * DEGREE  # the seven depth-0 signatures under a depth-1 node


def signature(e: Element, depth: int) -> int:
    """The signature of ``e`` at ``depth``.

    The child signatures are read from the memo of the depth below in one
    C-level ``map``; only children not found there are computed, by recursion.
    A BFS candidate shares all but one or two sections with the member it
    extends, whose children are already memoized.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return -1
    memo = _SIG_MEMO.get(depth)
    if memo is None:
        memo = _SIG_MEMO[depth] = {}
    sig = memo.get(e)
    if sig is None:
        nf = decompose(e)
        if depth == 1:
            children = _LEAVES
        else:
            below = _SIG_MEMO.setdefault(depth - 1, {})
            children = tuple(map(below.get, nf.sections))
            if None in children:
                children = tuple(signature(s, depth - 1) if c is None else c
                                 for s, c in zip(nf.sections, children))
        sig = memo[e] = _SIG_INTERN.setdefault((nf.root, children), len(_SIG_INTERN))
    return sig


def clear_caches() -> None:
    """Drop every node form and the signature tables.

    The intern table stays: atoms' sections and cached generating sets hold
    elements, and identity equality needs one object per word.
    """
    for e in _ELEMENTS.values():
        e.nf = None
    _SIG_MEMO.clear()
    _SIG_INTERN.clear()


def engine_stats() -> dict[str, int]:
    """Node forms built, signature entries, interned elements and interned
    permutations."""
    return {
        "decompose_cache": sum(e.nf is not None for e in _ELEMENTS.values()),
        "signature_cache": sum(len(memo) for memo in _SIG_MEMO.values()),
        "elements": len(_ELEMENTS),
        "perms": len(_PERMS),
    }
