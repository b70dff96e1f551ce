"""Self-similar transformations of strings over the 7-letter alphabet.

An :class:`Element` is a normalized word whose letters are plain root
permutations (:class:`~wilson.fano.Perm`) and named recursive atoms
(:class:`Atom`), each written ``<g_1,...,g_7> a``.  The inverse of an atom is
again an atom, built once and cached; an atom the engine finds to be an
involution when its sections are set is its own inverse, so a word never
carries exponents.  Elements are the hash-consed nodes of one prefix
trie: an element holds the element of its word without the last letter and
that letter, so each normal word is one object and two elements have the
same word exactly when they are the same object.  The intern table files
each node under its last letter, then its prefix (``_CHILDREN[last][prefix]``:
two identity-hash lookups and no key tuple); the empty word sits under
``None``.  A word is normalized one letter at a time as it is pushed onto
the trie, and a product pushes the letters of its right factor onto its left
factor, so it is normalized only at the seam where they meet.
``decompose`` fills in an element's node form
``<g_1,...,g_7> a`` (root permutation plus seven suffix sections) in slots of
the element itself, building it from the node form of the element's prefix
by the product rule, one letter at a time through ``fold_letter``; the ball
search calls that fold too, and holds its members as node forms with no
element built for them.  A node form is a cache: a caller may drop it by
setting ``sections`` to None, and ``decompose`` builds it again when it is
next read.  An atom letter updates only the sections its atom has
nontrivial (one or two of seven for the catalog's atoms, which are bounded
automata), read from the atom's ``nontrivial`` table, and the atom keeps
the root it leads to after each root it has met.  ``node_key`` reads an
element's seven child signatures from the memo of the depth below in one
C-level ``map``, and through ``signature`` only when one is missing there.
``signature`` is that key memoized and interned; it serves the sections,
which are few and whose signatures many keys share, while the ball search
keeps a member's key only as its hash, and recomputes the key to confirm a
hit.  ``equals`` is the one exact equality test:
``g = h`` iff their roots agree and ``g_p = h_p`` at every point p, so it
closes the pair ``(g, h)`` under taking sections.  The closure terminates
because atom sections are again atoms or permutations, so section words never
grow and only finitely many pairs of them are reachable.
"""

from __future__ import annotations

from .fano import _PERMS, DEGREE, Perm

STATE_BUDGET = 10**6  # the pairs one equality closure may hold


class StateBudgetExceeded(RuntimeError):
    """Raised when an equality closure outgrows ``STATE_BUDGET`` pairs."""


class Atom:
    """The transformation ``<g_1,...,g_7> a``: root permutation ``a`` and
    sections given as a map ``{p: g_p}`` over the points 1..7, omitted points
    trivial.

    ``nontrivial`` holds the ``(point index, section)`` pairs with a nonempty
    word, by index: the only sections ``decompose`` visits, and the only form
    stored; ``sections`` reads them back as a dense 7-tuple.  Sections may be
    set after construction, and may refer to the atom itself (the recursive
    copies of the base reflections) or to atoms whose sections are already
    set.  Setting them on an atom with no linked inverse decides whether it
    is an involution, by checking ``atom * atom == 1`` exactly; an involution
    becomes its own inverse.  Otherwise ``inverse`` builds the inverse atom,
    named ``name^-1``, and links the two, so a word cancels an atom against
    its inverse.  ``_after`` maps each root r that ``fold_letter`` has met
    before this atom to ``r * root``: at most 168 entries, filled lazily.
    """

    __slots__ = ("name", "root", "nontrivial", "_inverse", "_after")

    def __init__(self, name: str, root: Perm, sections=None):
        self.name = name
        self.root = root
        self._inverse: Atom | None = None
        self._after: dict[Perm, Perm] = {}
        if sections is not None:  # until set, ``decompose`` fails on the atom
            self.sections = sections

    @property
    def sections(self) -> tuple:
        secs = [_E] * DEGREE
        for q, s in self.nontrivial:
            secs[q] = s
        return tuple(secs)

    @sections.setter
    def sections(self, sections: dict) -> None:
        self.nontrivial = tuple((p - 1, s) for p, s in sorted(sections.items()) if s is not _E)
        if self._inverse is None:
            e = Element((self,))
            if is_identity(e * e):
                self._inverse = self

    def inverse(self) -> "Atom":
        """The inverse of ``<g_p> a``: root ``a^-1``, section at ``p.a`` ``g_p^-1``."""
        inv = self._inverse
        if inv is None:
            inv = Atom(self.name + "^-1", self.root.inverse())
            # link first: the sections of a self-referential atom need ``inv``
            self._inverse, inv._inverse = inv, self
            inv.sections = {self.root.apply(q + 1): s.inverse() for q, s in self.nontrivial}
        return inv

    def __repr__(self):
        return self.name


class Element:
    """A group element as a canonical word of atoms and folded permutations.

    Elements are the nodes of one hash-consed prefix trie: ``prefix`` is the
    element of the word without its last letter and ``last`` is that letter;
    the empty word, the root of the trie, has neither.  ``_CHILDREN`` interns
    each node under ``last``, then ``prefix``, so each normal word is one
    object and ``==`` and ``hash`` are identity's.  ``root`` and ``sections``
    hold the node form once ``decompose`` has built it; ``sections`` is None
    until then, and again once a caller has dropped the node form, which
    ``decompose`` then rebuilds.
    """

    __slots__ = ("prefix", "last", "root", "sections")

    def __new__(cls, letters=()):
        e = _E
        for letter in letters:
            e = e._push(letter)
        return e

    def _push(self, letter) -> "Element":
        """The normal word of this one followed by ``letter``.

        Only the seam can reduce: a permutation folds into a trailing
        permutation, and to the prefix if it folds to the identity; an atom
        cancels against the atom it is linked to as inverse.  Any other letter
        makes or finds the child.  The rewriting is confluent, so pushing any
        word letter by letter gives its normal form.
        """
        node, last = self, self.last
        if letter.__class__ is Perm:
            if last.__class__ is Perm:
                node, letter = self.prefix, last * letter
            if letter is _ID:
                return node
        elif last is not None and last._inverse is letter:
            return self.prefix
        children = _CHILDREN.get(letter)
        if children is None:
            children = _CHILDREN[letter] = {}
        e = children.get(node)
        if e is None:
            e = object.__new__(Element)
            e.prefix, e.last, e.root, e.sections = node, letter, None, None
            children[node] = e
        return e

    def __mul__(self, other: "Element") -> "Element":
        if other.prefix is _E:  # one letter: every BFS product
            return self._push(other.last)
        e = self
        for letter in other.letters:
            e = e._push(letter)
        return e

    @property
    def letters(self) -> tuple:
        """The word, read up the prefix chain in a loop (a word may be longer
        than the recursion limit)."""
        out = []
        e = self
        while e is not _E:
            out.append(e.last)
            e = e.prefix
        out.reverse()
        return tuple(out)

    def inverse(self) -> "Element":
        return Element(letter.inverse() for letter in reversed(self.letters))

    def __pow__(self, k: int) -> "Element":
        if k < 0:
            return self.inverse() ** (-k)
        acc = _E
        for _ in range(k):
            acc = acc * self
        return acc

    def __repr__(self):
        if self is _E:
            return "e"
        return ".".join(
            letter.cycles() if isinstance(letter, Perm) else letter.name
            for letter in self.letters
        )


_E = object.__new__(Element)  # the empty word, the root of the trie
_E.prefix = _E.last = _E.root = _E.sections = None
# the intern table: last letter -> prefix -> element, the root under None
_CHILDREN: dict[object, dict[Element | None, Element]] = {None: {None: _E}}
_ID = Perm.identity()
_TRIVIAL = (_E,) * DEGREE  # the sections of the trivial node form


def perm_element(p: Perm) -> Element:
    return Element((p,))


def atom_element(a: Atom) -> Element:
    return Element((a,))


def fold_letter(root: Perm, sections: tuple, letter) -> tuple[Perm, tuple]:
    """The node form of ``g * letter`` from the node form ``(root, sections)``
    of g, by the product rule ``(gh)_p = g_p * h_{p.root(g)}``.

    A permutation letter changes only the root.  An atom letter visits only
    its nontrivial sections (one or two of seven for the catalog's atoms):
    the section at q reaches the point ``q.root^-1``, found through the
    inverse kept on the permutation, and is multiplied onto the section
    there.  Every other section is shared with ``sections``.  The new root
    is read from the atom's ``_after``, so a fold multiplies no
    permutations once the atom has met the root.
    """
    if letter.__class__ is Perm:
        return root * letter, sections
    after = letter._after.get(root)
    if after is None:
        after = letter._after[root] = root * letter.root
    back = root.inverse().images
    new = list(sections)
    for q, s in letter.nontrivial:
        p = back[q] - 1
        prev = sections[p]
        new[p] = s if prev is _E else prev * s
    return after, tuple(new)


def decompose(e: Element) -> Element:
    """Fill in the node form of ``e`` and return ``e``.  The node form is
    ``e.root`` and ``e.sections``, folded letter by letter by
    ``fold_letter``.

    The fold starts from the node form of ``e.prefix`` when that has one and
    takes in the last letter, else it starts from the trivial node form and
    takes in every letter.  The ball search folds its candidates' and
    members' node forms itself, with no element built for them, so
    ``decompose`` builds the node forms of sections, of the identity and of
    callers' words.
    """
    if e.sections is not None:
        return e
    prefix = e.prefix
    if prefix is not None and prefix.sections is not None:
        root, secs = fold_letter(prefix.root, prefix.sections, e.last)
    else:
        root, secs = _ID, _TRIVIAL
        for letter in e.letters:
            root, secs = fold_letter(root, secs, letter)
    e.root, e.sections = root, secs
    return e


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
        if ch not in "1234567":
            raise ValueError(f"invalid point {ch!r}")
        p = int(ch)
        nf = decompose(cur)
        out.append(str(nf.root.apply(p)))
        cur = nf.sections[p - 1]
    return "".join(out)


# Signatures are hash-consed encodings of the action on all strings of length
# <= depth: equal elements get equal signatures at every depth, and comparing
# two signatures is O(1).  A node's key is one flat tuple: the hash-consed root
# permutation, then the seven child signatures.  ``_SIG_MEMO[depth]`` maps an
# element to its signature at that depth; ``_SIG_INTERN`` numbers the keys.
_SIG_MEMO: dict[int, dict[Element, int]] = {}
_SIG_INTERN: dict[tuple, int] = {}


def node_key(e: Element, depth: int) -> tuple:
    """The key of ``e`` at ``depth`` >= 1: ``(e.root, *child signatures at
    depth - 1)``.  Two elements have equal keys iff they have equal
    signatures at ``depth``.  The key itself is neither memoized nor
    interned: the ball search's index keeps only its hash.

    The child signatures are read from the memo of the depth below in one
    C-level ``map``; only when one is missing there are the seven read
    through ``signature``, which computes the missing ones.  ``e`` needs
    only ``root`` and ``sections`` once they are set: the ball search asks
    the key of a candidate ``m * s`` as the node form it folded from the
    member m's, before any element exists.  That node form shares all but
    one or two sections with m's, and the sections of a ball search are
    few, so the memo nearly always has them.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if e.sections is None:
        decompose(e)
    try:
        return (e.root, *map(_SIG_MEMO[depth - 1].__getitem__, e.sections))
    except KeyError:  # a child not signed yet, or no memo at depth - 1
        return (e.root, *(signature(s, depth - 1) for s in e.sections))


def signature(e: Element, depth: int) -> int:
    """The signature of ``e`` at ``depth``: its ``node_key``, memoized per
    element and interned as an ``int``."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return -1
    memo = _SIG_MEMO.get(depth)
    if memo is None:
        memo = _SIG_MEMO[depth] = {}
    sig = memo.get(e)
    if sig is None:
        sig = memo[e] = _SIG_INTERN.setdefault(node_key(e, depth), len(_SIG_INTERN))
    return sig


def clear_caches() -> None:
    """Drop every element's node form and the signature tables.

    A node form is a cache that any caller may drop: ``decompose`` rebuilds
    it on demand.  The intern table stays: atoms' sections and cached
    generating sets hold elements, and identity equality needs one object
    per word.
    """
    for children in _CHILDREN.values():
        for e in children.values():
            e.sections = None
    _SIG_MEMO.clear()
    _SIG_INTERN.clear()


def engine_stats() -> dict[str, int]:
    """Node forms held by elements, signature entries, interned elements
    (the root included) and interned permutations.  A ball search's members
    are not elements, so their node forms count under none of these."""
    return {
        "decompose_cache": sum(e.sections is not None
                               for children in _CHILDREN.values() for e in children.values()),
        "signature_cache": sum(len(memo) for memo in _SIG_MEMO.values()),
        "elements": sum(map(len, _CHILDREN.values())),
        "perms": len(_PERMS),
    }
