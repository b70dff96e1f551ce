"""Cayley-ball enumeration, growth statistics and local-isomorphism tests.

Every ball query reads one breadth-first search, the generator :func:`balls`,
which grows one :class:`Ball` in place, radius by radius.  A ball stores its
members once, as its :class:`Deduper`'s list, and its search tree once, as a
flat ``array`` of edges: ``edges[m * k + s]`` is the member reached from member
``m`` by symbol ``s`` (of ``k``), or -1 while unknown.  Geodesic words are not
stored; :meth:`Ball.geodesics` reads them back from the edges.  Balls use the
"at most n factors" convention by default; the "exactly n" variant (which can
differ when a parity homomorphism exists) is
:func:`ball_sizes_exact_convention`, an integer walk over (member, parity)
states on those edges.  All enumeration orders are (length, lexicographic),
so geodesics and exports are reproducible.

A ball search builds an element only for a new member.  It folds the node
form of each candidate ``m * s`` from the member m's (``wreath.fold_letter``,
every letter of the symbol) into one reusable probe that holds a root and
sections and nothing else, and asks the index about the probe; only on a
miss does it form the word ``m * s``, give it the probe's node form and add
it.  A hit builds and interns nothing.  The search drops the node forms
(``wreath.decompose``'s cache) of members that it will not read again, and
keeps every interned element.  Once the rows of sphere r are complete, later
rows extend members of depth >= r + 1, each read once per row, and a hit
matches a member within distance 1 of the candidate, so of depth >= r.  So
the members of depth r - 1 are not read again as members, and their node
forms are released.  The rule costs no exactness: an element read again
after all, as some element's section, gets its node form back from
``decompose``.

A ball search makes no cyclic garbage: whatever it drops is freed by
reference counting.  So it leaves the cyclic collector alone, and its
collections never free anything; a library caller that wants the CLI's speed
disables the collector around the call itself.

The :class:`Deduper` index chains its members by the hash of their node
keys (``wreath.node_key``: root and seven child signatures) in three flat
``array``s: each member's hash, the next member in its bucket, and the first
member of each bucket.  A hash is never taken for equality: a hash hit is
settled by ``equals``, and only when that says no is the member's key
recomputed, to tell a depth rise from two keys that share a hash.  So the
index holds no Python object per member, and the keys themselves are
neither stored, memoized nor interned.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Iterator

from .catalog import GeneratingSet, make_S, make_free_quadruple, make_tilde
from .wreath import Element, decompose, equals, fold_letter, is_identity, node_key

START_SIG_DEPTH = 3
REFINE_LEN = 3  # the free-monoid check's {a, b, c, d}-words reach this length
FIRST_BUCKETS = 1024  # the dedup index's first bucket count, a power of two


class Deduper:
    """Canonical-element index keyed by the hash of ``node_key``, confirmed by
    exact equality.

    The signature depth starts at ``START_SIG_DEPTH`` and is raised whenever
    an exact test distinguishes two members of equal node key; the exact
    closure test is always the authority, signatures only accelerate.
    ``add`` follows a miss of ``find``, so no two members share a key, and a
    deeper key still tells them apart, since it determines the shallower one.

    ``_hashes[i]`` is the hash of member i's key at the current depth,
    ``_next[i]`` the next member in i's bucket or -1, and ``_heads[b]`` the
    first member of bucket b, which chains the members whose hash is b
    modulo ``len(_heads)``.  The table starts at ``FIRST_BUCKETS`` buckets
    and doubles whenever the members fill it; the members are then
    re-chained from ``_hashes``, and no key is recomputed.

    ``find`` walks one chain.  A member of the candidate's hash is asked
    ``equals`` first; when that says no, an equal recomputed key raises the
    depth, and a different one is another key of the same hash, so the walk
    goes on.  In the ball search a member that ``equals`` reads is a
    neighbour of the member the candidate extends, whose node form the
    search still holds; any other has it built again by ``decompose``.
    ``find`` leaves the node form and hash of its last miss for ``add``, so
    a key is computed once per candidate, though the ball search asks about
    a probe and adds the element it builds after the miss.
    """

    def __init__(self):
        self.depth = START_SIG_DEPTH
        self.elements: list[Element] = []
        self._hashes = array("q")
        self._next = array("i")
        self._heads = array("i", [-1]) * FIRST_BUCKETS
        self._missed: tuple | None = None  # (root, sections, hash) of the last miss

    def find(self, e) -> int | None:
        """The index of the member equal to ``e``, or None.

        ``e`` is the one argument, and stays so: the benchmark's tracer
        (``bench/tracer.py``) wraps this method as ``find(self, e)``.  It is
        an element, whose node form ``node_key`` builds when its ``sections``
        is None, or any object whose ``root`` and ``sections`` hold a node
        form, as the ball search's probe does; only those two are read.
        """
        while True:
            key = node_key(e, self.depth)
            h = hash(key)
            hashes, nxt, elements = self._hashes, self._next, self.elements
            i = self._heads[h & (len(self._heads) - 1)]
            while i >= 0:
                if hashes[i] == h:
                    if equals(e, elements[i]):
                        return i
                    if node_key(elements[i], self.depth) == key:
                        break
                i = nxt[i]
            else:
                self._missed = (e.root, e.sections, h)
                return None
            # key-equal but exactly distinct: refine and retry
            self.depth += 1
            self._rebuild()

    def add(self, e: Element) -> int:
        """Append the element e, which a ``find`` has just missed, and chain
        it under the hash of its node key.  That miss is recognised by its
        node form, the same root and the same sections tuple, not by the
        object, since the ball search asks ``find`` about a probe and adds
        the element it then builds with the probe's node form; its hash is
        reused.  Any other element's hash is computed afresh."""
        missed, self._missed = self._missed, None
        if missed is not None and missed[1] is e.sections and missed[0] is e.root:
            h = missed[2]
        else:
            h = hash(node_key(e, self.depth))
        idx = len(self.elements)
        self.elements.append(e)
        self._hashes.append(h)
        heads = self._heads
        if len(self.elements) < len(heads):
            bucket = h & (len(heads) - 1)
            self._next.append(heads[bucket])
            heads[bucket] = idx
        else:  # the members fill the table
            self._next.append(-1)
            self._rechain(2 * len(heads))
        return idx

    def _rechain(self, buckets: int) -> None:
        heads, nxt, mask = array("i", [-1]) * buckets, self._next, buckets - 1
        for i, h in enumerate(self._hashes):
            bucket = h & mask
            nxt[i] = heads[bucket]
            heads[bucket] = i
        self._heads = heads

    def _rebuild(self) -> None:
        self._missed = None
        hashes, depth = self._hashes, self.depth
        for i, m in enumerate(self.elements):
            hashes[i] = hash(node_key(m, depth))
        self._rechain(len(self._heads))


class _Probe:
    """A candidate's node form, before any element is built for it."""

    __slots__ = ("root", "sections")

    def __repr__(self):
        return f"<candidate with root {self.root.cycles()}>"


def _effective_symbols(genset: GeneratingSet):
    """The search's symbols as ``(name, element)`` pairs, and the index of
    each symbol's inverse: the set's own symbols, then ``name^-1`` for each
    non-involutive one, in order, so that S = S^-1."""
    syms: list[tuple[str, Element]] = list(genset.symbols)
    inverse_of = list(range(len(syms)))
    for i, (name, el) in enumerate(genset.symbols):
        if not is_identity(el * el):
            inverse_of[i] = len(syms)
            inverse_of.append(i)
            syms.append((f"{name}^-1", el.inverse()))
    return syms, inverse_of


class Ball:
    """A Cayley ball: ``members`` is the search's ``Deduper.elements`` list,
    ``sizes`` the cumulative ball sizes by radius 0..``radius``, and
    ``edges[m * k + s]`` the member reached from member m by symbol s, or -1."""

    __slots__ = ("genset", "members", "sizes", "edges", "symbol_names")

    def __init__(self, genset: GeneratingSet, members: list[Element],
                 sizes: list[int], edges: array, symbol_names: tuple[str, ...]):
        self.genset = genset
        self.members = members
        self.sizes = sizes
        self.edges = edges
        self.symbol_names = symbol_names

    @property
    def radius(self) -> int:
        return len(self.sizes) - 1

    @property
    def size(self) -> int:
        return len(self.members)

    def geodesics(self) -> list[tuple[int, ...]]:
        """Each member's least shortest word, read back from the edges.

        Scanning the rows in member order, the first entry ``(m, s)`` that
        reaches member t is the one the search found t by, so t's word is
        ``words[m] + (s,)``: rows of depth < radius are complete, and a row of
        the outer sphere holds only its backtrack entry, to an earlier member.
        """
        k = len(self.symbol_names)
        words: list = [()] + [None] * (self.size - 1)
        for i, target in enumerate(self.edges):
            if target >= 0 and words[target] is None:
                words[target] = words[i // k] + (i % k,)
        return words


def balls(genset: GeneratingSet) -> Iterator[Ball]:
    """The one breadth-first search: yield the ball of radius 0, 1, 2, ...

    The same :class:`Ball` is yielded each time and grows in place when the
    generator resumes.  Members are found in (length, lexicographic word)
    order, so each geodesic is the least shortest word.  A new member costs
    one ``Deduper.add`` (the ball's members are the deduper's list) and one
    blank row of ``edges``.  At radius r the row of every member of depth < r
    is complete; a member of depth r knows only its backtrack entry (its BFS
    parent), set when it is found.

    Each row reads its member's node form once, and folds each symbol's
    letters onto it into ``probe``, which ``Deduper.find`` takes as its one
    argument; only a miss forms the element ``m * s``, with the probe's node
    form, and adds it.  When radius r is yielded, the members of depth r - 2
    hold no node form (the module docstring says why the search does not
    read them again).
    """
    syms, inverse_of = _effective_symbols(genset)
    k = len(syms)
    symbols = [(s, el, el.letters) for s, (_, el) in enumerate(syms)]
    blank = array("i", [-1]) * k
    dedup = Deduper()
    dedup.add(Element())
    ball = Ball(genset, dedup.elements, [1], array("i", blank),
                tuple(name for name, _ in syms))
    members, edges = ball.members, ball.edges
    probe = _Probe()
    done = start = 0  # members[done:start] have depth r - 1, members[start:] depth r
    while True:
        yield ball
        end = len(members)
        for mid in range(start, end):
            m = members[mid]
            if m.sections is None:
                decompose(m)
            row, root, sections = mid * k, m.root, m.sections
            for s, el, letters in symbols:
                if edges[row + s] >= 0:
                    continue  # the backtrack entry, never a new geodesic
                r, secs = root, sections
                for letter in letters:
                    r, secs = fold_letter(r, secs, letter)
                probe.root, probe.sections = r, secs
                target = dedup.find(probe)
                if target is None:
                    new = m * el
                    new.root, new.sections = r, secs
                    target = dedup.add(new)
                    edges.extend(blank)
                    edges[target * k + inverse_of[s]] = mid
                edges[row + s] = target
        for mid in range(done, start):  # depth r - 1: never read again
            members[mid].sections = None
        done, start = start, end
        ball.sizes.append(len(members))


def enumerate_ball(genset: GeneratingSet, radius: int) -> Ball:
    """The ball of the given radius, read off :func:`balls`."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    for ball in balls(genset):
        if ball.radius == radius:
            return ball


def ball_sizes(genset: GeneratingSet, radius: int) -> list[int]:
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return enumerate_ball(genset, radius).sizes


def ball_sizes_exact_convention(genset: GeneratingSet, radius: int) -> list[int]:
    """Sizes under the "products of exactly n generators" reading.

    An element counts at radius n iff it has a word of length n, i.e. a word
    of length <= n of the same parity (S = S^-1, so ``s s^-1`` pads a word
    by two).  The search walks (member, parity) states over the rows of the
    ball of the given radius R: a path of length d <= R never leaves the ball
    of radius d, and states of depth R are never expanded, so every row the
    walk reads is complete.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    ball = enumerate_ball(genset, radius)
    edges = ball.edges
    k = len(ball.symbol_names)
    # reached[p][m]: member m has a word of parity p no longer than the depth
    reached = [bytearray(ball.size), bytearray(ball.size)]
    reached[0][0] = 1
    sizes = [1]
    frontier = [0]
    for depth in range(1, radius + 1):
        seen = reached[depth % 2]
        new = []
        for mid in frontier:
            for target in edges[mid * k:(mid + 1) * k]:
                if not seen[target]:
                    seen[target] = 1
                    new.append(target)
        frontier = new
        sizes.append(len(new) + (sizes[depth - 2] if depth >= 2 else 0))
    return sizes


def growth_estimates(sizes: list[int]) -> list[dict]:
    """Per radius: the n-th root of the ball size and the successive ratio."""
    rows = []
    for n in range(1, len(sizes)):
        rows.append(
            {
                "radius": n,
                "ball_size": sizes[n],
                "sphere_size": sizes[n] - sizes[n - 1],
                "estimate_root": sizes[n] ** (1.0 / n),
                "estimate_ratio": sizes[n] / sizes[n - 1],
            }
        )
    return rows


def check_submultiplicative(sizes: list[int]) -> bool:
    rmax = len(sizes) - 1
    for n in range(1, rmax):
        for m in range(1, rmax - n + 1):
            if sizes[n + m] > sizes[n] * sizes[m]:
                return False
    return True


def find_min_n_local_iso(radius: int, max_n: int) -> int | None:
    """Least n <= max_n whose level-n triple has the same labelled ball of
    the given radius as the self-similar triple, or None.

    Both searches number members in (length, lexicographic) order.  The
    value of every word of length <= radius is reached along edges out of
    members of depth < radius, and each such edge is the value of a word of
    length <= radius, so the labelled balls agree exactly when those rows
    coincide; a level is dropped at the first radius where they differ.
    The self-similar ball grows only as far as the furthest level reaches.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    tilde = balls(make_tilde())
    target = next(tilde)
    for n in range(1, max_n + 1):
        for ball in balls(make_S(n)):
            if ball.radius == 0:
                continue
            while target.radius < ball.radius:
                target = next(tilde)
            # equal rows so far give equal sizes, so these rows are complete in both
            known = len(ball.symbol_names) * ball.sizes[-2]
            if ball.edges[:known] != target.edges[:known]:
                break
            if ball.radius == radius:
                return n
    return None


def _classed_words(quad, alphabet: str, max_len: int) -> Iterator[tuple[str, int]]:
    """``(word, class)`` for the words over ``alphabet`` of length <=
    ``max_len`` in (length, lexicographic) order; classes are group-equality
    classes, numbered in order of first appearance."""
    dedup = Deduper()
    for n in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=n):
            w = "".join(letters)
            e = quad.word(w)
            cid = dedup.find(e)
            yield w, dedup.add(e) if cid is None else cid


def free_monoid_check(length: int, pair=None) -> dict:
    """Witness checks for the embedded free monoid.

    (i) all {a, d}-words of length <= ``length`` are pairwise distinct, so
    they number 2^(length+1) - 1; (ii) on {a, b, c, d}-words of length <=
    ``REFINE_LEN``, group equality refines equality of (b -> a, d -> c)
    images.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    quad = make_free_quadruple(pair)
    first: list[str] = []  # the first word of each class
    collisions = []
    for w, cid in _classed_words(quad, "ad", length):
        if cid == len(first):
            first.append(w)
        else:
            collisions.append([first[cid], w])
    distinct = len(first)
    expected = 2 ** (length + 1) - 1
    distinct_ok = distinct == expected and not collisions

    classes: dict[int, list[str]] = {}
    for w, cid in _classed_words(quad, "abcd", REFINE_LEN):
        classes.setdefault(cid, []).append(w)
    refine_counterexample = None
    trans = str.maketrans("abcd", "aacc")
    for cls in classes.values():
        if len({w.translate(trans) for w in cls}) > 1:
            refine_counterexample = sorted(cls)[:2]
            break
    refine_ok = refine_counterexample is None

    return {
        "pair": [quad.u.cycles(), quad.v.cycles()],
        "length": length,
        "distinct": distinct,
        "expected": expected,
        "distinct_ok": distinct_ok,
        "collisions": collisions,
        "refine_len": REFINE_LEN,
        "refine_ok": refine_ok,
        "refine_counterexample": refine_counterexample,
        "all_ok": distinct_ok and refine_ok,
    }


def export_dot(genset: GeneratingSet, radius: int) -> str:
    """Deterministic DOT rendering of the ball of the given radius; involution
    edges are drawn once.  Its edges are the complete rows, read off the ball
    of radius ``radius + 1``."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ball = enumerate_ball(genset, radius + 1)
    size = ball.sizes[radius]
    k = len(ball.symbol_names)
    lines = ["graph ball {"]
    for mid, word in enumerate(ball.geodesics()[:size]):
        label = "e" if not word else " ".join(ball.symbol_names[s] for s in word)
        lines.append(f'  v{mid} [label="{label}"];')
    seen = set()
    for mid in range(size):
        for s, target in enumerate(ball.edges[mid * k:(mid + 1) * k]):
            key = (min(mid, target), max(mid, target), s)
            if target >= size or key in seen:
                continue
            seen.add(key)
            lines.append(f'  v{mid} -- v{target} [label="{ball.symbol_names[s]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def sizes_csv_rows(sizes: list[int]) -> list[tuple]:
    rows = []
    for r in growth_estimates(sizes):
        rows.append(
            (
                r["radius"],
                r["ball_size"],
                r["sphere_size"],
                f"{r['estimate_root']:.9f}",
                f"{r['estimate_ratio']:.9f}",
            )
        )
    return rows
