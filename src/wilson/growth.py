"""Cayley-ball enumeration, growth statistics and local-isomorphism tests.

Every ball query reads one breadth-first search, the generator :func:`balls`,
which grows one :class:`Ball` in place, radius by radius.  A member of a ball
is an index: the ball holds its BFS parent and the symbol it was found by,
and builds no element and no object for it.  The ball's Cayley-graph rows
are one flat ``array`` of edges: ``edges[m * k + s]`` is the member reached
from member ``m`` by symbol ``s`` (of ``k``), or -1 while unknown.
:meth:`Ball.geodesics` reads the words back from the parents, and
:attr:`Ball.members` builds the elements along them, and interns them, only
when a caller reads it.  Balls use the "at most n factors" convention by
default; the "exactly n" variant (which can differ when a parity
homomorphism exists) is :func:`ball_sizes_exact_convention`, an integer walk
over (member, parity) states on those edges.  All enumeration orders are
(length, lexicographic), so geodesics and exports are reproducible.

The search keys each member by one exact integer.  The id of its root
permutation sits in the low ``FIELD_BITS`` bits, and the class id of its
section at point p (1..7) in bits ``FIELD_BITS * p`` up.  The action is
faithful, so g = h exactly when their roots agree and ``g_p = h_p`` at every
point, and a section class is an exact equality class: one :class:`Deduper`
numbers the sections' words, and only those, and settles each by ``equals``.
So equal keys mean equal elements, and no member ever needs ``node_key``,
``equals`` or a signature-depth rise.  A candidate ``m * s`` is folded from
member m's key by the product rule ``(gh)_p = g_p * h_{p.root(g)}``, through
two lazily filled tables: one maps (root id, symbol) to the new root id and
the fields that the symbol's sections multiply, with the section word each
is multiplied by; the other maps (class, section word) to the class of the
product.  So a fold is a few integer operations, and the section Deduper
sees each section word once: a tilde search meets 46 words to R=16, where it
looks up 36,909 candidates.

A hit ``m * s = t`` fills in the edge from its other end too, t's entry for
``s^-1``, so each edge is looked up once, and a row skips the entries that
are known already.  So once member m's row is complete, every edge into m is
known from both ends, and no later lookup returns m: the search drops m's
key right after its row.  The member index is three flat arrays: ``keys``
and ``next`` hold, for the members from the first one of the sphere being
expanded on, the key (None once the row is complete) and the next member in
its bucket, and ``heads`` the newest member of each bucket, bucketed by
``hash((key,))``.  A bucket chains its members newest first, so a lookup
from member m stops at the first member below m, whose row is complete.
When the members from m on fill ``heads``, it doubles, and only they are
chained again; each sphere's part of ``keys`` and ``next`` is dropped once
the sphere is expanded.  So the search keeps no Python object per member but
the keys still to be expanded.

A ball search makes no cyclic garbage: whatever it drops is freed by
reference counting.  So it leaves the cyclic collector alone, and its
collections never free anything; a library caller that wants the CLI's speed
disables the collector around the call itself.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Iterator

from .catalog import GeneratingSet, make_S, make_free_quadruple, make_tilde
from .fano import Perm
from .wreath import Element, StateBudgetExceeded, decompose, equals, is_identity, node_key

START_SIG_DEPTH = 3
REFINE_LEN = 3  # the free-monoid check's {a, b, c, d}-words reach this length
FIRST_BUCKETS = 1024  # a dedup index's first bucket count, a power of two
FIELD_BITS = 16  # the width of a member key's root field and of each section field


class Deduper:
    """Canonical-element index keyed by the hash of ``node_key``, confirmed by
    exact equality.

    The signature depth starts at ``START_SIG_DEPTH`` and is raised whenever
    an exact test distinguishes two members of equal node key; the exact
    closure test is always the authority, signatures only accelerate.
    ``add`` follows a miss of ``find``, so no two members share a key, and a
    deeper key still tells them apart, since it determines the shallower one.

    ``elements[i]`` is member i, ``_hashes[i]`` the hash of its key at the
    current depth, ``_next[i]`` the next member in i's bucket or -1, and
    ``_heads[b]`` the first member of bucket b, which chains the members
    whose hash is b modulo ``len(_heads)``.  The table starts at
    ``FIRST_BUCKETS`` buckets and doubles whenever the members fill it; the
    members are then re-chained from ``_hashes``, and no key is recomputed.

    ``find`` walks one chain.  A member of the candidate's hash is asked
    ``equals`` first; when that says no, an equal recomputed key raises the
    depth, and a different one is another key of the same hash, so the walk
    goes on.  The ball search classes its sections' words with one of
    these.
    """

    def __init__(self):
        self.depth = START_SIG_DEPTH
        self.elements: list[Element] = []
        self._hashes = array("q")
        self._next = array("i")
        self._heads = array("i", [-1]) * FIRST_BUCKETS

    def find(self, e: Element) -> int | None:
        """The index of the member equal to ``e``, or None.

        ``e`` is the one argument, and stays so: the benchmark's tracer
        (``bench/tracer.py``) wraps this method as ``find(self, e)``.
        """
        while True:
            key = node_key(e, self.depth)
            h = hash(key)
            elements, hashes, nxt = self.elements, self._hashes, self._next
            i = self._heads[h & (len(self._heads) - 1)]
            while i >= 0:
                if hashes[i] == h:
                    if equals(e, elements[i]):
                        return i
                    if node_key(elements[i], self.depth) == key:
                        break
                i = nxt[i]
            else:
                return None
            # key-equal but exactly distinct: refine and retry
            self.depth += 1
            self._rebuild()

    def add(self, e: Element) -> int:
        """Store e, which a ``find`` has just missed, and chain it under the
        hash of its node key."""
        h = hash(node_key(e, self.depth))
        idx = len(self.elements)
        self.elements.append(e)
        self._hashes.append(h)
        heads = self._heads
        if idx + 1 < len(heads):
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
        """Rehash every member at the new depth."""
        hashes, depth = self._hashes, self.depth
        for i, e in enumerate(self.elements):
            hashes[i] = hash(node_key(e, depth))
        self._rechain(len(self._heads))


class _Search:
    """The key arithmetic and member index of one ball search.

    ``perms[r]`` is the root of id r, and ``forms[s]`` the node form (root,
    sections) of symbol s.  ``classes`` numbers the section words,
    ``class_of`` memoizes each word's class, and ``factors`` are the
    nontrivial sections of the symbols.  For symbol s from the root of id
    r, ``after[r * k + s]`` is the id of the root it leads to, and
    ``moves[r * k + s]`` None or the pairs ``(shift, j)`` of the fields it
    multiplies by ``factors[j]``, one tuple shared by the moves that touch
    the same fields.  ``products[c][j]`` is None or the class of class c
    times ``factors[j]``.  ``keys``, ``next`` and ``heads`` are the member
    index of the module docstring, and ``keys[i - base]`` is member i's.  A
    root or class id that outgrows its field raises
    :class:`~wilson.wreath.StateBudgetExceeded`.
    """

    def __init__(self, symbols: list[Element]):
        self.bits = FIELD_BITS
        self.forms = [(el.root, el.sections) for el in map(decompose, symbols)]
        self.perms, self.root_ids = [Perm.identity()], {Perm.identity(): 0}
        self.after, self.moves, self._shared = [None] * len(symbols), [None] * len(symbols), {}
        self.factors = list(dict.fromkeys(w for _, sections in self.forms for w in sections
                                          if w is not Element()))
        self.classes, self.class_of, self.products = Deduper(), {}, []
        self.class_id(Element())
        self.keys, self.base = [0], 0  # the identity: every field 0
        self.next = array("i", [-1])
        self.heads = array("i", [-1]) * FIRST_BUCKETS
        self.heads[hash((0,)) & (FIRST_BUCKETS - 1)] = 0

    def _check(self, n: int, what: str) -> int:
        """n, a new id, which must fit in a field of the keys."""
        if n >> self.bits:
            raise StateBudgetExceeded(
                f"ball search: {n + 1} {what} outgrow the {self.bits}-bit fields of its keys")
        return n

    def class_id(self, w: Element) -> int:
        """The class of the section word w, numbered anew if no class has it."""
        c = self.class_of.get(w)
        if c is None:
            c = self.classes.find(w)
            if c is None:
                c = self._check(self.classes.add(w), "section classes")
                self.products.append([None] * len(self.factors))
            self.class_of[w] = c
        return c

    def step(self, rid: int, s: int) -> tuple:
        """Fill in ``after`` and ``moves`` at ``rid * k + s``, and return the
        move: the symbol's section at point q multiplies the field of point
        ``q.root^-1``."""
        root, (last, sections) = self.perms[rid], self.forms[s]
        back = root.inverse().images
        fields = tuple([(self.bits * back[q], self.factors.index(w))
                        for q, w in enumerate(sections) if w in self.factors])
        root = root * last
        new = self.root_ids.get(root)
        if new is None:
            new = self.root_ids[root] = self._check(len(self.perms), "root permutations")
            self.perms.append(root)
            self.after += [None] * len(self.forms)
            self.moves += [None] * len(self.forms)
        i = rid * len(self.forms) + s
        self.after[i] = new
        move = self.moves[i] = self._shared.setdefault(fields, fields)
        return move


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
    """A Cayley ball: ``parent`` and ``via`` are its search tree, each
    member's BFS parent (-1 for the root) and the symbol it was found by,
    ``sizes`` the cumulative ball sizes by radius 0..``radius``, and
    ``edges[m * k + s]`` the member reached from member m by symbol s, or
    -1.  ``search`` is the search's :class:`_Search`, which holds the keys
    of the outer sphere's members, and goes with the ball."""

    __slots__ = ("genset", "parent", "via", "sizes", "edges", "symbol_names", "search")

    def __init__(self, genset: GeneratingSet, search: _Search, edges: array,
                 symbol_names: tuple[str, ...]):
        self.genset = genset
        self.parent = array("i", [-1])
        self.via = array("B", [0])
        self.sizes = [1]
        self.edges = edges
        self.symbol_names = symbol_names
        self.search = search

    @property
    def radius(self) -> int:
        return len(self.sizes) - 1

    @property
    def size(self) -> int:
        return len(self.parent)

    def _tree(self):
        """``(parent, symbol)`` of each member but the root, in order."""
        return itertools.islice(zip(self.parent, self.via), 1, None)

    def geodesics(self) -> list[tuple[int, ...]]:
        """Each member's least shortest word: its BFS parent's word and the
        symbol it was found by."""
        words: list = [()]
        for p, s in self._tree():
            words.append(words[p] + (s,))
        return words

    @property
    def members(self) -> list[Element]:
        """Each member as an element, the product along its geodesic, built
        (and interned) only when read."""
        symbols = [el for _, el in _effective_symbols(self.genset)[0]]
        members = [Element()]
        for p, s in self._tree():
            members.append(members[p] * symbols[s])
        return members


def balls(genset: GeneratingSet) -> Iterator[Ball]:
    """The one breadth-first search: yield the ball of radius 0, 1, 2, ...

    The same :class:`Ball` is yielded each time and grows in place when the
    generator resumes.  Members are found in (length, lexicographic word)
    order, so each geodesic is the least shortest word.  A new member costs
    its parent and symbol, its key and index entry while its row is still
    to be expanded, and one blank row of ``edges``.  At radius r the row of
    every member of depth < r is complete; a member of depth r knows its
    backtrack entry (its BFS parent), set when it is found, and the edges to
    members of depth r - 1 that hits filled in from their other end; the
    rest of its row is -1.  When radius r is yielded, the index holds the
    keys of the members of depth r and no other (the module docstring says
    why the search does not read the others again).
    """
    syms, inverse_of = _effective_symbols(genset)
    k = len(syms)
    blank = array("i", [-1]) * k
    search = _Search([el for _, el in syms])
    ball = Ball(genset, search, array("i", blank), tuple(name for name, _ in syms))
    parent, via, edges, keys, nxt = ball.parent, ball.via, ball.edges, search.keys, search.next
    after, moves, products = search.after, search.moves, search.products
    mask = (1 << search.bits) - 1
    reps, factors = search.classes.elements, search.factors
    start = 0  # the first member of depth r, and the first one keys holds
    while True:
        yield ball
        end = len(parent)
        heads = search.heads
        buckets = len(heads) - 1
        for mid in range(start, end):
            row, key = mid * k, keys[mid - start]
            rid = key & mask
            at, key = rid * k, key - rid  # key: its sections' fields only
            for s in range(k):
                if edges[row + s] >= 0:
                    continue  # known from its other end, never a new geodesic
                move = moves[at + s]
                if move is None:
                    move = search.step(rid, s)
                cand = key + after[at + s]
                for shift, j in move:
                    c = (cand >> shift) & mask
                    pc = products[c][j]
                    if pc is None:
                        pc = products[c][j] = search.class_id(reps[c] * factors[j])
                    cand += (pc - c) << shift
                bucket = hash((cand,)) & buckets
                target = heads[bucket]
                while target >= mid:  # below mid, every row is complete
                    if keys[target - start] == cand:
                        break
                    target = nxt[target - start]
                else:
                    target = len(parent)
                    parent.append(mid)
                    via.append(s)
                    edges.extend(blank)
                    keys.append(cand)
                    nxt.append(heads[bucket])
                    heads[bucket] = target
                    if target - mid > buckets:  # the members from mid on fill the table
                        heads = search.heads = array("i", [-1]) * (2 * len(heads))
                        buckets = len(heads) - 1
                        for i in range(mid, target + 1):
                            b = hash((keys[i - start],)) & buckets
                            nxt[i - start] = heads[b]
                            heads[b] = i
                edges[row + s] = target
                edges[target * k + inverse_of[s]] = mid  # the same edge, from target
            keys[mid - start] = None  # its row is complete: never read again
        del keys[:end - start], nxt[:end - start]
        search.base = start = end
        ball.sizes.append(len(parent))


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
