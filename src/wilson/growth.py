"""Cayley-ball enumeration, growth statistics and local-isomorphism tests.

Every ball query reads one breadth-first search (``_bfs``).  Balls use the
"at most n factors" convention by default; the "exactly n" variant (which can
differ when a parity homomorphism exists) is
:func:`ball_sizes_exact_convention`, an integer walk over (member, parity)
states on the edges that search records.  All enumeration orders are
(length, lexicographic), so geodesics and exports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import GeneratingSet, make_S, make_free_quadruple, make_tilde
from .wreath import Element, equals, is_identity, signature

START_SIG_DEPTH = 3


class Deduper:
    """Canonical-element index: signature-first with exact-equality fallback.

    The signature depth starts at ``START_SIG_DEPTH`` and is raised whenever
    an exact test distinguishes two digest-equal elements; the exact closure
    test is always the authority, signatures only accelerate.  ``exact=True``
    disables signatures entirely (pairwise exact tests, the reference
    behaviour).
    """

    def __init__(self, exact: bool = False):
        self.exact = exact
        self.depth = START_SIG_DEPTH
        self.elements: list[Element] = []
        self._index: dict[int, list[int]] = {}

    def find(self, e: Element) -> int | None:
        if self.exact:
            for i, m in enumerate(self.elements):
                if equals(e, m):
                    return i
            return None
        while True:
            bucket = self._index.get(signature(e, self.depth))
            collided = False
            if bucket:
                for i in bucket:
                    if equals(e, self.elements[i]):
                        return i
                collided = True
            if not collided:
                return None
            # digest-equal but exactly distinct: refine and retry
            self.depth += 1
            self._rebuild()

    def add(self, e: Element) -> int:
        idx = len(self.elements)
        self.elements.append(e)
        if not self.exact:
            self._index.setdefault(signature(e, self.depth), []).append(idx)
        return idx

    def _rebuild(self) -> None:
        self._index = {}
        for i, m in enumerate(self.elements):
            self._index.setdefault(signature(m, self.depth), []).append(i)


def _effective_symbols(genset: GeneratingSet):
    """(name, element, index-of-inverse) triples; inverses are appended for
    any non-involutive symbol so that S = S^-1."""
    syms: list[tuple[str, Element]] = list(genset.symbols)
    inverse_of: list[int] = []
    base = len(syms)
    extra = []
    for i, (name, el) in enumerate(syms):
        if is_identity(el * el):
            inverse_of.append(i)
        else:
            inverse_of.append(base + len(extra))
            extra.append((f"{name}^-1", el.inverse(), i))
    for name, el, inv in extra:
        syms.append((name, el))
        inverse_of.append(inv)
    return syms, inverse_of


@dataclass
class Ball:
    genset: GeneratingSet
    radius: int
    members: list[Element]
    geodesics: list[tuple[int, ...]]
    sizes: list[int]  # cumulative ball sizes, index = radius
    edges: dict[tuple[int, int], int] = field(default_factory=dict)
    symbol_names: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.members)

    def sphere_sizes(self) -> list[int]:
        return [self.sizes[0]] + [
            self.sizes[i] - self.sizes[i - 1] for i in range(1, len(self.sizes))
        ]


def _bfs(genset: GeneratingSet, radius: int, exact: bool = False,
         edge_depth: int = 0) -> Ball:
    """The one breadth-first search; every ball query is read off its result.

    Members up to depth ``radius`` are found in (length, lexicographic word)
    order.  Each member of depth < ``edge_depth`` is multiplied by every
    symbol, and the lookup is recorded as the edge ``(member, symbol) ->
    target``; a product outside the ball is dropped.  A member's backtrack
    edge goes to its BFS parent; it is recorded when the member is found and
    needs no product.
    """
    syms, inverse_of = _effective_symbols(genset)
    dedup = Deduper(exact=exact)
    members = [Element()]
    geodesics: list[tuple[int, ...]] = [()]
    dedup.add(members[0])
    sizes = [1]
    edges: dict[tuple[int, int], int] = {}
    start = 0
    for depth in range(max(radius, edge_depth)):
        grow, link = depth < radius, depth < edge_depth
        end = len(members)
        for mid in range(start, end):
            word = geodesics[mid]
            for s, (_, el) in enumerate(syms):
                if word and inverse_of[word[-1]] == s:
                    continue  # immediate backtrack, never a new geodesic
                candidate = members[mid] * el
                target = dedup.find(candidate)
                if target is None:
                    if not grow:
                        continue
                    target = dedup.add(candidate)
                    members.append(candidate)
                    geodesics.append(word + (s,))
                    if depth + 1 < edge_depth:
                        edges[(target, inverse_of[s])] = mid
                if link:
                    edges[(mid, s)] = target
        start = end
        if grow:
            sizes.append(len(members))
    return Ball(
        genset=genset,
        radius=radius,
        members=members,
        geodesics=geodesics,
        sizes=sizes,
        edges=edges,
        symbol_names=tuple(name for name, _ in syms),
    )


def enumerate_ball(genset: GeneratingSet, radius: int, exact: bool = False,
                   with_edges: bool = True) -> Ball:
    """Breadth-first closure of the identity under generator multiplication.

    Members are discovered in (length, lexicographic word) order, so the
    stored geodesic of each member is its lexicographically least shortest
    word.  With ``with_edges``, ``edges`` maps ``(member, symbol)`` to the
    member reached, for every edge among the members.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return _bfs(genset, radius, exact, edge_depth=radius + 1 if with_edges else 0)


def ball_sizes(genset: GeneratingSet, rmax: int, exact: bool = False) -> list[int]:
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    return _bfs(genset, rmax, exact).sizes


def ball_sizes_exact_convention(genset: GeneratingSet, rmax: int) -> list[int]:
    """Sizes under the "products of exactly n generators" reading.

    An element counts at radius n iff it has a word of length n, i.e. a word
    of length <= n of the same parity (S = S^-1, so ``s s^-1`` pads a word
    by two).  The search walks (member, parity) states over the edges the BFS
    to ``rmax`` records: a path of length d <= rmax never leaves the ball of
    radius d, and states of depth ``rmax`` are never expanded, so every edge
    the walk follows is recorded.
    """
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    ball = _bfs(genset, rmax, edge_depth=rmax)
    edges = ball.edges
    symbols = range(len(ball.symbol_names))
    # reached[p][m]: member m has a word of parity p no longer than the depth
    reached = [bytearray(ball.size), bytearray(ball.size)]
    reached[0][0] = 1
    sizes = [1]
    frontier = [0]
    for depth in range(1, rmax + 1):
        seen = reached[depth % 2]
        new = []
        for mid in frontier:
            for s in symbols:
                target = edges[(mid, s)]
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


@dataclass(frozen=True)
class WordPartition:
    """Reduced words of length <= radius, classed by group equality.

    Class ids are discovery ordinals over the fixed (length, lex) word
    enumeration, so two partitions over positionally-identified alphabets are
    isomorphic as labeled balls iff their assignments coincide.
    """

    radius: int
    assignment: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def class_count(self) -> int:
        return 1 + max(cid for _, cid in self.assignment)


def _reduced_index_words(radius: int, k: int = 3):
    level: list[tuple[int, ...]] = [()]
    yield ()
    for _ in range(radius):
        nxt = []
        for w in level:
            for s in range(k):
                if w and w[-1] == s:
                    continue
                nw = w + (s,)
                nxt.append(nw)
                yield nw
        level = nxt


def word_partition(genset: GeneratingSet, radius: int) -> WordPartition:
    if len(genset) != 3:
        raise ValueError("partitions are defined for 3-symbol generating sets")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    els = genset.elements()
    dedup = Deduper()
    assignment = []
    values: dict[tuple[int, ...], Element] = {(): Element()}
    for word in _reduced_index_words(radius):
        if word:
            values[word] = values[word[:-1]] * els[word[-1]]
        e = values[word]
        cid = dedup.find(e)
        if cid is None:
            cid = dedup.add(e)
        assignment.append((word, cid))
    return WordPartition(radius, tuple(assignment))


def partitions_equal(p: WordPartition, q: WordPartition) -> bool:
    if p.radius != q.radius:
        raise ValueError("partition radii differ")
    return p.assignment == q.assignment


def find_min_n_local_iso(radius: int, max_n: int) -> int | None:
    """Least n with the level-n triple's labeled ball matching the
    self-similar triple's, or None below max_n."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    target = word_partition(make_tilde(), radius)
    for n in range(1, max_n + 1):
        if partitions_equal(target, word_partition(make_S(n), radius)):
            return n
    return None


def free_monoid_check(length: int, pair=None, refine_len: int = 3) -> dict:
    """Witness checks for the embedded free monoid.

    (i) all {a, d}-words of length <= ``length`` are pairwise distinct, so
    they number 2^(length+1) - 1; (ii) on {a, b, c, d}-words of length <=
    ``refine_len``, group equality refines equality of (b -> a, d -> c)
    images.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    quad = make_free_quadruple(pair)
    dedup = Deduper()
    counterexamples = []
    words_by_id: list[str] = []
    level = [""]
    all_words = [""]
    for _ in range(length):
        level = [w + ch for w in level for ch in "ad"]
        all_words.extend(level)
    for w in all_words:
        e = quad.word(w)
        found = dedup.find(e)
        if found is None:
            dedup.add(e)
            words_by_id.append(w)
        else:
            counterexamples.append((words_by_id[found], w))
    expected = 2 ** (length + 1) - 1
    distinct = len(dedup.elements)

    refine_ok = True
    refine_counterexample = None
    rdedup = Deduper()
    classes: dict[int, list[str]] = {}
    rlevel = [""]
    rwords = [""]
    for _ in range(refine_len):
        rlevel = [w + ch for w in rlevel for ch in "abcd"]
        rwords.extend(rlevel)
    for w in rwords:
        e = quad.word(w)
        cid = rdedup.find(e)
        if cid is None:
            cid = rdedup.add(e)
        classes.setdefault(cid, []).append(w)
    trans = str.maketrans("abcd", "aacc")
    for cls in classes.values():
        images = {w.translate(trans) for w in cls}
        if len(images) > 1:
            refine_ok = False
            refine_counterexample = sorted(cls)[:2]
            break

    return {
        "pair": [quad.u.cycles(), quad.v.cycles()],
        "length": length,
        "distinct": distinct,
        "expected": expected,
        "distinct_ok": distinct == expected and not counterexamples,
        "collisions": [list(c) for c in counterexamples],
        "refine_len": refine_len,
        "refine_ok": refine_ok,
        "refine_counterexample": refine_counterexample,
        "all_ok": distinct == expected and not counterexamples and refine_ok,
    }


def export_dot(ball: Ball) -> str:
    """Deterministic DOT rendering; involution edges are drawn once."""
    lines = ["graph ball {"]
    for mid, word in enumerate(ball.geodesics):
        label = "e" if not word else " ".join(ball.symbol_names[s] for s in word)
        lines.append(f'  v{mid} [label="{label}"];')
    seen = set()
    for (mid, s), target in sorted(ball.edges.items()):
        key = (min(mid, target), max(mid, target), s)
        if key in seen:
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
