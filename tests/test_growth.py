import gc
import hashlib
import itertools
import os
import subprocess
import sys
import weakref
from array import array
from pathlib import Path

import pytest

import wilson
from wilson import growth
from wilson.catalog import (GeneratingSet, make_free_quadruple, make_S, make_tilde,
                            swapper_pairs)
from wilson.fano import X, Y, Z
from wilson.growth import (
    Deduper,
    _effective_symbols,
    ball_sizes,
    ball_sizes_exact_convention,
    balls,
    check_submultiplicative,
    enumerate_ball,
    export_dot,
    find_min_n_local_iso,
    free_monoid_check,
    growth_estimates,
    sizes_csv_rows,
)
from wilson.catalog import make_abar
from wilson.wreath import (_SIG_INTERN, Element, StateBudgetExceeded, clear_caches,
                           decompose, engine_stats, equals, is_identity, node_key,
                           perm_element, signature)

from partition_oracle import least_levels, pairwise_ball_sizes, word_partition
from test_wreath import reference_decompose, truncated_bar

# The plain group A on x, y, z: every word normalizes to one permutation, so
# Element equality is group equality, and the group is finite with relators
# of odd length.
PERMS = GeneratingSet("xyz", tuple((n, perm_element(p))
                                   for n, p in (("x", X), ("y", Y), ("z", Z))))
# two symbols of order 4; the search appends their inverses
ROTS = GeneratingSet("uv", (("u", perm_element(X * Y)), ("v", perm_element(Y * Z))))
FINITE = pytest.mark.parametrize("genset", [PERMS, ROTS], ids=["xyz", "uv"])


def search_symbols(genset):
    return [el for _, el in _effective_symbols(genset)[0]]


def test_deduper_modes_agree():
    s1 = make_S(1)
    a, b, c = s1.elements()
    pool = [Element(), a, b, c, a * b, b * a, a * b * c, a * b, Element()]
    dedup = Deduper()
    for e in pool:
        pairwise = next((i for i, m in enumerate(dedup.elements) if equals(e, m)), None)
        found = dedup.find(e)
        assert found == pairwise
        if found is None:
            dedup.add(e)
    assert len(dedup.elements) == 7


def chains(dedup):
    """The index's bucket chains, read from ``_heads`` and ``_next``."""
    out = {}
    for bucket, i in enumerate(dedup._heads):
        while i >= 0:
            out.setdefault(bucket, []).append(i)
            i = dedup._next[i]
    return out


def test_deduper_refines_a_shared_signature():
    """A miss on a member's signature raises the depth and rewrites each
    member's hash at the new depth.  bar(x) cut below depth 3 differs from
    bar(x) first on strings of length 5, so not at signature depth 3."""
    t, xbar = truncated_bar(X, 3), make_abar(X)
    assert signature(t, 3) == signature(xbar, 3) and not equals(t, xbar)
    dedup = Deduper()
    dedup.add(xbar)
    h = hash(node_key(xbar, 3))
    assert list(dedup._hashes) == [h] and chains(dedup) == {h % growth.FIRST_BUCKETS: [0]}
    assert dedup.find(t) is None and dedup.depth > 3
    h = hash(node_key(xbar, dedup.depth))
    assert list(dedup._hashes) == [h] and chains(dedup) == {h % growth.FIRST_BUCKETS: [0]}
    assert dedup.add(t) == 1 and dedup.find(t) == 1 and dedup.find(xbar) == 0


def test_deduper_clash_path_is_exact(monkeypatch):
    """With every key hashed alike, every member shares one chain, so each
    lookup meets every member's hash, in a Deduper and in a ball search's
    member index: the searches, the free-monoid check and the depth rise
    come out the same."""
    gensets = (make_tilde(), make_S(1), make_S(2))
    unpatched = [ball_sizes(genset, 10) for genset in gensets]
    monkeypatch.setattr(growth, "hash", lambda key: 0, raising=False)
    for genset, sizes in zip(gensets, unpatched):
        assert ball_sizes(genset, 10) == sizes
        assert sizes[:9] == pairwise_ball_sizes(genset, 8)
    assert free_monoid_check(6)["all_ok"]
    t, xbar = truncated_bar(X, 3), make_abar(X)
    dedup = Deduper()
    dedup.add(xbar)
    assert dedup.find(t) is None and dedup.depth > 3
    assert dedup.add(t) == 1 and dedup.find(t) == 1 and dedup.find(xbar) == 0
    assert node_key(t, dedup.depth) != node_key(xbar, dedup.depth)
    assert list(dedup._hashes) == [0, 0] and chains(dedup) == {0: [1, 0]}


def test_deduper_long_chains_across_doublings(monkeypatch):
    """With sixteen hash values and first tables of sixteen buckets, the
    chains are long and the tables double several times: a search's member
    index, whenever the members still to be expanded fill it, and the
    free-monoid check's Deduper, whenever its members do.  The searches and
    the check come out the same as with the full hash."""
    gensets = (make_tilde(), make_S(1))
    unpatched = [enumerate_ball(genset, 8) for genset in gensets]
    rechains, heads = [], []
    rechain = Deduper._rechain

    def counted_rechain(self, buckets):
        rechains.append(buckets)
        rechain(self, buckets)

    monkeypatch.setattr(growth, "hash", lambda key: hash(key) & 15, raising=False)
    monkeypatch.setattr(growth, "FIRST_BUCKETS", 16)
    monkeypatch.setattr(Deduper, "_rechain", counted_rechain)
    for genset, ball in zip(gensets, unpatched):
        for patched in balls(genset):
            heads.append(len(patched.search.heads))
            if patched.radius == 8:
                break
        assert patched.sizes == ball.sizes and patched.edges == ball.edges
    # the member index's buckets as each radius is yielded: tilde holds at
    # most 256 keys at once, and S:1 at most 512; S:1 also classes more
    # than 64 section words
    assert heads == ([16, 16, 16, 16, 32, 64, 64, 128, 256]
                     + [16, 16, 16, 16, 32, 64, 128, 256, 512])
    assert rechains == [32, 64, 128]
    rechains.clear()
    assert free_monoid_check(6)["all_ok"]
    # 127 {a, d}-words and 61 classes of {a, b, c, d}-words
    assert rechains == [32, 64, 128, 32, 64]


def test_deduper_arrays_after_a_search():
    """In the Deduper that classes a search's section words, each member's
    hash is its node key at the final depth, each member sits once in the
    chain of its bucket, and the table is at most twice the members (or the
    first size)."""
    dedup = enumerate_ball(make_S(1), 14).search.classes
    n = len(dedup.elements)
    assert n == len(dedup._hashes) == len(dedup._next) > growth.FIRST_BUCKETS
    assert len(dedup._heads) <= max(growth.FIRST_BUCKETS, 2 * n)
    for i, e in enumerate(dedup.elements):
        assert dedup._hashes[i] == hash(node_key(e, dedup.depth))
    mask = len(dedup._heads) - 1
    chained = chains(dedup)
    assert sorted(i for chain in chained.values() for i in chain) == list(range(n))
    assert all(dedup._hashes[i] & mask == bucket
               for bucket, chain in chained.items() for i in chain)


def test_ball_search_keys_each_candidate_once(monkeypatch):
    """Each lookup folds its candidate's key and hashes it once, and fills in
    two entries that were unknown, its own and the one from its other end.
    So with a table that never doubles, the member keys hashed are the
    identity's, when the search starts, and then half the known entries, one
    per candidate; the keys hashed are the members' own, and equal keys
    hash the same member."""
    hashed = []

    def counted(obj):
        if type(obj) is tuple and len(obj) == 1:  # a member key
            hashed.append(obj[0])
        return hash(obj)

    monkeypatch.setattr(growth, "hash", counted, raising=False)
    monkeypatch.setattr(growth, "FIRST_BUCKETS", 4096)
    ball = enumerate_ball(make_tilde(), 10)
    assert ball.size == 1309
    assert hashed[0] == 0 and 2 * (len(hashed) - 1) == sum(t >= 0 for t in ball.edges)
    assert len(set(hashed)) == ball.size


def test_deduper_add_recognises_the_miss_by_its_whole_node_form():
    """A permutation letter changes only the root, so ``a * y`` shares the
    sections tuple of ``a``: ``add`` must not take it for the miss of ``a``
    and chain it under a's hash.  It hashes the node key of the element it
    is given."""
    a = decompose(make_S(1).elements()[0])
    g = decompose(a * perm_element(Y))
    assert g.sections is a.sections and g.root is not a.root
    dedup = Deduper()
    assert dedup.find(a) is None
    assert dedup.add(g) == 0
    assert dedup.find(g) == 0 and dedup.find(a) is None


def test_ball_search_folds_every_letter_of_a_symbol():
    """The free quadruple's a, b, c, d are two-letter words (``bar(u) u``
    and so on), and their inverses too, so each candidate folds two letters.
    The sizes and the hash of the complete rows (of depth < 4) were pinned
    from a search that formed every candidate as a word and decomposed it;
    folding only each symbol's last letter gives sizes [1, 5, 19, 57, 150].
    The outer sphere's known entries are checked by product."""
    q = make_free_quadruple()
    genset = GeneratingSet("abcd", tuple((n, getattr(q, n)) for n in "abcd"))
    assert all(len(el.letters) == 2 for _, el in genset.symbols)
    ball = enumerate_ball(genset, 4)
    assert ball.sizes == [1, 9, 47, 151, 368]
    symbols = search_symbols(genset)
    rows = ",".join(map(str, ball.edges[:len(symbols) * ball.sizes[3]])).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "ebb80e743d864f64782f6c1de7efdb4f480bfce543061945768b102f8f2143f8")
    assert_outer_entries_are_products(ball, symbols)


INTERNED = """
from wilson import wreath
from wilson.catalog import make_tilde
from wilson.growth import enumerate_ball
genset = make_tilde()
before = wreath.engine_stats()["elements"]
ball = enumerate_ball(genset, 10)
print(ball.size, wreath.engine_stats()["elements"] - before)
"""


def test_ball_search_interns_only_new_members():
    """In a fresh interpreter, a tilde search interns no element for its
    members, only a few section words: a member is its key, parent and
    symbol, and a candidate is never built as a word (the search
    interned one element per new member, 1,305 here, before members were
    ids)."""
    src = str(Path(wilson.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", INTERNED],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    size, interned = map(int, proc.stdout.split())
    assert size == 1309 and interned <= 10


@pytest.mark.parametrize("genset", [make_tilde(), make_S(1), make_S(2), make_S(3)],
                         ids=["tilde", "S:1", "S:2", "S:3"])
def test_ball_search_sets_the_reference_node_forms(genset):
    """The key the search folds for each new member, read as each radius is
    yielded (before any is released), encodes the whole-word walk's node
    form of the member built as an element: its root, and at each point a
    class whose representative ``equals`` the section there."""
    for ball in balls(genset):
        members, search = ball.members, ball.search
        assert search.base == (ball.sizes[-2] if ball.radius else 0)
        for i, key in enumerate(search.keys, search.base):
            root, sections = key_form(search, key)
            reference = reference_decompose(members[i])
            assert root is reference.root
            assert all(map(equals, sections, reference.sections))
        if ball.radius == 10:
            break


def key_form(search, key):
    """The root and the section representatives that a member key holds."""
    bits, reps = search.bits, search.classes.elements
    mask = (1 << bits) - 1
    return search.perms[key & mask], tuple(reps[key >> bits * p & mask] for p in range(1, 8))


def test_ball_radius_zero_and_one():
    s1 = make_S(1)
    ball = enumerate_ball(s1, 1)
    assert ball.sizes == [1, 4]
    assert ball.geodesics()[0] == ()
    assert sorted(ball.geodesics()[1:]) == [(0,), (1,), (2,)]
    b0 = enumerate_ball(s1, 0)
    assert b0.sizes == [1]


def test_ball_members_distinct_and_geodesic_lengths():
    ball = enumerate_ball(make_tilde(), 4)
    for i, g in enumerate(ball.members):
        assert is_identity(g) == (i == 0)
    for word, g in zip(ball.geodesics(), ball.members):
        acc = Element()
        for s in word:
            acc = acc * ball.genset.elements()[s]
        assert equals(acc, g)
    lengths = [len(w) for w in ball.geodesics()]
    assert lengths == sorted(lengths)
    assert ball.sizes == [1, 4, 10, 22, 43]


def test_ball_sizes_conventions():
    s1 = make_S(1)
    atmost = ball_sizes(s1, 5)
    exact = ball_sizes_exact_convention(s1, 5)
    assert atmost[0] == exact[0] == 1
    for n in range(6):
        assert exact[n] <= atmost[n]
    # parity homomorphism to A/... may be absent here; conventions agree
    # whenever some generator product of even length returns to a generator
    assert check_submultiplicative(atmost)


@pytest.mark.parametrize("genset", [make_S(1), make_S(2), make_tilde()],
                         ids=["S:1", "S:2", "tilde"])
def test_exact_convention_matches_all_words(genset):
    """Oracle: distinct products among all 3^n words of length exactly n."""
    sizes = ball_sizes_exact_convention(genset, 6)
    level = [Element()]
    for n in range(7):
        dedup = Deduper()
        for e in level:
            if dedup.find(e) is None:
                dedup.add(e)
        assert sizes[n] == len(dedup.elements)
        level = [e * g for e in level for g in genset.elements()]


@FINITE
def test_exact_convention_on_finite_group(genset):
    level = {Element()}
    sizes = []
    for _ in range(15):
        sizes.append(len(level))
        level = {e * g for e in level for g in search_symbols(genset)}
    assert sizes[-1] == 168
    assert ball_sizes_exact_convention(genset, 14) == sizes


@FINITE
@pytest.mark.parametrize("radius", [5, 6, 8, 9])
def test_edges_are_all_products_inside_the_ball(genset, radius):
    """The rows of the ball of radius R, read from the ball of radius R + 1;
    on xyz, radii 6-8 have edges between members of the outer sphere."""
    ball = enumerate_ball(genset, radius + 1)
    size = ball.sizes[radius]
    index = {m: i for i, m in enumerate(ball.members)}
    symbols = search_symbols(genset)
    rows = ball.edges[:len(symbols) * size]
    assert list(rows) == [index[m * g] for m in ball.members[:size] for g in symbols]


def test_exact_vs_fast_dedup_small():
    """Ball sizes against the naive pairwise partition of reduced words."""
    s1 = make_S(1)
    assert ball_sizes(s1, 4) == pairwise_ball_sizes(s1, 4)


@pytest.mark.parametrize("genset", [make_S(1), make_tilde(), PERMS, ROTS],
                         ids=["S:1", "tilde", "xyz", "uv"])
def test_balls_grow_in_place(genset):
    """The ball yielded at radius r is the ball a fresh search stops at."""
    symbols = search_symbols(genset)
    inverse_of = _effective_symbols(genset)[1]
    k = len(symbols)
    for ball, radius in zip(balls(genset), range(7)):
        fresh = enumerate_ball(genset, radius)
        assert ball.radius == radius
        assert ball.sizes == fresh.sizes
        assert ball.geodesics() == fresh.geodesics()
        complete = k * (ball.sizes[radius - 1] if radius else 0)
        assert ball.edges[:complete] == fresh.edges[:complete]
        assert -1 not in ball.edges[:complete]
        geodesics = ball.geodesics()
        parent = {word: i for i, word in enumerate(geodesics)}
        for mid in range(complete // k, ball.size):
            word = geodesics[mid]
            if word:
                assert ball.edges[mid * k + inverse_of[word[-1]]] == parent[word[:-1]]
        assert_outer_entries_are_products(ball, symbols)


def assert_outer_entries_are_products(ball, symbols):
    """Each known entry of an outer-sphere row, its backtrack entry or an
    edge that a hit filled in from its other end, is the product of its
    member and symbol."""
    k, members = len(symbols), ball.members
    start = ball.sizes[-2] if ball.radius else 0
    for mid in range(start, ball.size):
        for s, target in enumerate(ball.edges[mid * k:(mid + 1) * k]):
            if target >= 0:
                assert equals(members[mid] * symbols[s], members[target])


@pytest.mark.parametrize("genset", [make_S(1), make_tilde(), PERMS, ROTS],
                         ids=["S:1", "tilde", "xyz", "uv"])
def test_geodesics_are_least_words(genset):
    """Each member's geodesic is the first word, in (length, lexicographic)
    order over the search symbols, whose product equals it; the words are
    enumerated and compared by ``equals``, with no edges and no Deduper."""
    symbols = search_symbols(genset)
    members = enumerate_ball(genset, 5).members
    least = {}
    for n in range(6):
        for word in itertools.product(range(len(symbols)), repeat=n):
            e = Element()
            for s in word:
                e = e * symbols[s]
            least.setdefault(next(m for m, g in enumerate(members) if equals(e, g)), word)
    expected = [least[m] for m in range(len(members))]
    for ball, radius in zip(balls(genset), range(6)):
        assert ball.geodesics() == expected[:ball.size]


@pytest.mark.parametrize("genset", [make_tilde(), make_S(1), make_S(2)],
                         ids=["tilde", "S:1", "S:2"])
def test_ball_search_releases_node_forms_it_reads_no_more(genset):
    """From empty caches: when the search yields radius r, it holds the key
    of every member of depth r and of no member of depth < r, since each key
    is released once its member's row is complete and no lookup reads it
    again; the index's ``next`` holds the same members.  The search from
    empty caches gives the same ball."""
    radius = 9
    clear_caches()
    for ball in balls(genset):
        search, inner = ball.search, ball.sizes[-2] if ball.radius else 0
        assert search.base == inner
        assert len(search.keys) == len(search.next) == ball.size - inner
        assert None not in search.keys
        if ball.radius == radius:
            break
    sizes, edges = list(ball.sizes), ball.edges.tobytes()
    clear_caches()
    again = enumerate_ball(genset, radius)
    assert again.sizes == sizes and again.edges.tobytes() == edges


def test_ball_search_holds_few_node_forms():
    """At the end of an S:1 search, the search holds the keys of the outer
    sphere, which are still to be expanded, and no other.  The engine's own
    node forms are the section words', far fewer than the members (1,525 of
    47,230; 26,473 when members were elements)."""
    clear_caches()
    ball = enumerate_ball(make_S(1), 14)
    search = ball.search
    assert search.base == ball.sizes[-2] and len(search.keys) == ball.size - search.base
    assert engine_stats()["decompose_cache"] < ball.size // 10


def test_ball_index_holds_a_root_id_and_sections_per_member():
    """A member's key is one int, its root id and its seven section
    classes, each in a field of ``FIELD_BITS`` bits; the index holds the
    keys of the members still to be expanded in a list, and their chains in
    ``array('i')``s.  So a search makes no object per member that the
    collector tracks: a second tilde search of 1,309 members, which meets
    the section words of the first one, leaves 35 such objects, once two
    collections have untracked the tuples of its tables that hold only
    ints."""
    enumerate_ball(make_tilde(), 10)
    gc.collect()
    before = len(gc.get_objects())
    ball = enumerate_ball(make_tilde(), 10)
    gc.collect()
    gc.collect()
    assert len(gc.get_objects()) - before < ball.size // 10
    search = ball.search
    mask = (1 << search.bits) - 1
    assert search.bits == growth.FIELD_BITS and search.keys
    for key in search.keys:
        assert type(key) is int and 0 <= key < 1 << 8 * search.bits
        assert key & mask < len(search.perms)
        assert all(key >> search.bits * p & mask < len(search.classes.elements)
                   for p in range(1, 8))
    for table in (search.next, search.heads):
        assert type(table) is array and table.typecode == "i"


@pytest.mark.parametrize("genset, depth", [(make_tilde(), 1), (make_S(1), 3), (make_S(2), 1)],
                         ids=["tilde", "S:1", "S:2"])
def test_ball_search_rekeys_released_forms(genset, depth, monkeypatch):
    """From signature depth 1 the section Deduper of the S:1 search raises
    its depth, and so keys its section words again, while most members are
    released; the tilde and S:2 sections to R=8 have distinct roots, so
    their depth stays.  A member key holds class ids, which a depth rise
    leaves as they are, so nothing released is keyed again, and the sizes
    and edges are the unpatched ones."""
    ball = enumerate_ball(genset, 8)
    monkeypatch.setattr(growth, "START_SIG_DEPTH", 1)
    patched = enumerate_ball(genset, 8)
    assert patched.search.classes.depth == depth
    assert patched.sizes == ball.sizes and patched.edges == ball.edges


@pytest.mark.parametrize("genset", [make_S(1), make_tilde(), PERMS, ROTS],
                         ids=["S:1", "tilde", "xyz", "uv"])
def test_geodesics_match_the_row_scan(genset):
    """The geodesics read from the search tree are those of the row scan:
    in member order, the first known entry ``(m, s)`` that reaches member t
    gives t the word of m followed by s."""
    ball = enumerate_ball(genset, 8)
    k = len(ball.symbol_names)
    words = [()] + [None] * (ball.size - 1)
    for i, target in enumerate(ball.edges):
        if target >= 0 and words[target] is None:
            words[target] = words[i // k] + (i % k,)
    assert ball.geodesics() == words


FREED = """
import gc, tracemalloc
from wilson.catalog import make_tilde
from wilson.growth import enumerate_ball
genset = make_tilde()
gc.disable()
tracemalloc.start()
enumerate_ball(genset, 12)
base = tracemalloc.get_traced_memory()[0]
ball = enumerate_ball(genset, 14)
held = tracemalloc.get_traced_memory()[0] - base
del ball
print(held, tracemalloc.get_traced_memory()[0] - base)
"""


def test_ball_frees_its_search_with_it():
    """The ball holds the search's keys, tables and arrays, and the engine
    keeps almost nothing for it: in a fresh interpreter with the collector
    off, dropping the tilde R=14 ball frees more than 99% of what the search
    left allocated (a few hundred bytes of about 530 KiB stay; 4% stayed
    when members held sections tuples, 82% when each member was an interned
    element).  An R=12 search runs first, under tracing too, so that the
    atoms' root tables and the interpreter's store of freed tuples for reuse
    are already full when the count starts."""
    src = str(Path(wilson.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", FREED],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    held, kept = map(int, proc.stdout.split())
    assert kept < held / 100


@pytest.mark.parametrize("genset", [make_tilde(), make_S(1), make_S(2), PERMS, ROTS],
                         ids=["tilde", "S:1", "S:2", "xyz", "uv"])
def test_ball_search_finds_no_member_whose_row_is_complete(genset, monkeypatch):
    """A hit ``m * s = t`` fills in t's entry for ``s^-1`` too, so every edge
    out of a member whose row is complete is known from both ends, and no
    later lookup returns that member: each member a hit returns still has
    an unknown entry in its row.  Keys are exact, so a lookup returns member
    t exactly when it hashes t's key; with a table that never doubles, the
    search hashes a member key only to look it up, after the identity's."""
    k = len(search_symbols(genset))
    members, hits, seen = [], [], {}  # seen: each key looked up -> its member

    def spied(obj):
        if members and type(obj) is tuple and len(obj) == 1:
            ball = members[0]
            target = seen.setdefault(obj[0], ball.size)  # a miss adds the next member
            if target < ball.size:
                hits.append(target)
                assert -1 in ball.edges[target * k:(target + 1) * k]
        return hash(obj)

    monkeypatch.setattr(growth, "hash", spied, raising=False)
    monkeypatch.setattr(growth, "FIRST_BUCKETS", 1 << 14)
    search = balls(genset)
    members.append(next(search))
    seen[0] = 0  # the identity, member 0
    for ball in search:
        if ball.radius == 9:
            break
    assert sorted(seen.values()) == list(range(ball.size))
    assert hits


@pytest.mark.parametrize("genset, radius", [(make_tilde(), 12), (make_S(1), 10), (make_S(2), 12)],
                         ids=["tilde", "S:1", "S:2"])
def test_section_classes_are_exact(genset, radius):
    """Member keys are exact because section classes are: every section
    word the search classed ``equals`` its class's representative, and no
    two representatives are ``equals``."""
    search = enumerate_ball(genset, radius).search
    reps = search.classes.elements
    assert len(search.class_of) >= len(reps) > 10
    for word, c in search.class_of.items():
        assert equals(word, reps[c])
    for g, h in itertools.combinations(reps, 2):
        assert not equals(g, h)


def test_section_deduper_finds_each_section_word_once(monkeypatch):
    """The search asks its ``Deduper`` once per distinct section word, not
    once per lookup: 46 words for the 36,909 lookups of tilde R=16."""
    words = []
    find = Deduper.find

    def spied(self, e):
        words.append(e)
        return find(self, e)

    monkeypatch.setattr(Deduper, "find", spied)
    ball = enumerate_ball(make_tilde(), 16)
    assert ball.size == 33277
    assert len(words) == len(set(words)) == len(ball.search.class_of) == 46


@pytest.mark.parametrize("genset", [make_tilde(), make_S(1)], ids=["tilde", "S:1"])
def test_key_fields_of_any_width_give_the_same_ball(genset, monkeypatch):
    """The field width is read once per search: with 9-bit fields, which
    hold the 168 roots and the few hundred section classes of these balls,
    the search finds the same ball."""
    ball = enumerate_ball(genset, 9)
    monkeypatch.setattr(growth, "FIELD_BITS", 9)
    narrow = enumerate_ball(genset, 9)
    assert narrow.search.bits == 9 and narrow.search.keys[0] >> 9 * 8 == 0
    assert narrow.sizes == ball.sizes and narrow.edges == ball.edges


def test_an_outgrown_key_field_raises(monkeypatch):
    """A root id or class id that outgrows its field never collides with
    another silently: the search raises ``StateBudgetExceeded``."""
    monkeypatch.setattr(growth, "FIELD_BITS", 2)
    with pytest.raises(StateBudgetExceeded, match="5 root permutations outgrow the 2-bit"):
        enumerate_ball(make_tilde(), 4)
    x, y, z = make_tilde().elements()
    search = growth._Search([])
    for c, word in enumerate((x, y, z), 1):
        assert search.class_id(word) == c  # the identity's class is 0
    with pytest.raises(StateBudgetExceeded, match="5 section classes outgrow the 2-bit"):
        search.class_id(x * y)


@pytest.mark.parametrize("genset", [make_tilde(), make_S(1), make_S(2)],
                         ids=["tilde", "S:1", "S:2"])
def test_ball_search_leaves_no_signature_per_member(genset):
    """The search keys its index by node keys that it alone holds, so the
    signature tables keep only the sections' signatures, far fewer than the
    ball's members."""
    clear_caches()
    ball = enumerate_ball(genset, 12)
    assert engine_stats()["signature_cache"] < ball.size // 5
    assert len(_SIG_INTERN) < ball.size // 5


def test_growth_estimates_rows():
    sizes = ball_sizes(make_tilde(), 4)
    rows = growth_estimates(sizes)
    assert [r["radius"] for r in rows] == [1, 2, 3, 4]
    assert rows[0]["ball_size"] == sizes[1]
    assert rows[-1]["estimate_ratio"] == sizes[4] / sizes[3]
    csv = sizes_csv_rows(sizes)
    assert csv[0][0] == 1 and csv[0][1] == sizes[1]


def test_check_submultiplicative():
    assert check_submultiplicative([1, 4, 16, 64])
    assert not check_submultiplicative([1, 2, 3, 7])


def test_local_iso_small_radii():
    """Against the naive partition: S:1 matches tilde up to radius 3, S:2 from 4."""
    expected = least_levels(6, 3)
    assert expected == [1, 1, 1, 2, 2, 2]
    assert [find_min_n_local_iso(radius, 3) for radius in range(1, 7)] == expected


def test_local_iso_grows_tilde_only_as_far_as_the_levels(monkeypatch):
    """S:1 differs from tilde at radius 4, so neither ball goes further."""
    reached = {}

    def spy(genset):
        for ball in balls(genset):
            reached[genset.name] = ball.radius
            yield ball

    monkeypatch.setattr("wilson.growth.balls", spy)
    assert find_min_n_local_iso(12, 1) is None
    assert reached == {"tilde": 4, "S:1": 4}


def test_tilde_vs_s1_differ_at_radius_4():
    assert word_partition(make_tilde(), 4) != word_partition(make_S(1), 4)


def test_free_monoid_short():
    report = free_monoid_check(4)
    assert report["all_ok"]
    assert report["distinct"] == 2**5 - 1
    assert report["collisions"] == []
    assert report["refine_ok"]


def test_free_monoid_all_pairs_short():
    for pair in swapper_pairs():
        report = free_monoid_check(3, pair=pair)
        assert report["all_ok"], report


def test_export_dot():
    dot = export_dot(make_S(1), 1)
    assert dot.startswith("graph ball {")
    assert dot.endswith("}\n")
    assert 'v0 [label="e"];' in dot
    assert dot.count(" -- ") >= 3


def test_ball_search_makes_no_cyclic_garbage():
    """A search leaves no reference cycles behind: what it drops is freed by
    reference counting.  This is why ``cli.main`` can run every command with
    the collector off."""
    gc.unfreeze()
    gc.collect()
    enumerate_ball(make_S(2), 8)
    find_min_n_local_iso(4, 2)
    gc.unfreeze()
    assert gc.collect() == 0


class Node:
    pass


def test_ball_search_frees_the_callers_cyclic_garbage():
    """Garbage the caller made before a search is left to the caller's
    collector: after the search, one collection frees all of it."""
    refs = []
    for _ in range(1000):
        node = Node()
        node.self = node
        refs.append(weakref.ref(node))
    del node
    enumerate_ball(make_S(1), 3)
    gc.collect()
    assert sum(ref() is not None for ref in refs) == 0


def test_ball_search_lets_callers_objects_that_die_later_be_collected():
    """The search freezes nothing: a caller's cyclic structure that is alive
    during it and dropped after it is freed by one collection."""
    node = Node()
    node.self = node
    ref = weakref.ref(node)
    enumerate_ball(make_S(1), 3)
    del node
    gc.collect()
    assert ref() is None


def test_ball_search_collects_nothing_with_the_collector_off():
    """With the collector off, the search runs no collection of its own."""
    runs = []

    def count(phase, info):
        runs.append(phase)

    was = gc.isenabled()
    gc.disable()
    gc.callbacks.append(count)
    try:
        enumerate_ball(make_S(1), 3)
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()
    assert runs == []
