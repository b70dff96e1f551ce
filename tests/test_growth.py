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
from wilson.wreath import (_SIG_INTERN, Element, clear_caches, decompose,
                           engine_stats, equals, is_identity, node_key, perm_element,
                           signature)

from partition_oracle import least_levels, pairwise_ball_sizes, word_partition
from test_wreath import letters_of, reference_decompose, truncated_bar

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
    lookup meets every member's hash: the searches, the free-monoid check and
    the depth rise come out the same."""
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
    """With sixteen hash values and a first table of sixteen buckets, the
    chains are long and the table doubles several times: the searches and
    the free-monoid check come out the same as with the full hash."""
    gensets = (make_tilde(), make_S(1))
    unpatched = [enumerate_ball(genset, 8) for genset in gensets]
    rechains = []
    rechain = Deduper._rechain

    def counted_rechain(self, buckets):
        rechains.append(buckets)
        rechain(self, buckets)

    monkeypatch.setattr(growth, "hash", lambda key: hash(key) & 15, raising=False)
    monkeypatch.setattr(growth, "FIRST_BUCKETS", 16)
    monkeypatch.setattr(Deduper, "_rechain", counted_rechain)
    for genset, ball in zip(gensets, unpatched):
        patched = enumerate_ball(genset, 8)
        assert patched.sizes == ball.sizes and patched.edges == ball.edges
    # 436 and 763 members: five doublings, then six
    assert rechains == [32, 64, 128, 256, 512] + [32, 64, 128, 256, 512, 1024]
    assert free_monoid_check(6)["all_ok"]


def test_deduper_arrays_after_a_search():
    """Each member's hash is its node form's key at the final depth, each
    member sits once in the chain of its bucket, and the table is at most
    twice the members (or the first size)."""
    ball = enumerate_ball(make_tilde(), 12)
    dedup, n = ball.index, ball.size
    assert len(dedup.elements) == len(dedup._hashes) == len(dedup._next) == n
    assert len(dedup._heads) <= max(1024, 2 * n)
    for i, form in enumerate(dedup._forms()):
        assert dedup._hashes[i] == hash(node_key(form, dedup.depth))
    mask = len(dedup._heads) - 1
    chained = chains(dedup)
    assert sorted(i for chain in chained.values() for i in chain) == list(range(n))
    assert all(dedup._hashes[i] & mask == bucket
               for bucket, chain in chained.items() for i in chain)


def test_ball_search_keys_each_candidate_once(monkeypatch):
    """``add`` reuses the key of the miss that ``find`` just made, so it
    computes a key only for the root, which no lookup precedes; the root's
    node form is the identity element's."""
    in_add, calls = [], []
    key, add = growth.node_key, Deduper.add

    def counted_key(e, depth):
        if in_add:
            calls.append(e)
        return key(e, depth)

    def counted_add(self, e):
        in_add.append(e)
        try:
            return add(self, e)
        finally:
            in_add.pop()

    monkeypatch.setattr(growth, "node_key", counted_key)
    monkeypatch.setattr(Deduper, "add", counted_add)
    ball = enumerate_ball(make_tilde(), 10)
    identity = decompose(Element())
    assert ball.size == 1309
    assert [(e.root, e.sections) for e in calls] == [(identity.root, identity.sections)]


def test_deduper_add_recognises_the_miss_by_its_whole_node_form():
    """A permutation letter changes only the root, so ``a * y`` shares the
    sections tuple of ``a``: ``add`` must not take it for the miss of ``a``
    and chain it under a's hash."""
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
    members, only a few section words: a member is its node form, parent
    and symbol, and a candidate is never built as a word (the search
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
    """The node form the search folds for each new member, read from the
    index as each radius is yielded (before any is released), is the
    whole-word walk's of the member built as an element."""
    for ball in balls(genset):
        r, members, index = ball.radius, ball.members, ball.index
        for i in range(ball.sizes[r - 1] if r else 0, ball.size):
            assert index.elements[i] is not None
            assert letters_of(index._form(i)) == letters_of(reference_decompose(members[i]))
        if r == 10:
            break


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
    """From empty caches: when the search yields radius r, the index holds
    the node form of every member of depth r and of no member of depth < r,
    since each is released once its own row is complete and no lookup reads
    it again.  A released form read after all is folded again from the
    nearest ancestor that holds one, the ancestors' on the way are kept,
    and each equals the whole-word walk's of the member built as an
    element.  The search from empty caches gives the same ball."""
    radius = 9
    clear_caches()
    for ball in balls(genset):
        r, forms = ball.radius, ball.index.elements
        inner = ball.sizes[r - 1] if r else 0
        assert all(f is None for f in forms[:inner])
        assert all(f is not None for f in forms[inner:])
        if r == radius:
            break
    index, members = ball.index, ball.members
    path = [inner - 1]  # a member of depth radius - 1, up to the root
    while path[-1]:
        path.append(index.parent[path[-1]])
    index._form(inner - 1)
    assert [i for i in range(inner) if forms[i] is not None] == sorted(path[:-1])
    for i in range(inner):
        assert letters_of(index._form(i)) == letters_of(reference_decompose(members[i]))
    sizes, edges = list(ball.sizes), ball.edges.tobytes()
    clear_caches()
    again = enumerate_ball(genset, radius)
    assert again.sizes == sizes and again.edges.tobytes() == edges


def test_ball_search_holds_few_node_forms():
    """At the end of an S:1 search, which raises the signature depth once,
    the index holds the node forms of the outer sphere, which are still to
    be expanded, and no other: ``Deduper._rebuild`` folds each released
    form from its parent's to key it, and keeps none of them.  The engine's
    own node forms are the sections', far fewer than the members (3,001 of
    47,230; 26,473 when members were elements)."""
    clear_caches()
    ball = enumerate_ball(make_S(1), 14)
    forms, inner = ball.index.elements, ball.sizes[-2]
    assert ball.index.depth == 4
    assert all(f is None for f in forms[:inner])
    assert all(f is not None for f in forms[inner:])
    assert engine_stats()["decompose_cache"] < ball.size // 10


def live_forms():
    return sum(type(o) is growth._Form for o in gc.get_objects())


def test_ball_index_holds_a_root_id_and_sections_per_member():
    """A member holds a root id in an ``array('H')`` and its bare sections
    tuple until its row is complete, then None: the index keeps no node-form
    object per member, only its root member's, and the search's one probe
    goes with the search."""
    gc.collect()
    before = live_forms()
    ball = enumerate_ball(make_tilde(), 10)
    index = ball.index
    assert all(secs is None or (type(secs) is tuple and len(secs) == 7)
               for secs in index.elements)
    assert type(index.roots) is array and index.roots.typecode == "H"
    assert len(index.roots) == len(index.elements) == ball.size
    assert all(index._form(i).root is index.perms[index.roots[i]]
               for i in range(0, ball.size, 97))
    gc.collect()
    assert live_forms() - before < 4


def test_ball_index_streams_its_rebuild(monkeypatch):
    """From signature depth 1 the S:2 search raises the depth while most
    sections are released.  ``_forms`` yields each member's node form, the
    whole-word walk's of the member built as an element, and holds the
    forms of about one sphere while it walks: a parent's only until the
    walk passes its last child.  So the live forms stay below the largest
    sphere, 552 members; a walk that kept every parent's form would hold
    757, one per member of depth < 10."""
    monkeypatch.setattr(growth, "START_SIG_DEPTH", 1)
    ball = enumerate_ball(make_S(2), 10)
    index, members = ball.index, ball.members
    assert index.depth > 1
    spheres = sorted(b - a for a, b in zip(ball.sizes, ball.sizes[1:]))
    gc.collect()
    before, peak = live_forms(), 0
    for i, form in enumerate(index._forms()):
        assert letters_of(form) == letters_of(reference_decompose(members[i]))
        if i % 32 == 0:
            peak = max(peak, live_forms() - before)
    assert 0 < peak < spheres[-1]


def test_deduper_add_hashes_a_refilled_probe_afresh():
    """A probe whose root and sections are replaced after a miss is not the
    miss any more: ``add`` chains it under the hash of its own node key."""
    a, b = (decompose(e) for e in make_S(1).elements()[:2])
    probe = growth._Form()
    probe.root, probe.sections = a.root, a.sections
    dedup = Deduper()
    assert dedup.find(probe) is None
    probe.root, probe.sections = b.root, b.sections
    assert dedup.add(probe) == 0
    assert list(dedup._hashes) == [hash(node_key(b, dedup.depth))]
    assert dedup.find(b) == 0 and dedup.find(a) is None


@pytest.mark.parametrize("genset, depth", [(make_tilde(), 2), (make_S(1), 3), (make_S(2), 2)],
                         ids=["tilde", "S:1", "S:2"])
def test_ball_search_rekeys_released_forms(genset, depth, monkeypatch):
    """From signature depth 1 the searches raise the depth while most node
    forms are released, so ``_rebuild`` keys each released member by a form
    folded from its parent's: the sizes and edges are the unpatched ones."""
    ball = enumerate_ball(genset, 8)
    monkeypatch.setattr(growth, "START_SIG_DEPTH", 1)
    patched = enumerate_ball(genset, 8)
    assert patched.index.depth == depth
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
    """The ball holds the search's index, its node forms and arrays, and
    the engine keeps almost nothing for it: in a fresh interpreter with the
    collector off, dropping the tilde R=14 ball frees more than nine tenths
    of what the search left allocated (about 4% stays; 82% stayed when each
    member was an interned element).  An R=12 search runs first, under
    tracing too, so that the atoms' root tables and the interpreter's store
    of freed tuples for reuse are already full when the count starts."""
    src = str(Path(wilson.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", FREED],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    held, kept = map(int, proc.stdout.split())
    assert kept < held / 10


@pytest.mark.parametrize("genset", [make_tilde(), make_S(1), make_S(2), PERMS, ROTS],
                         ids=["tilde", "S:1", "S:2", "xyz", "uv"])
def test_ball_search_finds_no_member_whose_row_is_complete(genset, monkeypatch):
    """A hit ``m * s = t`` fills in t's entry for ``s^-1`` too, so every edge
    out of a member whose row is complete is known from both ends, and no
    later lookup returns that member: each member a hit returns still has
    an unknown entry in its row.  The spy goes in after the first radius is
    yielded, so it sees the lookups only because the search calls ``find``
    through its index each time."""
    k = len(search_symbols(genset))
    search = balls(genset)
    ball = next(search)
    find, hits = Deduper.find, []

    def spied(self, e):
        target = find(self, e)
        if target is not None:
            hits.append(target)
            assert -1 in ball.edges[target * k:(target + 1) * k]
        return target

    monkeypatch.setattr(Deduper, "find", spied)
    for ball in search:
        if ball.radius == 9:
            break
    assert hits


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
