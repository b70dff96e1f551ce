import math

import pytest
from hypothesis import given, strategies as st

from wilson.catalog import GeneratingSet, make_S
from wilson.growth import enumerate_ball
from wilson.words import (
    ALPHABET,
    DELTA,
    contains_delta,
    count_delta_free,
    count_delta_occurrences,
    finite_bound_F_less,
    geodesic_delta_stats,
    pattern_automaton,
    reduced_words,
    verify_lemma30,
)

from words_oracle import count_delta_free_naive, count_delta_free_window


def count_reduced(n: int) -> int:
    """Reduced words of length n: 3 choices first, then 2 at each step."""
    return 1 if n == 0 else 3 * 2 ** (n - 1)


def random_reduced(draw_len=10):
    return st.lists(st.sampled_from("abc"), max_size=draw_len).map(
        lambda ls: "".join(c for i, c in enumerate(ls) if i == 0 or c != ls[i - 1])
    )


def test_patterns_are_reduced():
    for p in DELTA:
        assert all(p[i] != p[i + 1] for i in range(len(p) - 1))
    assert sorted(len(p) for p in DELTA) == [3, 3, 3, 9, 9, 9]


def test_reduced_words_counts():
    for n in range(7):
        ws = list(reduced_words(n))
        assert len(ws) == count_reduced(n)
        assert ws == sorted(ws)
        assert len(set(ws)) == len(ws)
        for w in ws:
            assert all(w[i] != w[i + 1] for i in range(len(w) - 1))


def test_contains_delta():
    assert contains_delta("aba")
    assert contains_delta("xxacbacabcaxx".replace("x", "c")) or contains_delta(
        "acbacabca"
    )
    assert not contains_delta("abc")
    assert not contains_delta("")


def test_occurrence_counts():
    assert count_delta_occurrences("") == 0
    assert count_delta_occurrences("aba") == 1
    assert count_delta_occurrences("ababa") == 2  # overlapping aba at 0 and 2
    assert count_delta_occurrences("abacac") == 2
    assert count_delta_occurrences("acbacabca") == 1


def test_delta_free_small_counts():
    assert [count_delta_free(n) for n in range(4)] == [1, 3, 6, 9]
    assert count_delta_free_naive(3) == 9


def test_counters_agree():
    for n in range(13):
        assert count_delta_free(n) == count_delta_free_naive(n)


def test_window_walk_agrees():
    for n in range(121):
        assert count_delta_free(n) == count_delta_free_window(n)


def successors(step):
    return [{t for t in row if t >= 0} for row in step]


def reachable(succ, s):
    seen, todo = set(), [s]
    while todo:
        for v in succ[todo.pop()] - seen:
            seen.add(v)
            todo.append(v)
    return seen


def test_automaton_states():
    states, step = pattern_automaton()
    assert len(states) == 28
    assert states[0] == ""
    assert set(states) == {p[:k] for p in DELTA for k in range(len(p))}
    for w, row in zip(states, step):
        for ch, t in zip(ALPHABET, row):
            if w.endswith(ch) or any((w + ch).endswith(p) for p in DELTA):
                assert t == -1
            else:
                # the longest suffix of w + ch that is a proper pattern prefix
                assert (w + ch).endswith(states[t]) and states[t]
                assert not any((w + ch)[k:] in states
                               for k in range(len(w) + 1 - len(states[t])))


def test_automaton_live_part_is_disjoint_simple_cycles():
    # groundwork for a certificate of Lemma 30 for every n: the live states
    # (those on an infinite pattern-free reduced word) lead into cycles that
    # never branch and never reach one another
    _, step = pattern_automaton()
    succ = successors(step)
    reach = [reachable(succ, s) for s in range(len(step))]
    assert reach[0] | {0} == set(range(len(step)))
    cyclic = {s for s in range(len(step)) if s in reach[s]}
    live = {s for s in range(len(step)) if s in cyclic or reach[s] & cyclic}
    trimmed = [succ[s] & live for s in range(len(step))]
    components = {frozenset(t for t in reach[s] if s in reach[t]) for s in cyclic}
    for comp in components:
        assert all(len(trimmed[s] & comp) == 1 for s in comp)  # a simple cycle
        assert all(reach[s] & cyclic <= comp for s in comp)  # reaches no other
    assert len(live) == 19
    assert sorted(len(comp) for comp in components) == [3, 3]


def test_lemma30():
    report = verify_lemma30(40)
    assert report["all_at_most_30"]
    assert report["max_count"] <= 30
    assert report["plateau"] == 24
    assert report["counts"][:10] == [1, 3, 6, 9, 12, 15, 18, 21, 24, 24]


def test_lemma30_far_out():
    # linear total work: a walk that restarted for each n would take seconds
    report = verify_lemma30(5000)
    assert report["plateau"] == 24
    assert report["all_at_most_30"]


def test_finite_bound_example():
    # k=2, 30^2 * C(10,2) * 2 = 2 * 900 * 45 = 81000
    assert finite_bound_F_less(10, 0.2) == pytest.approx(81000.0, rel=1e-12)
    with pytest.raises(ValueError):
        finite_bound_F_less(10, 0.0)
    with pytest.raises(ValueError):
        finite_bound_F_less(0, 0.5)


def test_finite_bound_matches_direct_formula():
    for n in (5, 17, 40):
        for eta in (0.05, 0.1, 0.3, 0.9):
            k = min(n, math.ceil(eta * n))
            direct = k * 30.0**k * math.comb(n, k)
            assert finite_bound_F_less(n, eta) == pytest.approx(direct, rel=1e-9)


def test_geodesic_stats_need_three_involutive_symbols():
    # the search adds an inverse symbol for each non-involution, and the
    # geodesics are transcribed onto a, b, c by symbol index
    x, y, z = make_S(1).elements()
    products = GeneratingSet("products", (("xy", x * y), ("yz", y * z), ("zx", z * x)))
    mixed = GeneratingSet("mixed", (("x", x), ("xy", x * y)))
    for genset in (products, mixed):
        with pytest.raises(ValueError, match="3-symbol involutive"):
            geodesic_delta_stats(enumerate_ball(genset, 2), 0.5)
    rows = geodesic_delta_stats(enumerate_ball(make_S(1), 4), 0.5)
    assert [row["n"] for row in rows] == [1, 2, 3, 4]


def test_csv_rows():
    rows = list(enumerate(verify_lemma30(5)["counts"]))
    assert rows[0] == (0, 1)
    assert rows[-1] == (5, 15)


@given(random_reduced())
def test_occurrences_zero_iff_free(w):
    assert (count_delta_occurrences(w) == 0) == (not contains_delta(w))
