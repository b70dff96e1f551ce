import math

import pytest
from hypothesis import given, strategies as st

from wilson.words import (
    DELTA,
    contains_delta,
    count_delta_free,
    count_delta_occurrences,
    finite_bound_F_less,
    reduced_words,
    verify_lemma30,
)

from words_oracle import count_delta_free_naive


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


def test_lemma30():
    report = verify_lemma30(40)
    assert report["all_at_most_30"]
    assert report["max_count"] <= 30
    assert report["plateau"] == 24
    assert report["counts"][:10] == [1, 3, 6, 9, 12, 15, 18, 21, 24, 24]


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


def test_csv_rows():
    rows = list(enumerate(verify_lemma30(5)["counts"]))
    assert rows[0] == (0, 1)
    assert rows[-1] == (5, 15)


@given(random_reduced())
def test_occurrences_zero_iff_free(w):
    assert (count_delta_occurrences(w) == 0) == (not contains_delta(w))
