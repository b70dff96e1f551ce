"""Naive pattern-free word count, the independent oracle for ``count_delta_free``."""

from wilson.words import contains_delta, reduced_words


def count_delta_free_naive(n: int) -> int:
    """Exact count of pattern-free reduced words by full enumeration."""
    return sum(1 for w in reduced_words(n) if not contains_delta(w))
