"""Reduced words over a 3-letter involutive alphabet and the forbidden-pattern
counting that feeds the growth bound.

Letters are written a, b, c (standing for the three primed generators).  A
word is reduced iff no two consecutive letters agree.  The six forbidden
patterns have lengths 3, 3, 3, 9, 9, 9; reduced words avoiding all of them
number at most 30 for every length.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

ALPHABET = "abc"

DELTA = (
    "aba",
    "bcb",
    "cac",
    "acbacabca",
    "bacbabcab",
    "cbacbcabc",
)


def reduced_words(n: int) -> Iterator[str]:
    """All reduced words of length exactly n, in lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def extend(prefix: str):
        if len(prefix) == n:
            yield prefix
            return
        for ch in ALPHABET:
            if prefix and prefix[-1] == ch:
                continue
            yield from extend(prefix + ch)

    yield from extend("")


def contains_delta(w: str) -> bool:
    return any(p in w for p in DELTA)


def count_delta_occurrences(w: str) -> int:
    """Number of (pattern, start position) matches; overlaps all count."""
    total = 0
    for p in DELTA:
        start = 0
        while True:
            i = w.find(p, start)
            if i < 0:
                break
            total += 1
            start = i + 1
    return total


@functools.cache
def pattern_automaton() -> tuple[tuple[str, ...], tuple[tuple[int, int, int], ...]]:
    """The Aho-Corasick automaton of the forbidden words ``DELTA`` and the
    three squares ``aa``, ``bb``, ``cc``, as ``(states, step)``.

    A word avoids the squares exactly when it is reduced, so the automaton
    accepts the pattern-free reduced words.  The states are the proper
    prefixes of the forbidden words, numbered in sorted order, so state 0 is
    the empty word; the squares add no prefix, since every letter begins a
    pattern.  A pattern-free reduced word sits in the state of its longest
    suffix that is such a prefix, so a nonempty word's state ends in its last
    letter.  ``step[s][i]`` is the state after appending ``ALPHABET[i]``, or
    -1 when that letter completes a forbidden word.  Built on first call, so
    importing this module builds nothing.
    """
    forbidden = DELTA + tuple(ch + ch for ch in ALPHABET)
    states = tuple(sorted({p[:k] for p in forbidden for k in range(len(p))}))
    index = {w: i for i, w in enumerate(states)}

    def target(state: str, ch: str) -> int:
        grown = state + ch
        if any(grown.endswith(p) for p in forbidden):
            return -1
        return next(index[grown[k:]] for k in range(len(grown) + 1)
                    if grown[k:] in index)

    step = tuple(tuple(target(w, ch) for ch in ALPHABET) for w in states)
    return states, step


def _walk() -> Iterator[int]:
    """Counts of pattern-free reduced words for n = 0, 1, 2, ...: one
    transfer step over the automaton per length."""
    _, step = pattern_automaton()
    successors = [tuple(t for t in row if t >= 0) for row in step]
    words = [1] + [0] * (len(step) - 1)  # words of the current length, by state
    while True:
        yield sum(words)
        grown = [0] * len(step)
        for state, cnt in enumerate(words):
            if cnt:
                for t in successors[state]:
                    grown[t] += cnt
        words = grown


_COUNTS: list[int] = []  # _COUNTS[n] = count_delta_free(n), extended on demand
_LENGTHS = _walk()


def count_delta_free(n: int) -> int:
    """Exact count of pattern-free reduced words of length n.

    One walk over the pattern automaton serves every call: the counts by
    length are kept, so all calls for n <= N together take N steps.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_COUNTS) <= n:
        _COUNTS.append(next(_LENGTHS))
    return _COUNTS[n]


def verify_lemma30(max_n: int) -> dict:
    """Counts of pattern-free reduced words for n = 0..max_n, with verdicts."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    counts = [count_delta_free(n) for n in range(max_n + 1)]
    tail = counts[20 : max_n + 1]
    plateau = tail[0] if tail and all(c == tail[0] for c in tail) else None
    return {
        "max_n": max_n,
        "counts": counts,
        "max_count": max(counts),
        "all_at_most_30": max(counts) <= 30,
        "plateau": plateau,
    }


def finite_bound_F_less(n: int, eta: float) -> float:
    """The finite-n count bound k * 30^k * C(n, k) with k = ceil(eta * n),
    evaluated in log space."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    k = math.ceil(eta * n)
    log_binom = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )
    return math.exp(math.log(k) + k * math.log(30.0) + log_binom)


def geodesic_delta_stats(ball, eta: float) -> list[dict]:
    """Per exact word length: geodesics split by pattern-occurrence count
    relative to the real threshold eta * n, with the count bound attached.

    ``ball`` must come from a 3-symbol involutive generating set; geodesic
    words are transcribed positionally onto the letters a, b, c.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if len(ball.symbol_names) != 3 or len(ball.genset) != 3:
        raise ValueError("stats need a 3-symbol involutive generating set")
    counts_by_length: dict[int, list[int]] = {}
    for word in ball.geodesics():
        if not word:
            continue
        counts_by_length.setdefault(len(word), []).append(
            count_delta_occurrences("".join(ALPHABET[i] for i in word))
        )
    rows = []
    for n in sorted(counts_by_length):
        counts = counts_by_length[n]
        threshold = eta * n
        below = sum(1 for c in counts if c <= threshold)
        at_least = sum(1 for c in counts if c >= threshold)
        bound = finite_bound_F_less(n, eta) if eta < 1.0 else float("inf")
        rows.append(
            {
                "n": n,
                "geodesics": len(counts),
                "count_below": below,
                "count_at_least": at_least,
                "bound": bound,
                "within_bound": below <= bound,
            }
        )
    return rows
