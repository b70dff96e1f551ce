"""Reduced words over a 3-letter involutive alphabet and the forbidden-pattern
counting that feeds the growth bound.

Letters are written a, b, c (standing for the three primed generators).  A
word is reduced iff no two consecutive letters agree.  The six forbidden
patterns have lengths 3, 3, 3, 9, 9, 9; reduced words avoiding all of them
number at most 30 for every length.
"""

from __future__ import annotations

import math
from typing import Iterator

ALPHABET = "abc"

DELTA = (
    "aba",
    "bcb",
    "cac",
    "acbacabca",
    "bacbabcab",
    "cbacbcabc",
)

_MAX_PATTERN = max(len(p) for p in DELTA)
_WINDOW = _MAX_PATTERN - 1  # suffix length that determines future matches


def reduced_words(n: int) -> Iterator[str]:
    """All reduced words of length exactly n, in lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ""
        return

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


def count_delta_free(n: int) -> int:
    """Exact count of pattern-free reduced words via a suffix-window walk.

    State = last min(len, 8) letters of a pattern-free reduced word; linear
    memory in the number of reachable states, linear time in n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    states: dict[str, int] = {ch: 1 for ch in ALPHABET}
    for _ in range(n - 1):
        nxt: dict[str, int] = {}
        for suffix, cnt in states.items():
            for ch in ALPHABET:
                if suffix[-1] == ch:
                    continue
                grown = suffix + ch
                if any(p in grown for p in DELTA if len(p) <= len(grown)):
                    continue
                key = grown[-_WINDOW:]
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return sum(states.values())


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
    k = min(n, math.ceil(eta * n))
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
    if len(ball.genset) != 3:
        raise ValueError("stats need a 3-symbol generating set")
    by_length: dict[int, list[str]] = {}
    for word in ball.geodesics():
        if not word:
            continue
        by_length.setdefault(len(word), []).append(
            "".join(ALPHABET[i] for i in word)
        )
    rows = []
    for n in sorted(by_length):
        words = by_length[n]
        threshold = eta * n
        below = sum(1 for w in words if count_delta_occurrences(w) <= threshold)
        at_least = sum(1 for w in words if count_delta_occurrences(w) >= threshold)
        bound = finite_bound_F_less(n, eta) if eta < 1.0 else float("inf")
        rows.append(
            {
                "n": n,
                "geodesics": len(words),
                "count_below": below,
                "count_at_least": at_least,
                "bound": bound,
                "within_bound": below <= bound,
            }
        )
    return rows
