"""Independent oracles for ``count_delta_free``: a naive count by full
enumeration, and the suffix-window walk that counted before the pattern
automaton."""

from wilson.words import ALPHABET, DELTA, contains_delta, reduced_words

WINDOW = max(len(p) for p in DELTA) - 1  # suffix length that determines future matches


def count_delta_free_naive(n: int) -> int:
    """Exact count of pattern-free reduced words by full enumeration."""
    return sum(1 for w in reduced_words(n) if not contains_delta(w))


def count_delta_free_window(n: int) -> int:
    """Exact count of pattern-free reduced words by a walk whose state is the
    last min(len, 8) letters of the word; it starts again from length 1."""
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
                key = grown[-WINDOW:]
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return sum(states.values())
