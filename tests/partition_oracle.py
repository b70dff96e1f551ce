"""Naive labelled-ball partition, the independent oracle for local isomorphism.

Every reduced word of length <= radius over a 3-symbol involutive generating
set is classed by pairwise exact equality against one representative of each
class found so far.  Words come in (length, lexicographic) order and class ids
are discovery ordinals, so two triples have isomorphic labelled balls of that
radius exactly when their class lists agree, and the list for a smaller
radius is a prefix of this one.  Nothing here touches the ball search or its
``Deduper``.
"""

from wilson.catalog import make_S, make_tilde
from wilson.words import ALPHABET, reduced_words
from wilson.wreath import Element, equals


def word_partition(genset, radius: int) -> list[int]:
    """Class id of each reduced word of length <= radius, in (length, lex) order."""
    letter = dict(zip(ALPHABET, genset.elements()))
    reps: list[Element] = []
    classes = []
    for length in range(radius + 1):
        for word in reduced_words(length):
            e = Element()
            for ch in word:
                e = e * letter[ch]
            cid = next((i for i, r in enumerate(reps) if equals(e, r)), None)
            if cid is None:
                cid = len(reps)
                reps.append(e)
            classes.append(cid)
    return classes


def pairwise_ball_sizes(genset, radius: int) -> list[int]:
    """Ball sizes for radius 0..radius: the classes among reduced words of
    length <= r (there are 3 * 2^r - 2 of them) are the elements of the ball."""
    classes = word_partition(genset, radius)
    return [max(classes[:3 * 2**r - 2]) + 1 for r in range(radius + 1)]


def least_levels(max_radius: int, max_n: int) -> list[int | None]:
    """For each radius 1..max_radius, the least n <= max_n whose level-n triple
    has the same labelled ball as the self-similar triple, or None."""
    target = word_partition(make_tilde(), max_radius)
    levels: dict[int, list[int]] = {}
    out = []
    for radius in range(1, max_radius + 1):
        words = 3 * 2**radius - 2  # reduced words of length <= radius
        for n in range(1, max_n + 1):
            if n not in levels:
                levels[n] = word_partition(make_S(n), max_radius)
            if levels[n][:words] == target[:words]:
                out.append(n)
                break
        else:
            out.append(None)
    return out
