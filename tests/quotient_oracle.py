"""Balls of the finite quotients, the independent oracle against merges.

The quotient G_d of a generating set is the group it induces on the 7^d
strings of length d.  Each generator's action on those strings is computed
here from the atoms' ``root`` and ``nontrivial`` tables alone, with no
``decompose``, ``act``, equality test or ``Deduper``, and its ball is a plain
breadth-first search over tuples of point images.  A quotient can only merge
elements, so its ball is never larger than the true one at any radius, and
equal wherever G_d tells the ball's members apart.  So a ball search that
merged two distinct elements would fall below it there; the pairwise
partition oracle guards only against the opposite failure.

Strings are numbered in base 7, first letter most significant, so the string
``x_1 x_2 ... x_d`` (points 1..7) is ``sum((x_i - 1) * 7^(d - i))``.  An
action is the tuple of the images of the numbers 0..7^d - 1.
"""

from wilson.fano import DEGREE, Perm


def letter_action(letter, d: int, memo: dict) -> tuple[int, ...]:
    """The action of one letter (a ``Perm`` or an ``Atom``) on the strings of
    length d.  A permutation moves the first point only; the atom
    ``<g_1,...,g_7> a`` sends ``x w`` to ``x.a`` followed by ``g_x`` acting on
    ``w``."""
    action = memo.get((letter, d))
    if action is not None:
        return action
    block = DEGREE ** (d - 1)
    if letter.__class__ is Perm:
        root, sections = letter, {}
    else:
        root = letter.root
        sections = {q: word_action(s, d - 1, memo) for q, s in letter.nontrivial}
    images = []
    for x in range(DEGREE):
        start = (root.images[x] - 1) * block
        section = sections.get(x)
        if section is None:
            images.extend(range(start, start + block))
        else:
            images.extend(start + image for image in section)
    action = memo[(letter, d)] = tuple(images)
    return action


def word_action(element, d: int, memo: dict) -> tuple[int, ...]:
    """The action of an element's word on the strings of length d: its letters
    act one after the other, left to right."""
    action = tuple(range(DEGREE ** d))
    if d == 0:
        return action
    for letter in element.letters:
        action = tuple(map(letter_action(letter, d, memo).__getitem__, action))
    return action


def quotient_ball_sizes(genset, d: int, radius: int) -> list[int]:
    """Ball sizes of G_d for radius 0..radius, over the generators and their
    inverses."""
    memo: dict = {}
    gens = {word_action(e, d, memo) for e in genset.elements()}
    for g in list(gens):
        inverse = [0] * len(g)
        for i, image in enumerate(g):
            inverse[image] = i
        gens.add(tuple(inverse))
    identity = tuple(range(DEGREE ** d))
    seen = {identity}
    sphere = [identity]
    sizes = [1]
    for _ in range(radius):
        new = []
        for m in sphere:
            for g in gens:
                product = tuple(map(g.__getitem__, m))
                if product not in seen:
                    seen.add(product)
                    new.append(product)
        sphere = new
        sizes.append(len(seen))
    return sizes
