import itertools

import pytest

from wilson.catalog import make_S, make_tilde
from wilson.growth import ball_sizes
from wilson.wreath import act

from quotient_oracle import quotient_ball_sizes, word_action


@pytest.mark.parametrize("genset", [make_tilde(), make_S(1), make_S(2)],
                         ids=["tilde", "S:1", "S:2"])
def test_quotient_actions_are_the_generators_actions(genset):
    """The oracle's own tables, checked against ``act`` on every string of
    length <= 3."""
    for e in genset.elements():
        for d in (1, 2, 3):
            action = word_action(e, d, {})
            for i, string in enumerate(itertools.product("1234567", repeat=d)):
                image = act(e, "".join(string))
                assert action[i] == int("".join(str(int(ch) - 1) for ch in image), 7)


@pytest.mark.parametrize("genset, d, radius",
                         [(make_tilde(), 2, 16), (make_S(1), 3, 12), (make_S(2), 3, 12)],
                         ids=["tilde-d2", "S:1-d3", "S:2-d3"])
def test_quotient_balls_equal_the_ball_search(genset, d, radius):
    """G_d tells apart every member of these balls, so a ball search that
    merged two distinct elements would fall below it at some radius.  Each
    radius is the one to which a benchmark workload searches that set."""
    assert quotient_ball_sizes(genset, d, radius) == ball_sizes(genset, radius)


def test_quotient_only_merges():
    """S:1's quotient on the 49 strings of length 2 first falls below the
    true ball at radius 4, and never exceeds it."""
    exact = ball_sizes(make_S(1), 10)
    quotient = quotient_ball_sizes(make_S(1), 2, 10)
    assert all(q <= e for q, e in zip(quotient, exact))
    assert quotient[:4] == exact[:4] and quotient[4] < exact[4]
