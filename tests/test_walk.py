"""Self-tests of the decision-tree walker in ``conftest.py``."""

from fractions import Fraction

import pytest

from conftest import law, mass, walk
from fastdice import fdr_uniform


def test_walk_finds_the_tree_of_a_draw():
    # n = 3 reads 2 flips and rejects 11, which recycles to a range of 1
    # and reads 2 more; 1111 is rejected again and is open at depth 4.
    leaves, open_ = walk(lambda s: fdr_uniform(s, 3).value, 4)
    assert leaves == {(0, 0): 0, (0, 1): 1, (1, 0): 2,
                      (1, 1, 0, 0): 0, (1, 1, 0, 1): 1, (1, 1, 1, 0): 2}
    assert open_ == [(1, 1, 1, 1)]
    assert law(leaves) == dict.fromkeys(range(3), Fraction(5, 16))
    assert mass(open_) == Fraction(1, 16)
    assert walk(lambda s: "no flips", 4) == ({(): "no flips"}, [])
    assert mass([]) == 0


def reads_past_its_decision(source):
    value = source.next_bit()
    source.next_bit()
    return value


class LeavesAFlipUnread:
    """Reads a flip on its first call only, so the walk's replay of a
    longer prefix returns with that flip unread."""

    def __init__(self):
        self.calls = 0

    def __call__(self, source):
        self.calls += 1
        return source.next_bit() if self.calls == 1 else 0


@pytest.mark.parametrize("draw, message", [
    (reads_past_its_decision, r"returned 0 on both flips after \(0,\)"),
    (LeavesAFlipUnread(), r"returned at \(0,\) with 1 flips unread"),
], ids=["reads_past_its_decision", "leaves_a_flip_unread"])
def test_walk_fails_on_a_draw_that_does_not_stop_at_its_decision(draw,
                                                                 message):
    # The checks are asserts in conftest.py, which pytest rewrites, so
    # they fire under python -O as well.
    with pytest.raises(AssertionError, match=message):
        walk(draw, 4)
