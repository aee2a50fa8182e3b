"""Helpers shared by the test modules.

``walk`` enumerates a draw's decision tree on scripted flips, so a test
can state a sampler's law exactly: the mass of every result and of the
draws still undecided at a given depth.  ``mass`` and ``law`` sum a walk's
prefixes into exact Fractions, and ``returning_errors`` lets a walk record
the draws that raise, such as those a lowered flip cap cuts off.

pytest rewrites the asserts of a conftest, as it does a test module's, so
the walker's checks still fire under ``python -O``; in a plain helper
module they would be stripped.
"""

import random
from fractions import Fraction

from fastdice import (FastdiceError, Rational, ScriptExhausted,
                      ScriptedBitSource)


def walk(draw, depth):
    """Walk the decision tree of ``draw(source)`` down to ``depth`` flips.

    Each unresolved prefix is replayed on a ``ScriptedBitSource``.  If the
    script runs out, the prefix is extended by 0 and by 1, unless it
    already holds ``depth`` flips, in which case it stays open.  A prefix
    on which the draw returns is a leaf of mass 2**-len(prefix).

    A draw must decide on its last flip, so at every leaf it must have
    read the whole prefix, and two sibling leaves must not hold equal
    results: the draw would then have known its result a flip earlier.

    Returns (leaves, open): a dict from each leaf, a tuple of flips, to
    the draw's result there, and the list of open prefixes, both in
    lexicographic order.  Leaves and open prefixes together partition
    the scripts of ``depth`` flips, so their masses sum to 1.  The walk
    costs about two replays per node of the tree, not 2**depth.
    """
    leaves, open_ = {}, []
    todo = [()]
    while todo:
        prefix = todo.pop()
        source = ScriptedBitSource(prefix)
        try:
            result = draw(source)
        except ScriptExhausted:
            if len(prefix) < depth:
                todo += prefix + (1,), prefix + (0,)
            else:
                open_.append(prefix)
            continue
        assert source.remaining == 0, (
            f"the draw returned at {prefix} with {source.remaining} "
            "flips unread")
        twin = prefix[:-1] + (0,)
        if prefix[-1:] == (1,) and twin in leaves:
            assert leaves[twin] != result, (
                f"the draw returned {result!r} on both flips after "
                f"{prefix[:-1]}: it read past its decision")
        leaves[prefix] = result
    return leaves, open_


def returning_errors(draw):
    """``draw`` with a ``FastdiceError`` it raises returned as its result,
    so that a walk records it at a leaf.  ``ScriptExhausted``, also a
    ``FastdiceError``, still propagates: the walk extends on it."""
    def caught(source):
        try:
            return draw(source)
        except ScriptExhausted:
            raise
        except FastdiceError as exc:
            return exc
    return caught


def mass(prefixes):
    """The total mass of the prefixes, 2**-len(p) each, exactly."""
    prefixes = list(prefixes)
    top = max(map(len, prefixes), default=0)
    return Fraction(sum(1 << top - len(p) for p in prefixes), 1 << top)


def law(leaves):
    """The mass of each result in a walk's leaves."""
    prefixes = {}
    for prefix, result in leaves.items():
        prefixes.setdefault(result, []).append(prefix)
    return {result: mass(group) for result, group in prefixes.items()}


def bernoulli_biases():
    """Degenerate, small-denominator and 62-bit-denominator biases."""
    rng = random.Random(5)
    top = 1 << 62
    out = [Rational(0, 1), Rational(0, 7), Rational(1, 1), Rational(9, 9),
           Rational(1, 2), Rational(1, 3), Rational(2, 5), Rational(5, 7),
           Rational(3, 8), Rational(999, 1000), Rational(top // 3, top),
           Rational(1, top - 1), Rational(top - 2, top - 1)]
    for _ in range(6):
        den = rng.randint(top - (1 << 20), top)
        out.append(Rational(rng.randint(0, den), den))
    return out
