"""Helpers shared by the test modules.

``walk`` enumerates a draw's decision tree on scripted flips, so a test
can state a sampler's law exactly: the mass of every result and of the
draws still undecided at a given depth.  ``mass``, ``law`` and
``mean_flips`` sum a walk's prefixes into exact Fractions, and
``returning_errors`` lets a walk record the draws that raise, such as
those a lowered flip cap cuts off, and ``in_place`` walks a draw on an
exact ``BufferedWordSource``.

The test doubles, each defined here once:

- ``deadline(seconds)`` raises ``Hang`` in a block that runs too long,
  so a test that would hang fails instead;
- ``NextBitOnly(bits)`` is a custom source that defines only the two
  required methods, so it reaches every ``RandomBitSource`` default;
- ``Words(*words)`` is a caller's word generator that cycles through
  ints, in [0, 2**32) or not;
- ``Index`` is an integer by ``__index__`` alone;
- ``state(source)`` is a buffered source's (bits consumed, words
  fetched);
- ``run_checkout(command)`` runs a command with ``PYTHONPATH`` set to
  this checkout's ``src``, so a subprocess tests this code and not an
  installed copy.

``oracle`` is the module ``benchmarks/oracle.py``, loaded here from its
file alone, so nothing else under ``benchmarks/`` becomes importable:
the benchmark's bit-at-a-time references, which import nothing from
``src/``.

pytest rewrites the asserts of a conftest, as it does a test module's, so
the walker's checks still fire under ``python -O``; in a plain helper
module they would be stripped.
"""

import contextlib
import importlib.util
import itertools
import os
import random
import signal
import subprocess
from fractions import Fraction
from pathlib import Path

from fastdice import (BufferedWordSource, FastdiceError, RandomBitSource,
                      Rational, ScriptExhausted, ScriptedBitSource,
                      ScriptedWords)

SRC = Path(__file__).resolve().parent.parent / "src"
_ORACLE = importlib.util.spec_from_file_location(
    "oracle", SRC.parent / "benchmarks" / "oracle.py")
oracle = importlib.util.module_from_spec(_ORACLE)
_ORACLE.loader.exec_module(oracle)


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


def in_place(draw, preload):
    """``draw`` made on an exact ``BufferedWordSource`` that serves the
    walk's script: up to ``preload`` flips of it already in the buffer,
    the rest as fills of one flip each, so a walk reaches reads from the
    buffer, refills, and a buffer that runs dry inside a read.

    It fills ``_buf``, ``_pos`` and ``_filled`` as the class's docstring
    lays them out.  A draw that returns must have read every preloaded
    flip, as the walk checks it has read the rest of the script.
    """
    def buffered(script):
        source = BufferedWordSource(ScriptedWords([]))
        source._pos = source._filled = k = min(preload, script.remaining)
        source._buf = script.next_bits(k)
        source._fill, source._width, source._mask = script.next_bit, 1, 1
        result = draw(source)
        assert source._pos == 0, (
            f"the draw returned with {source._pos} preloaded flips unread")
        return result
    return buffered


def mass(prefixes):
    """The total mass of the prefixes, 2**-len(p) each, exactly."""
    prefixes = list(prefixes)
    top = max(map(len, prefixes), default=0)
    return Fraction(sum(1 << top - len(p) for p in prefixes), 1 << top)


def mean_flips(prefixes):
    """The flips the prefixes read on average, len(p) * 2**-len(p) each,
    exactly.  Over a walk's leaves and open prefixes to depth D this is
    E[min(T, D)], T the flips a draw reads."""
    prefixes = list(prefixes)
    top = max(map(len, prefixes), default=0)
    return Fraction(sum(len(p) << top - len(p) for p in prefixes), 1 << top)


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


class Hang(Exception):
    """A block outlived its deadline."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``Hang`` in the block if it runs for more than ``seconds``
    (an int); put the previous SIGALRM handler back on the way out."""
    def expire(signum, frame):
        raise Hang(f"over {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class NextBitOnly(RandomBitSource):
    """A custom source that defines only the two required methods:
    ``next_bit``, serving ``bits``, so it inherits every default read,
    and ``bits_consumed``, the count of bits it has served."""

    def __init__(self, bits):
        self._bits = iter(bits)
        self.count = 0

    def next_bit(self):
        bit = next(self._bits)
        self.count += 1
        return bit

    def bits_consumed(self):
        return self.count


class Words:
    """A caller's word generator that cycles through fixed ints, in
    range or not."""

    def __init__(self, *words):
        self.next_word = itertools.cycle(words).__next__


class Index:
    """An integer by ``__index__`` alone: it neither compares nor
    subtracts."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"{type(self).__name__}({self.value})"


def state(source):
    return source.bits_consumed(), source.words_fetched


def run_checkout(command):
    """Run ``command`` with its output captured as bytes and
    ``PYTHONPATH`` set to this checkout's ``src``."""
    return subprocess.run(command, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
