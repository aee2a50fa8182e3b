"""Random bit sources.

Samplers in this package consume randomness through the
``RandomBitSource`` interface: one bit at a time with ``next_bit``, or, as
a fast path over the same stream, k bits read as one integer with
``next_bits``.  The production source buffers 32-bit words from an
injected word generator and serves their bits most significant first, so
k bits cost exactly ceil(k/32) words however they are read.  Its bit
counter is derived, not kept: the bits served are 32 per word fetched
less the bits still unread in the buffer, so a read updates no counter
beyond the buffer position (and the word count, once per fetched word).
A scripted source replays a fixed bit list for tests and worked traces.

The default word generator, ``SplitMix64Words``, computes four words per
refill, in 128-bit lanes of one integer.  The stream, ``words_fetched``
and ``bits_consumed`` are those of one word at a time: the buffered
source counts the words it is served, and the up to three words
computed ahead are counted nowhere.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from typing import Iterable, Protocol

from .errors import ScriptExhausted

_MASK64 = (1 << 64) - 1


class WordGenerator(Protocol):
    """Anything that yields uniform 32-bit words on demand."""

    def next_word(self) -> int: ...


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's Weyl increment

# Lane i of a refill is bits 128*i .. 128*i+127 of one integer, with its
# 64-bit value in the low half.  A 64x64-bit product fits in its lane,
# so masking every round with _LANE_MASK keeps the lanes apart.
_LANES = 4
_LANE_MASK = sum(_MASK64 << 128 * i for i in range(_LANES))
_LANE_STEP = sum(((_LANES * _GAMMA) & _MASK64) << 128 * i
                 for i in range(_LANES))
# The words are bits 32..63 of each lane: bytes 4-7 of its 16.
_LANE_WORDS = struct.Struct("<" + "4xI8x" * _LANES).unpack


class SplitMix64Words:
    """Deterministic 32-bit word generator seeded by a 64-bit integer.

    SplitMix64 core: a Weyl sequence fed through two xor-multiply mixing
    rounds.  Each 64-bit output is split here to its top 32 bits, which is
    the better-mixed half.  Any seeded generator of uniform 32-bit words
    could be swapped in; this one is tiny and has no global state.

    One refill computes the next four outputs side by side, at about the
    cost of two computed one at a time, and serves them from a tuple.
    The state is plain ints and that tuple, so ``copy``, ``deepcopy``
    and ``pickle`` give independent generators.
    """

    def __init__(self, seed: int = 0):
        state = seed & _MASK64
        # Lane i: the Weyl state i + 1 steps on, word i of the next refill.
        self._lanes = sum(((state + (i + 1) * _GAMMA) & _MASK64) << 128 * i
                          for i in range(_LANES))
        self._words: tuple[int, ...] = ()
        self._next = _LANES  # index of the next word to serve

    def next_word(self) -> int:
        i = self._next
        if i < _LANES:
            self._next = i + 1
            return self._words[i]
        z = self._lanes
        self._lanes = (z + _LANE_STEP) & _LANE_MASK
        z = ((z ^ (z >> 30) & _LANE_MASK) * 0xBF58476D1CE4E5B9) & _LANE_MASK
        z = ((z ^ (z >> 27) & _LANE_MASK) * 0x94D049BB133111EB) & _LANE_MASK
        # z >> 31 carries only into the lanes' high halves, which no word
        # reads, so the last round needs no mask.
        self._words = words = _LANE_WORDS(
            (z ^ (z >> 31)).to_bytes(16 * _LANES, "little"))
        self._next = 1
        return words[0]


class ScriptedWords:
    """Serves 32-bit words from a fixed list; raises when exhausted."""

    def __init__(self, words: Iterable[int]):
        self._words = list(words)
        self._next = 0

    def next_word(self) -> int:
        if self._next >= len(self._words):
            raise ScriptExhausted("word script exhausted")
        w = self._words[self._next]
        self._next += 1
        return w & 0xFFFFFFFF


class RandomBitSource(ABC):
    """A stream of fair bits, with an auditable consumption counter.

    ``next_bit`` is the only reading method a subclass must define.
    ``next_bits`` defaults to a loop over it; a subclass may override it
    with a faster read of the same stream.
    """

    @abstractmethod
    def next_bit(self) -> int:
        """Return the next bit, 0 or 1."""

    def next_bits(self, k: int) -> int:
        """Return the next k >= 0 bits as one integer, first bit most
        significant; counts as k bits consumed.

        k has no upper bound: a read of k bits takes ceil(k/32) words
        from a buffered source, however large k is.

        Raises:
            ValueError: k < 0, before any bit is read.
            TypeError: k is not an integer, before any bit is read.
        """
        next_bit = self.next_bit
        x = 0 << k  # a negative k raises here, as in BufferedWordSource
        for _ in range(k):
            x = (x << 1) | next_bit()
        return x

    @abstractmethod
    def bits_consumed(self) -> int:
        """Total bits served since construction or the last counter reset."""

    @abstractmethod
    def reset_bit_count(self) -> None:
        """Zero the consumption counter without touching the bit stream."""


class BufferedWordSource(RandomBitSource):
    """Bit source backed by buffered 32-bit words.

    Bits leave the buffer most significant first; a fresh word is fetched
    only when all 32 bits are spent and another bit is needed, so k bits
    cost exactly ceil(k/32) words whether they are read by ``next_bit``
    or ``next_bits``.  State is per instance: independent sources never
    share a buffer or counter.

    No read updates a bit counter: ``bits_consumed`` is derived as
    32 * words fetched - bits still unread in the buffer - the value
    that sum had at the last ``reset_bit_count``.

    Raises:
        TypeError: the argument is neither an int seed nor an object
            with a callable ``next_word``.
    """

    def __init__(self, seed_or_generator: int | WordGenerator = 0):
        if isinstance(seed_or_generator, int):
            self._gen: WordGenerator = SplitMix64Words(seed_or_generator)
        elif callable(getattr(seed_or_generator, "next_word", None)):
            self._gen = seed_or_generator
        else:
            raise TypeError(
                "need an int seed or a word generator with next_word(), "
                f"got {type(seed_or_generator).__name__}")
        self._word = 0
        self._pos = 0  # bits still unread in the buffered word
        self._words_fetched = 0
        self._base = 0  # 32 * words fetched - pos at the last reset

    def next_bit(self) -> int:
        pos = self._pos
        if pos == 0:
            self._word = self._gen.next_word()
            self._words_fetched += 1
            pos = 32
        pos -= 1
        self._pos = pos
        return (self._word >> pos) & 1

    def next_bits(self, k: int) -> int:
        pos = self._pos
        if k <= pos:
            mask = (1 << k) - 1  # a negative k raises here, before any store
            self._pos = pos = pos - k
            return (self._word >> pos) & mask
        # Drain the buffer, then take whole words until the last one is
        # only partly needed; each part is shifted to its place as it is
        # read.  The word count moves word by word and the buffer reads
        # empty meanwhile, so a fetch that raises leaves the counters
        # where k calls of next_bit would.
        k -= pos
        # A non-integer k (40.0, NaN, inf) raises here, before any store.
        x = (self._word & ((1 << pos) - 1)) << k
        self._pos = 0
        next_word = self._gen.next_word
        while True:
            word = next_word()
            self._words_fetched += 1
            if k <= 32:
                break
            k -= 32
            x |= word << k
        pos = 32 - k
        self._word = word
        self._pos = pos
        return x | (word >> pos)

    def bits_consumed(self) -> int:
        return 32 * self._words_fetched - self._pos - self._base

    def reset_bit_count(self) -> None:
        self._base = 32 * self._words_fetched - self._pos

    @property
    def words_fetched(self) -> int:
        return self._words_fetched


class ScriptedBitSource(RandomBitSource):
    """Replays an explicit bit sequence; raises ScriptExhausted at the end.

    ``next_bits`` is the default loop over ``next_bit``, so a read that
    runs past the end consumes every bit left before it raises.  After
    ScriptExhausted, ``remaining`` is 0, ``bits_consumed`` has counted the
    whole rest of the script, and the message names the script's full
    length, whichever method read.  Like ``BufferedWordSource``, it keeps
    no bit counter: ``bits_consumed`` is the replay cursor less its value
    at the last ``reset_bit_count``.
    """

    def __init__(self, bits: Iterable[int]):
        self._bits = [b & 1 for b in bits]
        self._next = 0
        self._base = 0  # the cursor at the last reset

    def next_bit(self) -> int:
        if self._next >= len(self._bits):
            raise ScriptExhausted(
                f"bit script exhausted after {self._next} bits")
        b = self._bits[self._next]
        self._next += 1
        return b

    def bits_consumed(self) -> int:
        return self._next - self._base

    def reset_bit_count(self) -> None:
        # Moves the base only; the replay cursor never rewinds.
        self._base = self._next

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._next
