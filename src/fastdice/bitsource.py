"""Random bit sources.

Samplers in this package consume randomness through the
``RandomBitSource`` interface: one bit at a time with ``next_bit``, or, as
fast paths over the same stream, k bits read as one integer with
``next_bits`` and the flips up to the first 1, counted, with
``next_geometric``.  The production source buffers the bits of 32-bit
words and serves them most significant first, so k bits cost exactly
ceil(k/32) words however they are read.  A scripted source replays a
fixed bit list for tests and worked traces.

``BufferedWordSource`` fills its buffer in one of two widths, chosen by
what it is built from.  From an int seed it owns a ``SplitMix64Words``
and takes four words at a time, as one 128-bit block from
``next_block``.  On a caller's generator it takes one word at a time
from ``next_word``, only when a bit of it is needed, so it never reads
such a generator ahead.  Both widths serve the same stream with the same
counts: the source keeps only the number of bits put into its buffer,
and derives from it the bits consumed and the words fetched, ceil(bits
served / 32), so the up to three words a block holds beyond the last
bit served are counted nowhere.  Every refill, whichever method needs
it, goes through the one fill loop in ``next_bits``, which masks each
fill to its width, counts it, and leaves the counters right when a fill
raises.

Every mask a read applies comes from one module table, ``_LOW_MASKS``,
whose entry i is 2**i - 1 for i = 0..128: a read in the buffer never
asks for more bits than the buffer holds, and it holds at most 128.  A
lookup costs less than the shift and subtraction that would build the
mask on every read, and every Bernoulli draw makes such a read.
"""

from __future__ import annotations

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
# Packing the four words (bits 32..63 of each lane) into one block: the
# words sit at 0, 128, 256 and 384.  Folding by 96 adds copies at 32,
# 160 and 288, each word in its own 32-bit slot; folding by 192 brings
# 256 and 288 down to 64 and 96.  Nothing else lands below 128, so the
# one mask, to 128 bits, leaves the words of 0, 32, 64 and 96.
_LANE_WORDS = sum(0xFFFFFFFF << 128 * i for i in range(_LANES))
_MASK128 = (1 << 128) - 1

# _LOW_MASKS[i] is 2**i - 1, the mask of a buffer's low i bits (see the
# module docstring).
_LOW_MASKS = tuple((1 << i) - 1 for i in range(129))


class SplitMix64Words:
    """Deterministic 32-bit word generator seeded by a 64-bit integer.

    SplitMix64 core: a Weyl sequence fed through two xor-multiply mixing
    rounds.  Each 64-bit output is split here to its top 32 bits, which is
    the better-mixed half.  Any seeded generator of uniform 32-bit words
    could be swapped in; this one is tiny and has no global state.

    ``next_block`` computes the next four outputs side by side, at about
    the cost of two computed one at a time, and returns their words as
    one 128-bit integer, the first word most significant.  ``next_word``
    serves one word at a time from a block it holds.  The two read one
    stream and may be mixed: a block returned after a word read begins
    with the words its held block has left.  The state is plain ints,
    so ``copy``, ``deepcopy`` and ``pickle`` give independent generators.
    """

    def __init__(self, seed: int = 0):
        state = seed & _MASK64
        # Lane i: the Weyl state 4 - i steps on, word 3 - i of the next
        # block, so the fold leaves word 0 most significant.
        self._lanes = sum(
            ((state + (_LANES - i) * _GAMMA) & _MASK64) << 128 * i
            for i in range(_LANES))
        self._block = 0
        self._left = 0  # bits of the held block not yet served

    def next_block(self) -> int:
        z = self._lanes
        self._lanes = (z + _LANE_STEP) & _LANE_MASK
        z = ((z ^ (z >> 30) & _LANE_MASK) * 0xBF58476D1CE4E5B9) & _LANE_MASK
        z = ((z ^ (z >> 27) & _LANE_MASK) * 0x94D049BB133111EB) & _LANE_MASK
        # z >> 31 carries only into the lanes' high halves, which no word
        # reads, so the last round needs no mask.
        y = (z ^ (z >> 31)) >> 32 & _LANE_WORDS
        y |= y >> 96
        block = (y | y >> 192) & _MASK128
        left = self._left
        if left:  # next_word began the held block: its rest comes first
            block, self._block = (
                (self._block << 128 - left | block >> left) & _MASK128,
                block)
        return block

    def next_word(self) -> int:
        left = self._left
        if left:
            self._left = left = left - 32
            return self._block >> left & 0xFFFFFFFF
        self._block = block = self.next_block()
        self._left = 96
        return block >> 96


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
    """A stream of fair bits, with a meter that only goes up.

    A subclass defines ``next_bit`` and ``bits_consumed``; the flips of
    any stretch of draws are the difference of two readings.
    ``next_bits`` and ``next_geometric`` default to loops over
    ``next_bit``; a subclass may override them with faster reads.
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

    def next_geometric(self) -> int:
        """Read flips up to and including the first 1; return how many.

        The count is geometric(1/2): t with probability 2**-t.  Counts as
        t bits consumed, and a read that runs out of bits leaves the
        counters where the same ``next_bit`` calls would.
        """
        next_bit = self.next_bit
        t = 1
        while not next_bit():
            t += 1
        return t

    @abstractmethod
    def bits_consumed(self) -> int:
        """Total bits served since construction."""


class BufferedWordSource(RandomBitSource):
    """Bit source backed by a buffer of 32-bit words.

    Bits leave the buffer most significant first, and the buffer is
    refilled only when it is empty and another bit is needed.  Built from
    an int seed, the source owns a ``SplitMix64Words`` and fills 128 bits,
    four words, at a time from its ``next_block``.  Built on a caller's
    generator, it fills one word at a time from ``next_word``, so it never
    reads that generator ahead.  ``next_bit`` and ``next_geometric`` read
    within the buffer themselves and refill only by calling
    ``next_bits``, whose loop is the one place that fills: it reads each
    fill as its low 128 or 32 bits, so a generator word outside
    [0, 2**32) cannot push a draw out of range, counts the fill, and
    leaves the counters right when a fill raises.  Either way, k bits
    cost exactly ceil(k/32) words whichever method reads them.
    Masks are looked up in ``_LOW_MASKS`` (see the module docstring).
    The in-buffer path of ``next_bits`` takes only 0 <= k <= the bits
    left, because a negative index would read the table from its end:
    a negative k goes on to the fill path, which raises ``ValueError``
    before it stores anything.
    State is per instance: independent sources never share a buffer or
    counter, and a copy of a seeded source has its own generator.

    No read updates a counter beyond the buffer position: the source
    counts the bits put into the buffer, once per fill, and derives
    ``bits_consumed`` as those bits less the bits still unread.

    ``core._fdr`` and ``core._fdr_shuffle`` read an instance of exactly
    this class in place, and rely on this layout: the unread bits are
    the low ``_pos`` bits of ``_buf``, served most significant first,
    and only ``next_bits`` fills.  So k <= ``_pos`` bits are read by
    lowering ``_pos`` by k, and a reader that keeps the two in locals
    stores its position back before it calls a method.  A subclass is
    read as an empty buffer, through its own ``next_bits``: each read of
    either kernel is one call, and nothing is stored on it.

    Raises:
        TypeError: the argument is neither an int seed nor an object
            with a callable ``next_word``.
    """

    def __init__(self, seed_or_generator: int | WordGenerator = 0):
        if isinstance(seed_or_generator, int):
            self._fill = SplitMix64Words(seed_or_generator).next_block
            self._width = 128
        elif callable(getattr(seed_or_generator, "next_word", None)):
            self._fill = seed_or_generator.next_word
            self._width = 32
        else:
            raise TypeError(
                "need an int seed or a word generator with next_word(), "
                f"got {type(seed_or_generator).__name__}")
        self._mask = _LOW_MASKS[self._width]
        self._buf = 0
        self._pos = 0  # bits still unread in the buffer
        self._filled = 0  # bits put into the buffer

    def __copy__(self):
        from copy import copy  # here, so that importing fastdice skips it

        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        if self._width == 128:  # the source owns its generator
            twin._fill = copy(self._fill.__self__).next_block
        return twin

    def next_bit(self) -> int:
        pos = self._pos
        if pos:  # inline: a call into next_bits costs half as much again
            self._pos = pos = pos - 1
            return (self._buf >> pos) & 1
        return self.next_bits(1)

    def next_bits(self, k: int) -> int:
        pos = self._pos
        if 0 <= k <= pos:  # a negative k goes on to raise on the fill path
            mask = _LOW_MASKS[k]  # a non-integer k raises before any store
            self._pos = pos = pos - k
            return (self._buf >> pos) & mask
        # Drain the buffer, then fill until the last fill is only partly
        # needed; each fill is shifted to its place as it is read.  The
        # fill count moves fill by fill and the buffer reads empty
        # meanwhile, so a fill that raises leaves the counters where k
        # calls of next_bit would.
        k -= pos
        # A negative or non-integer k (-1, 40.0, NaN, inf) raises here,
        # before any store.
        x = (self._buf & _LOW_MASKS[pos]) << k
        self._pos = 0
        fill, mask, width = self._fill, self._mask, self._width
        while True:
            buf = fill() & mask
            self._filled += width
            if k <= width:
                break
            k -= width
            x |= buf << k
        pos = width - k
        self._buf = buf
        self._pos = pos
        return x | (buf >> pos)

    def next_geometric(self) -> int:
        pos = self._pos
        # The first unread 1 is bit (left - 1) of the buffer.
        left = (self._buf & _LOW_MASKS[pos]).bit_length()
        if left:
            self._pos = left - 1
            return pos - left + 1
        # A run of zeros to the end of the buffer: drop it, then read
        # whole fills until one holds a 1.  Each read leaves that fill in
        # the buffer, all of it read, so the bits after its first 1 are
        # handed back by moving the position.
        t = pos
        self._pos = 0
        width = self._width
        while not (buf := self.next_bits(width)):
            t += width
        left = buf.bit_length()
        self._pos = left - 1
        return t + width - left + 1

    def bits_consumed(self) -> int:
        return self._filled - self._pos

    @property
    def words_fetched(self) -> int:
        return (self._filled - self._pos + 31) // 32


class ScriptedBitSource(RandomBitSource):
    """Replays an explicit bit sequence; raises ScriptExhausted at the end.

    ``next_bits`` is the default loop over ``next_bit``, so a read that
    runs past the end consumes every bit left before it raises.  After
    ScriptExhausted, ``remaining`` is 0, ``bits_consumed`` has counted the
    whole rest of the script, and the message names the script's full
    length, whichever method read.  Like ``BufferedWordSource``, it keeps
    no bit counter: ``bits_consumed`` is the replay cursor.
    """

    def __init__(self, bits: Iterable[int]):
        self._bits = [b & 1 for b in bits]
        self._next = 0

    def next_bit(self) -> int:
        if self._next >= len(self._bits):
            raise ScriptExhausted(
                f"bit script exhausted after {self._next} bits")
        b = self._bits[self._next]
        self._next += 1
        return b

    def bits_consumed(self) -> int:
        return self._next

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._next
