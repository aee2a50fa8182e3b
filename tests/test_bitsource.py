import copy
import pickle
import random
from itertools import repeat
from operator import methodcaller

import pytest

from fastdice import (BufferedWordSource, RandomBitSource, ScriptExhausted,
                      ScriptedBitSource, ScriptedWords, SplitMix64Words,
                      fdr_uniform)

from conftest import NextBitOnly, Words, oracle, state


def test_scripted_identity():
    src = ScriptedBitSource([1, 0, 1])
    assert [src.next_bit() for _ in range(3)] == [1, 0, 1]
    assert src.bits_consumed() == 3


def test_scripted_exhaustion():
    src = ScriptedBitSource([1, 0])
    src.next_bit()
    src.next_bit()
    with pytest.raises(ScriptExhausted):
        src.next_bit()


def test_msb_first_extraction():
    # A single word with only the top bit set: first bit 1, then 31 zeros.
    src = BufferedWordSource(ScriptedWords([0x80000000]))
    assert src.next_bit() == 1
    assert [src.next_bit() for _ in range(31)] == [0] * 31


def test_bit_order_reconstructs_word():
    word = 0xDEADBEEF
    src = BufferedWordSource(ScriptedWords([word]))
    value = 0
    for _ in range(32):
        value = (value << 1) | src.next_bit()
    assert value == word


@pytest.mark.parametrize("k", [1, 31, 32, 33, 64, 65, 200])
def test_word_economy(k):
    # k bits must cost exactly ceil(k/32) words.
    src = BufferedWordSource(seed_or_generator=9)
    for _ in range(k):
        src.next_bit()
    assert src.bits_consumed() == k
    assert src.words_fetched == -(-k // 32)


def test_thirty_three_calls_fetch_two_words():
    src = BufferedWordSource(0)
    for _ in range(33):
        src.next_bit()
    assert src.bits_consumed() == 33
    assert src.words_fetched == 2


def test_determinism_and_independence():
    a = BufferedWordSource(12345)
    b = BufferedWordSource(12345)
    c = BufferedWordSource(54321)
    stream_a = [a.next_bit() for _ in range(100)]
    stream_b = [b.next_bit() for _ in range(100)]
    stream_c = [c.next_bit() for _ in range(100)]
    assert stream_a == stream_b
    assert stream_a != stream_c
    # instances do not share buffers: interleaving a fresh pair gives the
    # same per-instance streams
    d, e = BufferedWordSource(12345), BufferedWordSource(12345)
    inter_d, inter_e = [], []
    for _ in range(50):
        inter_d.append(d.next_bit())
        inter_e.append(e.next_bit())
    assert inter_d == stream_a[:50]
    assert inter_e == stream_a[:50]


def test_splitmix_words_are_32_bit():
    gen = SplitMix64Words(0xFFFFFFFFFFFFFFFF)
    for _ in range(1000):
        w = gen.next_word()
        assert 0 <= w < 1 << 32


@pytest.mark.parametrize("bad", [1.5, "7", None, object()])
def test_non_generator_is_refused_at_construction(bad):
    with pytest.raises(TypeError, match="need an int seed or a word generator"):
        BufferedWordSource(bad)


def test_scripted_words_exhaustion():
    gen = ScriptedWords([1, 2])
    assert gen.next_word() == 1
    assert gen.next_word() == 2
    with pytest.raises(ScriptExhausted):
        gen.next_word()


# ------------------------------------------------------- bulk reads


def test_next_bits_equals_next_bit_calls():
    # Widths 0..70 in a shuffled order leave the buffer at every offset.
    widths = list(range(71)) * 3
    random.Random(1).shuffle(widths)
    bulk, single = BufferedWordSource(5), BufferedWordSource(5)
    for k in widths:
        expected = 0
        for _ in range(k):
            expected = (expected << 1) | single.next_bit()
        assert bulk.next_bits(k) == expected
        assert bulk.bits_consumed() == single.bits_consumed()
        assert bulk.words_fetched == single.words_fetched


@pytest.mark.parametrize("make, width", [
    (BufferedWordSource, 128),
    (lambda seed: BufferedWordSource(SplitMix64Words(seed)), 32)],
    ids=["seeded", "generator"])
@pytest.mark.parametrize("seed", [0, 9])
def test_every_in_buffer_read_matches_next_bit(make, width, seed):
    # At every position a read can find the buffer in: each in-buffer
    # read of k <= pos bits, the read of pos + 1 that drains the buffer
    # into a fill, and a geometric read, each against RandomBitSource's
    # loop over next_bit.  So every mask a read can look up is checked.
    def at(pos):
        src = make(seed)
        src.next_bits(3 * width - pos)  # two whole fills, then all but pos
        return src

    for pos in range(width):
        reads = [("next_bits", k) for k in range(pos + 2)]
        for name, *args in reads + [("next_geometric",)]:
            src, ref = at(pos), at(pos)
            assert (getattr(src, name)(*args)
                    == getattr(RandomBitSource, name)(ref, *args))
            assert state(src) == state(ref)
            assert src.next_bits(width) == RandomBitSource.next_bits(ref,
                                                                     width)


def test_next_bits_zero_reads_nothing():
    src = BufferedWordSource(3)
    assert src.next_bits(0) == 0
    assert (src.bits_consumed(), src.words_fetched) == (0, 0)
    scripted = ScriptedBitSource([])
    assert scripted.next_bits(0) == 0
    assert scripted.bits_consumed() == 0


@pytest.mark.parametrize("k, value, words", [
    (1, 0b1, 1),                                   # from the buffer alone
    (20, (0b1 << 19) | (0x89ABCDEF >> 13), 2),     # buffer + one word
    (62, (0b1 << 61) | (0x89ABCDEF << 29) | (0x13579BDF >> 3), 3),
])
def test_next_bits_spans_words(k, value, words):
    # 31 bits read, so one bit (the low 1 of the first word) is left.
    src = BufferedWordSource(ScriptedWords([0x00000001, 0x89ABCDEF,
                                            0x13579BDF]))
    assert src.next_bits(31) == 0
    assert src.next_bits(k) == value
    assert src.bits_consumed() == 31 + k
    assert src.words_fetched == words == -(-(31 + k) // 32)


def test_next_bits_exact_word_fetches_one_word():
    src = BufferedWordSource(ScriptedWords([0xDEADBEEF]))
    assert src.next_bits(32) == 0xDEADBEEF
    assert src.words_fetched == 1
    assert src.next_bits(0) == 0
    assert src.words_fetched == 1


def test_scripted_bulk_reads():
    src = ScriptedBitSource([1, 0, 1, 1, 0, 0, 0, 1, 0])
    assert src.next_bits(4) == 0b1011
    assert src.next_bits(4) == 0b0001
    assert src.bits_consumed() == 8
    assert src.remaining == 1


@pytest.mark.parametrize("read", [lambda s: s.next_bits(4),
                                  lambda s: [s.next_bit() for _ in range(4)],
                                  lambda s: s.next_geometric()])
def test_scripted_exhaustion_state_is_method_independent(read):
    src = ScriptedBitSource([1, 0, 0, 0, 0])
    src.next_bit()
    with pytest.raises(ScriptExhausted, match="after 5 bits"):
        read(src)
        read(src)
    assert src.remaining == 0
    assert src.bits_consumed() == 5


@pytest.mark.parametrize("read", [lambda s: s.next_bits(80),
                                  lambda s: [s.next_bit() for _ in range(80)],
                                  lambda s: s.next_geometric()])
def test_buffered_word_exhaustion_state_is_method_independent(read):
    # A read that outruns the word script leaves the counters where the
    # same read made bit by bit would; the geometric read meets only
    # zeros after the first 20 bits.
    src = BufferedWordSource(ScriptedWords([0xFFFF0000, 0]))
    src.next_bits(20)
    with pytest.raises(ScriptExhausted):
        read(src)
        read(src)
    assert (src.bits_consumed(), src.words_fetched) == (64, 2)


def _state(src):
    return (src.bits_consumed(), getattr(src, "words_fetched", None),
            getattr(src, "remaining", None), src.next_bits(40))


@pytest.mark.parametrize("make", [
    lambda: BufferedWordSource(1), lambda: ScriptedBitSource([1, 0, 0] * 30),
    lambda: NextBitOnly(repeat(1))],
    ids=["buffered", "scripted", "default"])
@pytest.mark.parametrize("before", [0, 5, 32, 45])
def test_negative_width_raises_and_changes_nothing(make, before):
    src, ref = make(), make()
    src.next_bits(before)
    ref.next_bits(before)
    for k, error in ((-1, ValueError), (-3, ValueError), (-40, ValueError),
                     (40.0, TypeError)):
        with pytest.raises(error):
            src.next_bits(k)
    assert _state(src) == _state(ref)


# ------------------------------------------- counter differential test


def _three_sources(seed, words):
    """The seeded source (128-bit fills), the same generator handed in
    (32-bit fills) and a scripted replay of its first `words` words."""
    return (BufferedWordSource(seed),
            BufferedWordSource(SplitMix64Words(seed)),
            ScriptedBitSource((w >> (31 - i)) & 1
                              for w in oracle.words(seed, words)
                              for i in range(32)))


def _read_alike(sources, read, words):
    """Apply `read` to each source; values and counters must agree, with
    the replay's word count derived from its cursor."""
    values = {read(src) for src in sources}
    assert len(values) == 1
    *buffered, ref = sources
    served = words * 32 - ref.remaining
    for src in buffered:
        assert src.bits_consumed() == ref.bits_consumed()
        assert src.words_fetched == -(-served // 32)


@pytest.mark.parametrize("seed", range(6))
def test_derived_counter_matches_a_per_bit_counter(seed):
    # Random interleavings of single reads, bulk reads of 0..300 bits
    # and geometric reads: both fill widths against a scripted source
    # that counts every bit.  After every read each buffered source has
    # fetched ceil(bits consumed / 32) words.
    rng = random.Random(seed)
    words = 400 * 300 // 32 + 64
    sources = _three_sources(seed, words)
    for _ in range(400):
        op = rng.choice(("bit", "geometric", "bits", "bits"))
        if op == "bits":
            k = rng.randint(0, 300)
            _read_alike(sources, lambda src: src.next_bits(k), words)
        else:
            _read_alike(sources, methodcaller("next_" + op), words)
        for src in sources[:2]:
            assert src.words_fetched == -(-src.bits_consumed() // 32)


@pytest.mark.parametrize("before", [0, 5, 96, 128, 200])
@pytest.mark.parametrize("k", [127, 128, 129, 256])
def test_reads_across_block_edges(k, before):
    # From a fresh source and from inside or at the end of a block.
    sources = _three_sources(k, 20)
    _read_alike(sources, lambda src: src.next_bits(before), 20)
    _read_alike(sources, lambda src: src.next_bits(k), 20)
    _read_alike(sources, methodcaller("next_geometric"), 20)


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda src: pickle.loads(pickle.dumps(src))],
    ids=["copy", "deepcopy", "pickle"])
def test_cloned_seeded_source_continues_independently(clone):
    # 45 bits leave the first block 83 bits unread; ten 50-bit reads
    # cross four more block fills.
    src, ref = BufferedWordSource(7), BufferedWordSource(7)
    src.next_bits(45)
    ref.next_bits(45)
    twin = clone(src)
    expected = [ref.next_bits(50) for _ in range(10)]
    assert [twin.next_bits(50) for _ in range(10)] == expected
    assert [src.next_bits(50) for _ in range(10)] == expected
    for copied in (twin, src):
        assert (copied.bits_consumed(), copied.words_fetched) == (
            ref.bits_consumed(), ref.words_fetched)


# ------------------------------------------------ four-lane generator


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 10**23])
def test_lanes_serve_the_scalar_stream(seed):
    # 4,099 words cross 1,024 refills and end three words into the next.
    gen = SplitMix64Words(seed)
    assert [gen.next_word() for _ in range(4099)] == oracle.words(seed, 4099)


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda gen: pickle.loads(pickle.dumps(gen))],
    ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("served", [1, 2, 3, 4, 5])
def test_cloned_generator_continues_independently(clone, served):
    expected = oracle.words(7, served + 20)
    gen = SplitMix64Words(7)
    assert [gen.next_word() for _ in range(served)] == expected[:served]
    twin = clone(gen)
    assert [twin.next_word() for _ in range(20)] == expected[served:]
    assert [gen.next_word() for _ in range(20)] == expected[served:]


@pytest.mark.parametrize("k", range(1, 131))
def test_lanes_leave_the_word_count_alone(k):
    src = BufferedWordSource(3)
    src.next_bits(k)
    assert src.words_fetched == -(-k // 32)
    assert src.bits_consumed() == k


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_blocks_are_four_words_first_most_significant(seed):
    gen = SplitMix64Words(seed)
    words = [b >> 96 - 32 * i & 0xFFFFFFFF
             for b in (gen.next_block() for _ in range(30)) for i in range(4)]
    assert words == oracle.words(seed, 120)


@pytest.mark.parametrize("seed", range(4))
def test_word_and_block_reads_mix_into_one_stream(seed):
    # A block read after k word reads begins with the 4 - k words the
    # held block has left.
    rng = random.Random(seed)
    gen, served = SplitMix64Words(seed), []
    while len(served) < 400:
        if rng.random() < 0.5:
            served.append(gen.next_word())
        else:
            block = gen.next_block()
            served += [block >> 96 - 32 * i & 0xFFFFFFFF for i in range(4)]
    assert served == oracle.words(seed, len(served))


# ------------------------------------------------------ geometric reads


def test_geometric_counts_through_zero_words():
    src = BufferedWordSource(ScriptedWords([0, 0, 1]))
    assert src.next_geometric() == 96
    assert (src.bits_consumed(), src.words_fetched) == (96, 3)


def test_geometric_counts_through_zero_blocks(monkeypatch):
    # A seeded source fills from next_block; script its blocks.
    blocks = iter([0, 0, 1])
    monkeypatch.setattr(SplitMix64Words, "next_block",
                        lambda self: next(blocks))
    src = BufferedWordSource(0)
    assert src.next_geometric() == 384
    assert (src.bits_consumed(), src.words_fetched) == (384, 12)


def test_geometric_reads_within_a_word():
    src = BufferedWordSource(ScriptedWords([0b1001 << 28, 1 << 31]))
    assert [src.next_geometric() for _ in range(3)] == [1, 3, 29]
    assert (src.bits_consumed(), src.words_fetched) == (33, 2)


@pytest.mark.parametrize("make", [ScriptedBitSource, NextBitOnly],
                         ids=["scripted", "default"])
def test_default_geometric_loops_over_next_bit(make):
    assert RandomBitSource.__abstractmethods__ == {"next_bit",
                                                   "bits_consumed"}
    src = make([1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])
    assert [src.next_geometric() for _ in range(3)] == [1, 3, 7]
    assert src.bits_consumed() == 11


# ------------------------------------------------ words out of [0, 2**32)


def test_a_word_of_minus_one_reads_as_all_ones():
    src = BufferedWordSource(Words(-1))
    assert src.next_bits(40) == (1 << 40) - 1
    assert src.next_bit() == 1
    assert src.next_geometric() == 1
    # All ones is accepted on the first read only by a power of two.
    for width in (1, 2, 3, 32, 33, 62):
        assert fdr_uniform(src, 1 << width) == ((1 << width) - 1, width)


def test_a_word_past_32_bits_reads_as_its_low_bits():
    src = BufferedWordSource(Words(2**32 + 5))
    assert src.next_bits(32) == 5
    assert src.next_bits(64) == 5 << 32 | 5
    assert src.words_fetched == 3


@pytest.mark.parametrize("seed", range(3))
def test_out_of_range_words_draw_like_their_low_bits(seed):
    # Each word shifted by a multiple of 2**32, up or down, serves the
    # same draws as the word itself, and every draw lands in [0, n).
    rng = random.Random(seed)
    words = oracle.words(seed, 2000)
    shifted = [w + (rng.randint(-3, 3) << 32 + rng.randint(0, 40))
               for w in words]
    plain = BufferedWordSource(Words(*words))
    wild = BufferedWordSource(Words(*shifted))
    for _ in range(300):
        n = rng.randint(1, 1 << rng.randint(1, 62))
        drawn = fdr_uniform(wild, n)
        assert drawn == fdr_uniform(plain, n)
        assert 0 <= drawn.value < n
        assert wild.next_geometric() == plain.next_geometric()
    assert plain.words_fetched == wild.words_fetched


def test_a_fill_past_its_width_reads_as_its_low_bits_on_every_read():
    # The mask sits in next_bits' fill loop alone; next_bit and
    # next_geometric refill through it.
    src = BufferedWordSource(Words(1 << 32, 1 << 32, 5))
    assert src.next_geometric() == 94
    assert (src.bits_consumed(), src.words_fetched) == (94, 3)
    src = BufferedWordSource(Words(1 << 32))
    assert [src.next_bit() for _ in range(32)] == [0] * 32


def test_a_block_past_128_bits_reads_as_its_low_bits(monkeypatch):
    blocks = iter([1 << 128, 1])
    monkeypatch.setattr(SplitMix64Words, "next_block",
                        lambda self: next(blocks))
    src = BufferedWordSource(0)
    assert src.next_geometric() == 256
    assert src.words_fetched == 8


# ------------------------------------------------- no read-ahead


class _CountedWords:
    """A caller's generator that counts its calls; about 30% of its
    words are 0, so runs of zeros cross words."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self.calls = 0

    def next_word(self):
        self.calls += 1
        if self._rng.random() < 0.3:
            return 0
        return self._rng.getrandbits(32)


@pytest.mark.parametrize("seed", range(4))
def test_no_read_takes_a_word_before_it_needs_one(seed):
    rng = random.Random(seed)
    gen = _CountedWords(seed)
    src = BufferedWordSource(gen)
    reads = [methodcaller("next_bit"), methodcaller("next_geometric")]
    for _ in range(3000):
        read = rng.choice(reads + [methodcaller("next_bits",
                                                rng.randint(0, 100))])
        read(src)
        assert gen.calls == src.words_fetched
