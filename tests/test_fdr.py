import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from fastdice import (BufferedWordSource, EmptyRange, FastdiceError,
                      RangeTooLarge, ScriptExhausted, ScriptedBitSource,
                      ScriptedWords,
                      batch_uniform, cost_partial_sum, exact_cost,
                      fdr_uniform, fdr_uniform_range, fisher_yates,
                      plan_batch, random_permutation_unranked)
from fastdice import core
from fastdice.core import _fdr, _fdr_shuffle

from conftest import (Words, deadline, in_place, law, mass, mean_flips,
                      returning_errors, state, walk)


def draw(n, bits):
    return fdr_uniform(ScriptedBitSource(bits), n)


def test_trace_n5_direct_leaf():
    # doubling path: (v,c) = (2,1) -> (4,2) -> (8,4); 4 < 5 accepted
    assert draw(5, [1, 0, 0]) == (4, 3)


def test_trace_n5_rejection_then_accept():
    # c reaches 5 in the band [5,8): recycled as (v,c) = (3,0), one more
    # doubling accepts 0
    assert draw(5, [1, 0, 1, 0]) == (0, 4)


def test_trace_n4_binary_digits():
    assert draw(4, [1, 0]) == (2, 2)


def test_n1_short_circuit():
    src = ScriptedBitSource([])
    assert fdr_uniform(src, 1) == (0, 0)
    assert src.bits_consumed() == 0


def test_n_validation():
    src = ScriptedBitSource([])
    with pytest.raises(ValueError):
        fdr_uniform(src, 0)
    with pytest.raises(RangeTooLarge):
        fdr_uniform(src, (1 << 62) + 1)
    # the boundary itself is accepted
    fdr_uniform(BufferedWordSource(1), 1 << 62)


def test_range_wrapper():
    assert fdr_uniform_range(ScriptedBitSource([]), 3, 3) == 3
    assert fdr_uniform_range(ScriptedBitSource([1, 0, 0]), 0, 4) == 4
    assert fdr_uniform_range(ScriptedBitSource([0, 1]), 10, 13) == 11
    with pytest.raises(EmptyRange):
        fdr_uniform_range(ScriptedBitSource([]), 5, 4)
    # the bounds' type is checked before they are compared
    with pytest.raises(TypeError):
        fdr_uniform_range(ScriptedBitSource([]), 6.5, 3)


class _OutOfRange(ScriptedBitSource):
    """Breaks the source contract: ``next_bits(k)`` serves 2**k."""

    def __init__(self):
        super().__init__([])

    def next_bits(self, k):
        return 1 << k


@pytest.mark.parametrize("kernel", [
    lambda src: _fdr(src, 6), lambda src: _fdr_shuffle(src, [*range(6)])],
    ids=["_fdr", "_fdr_shuffle"])
def test_recycle_step_checks_the_loop_invariant(kernel):
    # Both first draw on 6.  8 >= 6 is rejected on the first read; the
    # recycled c = 12 is not below v = 8, and the check after the
    # recycle step says so.  Under -O the check is stripped, the recycled
    # c only grows, and the draw is still rejected when it passes the
    # flip cap.
    with deadline(5), pytest.raises(
            AssertionError if __debug__ else FastdiceError):
        kernel(_OutOfRange())


# Each call's first draw is on a size that is not a power of two, so an
# all-ones stream is rejected at every decision, and the draw raises at
# the first rejection past 1024 flips.  n = 6 reads 3 flips, then 2 per
# recycle step: 1025.  n = 5 reads 3, then 1 and 3 in turn: 1027.
# n = 3**5 = 243 (the batch) and n = 5! = 120 (the rank) stop at 1025
# and 1027, as a one-flip-per-step loop with the same cap does.  Only
# n = 5 reaches exactly 1024 flips, where a cap checked with >= would
# already raise.
@pytest.mark.parametrize("word", [0xFFFFFFFF, -1], ids=["ones", "minus1"])
@pytest.mark.parametrize("call, flips", [
    (lambda src: fdr_uniform(src, 6), 1025),
    (lambda src: fdr_uniform(src, 5), 1027),
    (lambda src: fdr_uniform_range(src, 1, 6), 1025),
    (lambda src: fisher_yates(src, 5), 1027),
    (lambda src: batch_uniform(src, plan_batch(3, 5)), 1025),
    (lambda src: random_permutation_unranked(src, 5), 1027),
], ids=["fdr_uniform", "fdr_uniform_5", "fdr_uniform_range", "fisher_yates",
        "batch_uniform", "random_permutation_unranked"])
def test_a_stuck_generator_raises_instead_of_hanging(word, call, flips):
    # The exact type is read in place; a subclass through next_bits.
    for src in (BufferedWordSource(Words(word)), _RecordingWords(Words(word))):
        with deadline(5), pytest.raises(FastdiceError, match="looks stuck"):
            call(src)
        assert src.bits_consumed() == flips


def test_a_first_read_accept_runs_no_cap_check(monkeypatch):
    # With the cap at 0 every rejection raises at once, yet a draw that
    # accepts on its first read still returns.
    monkeypatch.setattr(core, "_MAX_FLIPS", 0)
    assert draw(5, [1, 0, 0]) == (4, 3)
    # offsets 4, 3, 2 and 1, each accepted on its first read
    bits = [1, 0, 0, 1, 1, 1, 0, 1]
    assert fisher_yates(ScriptedBitSource(bits), 5) == [5, 1, 2, 3, 4]
    src = ScriptedBitSource([1, 1, 0])
    with pytest.raises(FastdiceError, match="after 3 flips"):
        fdr_uniform(src, 5)
    assert src.bits_consumed() == 3


class _Recording(ScriptedBitSource):
    """Records the width of each ``next_bits`` call."""

    def __init__(self, bits):
        super().__init__(bits)
        self.reads = []

    def next_bits(self, k):
        self.reads.append(k)
        return super().next_bits(k)


@pytest.mark.parametrize("n, bits, reads, outcome", [
    (1, [], [], (0, 0)),                    # answered without a read
    (4, [1, 0], [2], (2, 2)),               # a power of two never rejects
    (5, [1, 0, 0], [3], (4, 3)),            # accepted on the first read
    (5, [1, 1, 0, 1], [3, 1], (3, 4)),      # one recycle step, j = 1
    (6, [1, 1, 0, 0, 1], [3, 2], (1, 5)),   # one recycle step, j = 2
])
def test_kernels_read_width_then_each_recycle_step(n, bits, reads, outcome):
    # A draw reads its width in one call, then one call per recycle
    # step, of that step's j; both single-draw kernels make the same
    # calls.
    for call in (fdr_uniform, _fdr):
        src = _Recording(bits)
        assert call(src, n) == outcome
        assert src.reads == reads


def test_fdr_shuffle_reads_as_its_single_draws_in_turn():
    # Sizes 5, 4, 3, 2 read widths 3, 2, 2, 1: the width steps down at 4
    # and at 2.  Offset 3 on 5 after one recycle step of j = 1; offset 1
    # on 4; offset 2 on 3 after two recycle steps of j = 2; offset 0 on 2.
    bits = [1, 1, 0, 1] + [0, 1] + [1, 1, 1, 1, 1, 0] + [0]
    reads = [3, 1, 2, 2, 2, 2, 1]
    src = _Recording(bits)
    assert [_fdr(src, m)[0] for m in (5, 4, 3, 2)] == [3, 1, 2, 0]
    assert src.reads == reads
    for shuffle in (lambda s: _fdr_shuffle(s, [1, 2, 3, 4, 5]),
                    lambda s: fisher_yates(s, 5)):
        src = _Recording(bits)
        assert shuffle(src) == [4, 3, 5, 1, 2]
        assert src.reads == reads


class _RecordingWords(BufferedWordSource):
    """A subclass that overrides ``next_bits`` to record each width."""

    def __init__(self, seed_or_generator):
        super().__init__(seed_or_generator)
        self.reads = []

    def next_bits(self, k):
        self.reads.append(k)
        return super().next_bits(k)


def single_draws(source, t):
    """``_fdr_shuffle`` by one ``_fdr`` draw per size."""
    n = len(t)
    for i in range(n - 1):
        c = i + _fdr(source, n - i)[0]
        t[i], t[c] = t[c], t[i]
    return t


def ending(call, source, error):
    """(what ``call(source)`` returned, or the message of the ``error``
    it raised, and the source's state after it)."""
    try:
        got = call(source)
    except error as exc:
        got = str(exc)
    return got, state(source)


def shuffled(shuffle, n):
    """A call that shuffles 0..n-1 with ``shuffle``."""
    return lambda source: shuffle(source, [*range(n)])


def drawn(ns):
    """A call that makes one ``_fdr`` draw on each size in turn."""
    return lambda source: [_fdr(source, m) for m in ns]


@pytest.mark.parametrize("n", [2, 3, 5, 17, 52, 129])
def test_a_subclass_sees_every_read_of_the_shuffle(n):
    # Only the exact BufferedWordSource is read in place; a subclass
    # that overrides next_bits gets every read, with the widths the
    # single draws ask for, and its buffer is left where they leave it.
    for seed in range(12):
        sub, twin = _RecordingWords(seed), _RecordingWords(seed)
        for _ in range(3):
            got = _fdr_shuffle(sub, [*range(n)])
            assert got == single_draws(twin, [*range(n)])
            assert sub.reads == twin.reads
            assert state(sub) == state(twin)


def test_a_word_script_that_runs_out_mid_shuffle_raises_as_single_draws():
    # Each word is 32 flips, and a few are read before the shuffle, so
    # the scripts run out on the first read, on a refill between reads
    # and on one inside a recycle step; each raise must leave the
    # counters where the single draws leave them.  The single draws run
    # on a subclass, so they read through next_bits.
    rng = random.Random(5)
    exhausted = finished = 0
    for _ in range(300):
        n = rng.randint(2, 70)
        words = [rng.getrandbits(32) for _ in range(rng.randint(1, 10))]
        src, twin = (BufferedWordSource(ScriptedWords(words)),
                     _RecordingWords(ScriptedWords(words)))
        skip = rng.randint(0, 31)
        src.next_bits(skip)
        twin.next_bits(skip)
        got = ending(shuffled(_fdr_shuffle, n), src, ScriptExhausted)
        assert got == ending(shuffled(single_draws, n), twin, ScriptExhausted)
        exhausted += type(got[0]) is str
        finished += type(got[0]) is list
    assert exhausted > 50 and finished > 50


def test_a_capped_shuffle_raises_as_single_draws(monkeypatch):
    # With the cap at 5 flips, about half the shuffles of 20 meet a
    # draw that passes it, at any point of the buffer; the raise must
    # carry the message of the single draws, read through next_bits,
    # and leave the source where they leave it.
    monkeypatch.setattr(core, "_MAX_FLIPS", 5)
    raised = 0
    for seed in range(100):
        got = ending(shuffled(_fdr_shuffle, 20), BufferedWordSource(seed),
                     FastdiceError)
        assert got == ending(shuffled(single_draws, 20),
                             _RecordingWords(seed), FastdiceError)
        raised += type(got[0]) is str
    assert 20 < raised < 80


def sizes(rng, count):
    """``count`` sizes in [2, 2**62], their bit lengths spread over the
    whole range."""
    return [rng.randint(2, 1 << rng.randint(1, 62)) for _ in range(count)]


@pytest.mark.parametrize("seed", range(6))
def test_a_subclass_sees_every_read_of_fdr(seed):
    # Only the exact BufferedWordSource is read in place.  A subclass
    # that overrides next_bits is asked for every read of _fdr, of the
    # widths a scripted source of the same stream is asked for.  An
    # exact twin, read in place, draws the same values and ends in the
    # same state.
    stream = BufferedWordSource(seed)
    script = _Recording([stream.next_bit() for _ in range(40_000)])
    sub, twin = _RecordingWords(seed), BufferedWordSource(seed)
    rng = random.Random(seed)
    for m in sizes(rng, 300) + [rng.randint(2, 40) for _ in range(300)]:
        assert _fdr(sub, m) == _fdr(twin, m) == _fdr(script, m)
    assert sub.reads == script.reads
    assert state(sub) == state(twin)
    assert sub.bits_consumed() == script.bits_consumed()


def test_a_word_script_that_runs_out_mid_draw_raises_as_next_bits():
    # As for the shuffle: scripts that run out on a first read, on a
    # refill between draws and inside a recycle step leave the exact
    # type where a subclass, read through next_bits, is left.
    rng = random.Random(9)
    exhausted = finished = 0
    for _ in range(300):
        draws = drawn(sizes(rng, rng.randint(1, 6)))
        words = [rng.getrandbits(32) for _ in range(rng.randint(1, 10))]
        src, twin = (BufferedWordSource(ScriptedWords(words)),
                     _RecordingWords(ScriptedWords(words)))
        skip = rng.randint(0, 31)
        src.next_bits(skip)
        twin.next_bits(skip)
        got = ending(draws, src, ScriptExhausted)
        assert got == ending(draws, twin, ScriptExhausted)
        exhausted += type(got[0]) is str
        finished += type(got[0]) is list
    assert exhausted > 50 and finished > 50


def test_a_capped_draw_raises_as_next_bits(monkeypatch):
    # With the cap at 5 flips, draws on small sizes raise at a rejection
    # past it, at any point of the buffer, with the message and the
    # state that reading through next_bits gives.
    monkeypatch.setattr(core, "_MAX_FLIPS", 5)
    rng = random.Random(3)
    raised = 0
    for seed in range(100):
        draws = drawn([rng.randint(2, 40) for _ in range(8)])
        got = ending(draws, BufferedWordSource(seed), FastdiceError)
        assert got == ending(draws, _RecordingWords(seed), FastdiceError)
        raised += type(got[0]) is str
    assert 20 < raised < 80


@pytest.mark.parametrize("n", [*range(2, 13), 17, 33, 100])
def test_in_place_draws_have_the_tree_of_next_bits(n):
    # _fdr on an exact BufferedWordSource, read in place, has the tree
    # of the draws read through next_bits: the same leaves, values,
    # flips and open prefixes.  With nothing preloaded every read
    # refills; with 5 flips the buffer runs dry inside a draw; with the
    # whole script every read is taken from the buffer.
    def draw(source):
        return _fdr(source, n)
    want = walk(draw, 40)
    for preload in (0, 5, 40):
        assert walk(in_place(draw, preload), 40) == want


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_flip_cap_walks_the_same_in_place(n, monkeypatch):
    # With the cap at 8 flips, the in-place recycle loop raises at the
    # same flips as the loop through next_bits, and returns the same
    # draws everywhere else.
    monkeypatch.setattr(core, "_MAX_FLIPS", 8)
    draw = returning_errors(lambda s: _fdr(s, n))

    def seen(tree):
        leaves, open_ = tree
        return {p: repr(got) for p, got in leaves.items()}, open_
    want = seen(walk(draw, 64))
    assert want[1] == [] and any("looks stuck" in got
                                 for got in want[0].values())
    for preload in (0, 5, 64):
        assert seen(walk(in_place(draw, preload), 64)) == want


@pytest.mark.parametrize("n, depth", [
    (2, 40), (3, 40), (4, 40), (5, 40), (6, 20)])
def test_the_in_place_shuffle_has_the_tree_of_its_single_draws(n, depth):
    # Fisher-Yates on an exact BufferedWordSource, read in place, has the
    # tree of the single draws that shuffle every other source: the same
    # leaves, permutations and open prefixes.  With nothing preloaded
    # every read refills; with 5 flips the buffer runs dry inside a
    # draw; with the whole script every read is taken from the buffer.
    def shuffle(source):
        return tuple(fisher_yates(source, n))
    want = walk(shuffle, depth)
    for preload in (0, 5, depth):
        assert walk(in_place(shuffle, preload), depth) == want


@pytest.mark.parametrize("n", [3, 4, 5])
def test_flip_cap_keeps_fisher_yates_exact(n, monkeypatch):
    # The shuffle's digits keep _fdr's cap, read in place or not.  With
    # the cap at 6 flips every digit's draw ends within 8 flips, so the
    # walk leaves nothing open, and the permutations that return are
    # still all equally likely.
    monkeypatch.setattr(core, "_MAX_FLIPS", 6)
    shuffle = returning_errors(lambda s: tuple(fisher_yates(s, n)))
    for draw in (shuffle, *(in_place(shuffle, p) for p in (0, 5, 64))):
        leaves, open_ = walk(draw, 64)
        assert open_ == [] and mass(leaves) == 1
        perms = law({prefix: result for prefix, result in leaves.items()
                     if type(result) is tuple})
        assert perms.keys() == set(itertools.permutations(range(1, n + 1)))
        assert len(set(perms.values())) == 1
        assert all(type(result) is FastdiceError
                   for result in leaves.values() if type(result) is not tuple)


@pytest.mark.parametrize("n", range(1, 65))
def test_exhaustive_small_n_uniformity(n):
    # The exact flip law to depth 64.  After k flips the range still
    # undecided has size r_k = 2**k mod n and mass u_k = r_k / 2**k, so the
    # leaves of length k hold u_(k-1) - u_k (u_(-1) = 1), each reporting k
    # flips, the open prefixes hold u_64, and every value holds an equal
    # share of the rest.  The mean of min(T, 64), T the flips a draw
    # reads, is then the sum of u_k over k < 64: the cost theory's
    # partial sum, exactly.
    depth = 64
    leaves, open_ = walk(lambda s: fdr_uniform(s, n), depth)
    undecided = [Fraction(pow(2, k, n), 1 << k) for k in range(depth + 1)]
    assert mass(open_) == undecided[depth]
    assert (law({prefix: out.value for prefix, out in leaves.items()})
            == dict.fromkeys(range(n), (1 - undecided[depth]) / n))
    assert all(out.bits_used == len(prefix)
               for prefix, out in leaves.items())
    count = Counter(map(len, leaves))
    for k, before in enumerate([Fraction(1), *undecided[:-1]]):
        assert Fraction(count[k], 1 << k) == before - undecided[k]
    assert mean_flips([*leaves, *open_]) == cost_partial_sum(n, depth)


@pytest.mark.parametrize("m", range(1, 13))
def test_dyadic_exact_bits(m):
    src = BufferedWordSource(m)
    for _ in range(200):
        value, bits = fdr_uniform(src, 1 << m)
        assert bits == m
        assert 0 <= value < 1 << m


def test_bits_used_matches_counter():
    src = BufferedWordSource(3)
    total = 0
    for _ in range(500):
        total += fdr_uniform(src, 11).bits_used
    assert total == src.bits_consumed()


def test_bits_used_floor():
    # no DDG leaf sits above depth floor(log2 n)
    src = BufferedWordSource(4)
    for n in (2, 3, 5, 9, 100):
        for _ in range(50):
            assert fdr_uniform(src, n).bits_used >= n.bit_length() - 1


def test_empirical_mean_tracks_exact_cost():
    # smoke-scale check; the tight version lives in the acceptance suite
    src = BufferedWordSource(2024)
    count = 20000
    total = sum(fdr_uniform(src, 6).bits_used for _ in range(count))
    assert abs(total / count - exact_cost(6)) < 0.05
