import itertools
from collections import Counter
from fractions import Fraction

import pytest

from fastdice import (BufferedWordSource, EmptyRange, FastdiceError,
                      RangeTooLarge, ScriptedBitSource,
                      batch_uniform, cost_partial_sum, exact_cost,
                      fdr_uniform, fdr_uniform_range, fisher_yates,
                      plan_batch, random_permutation_unranked)
from fastdice import core
from fastdice.core import _fdr, _fdr_shuffle

from conftest import (Words, deadline, law, mass, mean_flips,
                      returning_errors, walk)


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
# and 1027, as a one-flip-per-step loop with the same cap does.
@pytest.mark.parametrize("word", [0xFFFFFFFF, -1], ids=["ones", "minus1"])
@pytest.mark.parametrize("call, flips", [
    (lambda src: fdr_uniform(src, 6), 1025),
    (lambda src: fdr_uniform_range(src, 1, 6), 1025),
    (lambda src: fisher_yates(src, 5), 1027),
    (lambda src: batch_uniform(src, plan_batch(3, 5)), 1025),
    (lambda src: random_permutation_unranked(src, 5), 1027),
], ids=["fdr_uniform", "fdr_uniform_range", "fisher_yates",
        "batch_uniform", "random_permutation_unranked"])
def test_a_stuck_generator_raises_instead_of_hanging(word, call, flips):
    src = BufferedWordSource(Words(word))
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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_flip_cap_keeps_fisher_yates_exact(n, monkeypatch):
    # The shuffle's digits share _fdr's recycle loop and its cap.
    # With the cap at 6 flips every digit's draw ends within 8 flips, so
    # the walk leaves nothing open, and the permutations that return are
    # still all equally likely.
    monkeypatch.setattr(core, "_MAX_FLIPS", 6)
    leaves, open_ = walk(
        returning_errors(lambda s: tuple(fisher_yates(s, n))), 64)
    assert open_ == [] and mass(leaves) == 1
    perms = law({prefix: result for prefix, result in leaves.items()
                 if type(result) is tuple})
    assert perms.keys() == set(itertools.permutations(range(1, n + 1)))
    assert len(set(perms.values())) == 1
    assert all(type(result) is FastdiceError for result in leaves.values()
               if type(result) is not tuple)


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
