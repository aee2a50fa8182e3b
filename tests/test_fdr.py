from fractions import Fraction

import pytest

from fastdice import (BufferedWordSource, EmptyRange, RangeTooLarge,
                      ScriptExhausted, ScriptedBitSource, exact_cost,
                      fdr_uniform, fdr_uniform_range)
from fastdice.core import _fdr, _fdr_each


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


@pytest.mark.skipif(not __debug__, reason="asserts are stripped under -O")
@pytest.mark.parametrize("kernel", [
    lambda src: _fdr(src, 6), lambda src: _fdr_each(src, [6])],
    ids=["_fdr", "_fdr_each"])
def test_recycle_step_checks_the_loop_invariant(kernel):
    # 8 >= 6 is rejected on the first read; the recycled c = 12 is not
    # below v = 8, and the check after the recycle step says so.
    with pytest.raises(AssertionError):
        kernel(_OutOfRange())


def enumerate_masses(n, depth):
    """Probability mass each outcome collects over all bit strings of the
    given length, plus the mass of strings that never terminate.  Every
    full string is weighted 2**-depth; strings sharing a terminating
    prefix aggregate to that prefix's 2**-length."""
    masses = {k: Fraction(0) for k in range(n)}
    unterminated = Fraction(0)
    for x in range(1 << depth):
        bits = [(x >> (depth - 1 - i)) & 1 for i in range(depth)]
        src = ScriptedBitSource(bits)
        try:
            value, _ = fdr_uniform(src, n)
        except ScriptExhausted:
            unterminated += Fraction(1, 1 << depth)
            continue
        masses[value] += Fraction(1, 1 << depth)
    return masses, unterminated


@pytest.mark.parametrize("n", [2, 3, 5, 6, 7])
def test_exhaustive_small_n_uniformity(n):
    masses, unterminated = enumerate_masses(n, 12)
    # termination probability per block of floor(log2 n)+1 levels
    # exceeds 1/2, bounding the leftover mass
    blocks = 12 // (n.bit_length())
    assert unterminated < Fraction(1, 2) ** blocks
    for k in range(n):
        gap = Fraction(1, n) - masses[k]
        assert 0 <= gap <= unterminated


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
