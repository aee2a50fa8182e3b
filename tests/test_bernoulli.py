from fractions import Fraction
from types import SimpleNamespace

import pytest

from fastdice import (BufferedWordSource, ImproperFraction, Rational,
                      ScriptedBitSource, bernoulli_rational,
                      binary_expansion, check_denominator, nu, nu_exact)

from conftest import (Hang, Words, bernoulli_biases, deadline, law,
                      mean_flips, walk)


def test_expansion_one_fifth():
    assert binary_expansion(Rational(1, 5), 12) == [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]


def test_expansion_one_half():
    # dyadic: terminates, then zeros forever
    assert binary_expansion(Rational(1, 2), 4) == [1, 0, 0, 0]


def test_expansion_one_third():
    assert binary_expansion(Rational(1, 3), 6) == [0, 1, 0, 1, 0, 1]


def test_expansion_needs_proper_fraction():
    with pytest.raises(ImproperFraction):
        binary_expansion(Rational(3, 3), 3)
    with pytest.raises(ValueError):
        binary_expansion(Rational(1, 3), -1)
    with pytest.raises(ValueError):
        binary_expansion(Rational(1, (1 << 62) + 1), 4)
    assert binary_expansion(Rational(0, 7), 3) == [0, 0, 0]


def test_rational_validation():
    with pytest.raises(ValueError):
        Rational(5, 4)
    with pytest.raises(ValueError):
        Rational(1, 0)
    with pytest.raises(ValueError):
        Rational(-1, 4)
    # num == den is a valid Rational (certain event), just not expandable
    assert Rational(3, 3).num == 3


def test_expansion_periodicity_odd_denominators():
    # for odd n the expansion of k/n is purely periodic with period ord_n(2)
    orders = {3: 2, 5: 4, 7: 3, 9: 6, 11: 10}
    for n, d in orders.items():
        for k in range(1, n):
            bits = binary_expansion(Rational(k, n), 3 * d)
            assert bits[:d] == bits[d:2 * d] == bits[2 * d:3 * d]


def test_expansion_matches_fraction_arithmetic():
    # emitted bits reconstruct p to within 2^-count, at depths past any
    # machine word and with the largest denominators allowed
    top = 1 << 62
    cases = [(1, 5, 40), (2, 7, 40), (3, 11, 40), (7, 16, 40), (1, 3, 40),
             (1, 3, 0), (top // 3, top - 1, 200), (top - 2, top - 1, 200),
             (top // 3, top, 200), (top - 1, top, 200)]
    for num, den, count in cases:
        bits = binary_expansion(Rational(num, den), count)
        assert len(bits) == count and set(bits) <= {0, 1}
        acc = Fraction(0)
        for i, b in enumerate(bits, start=1):
            acc += Fraction(b, 2 ** i)
        assert 0 <= Fraction(num, den) - acc < Fraction(1, 2 ** count)
    assert binary_expansion(Rational(0, 1), 0) == []


def test_trace_half():
    # first flip 1 -> answer is expansion bit b_1 = 1
    src = ScriptedBitSource([1])
    assert bernoulli_rational(src, Rational(1, 2)) == 1
    assert src.bits_consumed() == 1
    # flips 0,1 -> geometric stops at position 2, answer b_2 = 0
    src = ScriptedBitSource([0, 1])
    assert bernoulli_rational(src, Rational(1, 2)) == 0
    assert src.bits_consumed() == 2


def test_degenerate_zero_flips():
    for num, den, expect in [(0, 7, 0), (7, 7, 1), (0, 1, 0), (1, 1, 1)]:
        src = ScriptedBitSource([])
        assert bernoulli_rational(src, Rational(num, den)) == expect
        assert src.bits_consumed() == 0


def test_denominator_guard():
    with pytest.raises(ValueError):
        bernoulli_rational(ScriptedBitSource([1]), Rational(1, (1 << 62) + 1))


@pytest.mark.parametrize("den", [0, -1, -5])
def test_check_denominator_refuses_below_one(den):
    with pytest.raises(ValueError, match=f"^need den >= 1, got {den}$"):
        check_denominator(den)


@pytest.mark.parametrize("p", [SimpleNamespace(num=0, den=0),
                               SimpleNamespace(num=7, den=-3),
                               SimpleNamespace(num=-1, den=3),
                               SimpleNamespace(num=5, den=3),
                               SimpleNamespace(num=1, den=0)],
                         ids=["0/0", "7/-3", "-1/3", "5/3", "1/0"])
def test_degenerate_branch_refuses_lookalikes(p):
    # None is a bias in [0, 1]; as look-alikes of Rational they never
    # met its check.  The degenerate branch refuses them by type, and so
    # do the expansion and nu, before they read a field.
    src = BufferedWordSource(0)
    for call in (lambda: bernoulli_rational(src, p),
                 lambda: binary_expansion(p, 4), lambda: nu(p),
                 lambda: nu_exact(p)):
        with pytest.raises(TypeError, match="^need a Rational, got "):
            call()
    assert src.bits_consumed() == 0


def test_exact_acceptance_probability():
    # The walk to depth 200 has one leaf at each length k, 0^(k-1) 1, of
    # mass 2**-k, and one open prefix, all zeros, of mass 2**-200.  P(1)
    # is then p cut to 200 binary digits, exactly, which holds only if
    # each leaf holds its expansion bit.  The mean of min(T, 200), T the
    # flips read, is the sum of 2**-k over k < 200: 2 - 2**-199.
    depth = 200
    biases = [Rational(num, den) for num, den in
              [(1, 3), (2, 5), (3, 7), (7, 16), (1, 2), (5, 11)]]
    for p in biases + bernoulli_biases():
        leaves, open_ = walk(lambda s: bernoulli_rational(s, p), depth)
        if p.num in (0, p.den):  # decided before any flip
            assert (leaves, open_) == ({(): p.num // p.den}, [])
            continue
        assert open_ == [(0,) * depth]
        assert sorted(leaves, key=len) == [(0,) * (k - 1) + (1,)
                                           for k in range(1, depth + 1)]
        ones = law(leaves).get(1, 0)
        assert ones == Fraction((p.num << depth) // p.den, 1 << depth)
        assert 0 <= Fraction(p.num, p.den) - ones <= Fraction(1, 1 << depth)
        assert mean_flips([*leaves, *open_]) == 2 - Fraction(2, 1 << depth)


def test_decision_bit_is_expansion_bit():
    # when the first 1-flip lands at position t, the answer equals b_t
    p = Rational(3, 7)
    bits_of_p = binary_expansion(p, 12)
    for t in range(1, 13):
        flips = [0] * (t - 1) + [1]
        src = ScriptedBitSource(flips)
        assert bernoulli_rational(src, p) == bits_of_p[t - 1]
        assert src.bits_consumed() == t


def test_mean_flips_and_bias():
    src = BufferedWordSource(17)
    trials = 60000
    hits = 0
    p = Rational(1, 3)
    for _ in range(trials):
        hits += bernoulli_rational(src, p)
    assert abs(src.bits_consumed() / trials - 2.0) < 0.03
    assert abs(hits / trials - 1 / 3) < 0.01


@pytest.mark.xfail(raises=Hang, strict=True,
                   reason="no flip cap: a generator stuck at 0 hangs the draw")
def test_a_generator_stuck_at_zero_hangs_the_draw():
    # Known and documented: next_geometric waits for a 1 that never
    # comes.  Once the draw ends on such a source, this test passes,
    # strict turns the pass into a failure, and the test must become a
    # plain one.
    with deadline(1):
        bernoulli_rational(BufferedWordSource(Words(0)), Rational(1, 3))
