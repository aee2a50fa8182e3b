import itertools
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy
import pytest

from fastdice import (BatchPlan, BufferedWordSource, FastdiceError, Overflow,
                      RangeTooLarge, ScriptedBitSource, auto_batch_size,
                      batch_cost, batch_uniform, check_range,
                      cost_partial_sum, fdr_uniform, plan_batch)

from conftest import law, mass, mean_flips, walk


def test_plan_examples():
    assert plan_batch(3, 6).n_pow_j == 729
    assert plan_batch(2, 62).n_pow_j == 1 << 62  # boundary accepted
    with pytest.raises(Overflow):
        plan_batch(10, 19)  # 10**19 > 2**62


def test_plan_bounds_j_before_taking_the_power():
    # n >= 2 gives n**j >= 2**j, so j >= 63 is refused without building
    # n**j, which for these j takes seconds or more memory than there is.
    start = time.perf_counter()
    with pytest.raises(Overflow):
        plan_batch(2, 63)
    with pytest.raises(Overflow):
        plan_batch(3, 10 ** 7)
    with pytest.raises(Overflow):
        batch_cost(3, 2 ** 62)
    assert time.perf_counter() - start < 1.0
    assert plan_batch(2, 62).n_pow_j == 1 << 62


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_batch(1, 3)
    with pytest.raises(ValueError):
        plan_batch(3, 0)
    with pytest.raises(RangeTooLarge, match=r"^n=4611686018427387905 exceeds"):
        plan_batch(2 ** 62 + 1, 1)  # the range guard, not an n**1 overflow


def test_batch_plan_is_validated_when_built():
    # A plan whose master range is not n**j would skew the digits: under
    # (6, 2, 40) the first digit would be 0 on 10 of 40 master values, and
    # under (6, 2, 30) it would never be 5.  Such a plan cannot be built,
    # directly or by _replace, and a bad (n, j) fails as in plan_batch.
    for n_pow_j in (40, 30, 35, 37, 0):
        with pytest.raises(ValueError, match=r"^need n_pow_j == 6\*\*2 = 36"):
            BatchPlan(6, 2, n_pow_j)
    with pytest.raises(ValueError, match=r"^need n_pow_j == 6\*\*2 = 36"):
        plan_batch(6, 2)._replace(n_pow_j=5)
    for n, j in [(1, 3), (3, 0), (2 ** 62 + 1, 1), (10, 19), (2, 63),
                 (3, 10 ** 7), (6.0, 2), (6, 2.0)]:
        with pytest.raises((ValueError, FastdiceError, TypeError)) as want:
            plan_batch(n, j)
        with pytest.raises(type(want.value)) as got:
            BatchPlan(n, j, 36)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
    assert BatchPlan(6, 2, 36) == plan_batch(6, 2) == (6, 2, 36)
    assert type(plan_batch(6, 2)) is BatchPlan
    # __index__ integers are stored as ints; a float n_pow_j is refused.
    for plan in (plan_batch(numpy.int64(6), numpy.int64(2)),
                 BatchPlan(numpy.int64(6), 2, numpy.int64(36))):
        assert plan == (6, 2, 36)
        assert [type(field) for field in plan] == [int, int, int]
    with pytest.raises(TypeError):
        BatchPlan(6, 2, 36.0)


@pytest.mark.parametrize("plan", [SimpleNamespace(n=3, j=2, n_pow_j=10),
                                  (3, 2, 9)], ids=["namespace", "tuple"])
def test_batch_refuses_lookalike_plans(plan):
    # A look-alike has had no check: a master range of 10 for two digits
    # of 3 would give a leading digit of 3.  It is refused by type
    # before any flip.
    src = BufferedWordSource(0)
    with pytest.raises(TypeError, match="^need a BatchPlan, got "):
        batch_uniform(src, plan)
    assert src.bits_consumed() == 0


def test_auto_batch_size():
    assert auto_batch_size(3) == 39
    assert auto_batch_size(2) == 62
    assert auto_batch_size(1 << 31) == 2
    assert auto_batch_size(10) == 18
    assert auto_batch_size(numpy.int64(3)) == 39  # no int64 wraparound
    with pytest.raises(ValueError):
        auto_batch_size(1)
    with pytest.raises(TypeError):
        auto_batch_size(3.5)
    for n in (2 ** 62 + 1, 10 ** 23):
        with pytest.raises(RangeTooLarge) as got:
            auto_batch_size(n)
        with pytest.raises(RangeTooLarge) as want:
            check_range(n)
        assert str(got.value) == str(want.value)


def test_auto_batch_size_is_the_largest_exponent():
    # n**63 > 2**62 for every n >= 2, so no separate cap on j can bind.
    def largest(n):
        j = 0
        while n ** (j + 1) <= 1 << 62:
            j += 1
        return j

    for n in [*range(2, 5001), *(1 << k for k in range(1, 63))]:
        assert auto_batch_size(n) == largest(n), n


def test_digits_most_significant_first():
    # master draw Y = 5 under plan(3,2) must split as [1, 2]: 5 = 1*3 + 2
    plan = plan_batch(3, 2)
    src = ScriptedBitSource([0, 1, 0, 1])  # fdr_uniform(9) returns 5 on this
    assert fdr_uniform(ScriptedBitSource([0, 1, 0, 1]), 9).value == 5
    assert batch_uniform(src, plan) == [1, 2]


def test_base2_digits_equal_raw_bits():
    plan = plan_batch(2, 3)
    assert batch_uniform(ScriptedBitSource([1, 0, 1]), plan) == [1, 0, 1]


def test_decomposition_bijective():
    # all n**j master values of a plan give all n**j digit tuples exactly
    # once, most significant digit first; 7**4 = 2401 < 2**12, so every
    # master value of plan(7,4) has a leaf by depth 12
    for n, j, depth in ((3, 2, 16), (7, 4, 12)):
        plan = plan_batch(n, j)
        leaves, _ = walk(lambda s: fdr_uniform(s, n ** j).value, depth)
        seen = set()
        for y in range(n ** j):
            # the shortest bit string making fdr_uniform(n**j) return y
            bits = min((p for p, value in leaves.items() if value == y),
                       key=len)
            digits = tuple(batch_uniform(ScriptedBitSource(bits), plan))
            assert digits == tuple(y // n ** (j - 1 - i) % n
                                   for i in range(j))
            seen.add(digits)
        assert seen == set(itertools.product(range(n), repeat=j))


@pytest.mark.parametrize("n, j", [(3, 3), (5, 2), (6, 2), (7, 2), (2, 5),
                                  (3, 4)])
def test_batch_is_exactly_uniform(n, j):
    # To depth 48 every tuple of j digits has the same mass, and the open
    # prefixes hold the master draw's undecided mass, r / 2**48 with
    # r = 2**48 mod n**j.  A batch reads the master draw's flips, so the
    # mean of min(T, 48) is the cost theory's partial sum for n**j.
    depth = 48
    plan = plan_batch(n, j)
    leaves, open_ = walk(lambda s: tuple(batch_uniform(s, plan)), depth)
    undecided = Fraction(pow(2, depth, n ** j), 1 << depth)
    assert mass(open_) == undecided
    assert law(leaves) == dict.fromkeys(
        itertools.product(range(n), repeat=j), (1 - undecided) / n ** j)
    assert mean_flips([*leaves, *open_]) == cost_partial_sum(n ** j, depth)


def test_round_trip_recomposition(monkeypatch):
    # every master value of plan(7,4) is split into digits that recompose
    # to it in base 7, most significant digit first
    plan = plan_batch(7, 4)  # 2401 master values
    for y in range(2401):
        monkeypatch.setattr("fastdice.batch._fdr", lambda source, n: (y, 0))
        recomposed = 0
        for d in batch_uniform(None, plan):
            assert 0 <= d < 7
            recomposed = recomposed * 7 + d
        assert recomposed == y


def test_per_variate_cost_identity():
    # measured bits per variate equals the master draw's bits over j, and
    # the long-run mean approaches batch_cost
    plan = plan_batch(3, 6)
    src = BufferedWordSource(99)
    batches = 20000
    total_bits = 0
    for _ in range(batches):
        before = src.bits_consumed()
        batch_uniform(src, plan)
        total_bits += src.bits_consumed() - before
    mean_per_variate = total_bits / (batches * 6)
    assert abs(mean_per_variate - batch_cost(3, 6)) < 0.02


def test_batch_values_in_range():
    plan = plan_batch(5, 9)
    src = BufferedWordSource(5)
    for _ in range(200):
        for v in batch_uniform(src, plan):
            assert 0 <= v < 5
