import itertools
import math
from types import SimpleNamespace

import pytest

from fastdice import (BufferedWordSource, DigitOutOfRange, FactorialOverflow,
                      LehmerCode, Rank, RankOutOfRange, ScriptedBitSource,
                      factorial_compose, factorial_decompose, fdr_uniform,
                      fisher_yates, inversion_count, lehmer_to_permutation_fy,
                      lehmer_to_permutation_selection, permutation,
                      random_permutation_unranked)

from conftest import walk


def all_codes(n):
    ranges = [range(n - idx) for idx in range(n)]
    for digits in itertools.product(*ranges):
        yield LehmerCode(digits)


# ---------------------------------------------------------------- types


def test_lehmer_digit_bounds():
    LehmerCode((2, 1, 0))  # maximal digits accepted
    with pytest.raises(DigitOutOfRange):
        LehmerCode((3, 0, 0))
    with pytest.raises(DigitOutOfRange):
        LehmerCode((0, 2, 0))
    with pytest.raises(DigitOutOfRange):
        LehmerCode((0, 0, 1))  # last digit is forced to 0


def test_rank_bounds():
    Rank(23, 4)
    with pytest.raises(RankOutOfRange):
        Rank(24, 4)
    with pytest.raises(RankOutOfRange):
        Rank(-1, 4)
    with pytest.raises(ValueError):
        Rank(0, -1)
    Rank(0, 0)  # 0! = 1, rank 0 fine


# ------------------------------------------------------ rank <-> code


def test_decompose_examples():
    assert factorial_decompose(Rank(0, 3)).digits == (0, 0, 0)
    assert factorial_decompose(Rank(5, 3)).digits == (2, 1, 0)
    assert factorial_decompose(Rank(23, 4)).digits == (3, 2, 1, 0)


def test_compose_examples():
    assert factorial_compose(LehmerCode((0, 0, 0))).value == 0
    assert factorial_compose(LehmerCode((2, 1, 0))).value == 5


def test_round_trip_all_ranks():
    for n in range(8):
        for u in range(math.factorial(n)):
            rank = Rank(u, n)
            assert factorial_compose(factorial_decompose(rank)) == rank


class _Untouchable:
    """Fails the test on a read of any record field."""

    def __getattr__(self, name):
        if name in ("value", "n", "digits"):
            raise AssertionError(f"read .{name}")
        raise AttributeError(name)


@pytest.mark.parametrize("call, record", [
    (factorial_decompose, SimpleNamespace(value=10, n=2)),
    (factorial_decompose, (10, 2)),
    (factorial_decompose, LehmerCode((1, 0))),
    (factorial_decompose, _Untouchable()),
    (lehmer_to_permutation_fy, SimpleNamespace(digits=(5, 0), n=2)),
    (lehmer_to_permutation_fy, (1, 0)),
    (lehmer_to_permutation_fy, Rank(1, 2)),
    (lehmer_to_permutation_fy, _Untouchable()),
    (lehmer_to_permutation_selection, SimpleNamespace(digits=(5, 0), n=2)),
    (lehmer_to_permutation_selection, (1, 0)),
    (lehmer_to_permutation_selection, _Untouchable()),
])
def test_record_routes_refuse_lookalikes(call, record):
    # A look-alike has had no range check: a rank of 10 below 2! would
    # lose its quotient, and a digit 5 of size 2 would swap out of range.
    # Each is refused by type, before any field is read.
    with pytest.raises(TypeError, match="^need a (Rank|LehmerCode), got "):
        call(record)


# ------------------------------------------------- code -> permutation


def test_selection_example():
    assert lehmer_to_permutation_selection(LehmerCode((2, 1, 0))) == [3, 2, 1]
    assert lehmer_to_permutation_selection(LehmerCode((0, 0, 0))) == [1, 2, 3]


def test_fy_bijection_example():
    assert lehmer_to_permutation_fy(LehmerCode((2, 1, 0))) == [3, 1, 2]
    assert lehmer_to_permutation_fy(LehmerCode((0, 0, 0, 0))) == [1, 2, 3, 4]


def test_bijections_differ():
    sel = lehmer_to_permutation_selection(LehmerCode((2, 1, 0)))
    fy = lehmer_to_permutation_fy(LehmerCode((2, 1, 0)))
    assert sel != fy


@pytest.mark.parametrize("mapping", [lehmer_to_permutation_selection,
                                     lehmer_to_permutation_fy])
def test_code_to_permutation_bijective(mapping):
    for n in range(7):
        images = {tuple(mapping(code)) for code in all_codes(n)}
        assert len(images) == math.factorial(n)
        assert images == {p for p in itertools.permutations(range(1, n + 1))}


def test_inversion_identity_selection():
    # inversion count of the selection image equals the digit sum
    for n in range(7):
        for code in all_codes(n):
            perm = lehmer_to_permutation_selection(code)
            assert inversion_count(perm) == sum(code.digits)


def test_inversion_count_basics():
    assert inversion_count([1, 2, 3, 4]) == 0
    assert inversion_count([3, 2, 1]) == 3
    for n in range(2, 8):
        assert inversion_count(list(range(n, 0, -1))) == n * (n - 1) // 2


# -------------------------------------------------------- shufflers


def test_fisher_yates_singleton():
    src = ScriptedBitSource([])
    assert fisher_yates(src, 1) == [1]
    assert src.bits_consumed() == 0
    assert fisher_yates(ScriptedBitSource([]), 0) == []


def test_fisher_yates_pair():
    assert fisher_yates(ScriptedBitSource([1]), 2) == [2, 1]
    assert fisher_yates(ScriptedBitSource([0]), 2) == [1, 2]


def test_fisher_yates_trace_three():
    # bits [1,0] make the size-3 draw return offset 2, bit [1] makes the
    # size-2 draw return 1: swaps (1,3) then (2,3)
    assert fisher_yates(ScriptedBitSource([1, 0, 1]), 3) == [3, 1, 2]


def test_fisher_yates_mean_bits():
    # expected total bits = u_2 + u_3 + u_4 = 1 + 8/3 + 2 = 17/3
    src = BufferedWordSource(11)
    runs = 20000
    for _ in range(runs):
        fisher_yates(src, 4)
    assert abs(src.bits_consumed() / runs - 17 / 3) < 0.05


def test_unranked_singleton_and_cap():
    src = ScriptedBitSource([])
    assert random_permutation_unranked(src, 1) == [1]
    assert src.bits_consumed() == 0
    with pytest.raises(FactorialOverflow):
        random_permutation_unranked(src, 21)
    random_permutation_unranked(BufferedWordSource(1), 20)  # cap accepted


def test_unranked_matches_rank_pipeline():
    # same source state must give the same permutation as doing the rank
    # draw and bijection by hand
    for seed in range(10):
        perm = random_permutation_unranked(BufferedWordSource(seed), 5)
        u = fdr_uniform(BufferedWordSource(seed), 120).value
        expected = lehmer_to_permutation_fy(factorial_decompose(Rank(u, 5)))
        assert perm == expected


@pytest.mark.parametrize("split", [None, 3], ids=["split_at_12",
                                                  "split_at_3"])
def test_unranked_flip_law_is_fdr_uniform_on_n_factorial(monkeypatch, split):
    # The rank draw is the only one, so the tree is fdr_uniform(n!)'s,
    # leaf for leaf, with each rank's permutation at its leaves.  The
    # real split, at 12!, is past these n; split at 3! instead, n = 4..6
    # take digits from both the quotient and the remainder.
    if split is not None:
        monkeypatch.setattr(permutation, "_UNRANKING",
                            permutation._unranking(split))
    for n in range(7):
        leaves, open_ = walk(
            lambda s: random_permutation_unranked(s, n), 40)
        ranks, rank_open = walk(
            lambda s: fdr_uniform(s, math.factorial(n)).value, 40)
        assert open_ == rank_open
        assert leaves == {
            p: lehmer_to_permutation_fy(factorial_decompose(Rank(u, n)))
            for p, u in ranks.items()}


def test_unranked_uniform_smoke():
    src = BufferedWordSource(23)
    counts = {}
    runs = 30000
    for _ in range(runs):
        p = tuple(random_permutation_unranked(src, 3))
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c / runs - 1 / 6) < 0.02


def test_fisher_yates_uniform_smoke():
    src = BufferedWordSource(29)
    counts = {}
    runs = 30000
    for _ in range(runs):
        p = tuple(fisher_yates(src, 3))
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c / runs - 1 / 6) < 0.02
