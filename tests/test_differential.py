"""Differential tests: the samplers against bit-at-a-time references.

The draws' references are the loops of ``benchmarks/oracle.py``, the
benchmark's oracle: the Fast Dice Roller and the Bernoulli draw one flip
per step, Fisher-Yates one draw per offset, one rank below n! split in
factorial base and sent through a fixed Fisher-Yates pass or Laisant's
selection (the CLI's ``perm --method lehmer``), and one draw below n**j
split into its base-n digits.  Each returns (output, flips spent) and
reads its flips through ``bit()``; ``OracleBits`` serves those from a
``RandomBitSource``'s ``next_bit``, one call per flip, so the oracle
reads the flips the library reads and a script runs out at the same
flip with the same message.  The oracle imports no ``fastdice`` module,
so no reference draws through the code it checks.

The library must return the same value, report the same ``bits_used``
where it reports one, and leave the source in the same state (bits
consumed, words fetched, script cursor), draw after draw: on every
range, every batch plan with n <= 40 and the widest ones, any list for
the shuffle kernel ``core._fdr_shuffle`` and the sizes where its width
steps down, and every permutation route.  On scripted flips both must
have the same decision tree: the same leaves with the same results, and
at every node the same outcome, a return or ScriptExhausted with the
same script state and message.  With the flip cap lowered, the
library's tree must be the oracle's, with a raise in place of each node
the oracle has not decided at its first decision past the cap.

The references the oracle has no equivalent for stay here.
``reference_factorial_compose`` sums each digit times its falling
factorial.  ``reference_nu_exact`` sums the Knuth-Yao nu series digit
by digit over its whole period, as the library did before it shared the
uniform cost's closed form; the two must give identical Fractions.
``reference_horner``, ``reference_weighted_bit_sum`` and
``reference_periodic_fluctuation`` are the cost layer's term-by-term,
bit-by-bit and coefficient-by-coefficient loops, the last with each c_k
from its own zeta call; the closed forms and the precomputed table must
return the same integers and the same doubles.
"""

import ast
import functools
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fastdice import (BufferedWordSource, FactorialOverflow, FastdiceError,
                      FdrOutcome, LehmerCode, Rank, Rational,
                      ScriptExhausted, ScriptedBitSource, ScriptedWords,
                      auto_batch_size, batch_uniform, bernoulli_rational,
                      check_denominator, check_range, check_unrank_size,
                      factorial_compose, factorial_decompose, fdr_uniform,
                      fisher_yates, nu_exact, plan_batch,
                      random_lehmer_code, random_permutation_unranked)
from fastdice import core, cost
from fastdice.cli import _PERM_ROUTES

from conftest import (SRC, Index, NextBitOnly, bernoulli_biases, law,
                      oracle, returning_errors, state, walk)


class OracleBits:
    """A ``RandomBitSource`` read as the oracle's ``Bits``: one
    ``next_bit`` call per flip."""

    def __init__(self, source):
        self.bit = source.next_bit


def test_oracle_imports_no_fastdice_module():
    # The tests read this checkout's oracle, and it draws through none
    # of the code it checks.
    path = Path(oracle.__file__)
    assert path == SRC.parent / "benchmarks" / "oracle.py"
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add((node.module or "").split(".")[0])
    assert roots and "fastdice" not in roots


def ranges():
    """n of every bit length 1..62 (both ends of each length and one in
    between), every exact power of two, and the 2**62 boundary."""
    rng = random.Random(62)
    out = {1, 1 << 62, (1 << 62) - 1}
    for length in range(1, 63):
        lo, hi = 1 << (length - 1), (1 << length) - 1
        out.update((lo, hi, rng.randint(lo, hi)))
    return sorted(out)


class Int64Like(Index):
    """Compares and subtracts like ``numpy.int64``, which has no
    ``bit_length``."""

    def __gt__(self, other):
        return self.value > other

    def __le__(self, other):
        return self.value <= other

    def __sub__(self, other):
        return Int64Like(self.value - other)


@pytest.mark.parametrize("n", ranges() + [Index(6), Int64Like(6)])
def test_uniform_matches_reference(n):
    # An __index__ integer draws exactly like its int value.
    for seed in range(8):
        new, ref = BufferedWordSource(seed), BufferedWordSource(seed)
        bits = OracleBits(ref)
        for _ in range(6):
            assert (fdr_uniform(new, n)
                    == oracle.uniform(bits, operator.index(n)))
            assert state(new) == state(ref)


def test_uniform_mixed_ranges_share_one_stream():
    # Alternating widths leave the buffer at every offset before a read.
    rng = random.Random(7)
    all_n = ranges()
    for seed in range(20):
        new, ref = BufferedWordSource(seed), BufferedWordSource(seed)
        bits = OracleBits(ref)
        for _ in range(300):
            n = rng.choice(all_n)
            assert fdr_uniform(new, n) == oracle.uniform(bits, n)
            assert state(new) == state(ref)


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_flip_cap_keeps_returned_draws_exact(n, monkeypatch):
    # With the cap at 8 flips, a draw raises at its first rejection past
    # the cap, at the reference's first decision past it, flip t <= 11,
    # and no prefix stays open.  The capped tree is the reference's tree
    # to depth t with each of its open prefixes turned into a raise: every
    # draw that returns is the reference's, every value has the same
    # mass, and the raises hold exactly the reference's undecided mass
    # after t flips, (2**t mod n) / 2**t.
    cap = 8
    monkeypatch.setattr(core, "_MAX_FLIPS", cap)
    leaves, open_ = walk(returning_errors(lambda s: fdr_uniform(s, n)), 64)
    assert open_ == []
    raised = [p for p, got in leaves.items() if type(got) is not FdrOutcome]
    assert raised and all(type(leaves[p]) is FastdiceError for p in raised)
    t = len(raised[0])
    ref_leaves, ref_open = walk(lambda s: oracle.uniform(OracleBits(s), n), t)
    assert raised == ref_open
    returned = {p: got for p, got in leaves.items()
                if type(got) is FdrOutcome}
    assert returned == ref_leaves
    decisions = {len(p) for p in ref_leaves}
    assert t > cap and t in decisions
    assert decisions.isdisjoint(range(cap + 1, t))
    values = law({p: got.value for p, got in returned.items()})
    assert len(values) == n and len(set(values.values())) == 1


def batch_plans():
    """Every (n, j) with n <= 40, and the widest plans at the edges."""
    plans = [(n, j) for n in range(2, 41)
             for j in range(1, auto_batch_size(n) + 1)]
    return plans + [(2, 62), (3, 39), (2 ** 31 - 1, 2)]


def test_batch_matches_reference():
    for seed, (n, j) in enumerate(batch_plans()):
        plan = plan_batch(n, j)
        new, ref = BufferedWordSource(seed), BufferedWordSource(seed)
        bits = OracleBits(ref)
        for _ in range(8):
            assert batch_uniform(new, plan) == oracle.batch(bits, n, j)[0]
            assert state(new) == state(ref)


@pytest.mark.parametrize("p", bernoulli_biases(),
                         ids=lambda p: f"{p.num}/{p.den}")
def test_bernoulli_matches_reference(p):
    for seed in range(30):
        new, ref = BufferedWordSource(seed), BufferedWordSource(seed)
        bits = OracleBits(ref)
        for _ in range(40):
            assert (bernoulli_rational(new, p)
                    == oracle.bernoulli(bits, p.num, p.den)[0])
            assert state(new) == state(ref)


@pytest.mark.parametrize("t", [1, 2, 31, 32, 33, 62, 63, 64, 65, 100,
                               127, 128, 129, 200])
def test_bernoulli_deep_stops_match_reference(t):
    # Seeded draws almost never stop past t = 20; the script 0^(t-1) 1
    # stops at t, and past t = 2 num * 2**t no longer fits 64 bits.  As
    # words, the same script makes the buffered source's geometric read
    # cross (t - 1) // 32 all-zero words.
    bits = [0] * (t - 1) + [1]
    words = [0] * ((t - 1) // 32) + [1 << 31 - (t - 1) % 32]
    for p in bernoulli_biases():
        new, ref = ScriptedBitSource(bits), ScriptedBitSource(bits)
        assert (bernoulli_rational(new, p)
                == oracle.bernoulli(OracleBits(ref), p.num, p.den)[0])
        assert new.bits_consumed() == ref.bits_consumed()
        new, ref = (BufferedWordSource(ScriptedWords(words)),
                    BufferedWordSource(ScriptedWords(words)))
        assert (bernoulli_rational(new, p)
                == oracle.bernoulli(OracleBits(ref), p.num, p.den)[0])
        read = (t, len(words)) if 0 < p.num < p.den else (0, 0)
        assert state(new) == state(ref) == read


def test_default_fast_paths_draw_identically():
    # Only next_bit defined: the defaults must reproduce the native reads.
    rng = random.Random(3)
    all_n = ranges()
    biases = bernoulli_biases()
    for seed in range(5):
        inner, native = BufferedWordSource(seed), BufferedWordSource(seed)
        custom = NextBitOnly(iter(inner.next_bit, None))
        for _ in range(200):
            n = rng.choice(all_n)
            assert fdr_uniform(custom, n) == fdr_uniform(native, n)
            p = rng.choice(biases)
            assert bernoulli_rational(custom, p) == bernoulli_rational(native, p)
            assert custom.bits_consumed() == native.bits_consumed()
        assert state(inner) == state(native)


def outcome(draw, bits):
    """(result, script state) or ("exhausted", script state, message)."""
    src = ScriptedBitSource(bits)
    try:
        result = draw(src)
    except ScriptExhausted as exc:
        return "exhausted", src.remaining, src.bits_consumed(), str(exc)
    return result, src.remaining, src.bits_consumed()


def assert_same_tree(draw, reference, depth):
    """The two draws have the same decision tree to ``depth`` and the same
    outcome at every node of it.  A script that runs on past a leaf is
    decided at the leaf, so this covers every script."""
    tree = walk(draw, depth)
    assert tree == walk(reference, depth)
    leaves, open_ = tree
    for node in {p[:k] for p in [*leaves, *open_] for k in range(len(p) + 1)}:
        assert outcome(draw, node) == outcome(reference, node)


@pytest.mark.parametrize("n", range(2, 8))
def test_uniform_exhaustion_matches_reference(n):
    assert_same_tree(lambda s: fdr_uniform(s, n),
                     lambda s: oracle.uniform(OracleBits(s), n), 64)


@pytest.mark.parametrize("p", [Rational(1, 3), Rational(2, 5),
                               Rational((1 << 62) // 3, (1 << 62) - 1)],
                         ids=lambda p: f"{p.num}/{p.den}")
def test_bernoulli_exhaustion_matches_reference(p):
    assert_same_tree(
        lambda s: bernoulli_rational(s, p),
        lambda s: oracle.bernoulli(OracleBits(s), p.num, p.den)[0], 200)


def reference_horner(r, mod, terms):
    """sum of (r * 2**k mod mod) * 2**(terms-1-k) over k < terms."""
    acc = 0
    for _ in range(terms):
        acc = (acc << 1) + r
        r = (r << 1) % mod
    return acc


def horner_cases():
    """Seeded (r, mod, terms) with 0 <= r < mod: mod = 1, even mod,
    r = 0, terms 0, 1, 2 and 2**k - 1, 2**k, 2**k + 1 up to 2**12, then
    three runs of 10**5 terms."""
    rng = random.Random(86)
    out = [(0, 1, terms) for terms in (0, 1, 2, 5, 64)]
    lengths = [0, 1, 2] + [(1 << k) + e for k in range(2, 13)
                           for e in (-1, 0, 1)]
    for terms in lengths:
        for bits in (1, 2, 7, 33, 64, 65, 130):
            mod = rng.getrandbits(bits) | 1 << (bits - 1)
            for r in (0, 1 % mod, mod - 1, rng.randrange(mod)):
                out.append((r, mod, terms))
            even = mod << rng.randint(1, 9)
            out.append((rng.randrange(even), even, terms))
    out += [(1, 3 ** 13, 10 ** 5), (12345, (3 ** 13 + 2) << 3, 10 ** 5),
            (rng.randrange(1 << 61), (1 << 62) - 1, 10 ** 5)]
    return out


def test_horner_matches_reference():
    for r, mod, terms in horner_cases():
        got = cost._horner(r, mod, terms)
        assert got == reference_horner(r, mod, terms), (r, mod, terms)


def reference_weighted_bit_sum(x):
    """sum of i * bit_i(x) * 2**i, bit by bit."""
    return sum(i << i for i, b in enumerate(reversed(bin(x)[2:])) if b == "1")


def test_weighted_bit_sum_matches_reference():
    rng = random.Random(300)
    assert cost._weighted_bit_sum(0) == 0
    for width in range(1, 301):
        top = 1 << (width - 1)
        for x in (top, (top << 1) - 1, top | rng.getrandbits(width - 1)):
            assert cost._weighted_bit_sum(x) == reference_weighted_bit_sum(x)
    # one period of the binary expansion of 2/w: 2 * 3**9 bits for
    # 3**10, whose masks are cached, and 2 * 3**10 bits for 3**11,
    # whose masks are not
    for w in (3 ** 10, 3 ** 11):
        e = 2 * ((1 << cost._period_of_two(w)) - 1) // w
        assert cost._weighted_bit_sum(e) == reference_weighted_bit_sum(e)


@functools.lru_cache(maxsize=None)
def reference_fourier_coefficients(k_terms):
    """c_k = zeta(1 + i*tau_k) / (1 + i*tau_k), tau_k = 2*pi*k / ln2,
    for k = 1..k_terms, each from its own zeta call."""
    out = []
    for k in range(1, k_terms + 1):
        s = complex(1.0, 2.0 * math.pi * k / cost.LN2)
        out.append(cost.zeta_complex(s, 1e-13) / s)
    return tuple(out)


def reference_periodic_fluctuation(log2n, k_terms):
    """The fluctuation's loop before its (2*pi*k, 2 Re c_k, 2 Im c_k)
    table: each term's phase and factor 2 taken per call."""
    frac = log2n % 1.0
    total = 0.0
    for k, c in enumerate(reference_fourier_coefficients(k_terms), start=1):
        theta = 2.0 * math.pi * k * frac
        total += 2.0 * (c.real * math.cos(theta) + c.imag * math.sin(theta))
    return -total / cost.LN2


@pytest.mark.parametrize("k_terms", [1, 3, 12, 40])
def test_periodic_fluctuation_matches_reference_bit_for_bit(k_terms):
    rng = random.Random(k_terms)
    points = [rng.uniform(0.0, 64.0) for _ in range(10000)]
    points += [0.0, 0.5, 1.0 - 2 ** -53, 62.0, math.log2(3),
               math.log2(10 ** 18 + 9)]
    for x in points:
        assert cost.periodic_fluctuation(x, k_terms) == \
            reference_periodic_fluctuation(x, k_terms), x


def reference_nu_exact(p):
    """nu(p): a Horner pass over the pre-period, then one digit by digit
    over the whole period of 2 mod the odd part of den."""
    g = math.gcd(p.num, p.den)
    num, den = p.num // g, p.den // g
    if num == 0 or den == 1:
        return Fraction(0)
    a = (den & -den).bit_length() - 1
    w = den >> a
    total = Fraction(0)
    if a > 0:
        total += Fraction(reference_horner(num % den, den, a),
                          den << (a - 1))
    if w > 1:
        d, x = 1, 2 % w
        while x != 1:
            x, d = (x << 1) % w, d + 1
        total += Fraction(reference_horner(num % w, w, d) << 1,
                          (w << a) * ((1 << d) - 1))
    return total


def nu_biases():
    """Every num/den with den <= 128, then random den = 2**a * w."""
    out = [Rational(num, den) for den in range(1, 129)
           for num in range(den + 1)]
    rng = random.Random(128)
    for _ in range(200):
        den = rng.randrange(1, 1 << 16, 2) << rng.randint(0, 12)
        out.append(Rational(rng.randint(0, den), den))
    return out


def test_nu_exact_matches_reference():
    for p in nu_biases():
        got = nu_exact(p)
        assert type(got) is Fraction
        assert got == reference_nu_exact(p), (p.num, p.den)


def reference_factorial_decompose(rank):
    """The oracle's factorial-base digits of a rank, as a code."""
    return LehmerCode(tuple(oracle.factorial_digits(rank.value, rank.n)))


def reference_factorial_compose(code):
    n = code.n
    value = 0
    for idx, d in enumerate(code.digits):
        value += d * math.factorial(n - idx - 1)
    return Rank(value, n)


def reference_lehmer_code(bits, n):
    """The oracle's rank below n! and its flips, the rank as a code."""
    u, used = oracle.uniform(bits, math.factorial(n))
    return reference_factorial_decompose(Rank(u, n)), used


def test_fdr_shuffle_matches_reference():
    # On any list, in place: position j ends up holding item k, where k
    # is what the reference's permutation of 1..n holds at j.
    rng = random.Random(6)
    for seed in range(40):
        new, ref = BufferedWordSource(seed), BufferedWordSource(seed)
        bits = OracleBits(ref)
        for _ in range(rng.randint(1, 8)):
            n = rng.choice([0, 1, 2, rng.randint(3, 100)])
            t = [f"x{k}" for k in range(1, n + 1)]
            assert core._fdr_shuffle(new, t) is t
            assert t == [f"x{k}" for k in oracle.fisher_yates(bits, n)[0]]
            assert state(new) == state(ref)


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 1024, 1025])
def test_fisher_yates_matches_reference_where_widths_change(n):
    # The width steps down as the size falls to each power of two: at
    # once from 2**k, one step in from 2**k + 1.
    for seed in range(8):
        new, ref = BufferedWordSource(seed), BufferedWordSource(seed)
        bits = OracleBits(ref)
        for _ in range(3):
            assert fisher_yates(new, n) == oracle.fisher_yates(bits, n)[0]
            assert state(new) == state(ref)


def test_fdr_shuffle_exhaustion_matches_reference():
    # Scripts that run out before the first offset, between offsets and
    # inside one, or that outlast the whole shuffle.
    rng = random.Random(11)
    exhausted = finished = 0
    for _ in range(400):
        n = rng.randint(0, 20)
        bits = [rng.getrandbits(1) for _ in range(rng.randint(0, 100))]
        got = outcome(lambda s: core._fdr_shuffle(s, [*range(1, n + 1)]),
                      bits)
        assert got == outcome(
            lambda s: oracle.fisher_yates(OracleBits(s), n)[0], bits)
        exhausted += got[0] == "exhausted" and got[2] > 0
        finished += got[0] != "exhausted" and n > 1
    assert exhausted > 50 and finished > 50


# Each route: the library's draw, its reference on the oracle's bits,
# returning (output, flips), and the largest n it is checked at.
ROUTES = {
    "fisher_yates": (fisher_yates, oracle.fisher_yates, 60),
    "unranked": (random_permutation_unranked, oracle.unranked, 20),
    "cli_lehmer": (_PERM_ROUTES["lehmer"][0], oracle.lehmer_selection, 20),
    "code": (random_lehmer_code, reference_lehmer_code, 20),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_permutation_routes_match_reference(route):
    draw, reference, n_max = ROUTES[route]
    for seed in range(50):
        new, ref = BufferedWordSource(seed), BufferedWordSource(seed)
        bits = OracleBits(ref)
        for n in range(n_max + 1):
            got = draw(new, n)
            assert got == reference(bits, n)[0]
            assert state(new) == state(ref)
            if route == "code":  # built without LehmerCode's check
                assert type(got) is LehmerCode
                assert type(got.digits) is tuple
                assert got == LehmerCode(got.digits)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_permutation_routes_draw_an_index_like_its_int(route):
    draw = ROUTES[route][0]
    for n in (0, 1, 6, 12, 13, 20):
        new, ref = BufferedWordSource(n), BufferedWordSource(n)
        assert draw(new, Index(n)) == draw(ref, n)
        assert state(new) == state(ref)


def test_rank_routes_keep_their_guards():
    # Each check raises what the draws it guards raise, with the same
    # message, before a single flip: fisher_yates before it builds its
    # list, the rank routes with the unranking's own messages.  A
    # non-integer raises TypeError, NaN included.
    def bernoulli(source, den):
        return bernoulli_rational(source, Rational(1, den))

    not_float = "'float' object cannot be interpreted as an integer"
    for bad, error, message in [
            (21, FactorialOverflow,
             "21! exceeds the 64-bit working range (cap is n = 20)"),
            (-1, ValueError, "need n >= 0, got -1"),
            (6.0, TypeError, not_float), (math.nan, TypeError, not_float),
            (Fraction(6), TypeError,
             "'Fraction' object cannot be interpreted as an integer")]:
        with pytest.raises(error) as got:
            check_unrank_size(bad)
        assert type(got.value) is error and str(got.value) == message
    non_ints = (6.0, math.nan, Fraction(6))
    guards = [
        (check_unrank_size, (21, -1) + non_ints,
         (random_permutation_unranked, random_lehmer_code)),
        (check_range, (0, -1, 2 ** 62 + 1, 10 ** 23) + non_ints,
         (fdr_uniform,)),
        (check_range, (2 ** 62 + 1, 2 ** 64) + non_ints, (fisher_yates,)),
        (check_denominator, (2 ** 62 + 1, 10 ** 23) + non_ints, (bernoulli,)),
    ]
    for check, bads, draws in guards:
        for bad in bads:
            with pytest.raises((FastdiceError, ValueError, TypeError)) as want:
                check(bad)
            for draw in draws:
                source = ScriptedBitSource([])
                with pytest.raises(type(want.value)) as got:
                    draw(source, bad)
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)
                assert source.bits_consumed() == 0


@pytest.mark.parametrize("check, value", [
    (check_range, 1), (check_range, 2 ** 62),
    (check_denominator, 1), (check_denominator, 2 ** 62),
    (check_unrank_size, 0), (check_unrank_size, 20)])
def test_checks_return_the_int_they_checked(check, value):
    for arg in (value, Index(value)):
        got = check(arg)
        assert type(got) is int and got == value


def ranks():
    """Every rank for n <= 8, then 2000 seeded ranks for each n <= 20,
    and 500 each for n = 21, 30 and 100: ``factorial_decompose`` takes
    any n, past the unranking cap."""
    for n in range(9):
        for u in range(math.factorial(n)):
            yield Rank(u, n)
    rng = random.Random(20)
    for n in range(9, 21):
        for _ in range(2000):
            yield Rank(rng.randrange(math.factorial(n)), n)
    for n in (21, 30, 100):
        for _ in range(500):
            yield Rank(rng.randrange(math.factorial(n)), n)


def test_factorial_base_matches_reference():
    for rank in ranks():
        code = factorial_decompose(rank)
        assert code == reference_factorial_decompose(rank)
        assert factorial_compose(code) == reference_factorial_compose(code)
        assert factorial_compose(code) == rank


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_permutation_routes_are_exactly_uniform(route):
    # To depth 40, each of the n! results of a route holds the same mass.
    draw = ROUTES[route][0]
    for n in range(6):
        leaves, _ = walk(lambda s: tuple(draw(s, n)), 40)
        masses = law(leaves)
        assert len(masses) == math.factorial(n)
        assert len(set(masses.values())) == 1


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_permutation_exhaustion_matches_reference(route):
    # Scripts that run out inside a draw, at every length up to 40 bits
    # and n up to 12: the same permutations, then the same exhaustion.
    draw, reference, _ = ROUTES[route]
    rng = random.Random(12)
    for n in range(13):
        for length in range(41):
            bits = [rng.getrandbits(1) for _ in range(length)]
            assert (outcome(lambda s: [draw(s, n) for _ in range(3)], bits)
                    == outcome(lambda s: [reference(OracleBits(s), n)[0]
                                          for _ in range(3)], bits))
