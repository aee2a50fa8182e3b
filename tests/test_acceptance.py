"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
with their measured values; seeds are pinned so every run is identical.
"""

import math
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

from scipy.stats import chi2

from fastdice import (BufferedWordSource, FactorialOverflow, LehmerCode,
                      Rank, Rational, ScriptedBitSource, ScriptExhausted,
                      asymptotic_cost, batch_cost, bernoulli_rational,
                      cost_partial_sum, exact_cost, exact_cost_rational,
                      factorial_compose, factorial_decompose, fdr_uniform,
                      inversion_count, lehmer_to_permutation_fy,
                      lehmer_to_permutation_selection, nu_exact,
                      periodic_fluctuation, random_permutation_unranked, toll)
from fastdice.batch import batch_uniform, plan_batch

import itertools

# Calibrated before implementation: the largest |asymptotic - exact| over
# [256, 4096] measured by an independent high-precision run was
# 0.9946057965703474 (landing at powers of two, where a truncated Fourier
# series meets a sawtooth jump at its midpoint); frozen bound is twice that.
ASYMPTOTIC_MAX_DEVIATION = 1.9892115931406948
CONSTANT_TERM = 1.1099488636120963
TOLL_THREE = 1.0817041659455104


def verdict(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exact_cost_oracle():
    t0 = time.perf_counter()
    ok = (exact_cost_rational(2) == 1
          and exact_cost_rational(3) == Fraction(8, 3)
          and exact_cost_rational(5) == Fraction(18, 5)
          and exact_cost_rational(9) == Fraction(14, 3)
          and all(exact_cost_rational(1 << m) == m for m in range(1, 17)))
    worst = 0.0
    for n in (2, 3, 5, 9, 64, 100):
        worst = max(worst, abs(float(exact_cost_rational(n))
                               - float(cost_partial_sum(n, 64))))
    elapsed = time.perf_counter() - t0
    ok = ok and worst < 1e-9 and elapsed < 1.0
    verdict(1, "exact cost oracle", ok,
            f"cross-check gap {worst:.2e}, {elapsed:.3f}s")


def test_criterion_02_empirical_bit_cost():
    t0 = time.perf_counter()
    means = {}
    for n, target in ((5, 3.6), (3, 8 / 3)):
        src = BufferedWordSource(2024)
        bits = 0
        for _ in range(1_000_000):
            bits += fdr_uniform(src, n).bits_used
        means[n] = bits / 1e6
    elapsed = time.perf_counter() - t0
    ok = (abs(means[5] - 3.6) < 0.01 and abs(means[3] - 8 / 3) < 0.01
          and elapsed < 10.0)
    verdict(2, "empirical bit cost", ok,
            f"n=5 mean {means[5]:.6f}, n=3 mean {means[3]:.6f}, "
            f"{elapsed:.1f}s")


def test_criterion_03_dyadic_exactness():
    src = BufferedWordSource(16)
    bad = []
    for m in range(1, 17):
        n = 1 << m
        used = {fdr_uniform(src, n).bits_used for _ in range(10_000)}
        if used != {m}:
            bad.append((n, used))
    verdict(3, "dyadic exactness", not bad,
            f"n=2..2^16, 10^4 draws each, bits always log2 n; "
            f"violations {bad}")


def test_criterion_04_uniformity_chi_square():
    results = []
    ok = True
    for n in (3, 5, 6, 7, 100):
        src = BufferedWordSource(4000 + n)
        counts = [0] * n
        for _ in range(1_000_000):
            counts[fdr_uniform(src, n).value] += 1
        e = 1_000_000 / n
        stat = sum((o - e) ** 2 / e for o in counts)
        threshold = chi2.isf(1e-3, n - 1)
        ok = ok and stat < threshold
        results.append(f"n={n} {stat:.1f}<{threshold:.1f}")
    verdict(4, "uniformity", ok, "; ".join(results))


def test_criterion_05_exhaustive_tree_equivalence():
    depth = 12
    ok = True
    details = []
    for n in (2, 3, 5, 7):
        mass = [Fraction(0)] * n
        unterminated = 0
        for x in range(1 << depth):
            bits = [(x >> (depth - 1 - i)) & 1 for i in range(depth)]
            try:
                value, used = fdr_uniform(ScriptedBitSource(bits), n)
            except ScriptExhausted:
                unterminated += 1
                continue
            mass[value] += Fraction(1, 1 << depth)
        bound = Fraction(unterminated, 1 << depth)
        gap = max(abs(Fraction(1, n) - m) for m in mass)
        ok = ok and gap <= bound
        details.append(f"n={n} gap {float(gap):.2e} <= {float(bound):.2e}")
    # depth-3 leaf layout for n=5: the five strings 000..100 are leaves
    # for outcomes 0..4 and the three others keep branching
    for c in range(5):
        bits = [(c >> 2) & 1, (c >> 1) & 1, c & 1]
        value, used = fdr_uniform(ScriptedBitSource(bits), 5)
        ok = ok and (value, used) == (c, 3)
    for c in (5, 6, 7):
        bits = [(c >> 2) & 1, (c >> 1) & 1, c & 1]
        try:
            fdr_uniform(ScriptedBitSource(bits), 5)
            ok = False
        except ScriptExhausted:
            pass
    verdict(5, "exhaustive tree equivalence", ok,
            "; ".join(details) + "; n=5 depth-3 leaves 0..4")


def test_criterion_06_toll_bounds():
    worst_low, worst_high = 0.0, 2.0
    ok = True
    for n in range(2, 4097):
        t = toll(n)
        ok = ok and 0.0 <= t <= 2.0
        worst_low = min(worst_low, t)
        worst_high = max(worst_high, t)
    ok = ok and all(toll(1 << m) == 0.0 for m in range(1, 13))
    gap3 = abs(toll(3) - TOLL_THREE)
    ok = ok and gap3 < 1e-6
    verdict(6, "toll bounds", ok,
            f"range [2,4096] within [0,2], dyadic exactly 0, "
            f"toll(3) off by {gap3:.1e}")


def test_criterion_07_batch_optimality():
    log2_3 = math.log2(3)
    ok = all(0 <= batch_cost(3, j) - log2_3 <= 2 / j for j in range(1, 40))
    plan = plan_batch(3, 6)
    src = BufferedWordSource(729)
    master = 100_000
    for _ in range(master):
        batch_uniform(src, plan)
    mean = src.bits_consumed() / (master * 6)
    theory = float(exact_cost_rational(729)) / 6
    dev = abs(mean - theory)
    ok = ok and dev < 0.01
    below = all(batch_cost(n, 6) < exact_cost(n)
                for n in (3, 5, 6, 7, 9, 10, 100))
    ok = ok and below
    verdict(7, "batch optimality", ok,
            f"toll(3,j)<=2/j for j<=39; empirical {mean:.6f} vs "
            f"theory {theory:.6f} (dev {dev:.2e}); j=6 curve below j=1")


def test_criterion_08_asymptotic_formula():
    worst = 0.0
    argmax = 0
    for n in range(256, 4097):
        d = abs(asymptotic_cost(n) - exact_cost(n))
        if d > worst:
            worst, argmax = d, n
    # the n-free term the formula adds to log2 n and the fluctuation
    x = math.log2(3)
    const = asymptotic_cost(3) - x - periodic_fluctuation(x)
    const_gap = abs(const - CONSTANT_TERM)
    ok = worst <= ASYMPTOTIC_MAX_DEVIATION and const_gap < 1e-9
    verdict(8, "asymptotic formula", ok,
            f"max |asym-exact| on [256,4096] = {worst:.6f} at n={argmax}, "
            f"frozen bound {ASYMPTOTIC_MAX_DEVIATION:.6f}; "
            f"constant off by {const_gap:.1e}")


def test_criterion_09_bernoulli_exactness():
    depth = 16
    ok = True
    for num, den in ((1, 3), (2, 5), (7, 16)):
        p = Rational(num, den)
        ones = 0
        unresolved = 0
        for x in range(1 << depth):
            bits = [(x >> (depth - 1 - i)) & 1 for i in range(depth)]
            try:
                ones += bernoulli_rational(ScriptedBitSource(bits), p)
            except ScriptExhausted:
                unresolved += 1
        gap = abs(Fraction(num, den) - Fraction(ones, 1 << depth))
        ok = ok and gap <= Fraction(unresolved, 1 << depth) \
            and unresolved == 1
    src = BufferedWordSource(555)
    calls = 1_000_000
    for _ in range(calls):
        bernoulli_rational(src, Rational(2, 5))
    mean_flips = src.bits_consumed() / calls
    ok = ok and abs(mean_flips - 2.0) < 0.01
    rng = random.Random(90210)
    pair_gap = 0.0
    for _ in range(20):
        den = 2 * rng.randrange(1, 3000) + 1  # odd, so no dyadic shortfall
        num = rng.randrange(1, den)
        total = nu_exact(Rational(num, den)) + nu_exact(Rational(den - num, den))
        pair_gap = max(pair_gap, abs(float(total) - 2.0))
    ok = ok and pair_gap < 1e-9
    verdict(9, "bernoulli exactness", ok,
            f"enumeration exact to 2^-16; mean flips {mean_flips:.6f}; "
            f"nu pair identity gap {pair_gap:.1e}")


def test_criterion_10_permutations():
    ok = True
    for n in range(7):
        codes = [LehmerCode(d) for d in
                 itertools.product(*[range(n - i) for i in range(n)])]
        for mapping in (lehmer_to_permutation_fy,
                        lehmer_to_permutation_selection):
            images = {tuple(mapping(c)) for c in codes}
            ok = ok and len(images) == math.factorial(n)
        ok = ok and all(
            inversion_count(lehmer_to_permutation_selection(c))
            == sum(c.digits) for c in codes)
    ok = ok and all(
        factorial_compose(factorial_decompose(Rank(u, 7))).value == u
        for u in range(math.factorial(7)))
    src = BufferedWordSource(24)
    draws = 100_000
    for _ in range(draws):
        random_permutation_unranked(src, 4)
    mean_bits = src.bits_consumed() / draws
    ok = ok and abs(mean_bits - 17 / 3) < 0.05
    try:
        random_permutation_unranked(src, 21)
        ok = False
    except FactorialOverflow:
        pass
    verdict(10, "permutations", ok,
            f"bijections+inversions n<=6, round-trip <7!, "
            f"mean bits {mean_bits:.5f} vs 17/3, n=21 overflows")


def test_criterion_11_doubling_identity():
    # Exhaustively checking every n up to 2^20 through the rational path
    # is not affordable: the summed period lengths reach ~10^11 big-int
    # steps.  Coverage here: every n <= 4096, then a fixed pseudo-random
    # sample of 20 values up to 2^20 plus the top-end boundary cases.
    ok = all(exact_cost_rational(2 * n) == exact_cost_rational(n) + 1
             for n in range(1, 4097))
    rng = random.Random(1 << 20)
    sample = [rng.randrange(4097, (1 << 20) + 1) for _ in range(20)]
    sample += [(1 << 19) + 1, (1 << 20) - 1, 1 << 20]
    ok = ok and all(
        exact_cost_rational(2 * n) == exact_cost_rational(n) + 1
        for n in sample)
    verdict(11, "doubling identity", ok,
            "exact for all n<=4096 and 23 sampled n up to 2^20")


def test_criterion_12_cli_reproducibility():
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "fastdice", *argv],
                              capture_output=True, text=True)

    bench = ["bench", "--n", "5", "--count", "20000", "--seed", "42"]
    cost = ["cost", "--n-min", "2", "--n-max", "1024"]
    b1, b2 = run(*bench), run(*bench)
    c1, c2 = run(*cost), run(*cost)
    ok = (b1.returncode == 0 and b1.stdout == b2.stdout
          and c1.returncode == 0 and c1.stdout == c2.stdout)
    zero_rows = []
    for line in c1.stdout.strip().splitlines()[1:]:
        fields = line.split(",")
        n, t = int(fields[0]), fields[3]
        if t == "0":
            zero_rows.append(n)
        else:
            ok = ok and float(t) > 0.0
    ok = ok and zero_rows == [1 << m for m in range(1, 11)]
    verdict(12, "cli reproducibility", ok,
            f"bench and cost byte-identical; toll zeros exactly at "
            f"{zero_rows}")
