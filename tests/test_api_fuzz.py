"""Fuzz of the library: seeded hostile values for every integer argument
of every public callable in ``fastdice.__all__``.

The library twin of test_cli_fuzz.py.  Each integer argument gets each
hostile value in turn (floats integral or not, NaN, both infinities,
Fraction, Decimal, a string, None, the edges -1 and 0, and integers past
every 2**62 guard) with seeded valid or hostile values in the others.
Every call must return, or raise FastdiceError, ValueError or TypeError,
within a per-call deadline.  A call on a bit source that raises must leave
it as it was: the same bits consumed and the same words fetched.

Some arguments take huge integers only at a cost that grows with them,
by design, so they get the small pool, with no integer above 64:
fisher_yates' n builds a list of n values, a huge k makes next_bits
fetch ceil(k/32) words (no bound is added to the read path),
binary_expansion's count and cost_partial_sum's terms build that many
bits, and exact_cost_rational's time follows the period of 2 mod the odd
part of n.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction

import fastdice
from fastdice import BufferedWordSource, FastdiceError, Rational

from conftest import deadline, state

HOSTILE = [6.0, 3.5, math.nan, math.inf, -math.inf, Fraction(6), Decimal(6),
           "6", None, -1, 0, 2 ** 62 + 1, 10 ** 23]
SMALL = [v for v in HOSTILE if not (type(v) is int and v > 64)]
VALID = [1, 2, 3, 6, 20]
ROUNDS = 40  # seeded calls per callable, after the sweep
SECONDS = 5

# name -> (call, one pool per integer argument); a call that takes a
# source gets it first, already 5 bits into its first word.
H, S = HOSTILE, SMALL
FUZZED = {
    "fdr_uniform": (lambda src, n: fastdice.fdr_uniform(src, n), [H]),
    "fdr_uniform_range": (
        lambda src, lo, hi: fastdice.fdr_uniform_range(src, lo, hi), [H, H]),
    "check_range": (fastdice.check_range, [H]),
    "plan_batch": (fastdice.plan_batch, [H, H]),
    "BatchPlan": (fastdice.BatchPlan, [H, H, H]),
    "auto_batch_size": (fastdice.auto_batch_size, [H]),
    "Rational": (Rational, [H, H]),
    "binary_expansion": (
        lambda count: fastdice.binary_expansion(Rational(1, 3), count), [S]),
    "check_denominator": (fastdice.check_denominator, [H]),
    "SplitMix64Words": (fastdice.SplitMix64Words, [H]),
    "BufferedWordSource": (BufferedWordSource, [H]),
    "ScriptedWords": (lambda w: fastdice.ScriptedWords([w]), [H]),
    "ScriptedBitSource": (lambda b: fastdice.ScriptedBitSource([b]), [H]),
    "next_bits": (lambda src, k: src.next_bits(k), [S]),
    "LehmerCode": (lambda a, b: fastdice.LehmerCode((a, b)), [H, H]),
    "Rank": (fastdice.Rank, [H, H]),
    "check_unrank_size": (fastdice.check_unrank_size, [H]),
    "fisher_yates": (lambda src, n: fastdice.fisher_yates(src, n), [S]),
    "random_lehmer_code": (
        lambda src, n: fastdice.random_lehmer_code(src, n), [H]),
    "random_permutation_unranked": (
        lambda src, n: fastdice.random_permutation_unranked(src, n), [H]),
    "exact_cost_rational": (fastdice.exact_cost_rational, [S]),
    "cost_partial_sum": (fastdice.cost_partial_sum, [H, S]),
    "exact_cost": (fastdice.exact_cost, [H]),
    "toll": (fastdice.toll, [H]),
    "batch_cost": (fastdice.batch_cost, [H, H]),
    "asymptotic_cost": (fastdice.asymptotic_cost, [H, H]),
    "cost_breakdown": (fastdice.cost_breakdown, [H, H]),
    "periodic_fluctuation": (
        lambda k: fastdice.periodic_fluctuation(0.3, k), [H]),
    "CostBreakdown": (lambda n: fastdice.CostBreakdown(n, 1.0, 1.0, 0.0),
                      [H]),
    "FdrOutcome": (fastdice.FdrOutcome, [H, H]),
}
# Callables that take no integer: the interfaces, inversion_count, which
# only compares the items of a sequence, zeta_complex, whose s is
# complex, and the routes whose integers arrive in a record that one of
# the constructors above built.
NO_INTEGER = {"RandomBitSource", "WordGenerator", "inversion_count",
              "zeta_complex", "batch_uniform", "bernoulli_rational",
              "factorial_compose", "factorial_decompose",
              "lehmer_to_permutation_fy", "lehmer_to_permutation_selection",
              "nu", "nu_exact"}
TAKES_SOURCE = {"fdr_uniform", "fdr_uniform_range", "next_bits",
                "fisher_yates", "random_lehmer_code",
                "random_permutation_unranked"}


def calls(rng: random.Random):
    """(name, args): each hostile value in each argument, the others
    valid, then ROUNDS seeded mixes of hostile and valid values."""
    for name in sorted(FUZZED):
        pools = FUZZED[name][1]
        for i, pool in enumerate(pools):
            for bad in pool:
                args = [rng.choice(VALID) for _ in pools]
                args[i] = bad
                yield name, args
        for _ in range(ROUNDS):
            yield name, [rng.choice(pool + VALID) for pool in pools]


def call(name: str, args: list, seed: int) -> None:
    """Make the call; if it raises, its source must be as it was."""
    source = BufferedWordSource(seed)
    source.next_bits(5)
    if name in TAKES_SOURCE:
        args = [source] + args
    before = state(source)
    try:
        FUZZED[name][0](*args)
    except (FastdiceError, ValueError, TypeError) as exc:
        assert state(source) == before, f"{exc!r} after a flip was read"


def test_every_integer_argument_is_fuzzed():
    public = {name for name in fastdice.__all__
              if callable(getattr(fastdice, name))
              and not (isinstance(getattr(fastdice, name), type)
                       and issubclass(getattr(fastdice, name), Exception))}
    assert (set(FUZZED) - {"next_bits"}) | NO_INTEGER == public


def test_every_call_returns_or_refuses_before_the_first_flip():
    rng = random.Random(11)
    for seed, (name, args) in enumerate(calls(rng)):
        try:
            with deadline(SECONDS):
                call(name, args, seed)
        except Exception as exc:  # a Hang, a moved source, or an error
            # the library let through
            raise AssertionError(f"{name}{tuple(args)}: {exc!r}") from exc
