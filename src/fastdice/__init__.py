"""Entropy-optimal discrete sampling from raw coin flips.

Exact uniform integers, batched uniforms, Bernoulli draws with rational
bias, and uniform random permutations, all fed from a pluggable bit
source and all meeting the Knuth-Yao expected-bit optimum.
The cost side, ``fastdice.cost``, computes the expected bit counts
exactly (as rationals), their toll over the entropy floor, and the
smooth zeta-based approximation.  It is imported on first use of one of
its names, so a program that only samples never loads it.
"""

from .batch import BatchPlan, auto_batch_size, batch_uniform, plan_batch
from .bernoulli import (MAX_DENOMINATOR, Rational, bernoulli_rational,
                        binary_expansion, check_denominator)
from .bitsource import (BufferedWordSource, RandomBitSource, ScriptedBitSource,
                        ScriptedWords, SplitMix64Words, WordGenerator)
from .core import (MAX_UNIFORM_RANGE, FdrOutcome, check_range, fdr_uniform,
                   fdr_uniform_range)
from .errors import (DigitOutOfRange, EmptyRange, FactorialOverflow,
                     FastdiceError, ImproperFraction, Overflow, PoleAtOne,
                     RangeTooLarge, RankOutOfRange, ScriptExhausted)
from .permutation import (LehmerCode, MAX_UNRANK_SIZE, Rank,
                          check_unrank_size, factorial_compose,
                          factorial_decompose, fisher_yates, inversion_count,
                          lehmer_to_permutation_fy,
                          lehmer_to_permutation_selection,
                          random_lehmer_code, random_permutation_unranked)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticParams", "BatchPlan", "BufferedWordSource", "CostBreakdown",
    "DigitOutOfRange", "EULER_GAMMA", "EmptyRange", "FactorialOverflow",
    "FastdiceError", "FdrOutcome", "ImproperFraction", "LehmerCode",
    "MAX_DENOMINATOR", "MAX_UNIFORM_RANGE", "MAX_UNRANK_SIZE", "Overflow",
    "PoleAtOne", "RandomBitSource", "RangeTooLarge", "Rank", "RankOutOfRange",
    "Rational", "ScriptExhausted", "ScriptedBitSource", "ScriptedWords",
    "SplitMix64Words", "WordGenerator",
    "auto_batch_size", "asymptotic_cost", "batch_cost", "batch_uniform",
    "bernoulli_rational", "binary_expansion", "check_denominator",
    "check_range", "check_unrank_size", "cost_breakdown",
    "cost_partial_sum", "exact_cost", "exact_cost_rational", "factorial_compose",
    "factorial_decompose", "fdr_uniform", "fdr_uniform_range", "fisher_yates",
    "inversion_count", "lehmer_to_permutation_fy",
    "lehmer_to_permutation_selection", "nu", "nu_exact",
    "periodic_fluctuation", "plan_batch", "random_lehmer_code",
    "random_permutation_unranked", "toll", "zeta_complex",
]


def __getattr__(name: str):
    """Bind a name of ``__all__`` that no eager import bound: those are
    the cost side's, so import ``fastdice.cost`` on first use (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cost
    value = globals()[name] = getattr(cost, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
