"""Exact discrete uniform sampling from coin flips.

``fdr_uniform`` draws an integer uniform on {0, ..., n-1} and terminates
with probability 1.  The expected bit count meets the
information-theoretic optimum for this problem (Knuth-Yao bound):
log2(n) plus a bounded toll below 2 bits.

The sampler maintains a candidate c uniform on {0, ..., v-1}.  Each flip
doubles the carried range v and appends one bit to c; whenever v reaches
n, either c already names an answer (c < n) or the pair is reduced by n
and the leftover randomness is kept.  Nothing is discarded, which is
where the optimality comes from.

While v is below n no decision is made, so the flips that bring v back
to n or above are read as one integer: (n-1).bit_length() of them at the
start, and after each reduction the fewest j with v * 2**j >= n.  That
reads exactly the flips a one-flip-per-step loop would, in the same
order, and stops at the same flip.

The draw lives in ``_fdr``, which returns a plain (value, bits_used)
tuple.  ``fdr_uniform`` is the only place that builds the ``FdrOutcome``
record; the samplers that make one draw at a time (batches, unranking,
ranges, the CLI's ``uniform``) index ``[0]`` of ``_fdr`` instead, so a
draw whose bit count nobody reads builds no record.  It builds the
record through ``_new``, ``tuple.__new__`` bound once at import, which
saves both the ``FdrOutcome.__new__`` frame and the attribute lookup on
``tuple`` per call.  The two stay separate functions: measured with
``benchmarks/run.py``, folding the record into ``_fdr`` made the median
single draw 2-3% faster but cost the consumers workload, whose draws
drop the bit count, about 2% of its throughput.

Most draws accept on their first read, so the kernel answers that case
before it sets up anything else: it reads c = source.next_bits(width)
and returns (c, width) at once if c < n.  That needs no check, since
c < n <= 2**width < 2n holds by construction.  The read is a method
call, not a bound method kept in a local: the one read of an accepted
draw would not repay building it.  Only a rejected read fetches
``source.next_bits`` and hands it to ``_recycle``, which calls it once
per step.  ``_recycle`` is the one recycle loop, which both kernels share:
``_fdr`` for one draw, and ``_fdr_shuffle``, the Fisher-Yates shuffle
in one frame.  It draws each offset with the same first read and swaps
it in at once, so a whole permutation pays one call per rejected first
read instead of one per offset, and builds no list of offsets.  Its
sizes fall by one per step, so the width steps down by one when the
size reaches the next power of two below it, and no offset takes a
``bit_length``.  The loop-invariant ``assert`` sits at
the end of each recycle step, so it checks every recycled state; a
source that serves c >= 2**width trips it on the first recycle.  Under
``python -O`` it is stripped, and no input guard rests on it.

A draw whose flips pass the cap C = ``_MAX_FLIPS`` (1024) raises
``FastdiceError`` at its next rejection instead of reading on, so a
stuck source (a caller's generator that yields only ones, say) ends the
draw instead of hanging it.  The check runs only in the recycle loop,
before a step reads anything, so a first-read accept pays nothing for
it.  Returned draws stay exact.  The cap cuts off only draws still
undecided after C flips, and at every decision each value is equally
likely, so given that the draw returns, its value is exactly uniform,
and its flips are those of the uncapped loop.  A fair source reaches
the cap with probability at most r_C / 2**C < 2**(62 - C), where
r_C = 2**C mod n is the size of the range still undecided after C
flips.

A size must be an integer: an int, or anything with ``__index__``.
``check_range`` refuses anything else with ``TypeError`` through
``errors._at_least`` and returns the int it checked.  ``_fdr`` adds no
type test to its path.  A non-int n trips its entry before any flip is
read: 6.0 passes the range comparison but has no ``bit_length``, NaN
fails the comparison and ``check_range``, a string cannot be compared.
``_fdr`` then re-enters with ``check_range(n)``, which either raises
``TypeError`` or hands over the int, so an ``__index__`` integer draws
exactly like its int value.  ``_fdr_shuffle`` has no such entry: its
sizes are at most the length of its list, which its caller checked.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .bitsource import RandomBitSource
from .errors import EmptyRange, FastdiceError, RangeTooLarge, _at_least

# Doubling can momentarily hold v < 2n, so n itself must stay one doubling
# short of the 63-bit line to keep every intermediate inside 64 bits.
MAX_UNIFORM_RANGE = 1 << 62

# A draw still rejected after this many flips raises instead of reading
# on; a fair source gets that far with probability below 2**-962.
_MAX_FLIPS = 1024


def check_range(n: int) -> int:
    """Raise unless n is an integer with 1 <= n <= 2**62, the ranges
    ``fdr_uniform`` draws from; return n as an int.

    Reads no flip, so a caller can validate a draw before making it.

    Raises:
        TypeError: n is not an integer (has no ``__index__``).
        ValueError: n < 1.
        RangeTooLarge: n > 2**62.
    """
    n = _at_least("n", n, 1)
    if n > MAX_UNIFORM_RANGE:
        raise RangeTooLarge(f"n={n} exceeds 2**62")
    return n


class FdrOutcome(NamedTuple):
    """A drawn value together with the number of bits it consumed."""

    value: int
    bits_used: int


_new = tuple.__new__  # builds fdr_uniform's record; see the module docstring


def fdr_uniform(source: RandomBitSource, n: int) -> FdrOutcome:
    """Draw uniformly from {0, ..., n-1} using optimally few random bits.

    Args:
        source: bit source; read through ``next_bits``, only as many
            bits as the draw's decisions need.
        n: number of outcomes, 1 <= n <= 2**62.

    Returns:
        FdrOutcome(value, bits_used).  n == 1 is answered immediately
        with value 0 and zero bits consumed.

    Raises:
        TypeError: n is not an integer.
        ValueError: n < 1.
        RangeTooLarge: n > 2**62.
        All three come from ``check_range`` before any flip is read.
        FastdiceError: the draw was still rejected after more than
            1024 flips, as on a stuck source; see the module docstring.
    """
    return _new(FdrOutcome, _fdr(source, n))


def _fdr(source: RandomBitSource, n: int) -> tuple[int, int]:
    """``fdr_uniform`` as a plain (value, bits_used) tuple."""
    try:
        if not 1 < n <= MAX_UNIFORM_RANGE:  # one comparison on the hot path
            check_range(n)
            return 0, 0
        width = (n - 1).bit_length()
    except (AttributeError, TypeError):  # not an int: its index, or refuse
        return _fdr(source, check_range(n))

    c = source.next_bits(width)
    if c < n:  # accepted on the first read: c < n <= 2**width < 2n
        return c, width
    return _recycle(source.next_bits, n, width, c)


def _recycle(next_bits, n: int, width: int, c: int) -> tuple[int, int]:
    """Finish a draw on n whose first read of width flips, c, was
    rejected (n <= c < 2**width); return (value, bits_used).

    Raises:
        FastdiceError: the draw is still rejected after more than
            ``_MAX_FLIPS`` flips.
    """
    bits = width
    v = 1 << width  # size of the range c is uniform on; n <= v < 2n
    while c >= n:
        if bits > _MAX_FLIPS:
            raise FastdiceError(f"no value for n={n} after {bits} flips: "
                                "the bit source looks stuck")
        # c landed in the rejection band [n, v): recycle it as a uniform
        # draw on the leftover range of size v - n, then double it back
        # to n or above.
        v -= n
        c -= n
        j = width - v.bit_length()
        if v << j < n:
            j += 1
        v <<= j
        c = (c << j) | next_bits(j)
        bits += j
        assert c < v and n <= v < (n << 1)  # loop invariant; stripped under -O
    return c, bits


def _fdr_shuffle(source: RandomBitSource, t: list) -> list:
    """Shuffle t in place by Fisher-Yates and return it: step i swaps
    t[i] with t[i + d], d uniform on the len(t) - i values left.

    Makes the same ``next_bits`` reads as ``_fdr(source, m)`` for
    m = len(t), ..., 2, in that order.  Takes no size check: each m is at
    most len(t), which the caller has checked.
    """
    next_bits = source.next_bits
    n = len(t)
    width = (n - 1).bit_length()
    half = 1 << width >> 1  # the width steps down when m reaches it
    for i in range(n - 1):
        m = n - i
        if m <= half:
            width -= 1
            half >>= 1
        c = next_bits(width)
        if c >= m:  # rejected on the first read
            c = _recycle(next_bits, m, width, c)[0]
        c += i
        t[i], t[c] = t[c], t[i]
    return t


def fdr_uniform_range(source: RandomBitSource, lo: int, hi: int) -> int:
    """Draw uniformly from the inclusive integer range [lo, hi].

    Raises:
        TypeError: lo or hi is not an integer, before any flip.
        EmptyRange: lo > hi.
        RangeTooLarge: hi - lo + 1 > 2**62.
    """
    lo, hi = index(lo), index(hi)
    if lo > hi:
        raise EmptyRange(f"empty range [{lo}, {hi}]")
    return lo + _fdr(source, hi - lo + 1)[0]
