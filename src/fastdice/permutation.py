"""Uniform random permutations at optimal bit cost.

Every permutation of {1,...,n} here is a Lehmer code (factorial-base
digits, the digit of positional size n - idx at index idx) sent through
a fixed bijection.  Two ways to draw a code, times two bijections:

* Drawing the code: digit by digit, each uniform on its own size, which
  spends u(n) + ... + u(2) flips (``fisher_yates``, each digit drawn
  and swapped in at once by ``core._fdr_shuffle``); or as one uniform
  rank below n! split in factorial base by ``_code``, which spends
  u(n!) flips, the optimum for the whole object
  (``random_lehmer_code``).
* Mapping it: the Fisher-Yates swaps, where step i swaps position i
  with i + digit i (``lehmer_to_permutation_fy``, linear time); or
  Laisant's selection construction (``lehmer_to_permutation_selection``,
  quadratic), kept because its inversion count equals the digit sum, a
  sharp test oracle.

``fisher_yates`` is the digit-by-digit draw through the swaps and
``random_permutation_unranked`` is the rank draw through the swaps; the
rank draw through the selection construction is the CLI's ``lehmer``
method.  The drawing routes go from the drawn integers straight to the
digits and the swaps, and build no ``Rank``.

``_code`` is the one split of a rank into its code, for both
``factorial_decompose`` and ``random_lehmer_code``.  The digits of a
rank below n! are in range by construction, so no ``LehmerCode`` built
from a rank is checked again: a ``Rank`` has already checked its value
against n!, and a drawn rank is below n!.

``_swaps`` walks the digits of a code it is given.  Neither drawing
route goes through it: each swaps every digit in as it comes, in one
frame.  ``fisher_yates``'s shuffle, in ``core`` next to ``_fdr``'s first
read, swaps each digit in the step that draws it.
``random_permutation_unranked`` divides its rank's digits out most
significant first and swaps each in the step that divides it out.
Feeding ``_swaps`` instead would need the digits as a list (a second
loop over n - 1 stored values) or as a generator (a frame resumed per
digit), and either costs more than the swap line it would share.  Every
divisor of the rank route fits in one of CPython's 30-bit int digits
(12! < 2**30 < 13!), so each division is by a single digit: the rank
is split once into its quotient and remainder by 12!, and the upper
digits come from the quotient, the lower from the remainder.

Permutation values are one-indexed; ranks and code digits are zero-based.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import index
from typing import Iterable, Sequence

from .bitsource import RandomBitSource
from .core import _fdr, _fdr_shuffle, check_range
from .errors import (DigitOutOfRange, FactorialOverflow, RankOutOfRange,
                     _at_least, _Record)

# 20! = 2432902008176640000 < 2**62 < 21!; larger sizes would push the
# rank draw past the uniform sampler's doubling guard.
MAX_UNRANK_SIZE = 20


def check_unrank_size(n: int) -> int:
    """Raise unless n is an integer with 0 <= n <= 20, the sizes whose
    rank below n! can be drawn; return n as an int.

    Reads no flip, so a caller can validate a draw before making it.

    Raises:
        TypeError: n is not an integer.
        ValueError: n < 0.
        FactorialOverflow: n > 20.
    """
    n = _at_least("n", n, 0)
    if n > MAX_UNRANK_SIZE:
        raise FactorialOverflow(
            f"{n}! exceeds the 64-bit working range (cap is n = 20)")
    return n


def _unranking(split: int) -> tuple:
    """For each n <= 20, how ``random_permutation_unranked`` divides a
    rank y below n!: (n!, split!, upper, lower).

    Step i takes digit floor(y / k!) mod (n - i), k = n - 1 - i.  With
    y = hi * split! + lo, the steps with k >= split divide hi by
    ``upper``, k!/split!, and the others divide lo by ``lower``, k!.
    Both run most significant first, each step keeping the remainder
    of its division; the last digit, always 0, has no step.
    """
    f = math.factorial
    return tuple(
        (f(n), f(split),
         tuple(f(k) // f(split) for k in range(n - 1, split - 1, -1)),
         tuple(f(k) for k in range(min(n, split) - 1, 0, -1)))
        for n in range(MAX_UNRANK_SIZE + 1))


# 12! is the largest factorial below 2**30, and 19!/12! < 2**28.
_UNRANKING = _unranking(12)


class LehmerCode(_Record, namedtuple("LehmerCode", "digits")):
    """Factorial-base digits (X_n, ..., X_1), highest position first.

    digits[idx] is the digit of positional size n - idx, so it must lie
    in [0, n - idx).  The last digit is forced to 0.  The digits are
    stored as a tuple of ints.

    Raises:
        TypeError: a digit is not an integer.
        DigitOutOfRange: a digit outside [0, n - idx).
    """

    __slots__ = ()

    def __new__(cls, digits: tuple[int, ...]):
        digits = tuple(map(index, digits))
        n = len(digits)
        for idx, d in enumerate(digits):
            if not 0 <= d < n - idx:
                raise DigitOutOfRange(
                    f"digit {d} at position size {n - idx} (index {idx})")
        return tuple.__new__(cls, (digits,))

    @property
    def n(self) -> int:
        return len(self.digits)


class Rank(_Record, namedtuple("Rank", "value n")):
    """A permutation rank: an integer in [0, n!).

    Raises:
        TypeError: value or n is not an integer.
        ValueError: n < 0 (checked before the value).
        RankOutOfRange: value outside [0, n!).
    """

    __slots__ = ()

    def __new__(cls, value: int, n: int):
        n = _at_least("n", n, 0)
        value = index(value)
        # n! >= 2**(n-1), so n! is taken only when n <= value.bit_length():
        # Rank(0, 10**23) must not compute 10**23!.
        if value < 0 or value.bit_length() >= n and value >= math.factorial(n):
            raise RankOutOfRange(f"rank {value} outside [0, {n}!)")
        return tuple.__new__(cls, (value, n))


def _code(y: int, n: int) -> LehmerCode:
    """The Lehmer code of a rank 0 <= y < n!, for any n.

    Digit idx is divided out with its positional size n - idx, from the
    last digit up, into a list built at full length; the last digit,
    of size 1, is always 0 and is not divided out.  The digits are in
    range by construction, so the record skips ``LehmerCode``'s check.
    """
    digits = [0] * n
    for idx in range(n - 2, -1, -1):
        y, digits[idx] = divmod(y, n - idx)
    return tuple.__new__(LehmerCode, (tuple(digits),))


def factorial_decompose(rank: Rank) -> LehmerCode:
    """Write a rank in factorial base: U = X_n*(n-1)! + ... + X_1*0!.

    Repeated division by the mixed radix 1, 2, ..., n yields the digits
    from the lowest position up; the digit bounds make the representation
    unique.
    """
    return _code(rank.value, rank.n)


def factorial_compose(code: LehmerCode) -> Rank:
    """Inverse of factorial_decompose (Horner in the mixed radix)."""
    n = code.n
    value = 0
    for idx, d in enumerate(code.digits):
        value = value * (n - idx) + d
    return Rank(value, n)


def lehmer_to_permutation_selection(code: LehmerCode) -> list[int]:
    """Laisant's selection construction (quadratic, kept for its oracle).

    Repeatedly pick the X_i-th remaining element of the sorted list.
    The inversion count of the result equals sum(code.digits).
    """
    items = list(range(1, code.n + 1))
    return [items.pop(d) for d in code.digits]


def _swaps(t: list[int], offsets: Iterable[int]) -> list[int]:
    """Step i (0-based) swaps t[i] with t[i + offsets[i]], in place;
    returns t."""
    for i, d in enumerate(offsets):
        k = i + d
        t[i], t[k] = t[k], t[i]
    return t


def lehmer_to_permutation_fy(code: LehmerCode) -> list[int]:
    """Map a code to a permutation by a deterministic Fisher-Yates pass.

    Iteration i (1-based) swaps position i with position i + X_{n-i+1},
    i.e. digits drive the shuffle in the order they were decomposed.
    Linear time; a different bijection than the selection construction.
    """
    return _swaps(list(range(1, code.n + 1)), code.digits)


def fisher_yates(source: RandomBitSource, n: int) -> list[int]:
    """Uniform random permutation of {1,...,n} by exact-uniform swaps.

    Step i (0-based) swaps with an offset uniform on n - i values, drawn
    in that step by ``_fdr_shuffle``; the last one, on a single value, is
    always 0 and is not drawn, which saves a call and no flip.

    Raises:
        TypeError: n is not an integer.
        ValueError: n < 0.
        RangeTooLarge: n > 2**62 (from ``check_range``), before the
            list of n values is built.
    """
    n = _at_least("n", n, 0)
    check_range(n or 1)  # n = 0 is the empty permutation
    # The list comes first, so an n too large for memory fails before
    # any flip is read.
    return _fdr_shuffle(source, list(range(1, n + 1)))


def random_lehmer_code(source: RandomBitSource, n: int) -> LehmerCode:
    """Uniform Lehmer code of size n from a single uniform rank below n!.

    Draws U uniform on [0, n!) and decomposes it in factorial base.
    Total expected bits are u(n!), optimal for generating the code (and
    so any permutation it maps to) as one object.

    Raises:
        TypeError: n is not an integer.
        ValueError: n < 0.
        FactorialOverflow: n > 20 (n! would exceed the 64-bit budget).
        All come from ``check_unrank_size``.
    """
    n = check_unrank_size(n)
    return _code(_fdr(source, math.factorial(n))[0], n)


def random_permutation_unranked(source: RandomBitSource, n: int) -> list[int]:
    """Uniform permutation from a single uniform rank below n!.

    The digits ``random_lehmer_code`` draws, sent through the
    Fisher-Yates swaps (``lehmer_to_permutation_fy``) as they are divided
    out, most significant first, without building the code.  Total
    expected bits are u(n!), optimal for generating the permutation as
    one object.

    Raises:
        TypeError: n is not an integer.
        ValueError: n < 0.
        FactorialOverflow: n > 20 (n! would exceed the 64-bit budget).
        All come from ``check_unrank_size``.
    """
    n = check_unrank_size(n)  # before the list is built
    size, split, upper, lower = _UNRANKING[n]
    hi, lo = divmod(_fdr(source, size)[0], split)
    t = list(range(1, n + 1))
    for i, f in enumerate(upper):
        k = i + hi // f
        hi %= f
        t[i], t[k] = t[k], t[i]
    for i, f in enumerate(lower, len(upper)):
        k = i + lo // f
        lo %= f
        t[i], t[k] = t[k], t[i]
    return t


def inversion_count(perm: Sequence[int]) -> int:
    """Number of pairs i < j with perm[i] > perm[j] (plain O(n^2) count)."""
    n = len(perm)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                total += 1
    return total
