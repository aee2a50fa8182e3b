"""Batched uniform generation.

Drawing j values from {0,...,n-1} one at a time pays the per-draw toll j
times.  Drawing a single uniform on {0,...,n**j - 1} and reading off its
j base-n digits pays the toll once, so the per-value cost drops from
u(n) to u(n**j)/j, within 2/j bits of the log2(n) entropy floor.

``batch_uniform`` splits the master draw into its digits in its own
frame, least significant first into a list built at its full length, so
it builds no radix list and reverses nothing.  A ``BatchPlan``
is checked when it is built, by ``plan_batch`` or directly, so a draw
checks nothing but the master range.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index

from .bitsource import RandomBitSource
from .core import MAX_UNIFORM_RANGE, _fdr, check_range
from .errors import Overflow, _at_least, _Record


def _checked_power(n: int, j: int) -> tuple[int, int, int]:
    """(n, j, n**j) as ints, for a valid batch request (see ``plan_batch``)."""
    n = _at_least("n", n, 2)
    j = _at_least("j", j, 1)
    check_range(n)
    if j > 62:  # n >= 2, so n**j >= 2**j > 2**62
        raise Overflow(f"{n}**{j} exceeds 2**62")
    power = n ** j
    if power > MAX_UNIFORM_RANGE:
        raise Overflow(f"{n}**{j} = {power} exceeds 2**62")
    return n, j, power


class BatchPlan(_Record, namedtuple("BatchPlan", "n j n_pow_j")):
    """A validated (n, j) pair with the precomputed master range n**j.

    Built by ``plan_batch``; built directly, it runs the same checks and
    also requires n_pow_j == n**j, so a plan that would skew the digits
    cannot exist.  Every field is stored as an int.

    Raises:
        TypeError: a field is not an integer.
        ValueError, RangeTooLarge, Overflow: as ``plan_batch``, or
            n_pow_j != n**j.
    """

    __slots__ = ()

    def __new__(cls, n: int, j: int, n_pow_j: int):
        n, j, power = checked = _checked_power(n, j)
        if index(n_pow_j) != power:
            raise ValueError(f"need n_pow_j == {n}**{j} = {power}, "
                             f"got {n_pow_j}")
        return tuple.__new__(cls, checked)


def plan_batch(n: int, j: int) -> BatchPlan:
    """Validate a batch request and precompute n**j.

    Reads no flip, and bounds j before taking the power, so a huge j
    fails at once instead of building an enormous integer.

    Raises:
        TypeError: n or j is not an integer.
        ValueError: n < 2 or j < 1.
        RangeTooLarge: n > 2**62 (from ``check_range``).
        Overflow: n**j > 2**62.
    """
    return tuple.__new__(BatchPlan, _checked_power(n, j))


def auto_batch_size(n: int) -> int:
    """Largest j with n**j <= 2**62.

    n=2 gives 62, n=3 gives 39, n=2**31 gives 2.

    Raises:
        TypeError: n is not an integer.
        ValueError: n < 2.
        RangeTooLarge: n > 2**62.
        All come from ``plan_batch``'s checks on (n, 1).
    """
    n, j, power = _checked_power(n, 1)
    while power * n <= MAX_UNIFORM_RANGE:
        power *= n
        j += 1
    return j


def batch_uniform(source: RandomBitSource, plan: BatchPlan) -> list[int]:
    """Draw j uniform values on {0,...,n-1} from one master draw.

    The master uniform on {0,...,n**j - 1} is decomposed into base-n
    digits, most significant digit first.  The digits are independent
    and exactly uniform, in the listed order.
    """
    n = plan.n
    y = _fdr(source, plan.n_pow_j)[0]
    digits = [0] * plan.j
    for i in range(plan.j - 1, 0, -1):
        digits[i] = y % n
        y //= n
    digits[0] = y  # y < n after j - 1 divisions
    return digits
