"""Batched uniform generation.

Drawing j values from {0,...,n-1} one at a time pays the per-draw toll j
times.  Drawing a single uniform on {0,...,n**j - 1} and reading off its
j base-n digits pays the toll once, so the per-value cost drops from
u(n) to u(n**j)/j, within 2/j bits of the log2(n) entropy floor.
"""

from __future__ import annotations

from typing import NamedTuple

from .bitsource import RandomBitSource
from .core import MAX_UNIFORM_RANGE, _fdr, check_range
from .errors import Overflow


class BatchPlan(NamedTuple):
    """A validated (n, j) pair with the precomputed master range n**j."""

    n: int
    j: int
    n_pow_j: int


def plan_batch(n: int, j: int) -> BatchPlan:
    """Validate a batch request and precompute n**j.

    Reads no flip, and bounds j before taking the power, so a huge j
    fails at once instead of building an enormous integer.

    Raises:
        ValueError: n < 2 or j < 1.
        RangeTooLarge: n > 2**62 (from ``check_range``).
        Overflow: n**j > 2**62.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    check_range(n)
    if j > 62:  # n >= 2, so n**j >= 2**j > 2**62
        raise Overflow(f"{n}**{j} exceeds 2**62")
    power = n ** j
    if power > MAX_UNIFORM_RANGE:
        raise Overflow(f"{n}**{j} = {power} exceeds 2**62")
    return BatchPlan(n, j, power)


def auto_batch_size(n: int) -> int:
    """Largest j with n**j <= 2**62.

    n=2 gives 62, n=3 gives 39, n=2**31 gives 2.

    Raises:
        ValueError: n < 2.
        RangeTooLarge: n > 2**62.
        Both come from ``plan_batch(n, 1)``.
    """
    j = 1
    power = plan_batch(n, 1).n_pow_j
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
    y = _fdr(source, plan.n_pow_j)[0]
    n = plan.n
    out = [0] * plan.j
    for i in range(plan.j - 1, -1, -1):
        y, out[i] = divmod(y, n)
    return out
