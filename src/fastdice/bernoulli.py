"""Bernoulli sampling with exactly rational bias.

A Bernoulli(k/n) draw is the bit of the binary expansion of k/n found at
a geometric(1/2) position: keep flipping until a flip lands 1, and answer
with the expansion bit at the stopping index.  Position t is reached with
probability 2**-t, and summing 2**-t over the positions whose expansion
bit is 1 gives back exactly k/n.  Expected flips per draw: 2, whatever
the bias.
"""

from __future__ import annotations

from operator import index

from .bitsource import RandomBitSource
from .errors import ImproperFraction, _at_least

# Same doubling guard as the uniform sampler: the expansion state stays
# below 2*den, which must fit comfortably in 64 bits.
MAX_DENOMINATOR = 1 << 62


def check_denominator(den: int) -> None:
    """Raise unless den is an integer within the 2**62 doubling guard.

    Reads no flip, so a caller can validate a draw before making it.

    Raises:
        TypeError: den is not an integer.
        ValueError: den > 2**62.
    """
    if index(den) > MAX_DENOMINATOR:
        raise ValueError(f"denominator {den} exceeds 2**62")


class Rational:
    """A fraction num/den with 0 <= num <= den.  Never auto-reduced:
    reduction would not change any sampling behavior, and keeping the
    caller's numbers makes traces easier to follow.

    Immutable, and equal and hashed by (num, den).  A slots class, not a
    named tuple: ``bernoulli_rational`` reads num and den on every draw,
    and a slot read costs less than a named-tuple field read.  Both
    fields are stored as ints, so a draw never meets a non-integer.

    Raises:
        TypeError: num or den is not an integer.
        ValueError: den < 1, or num outside [0, den].
    """

    __slots__ = ("num", "den")
    __match_args__ = ("num", "den")

    def __init__(self, num: int, den: int):
        num, den = index(num), index(den)
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        if not 0 <= num <= den:
            raise ValueError(f"need 0 <= num <= den, got {num}/{den}")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}"
                f"(num={self.num!r}, den={self.den!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __reduce__(self):
        return type(self), (self.num, self.den)


def binary_expansion(p: Rational, count: int) -> list[int]:
    """First `count` bits after the binary point of p in [0, 1).

    Long division by doubling: v starts at num; each step doubles v,
    emits whether it reached den, and reduces when it did.  For odd den
    the stream is purely periodic with period ord_den(2).

    Raises:
        ImproperFraction: num >= den (the expansion needs p < 1).
        ValueError: den beyond the 2**62 doubling guard, or count < 0.
        TypeError: count is not an integer.
    """
    if p.num >= p.den:
        raise ImproperFraction(f"{p.num}/{p.den} is not in [0, 1)")
    check_denominator(p.den)
    count = _at_least("count", count, 0)
    v = p.num
    den = p.den
    out = []
    for _ in range(count):
        v <<= 1
        if v >= den:
            v -= den
            out.append(1)
        else:
            out.append(0)
    return out


def bernoulli_rational(source: RandomBitSource, p: Rational) -> int:
    """Return 1 with probability exactly p.num/p.den.

    Consumes one flip per expansion bit inspected; the flip stream decides
    the stopping position and never mixes with the expansion values.
    Degenerate biases 0 and 1 return immediately with zero flips.

    Raises:
        ValueError: den beyond the 2**62 doubling guard (from
            ``check_denominator``).
    """
    if not 0 < p.num < p.den <= MAX_DENOMINATOR:  # one comparison per draw
        check_denominator(p.den)
        return int(p.num == p.den)  # bias 0 or 1
    v = p.num
    den = p.den
    next_bit = source.next_bit
    while True:
        v <<= 1
        if v >= den:
            v -= den
            b = 1
        else:
            b = 0
        if next_bit():
            return b
