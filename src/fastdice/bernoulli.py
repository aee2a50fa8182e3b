"""Bernoulli sampling with exactly rational bias.

A Bernoulli(k/n) draw is the bit of the binary expansion of k/n found at
a geometric(1/2) position: keep flipping until a flip lands 1, and answer
with the expansion bit at the stopping index.  Position t is reached with
probability 2**-t, and summing 2**-t over the positions whose expansion
bit is 1 gives back exactly k/n.  Expected flips per draw: 2, whatever
the bias.

The stopping position is read in one call, ``next_geometric``, which a
buffered source answers from the unread bits of its buffer.  The
expansion is read in closed form, never digit by digit: the first t bits
of k/n are the integer floor(k * 2**t / n), so bit t is that integer
mod 2 (the same digits ``cost._horner`` reads).
"""

from __future__ import annotations

from operator import index

from .bitsource import RandomBitSource
from .core import MAX_UNIFORM_RANGE
from .errors import ImproperFraction, _at_least, _need

# The uniform sampler's 2**62 limit, kept as spec: the closed form holds
# no expansion state that needs bounding.
MAX_DENOMINATOR = MAX_UNIFORM_RANGE


def check_denominator(den: int) -> int:
    """Raise unless den is an integer with 1 <= den <= 2**62; return den
    as an int.

    Reads no flip, so a caller can validate a draw before making it.

    Raises:
        TypeError: den is not an integer.
        ValueError: den < 1 or den > 2**62.
    """
    den = _at_least("den", den, 1)
    if den > MAX_DENOMINATOR:
        raise ValueError(f"denominator {den} exceeds 2**62")
    return den


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
        num, den = index(num), _at_least("den", den, 1)
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

    They are the `count` binary digits of floor(num * 2**count / den),
    zero-padded on the left.  For odd den the stream is purely periodic
    with period ord_den(2).

    Raises:
        ImproperFraction: num >= den (the expansion needs p < 1).
        ValueError: den beyond the 2**62 limit, or count < 0.
        TypeError: p is not a ``Rational``, or count is not an integer.
    """
    _need(Rational, p)
    if p.num >= p.den:
        raise ImproperFraction(f"{p.num}/{p.den} is not in [0, 1)")
    check_denominator(p.den)
    count = _at_least("count", count, 0)
    # The leading 1 pads the digits to exactly count; [3:] drops "0b1".
    return list(map(int, bin(1 << count | (p.num << count) // p.den)[3:]))


def bernoulli_rational(source: RandomBitSource, p: Rational) -> int:
    """Return 1 with probability exactly p.num/p.den.

    Reads flips up to and including the first 1, as
    ``source.next_geometric()``; if that is flip t, the answer is bit t
    of num/den, floor(num * 2**t / den) mod 2.  The flip
    stream decides the stopping position and never mixes with the
    expansion values.  Degenerate biases 0 and 1 return immediately with
    zero flips.

    The draw needs a source that yields a 1 at last.  On a caller's word
    generator stuck at 0 it never returns: ``next_geometric`` waits for
    a 1 that never comes.  The uniform, batch and permutation routes
    raise ``FastdiceError`` after 1024 flips instead; this one has no
    such cap, because stopping after C flips keeps the returned bit
    exactly Bernoulli(p) only when den is odd and C is a multiple of the
    period of 2 mod den.

    Raises:
        TypeError: p is not a ``Rational`` and its bias is not strictly
            between 0 and 1 with den <= 2**62.  The type is checked only
            off the one-comparison path, so inside that range a look-alike
            with integer fields draws as its ``Rational`` would.
        ValueError: den beyond the 2**62 limit (from
            ``check_denominator``).
    """
    num = p.num
    den = p.den
    if not 0 < num < den <= MAX_DENOMINATOR:  # one comparison per draw
        _need(Rational, p)
        check_denominator(den)
        return int(num == den)  # bias 0 or 1
    return (num << source.next_geometric()) // den & 1
