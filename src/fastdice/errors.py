"""Exception types shared across the package, and its one integer guard.

Every layer imports this module, so the rule "this argument is an
integer >= k" lives here once, in ``_at_least``: the range, size, count
and term checks of ``core``, ``batch``, ``bernoulli``, ``permutation``
and ``cost`` all go through it.  An integer means anything with
``__index__``; anything else (a float, NaN, a ``Fraction``, a
``Decimal``, a string) raises ``TypeError`` from ``operator.index``
before any flip is read.

The validating records (``LehmerCode``, ``Rank`` and ``BatchPlan``)
are ``namedtuple`` subclasses that check their fields in ``__new__``;
each also inherits ``_Record``, so that ``_replace`` builds through
that ``__new__`` and validates too.  A function that takes a record,
or a ``Rational``, without checking its fields again calls ``_need``
first, which refuses anything of another type with ``TypeError``: an
object that merely has the same fields has had no range check.  These
are ``batch_uniform``, ``factorial_decompose``, both
``lehmer_to_permutation`` routes, ``binary_expansion``, ``nu`` and
``nu_exact``; ``bernoulli_rational`` calls it only off its
one-comparison path.
"""

from operator import index


def _at_least(name: str, value, lo: int) -> int:
    """``value`` as an int, if it is an integer >= lo.

    Raises:
        TypeError: value has no ``__index__``.
        ValueError: value < lo, as ``need {name} >= {lo}, got {value}``.
    """
    value = index(value)
    if value < lo:
        raise ValueError(f"need {name} >= {lo}, got {value}")
    return value


def _need(kind: type, record) -> None:
    """Raise ``TypeError`` unless record is a ``kind``, before any of
    its fields is read: an object that only looks like one has had no
    range check."""
    if not isinstance(record, kind):
        raise TypeError(
            f"need a {kind.__name__}, got {type(record).__name__}")


class _Record:
    """Mixin for a ``namedtuple`` subclass that validates in ``__new__``:
    ``_make``, and so ``_replace``, builds through ``__new__`` too.  It
    goes before the ``namedtuple`` base."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class FastdiceError(Exception):
    """Base class for all errors raised by this package."""


class ScriptExhausted(FastdiceError):
    """A scripted bit/word source ran out of entries."""


class RangeTooLarge(FastdiceError):
    """Requested uniform range exceeds the 2**62 doubling guard."""


class EmptyRange(FastdiceError):
    """Range [lo, hi] with lo > hi."""


class Overflow(FastdiceError):
    """Batch size n**j exceeds the 2**62 guard."""


class ImproperFraction(FastdiceError):
    """Binary expansion needs a fraction strictly inside [0, 1)."""


class RankOutOfRange(FastdiceError):
    """Permutation rank outside [0, n!)."""


class DigitOutOfRange(FastdiceError):
    """Factorial-base digit violates 0 <= digit < position size."""


class FactorialOverflow(FastdiceError):
    """n! would not fit in the 64-bit budget (n > 20)."""


class PoleAtOne(FastdiceError):
    """zeta(s) evaluated at its pole s = 1."""
