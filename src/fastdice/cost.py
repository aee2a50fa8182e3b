"""Expected-bit-cost theory for exact uniform sampling.

The expected bits u(n) used by the optimal sampler equal
``sum_k (2**k mod n) / 2**k``, and the Knuth-Yao nu function of a bias
num/den is the same series with residue num in place of 1, over den.
Because r * 2**k mod n is eventually periodic (pre-period = the power of
two in n, period = the multiplicative order of 2 modulo the odd part m),
each series has an exact rational value, which this module computes in
one closed form for both.  That period can be about m steps long, so the
float-returning functions take another route: they truncate the series
to m.bit_length() + 64 terms, sum those in closed form too (one division
and a weighted bit sum, no loop over the terms), and return the double
only once the tail bound certifies that it is correctly rounded.  For
u(n) the scale of that sum is a power of two, so the certificate rounds
its two integer bounds with float() and scales by ldexp, both exact
steps; nu divides by its denominator instead.
On top of that sit the toll t(n) = u(n) - log2(n) in [0, 2], the
per-value cost of batched draws u(n**j)/j, and the smooth approximation
log2(n) + constant + P(log2 n), whose Fourier fluctuation P needs the
Riemann zeta function on the line Re(s) = 1 (computed here by
Euler-Maclaurin summation; no external math dependency).  Its K
coefficients are computed once per K into one cached table,
_fluctuation_terms, which every evaluation of P reads.  One row of
the cost table, cost_breakdown(n), holds n, u(n), log2(n), the toll and
the smooth approximation, each the same double its own function
returns; the row validates n once, takes its log2 once, and sums P
through the same private loop as asymptotic_cost.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .batch import plan_batch
from .bernoulli import Rational
from .errors import PoleAtOne, _at_least, _need

LN2 = math.log(2.0)
EULER_GAMMA = 0.5772156649015329
# Integers below this convert to doubles with room to spare: the largest
# finite double is just under 2**1024.
_FLOAT_SAFE = 1 << 1000


def _split_power_of_two(n: int) -> tuple[int, int]:
    """n = 2**a * m with m odd; returns (a, m)."""
    a = (n & -n).bit_length() - 1
    return a, n >> a


def _period_of_two(m: int) -> int:
    """Multiplicative order of 2 modulo odd m >= 3 (about m steps at worst)."""
    x = 2 % m
    d = 1
    while x != 1:
        x = (x << 1) % m
        d += 1
    return d


@lru_cache(maxsize=None)
def _position_masks(levels: int) -> tuple[tuple[int, int], ...]:
    """(t, M_t) for t < levels, over 2**levels bits: M_t sets bit i
    exactly when bit t of i is set.

    Built by doubling, in time linear in their total size: about
    levels * 2**levels / 8 bytes, 128 KB at 16 levels but 5.6 MB at 21.
    Each mask is stored with its shift, so a sum over them needs no
    ``enumerate``.
    """
    masks: tuple[int, ...] = ()
    for t in range(levels):
        h = 1 << t
        masks = tuple(m | m << h for m in masks) + ((1 << 2 * h) - (1 << h),)
    return tuple(enumerate(masks))


def _weighted_bit_sum(x: int) -> int:
    """sum of i * bit_i(x) * 2**i over the bit positions i of x >= 0.

    Writing each position i in binary, i = sum of 2**t over its set bits
    t, gives sum over t of (x & M_t) << t: one mask, shift and add per
    bit of x's top position, however wide x is.
    """
    levels = (x.bit_length() - 1).bit_length()
    # Caching at most 16 levels keeps the cache under 256 KB; a wider x
    # (over 65536 bits) builds its masks for the one call.
    build = _position_masks if levels <= 16 else _position_masks.__wrapped__
    total = 0
    for t, m in build(levels):
        total += (x & m) << t
    return total


def _horner(r: int, mod: int, terms: int) -> int:
    """sum of (r * 2**k mod mod) * 2**(terms-1-k) over k < terms, for
    0 <= r < mod and terms >= 0.

    Divided by 2**(terms-1) this is the partial sum of
    (r * 2**k mod mod) / 2**k; each omitted term is below mod / 2**k, so
    the tail is below mod * 2**(1-terms).  Summed in closed form: term k
    is r * 2**k minus mod times q_k = floor(r * 2**k / mod), the first k
    binary digits of r/mod.  Those digits are the top bits of
    F = q_{terms-1}, and bit i of F sits in q_k for the i + 1 values of k
    from terms-1-i on, so the q_k part sums to W(F) + F, W the weighted
    bit sum.
    """
    shift = terms - 1 if terms else 0  # no terms: f = 0 and the sum is 0
    f = (r << shift) // mod
    return (r * terms << shift) - mod * (_weighted_bit_sum(f) + f)


def _series_double(r: int, mod: int, den: int, terms: int) -> float:
    """sum of (r * 2**k mod mod) / (den * 2**k) over all k >= 0, correctly
    rounded to a double, for 1 <= r < mod.

    With acc = _horner(r, mod, terms) and scale = den * 2**(terms-1), the
    sum lies in [acc/scale, (acc+mod)/scale).  Rounding is monotone, so
    once both ends round to the same double the sum does too; otherwise
    64 more terms are taken.  When den is 1 and acc + mod is below
    2**1000, the ends are rounded by float(), and the double scaled by
    ldexp: int to float rounds correctly, and scaling a normal double by
    a power of two is exact.  Otherwise (nu, or an n past about 900
    bits) int true division rounds each end correctly.  Either way the
    certificate is as precise as the integers, so it grows with terms.
    Each pass is a few big-int operations on numbers of about terms bits,
    plus one mask pass per bit of terms; none depends on the period of
    2 mod mod.

    Callers start at mod.bit_length() + 64 terms.  The tail is then
    below 2**-63 / den, and the sum is at least its first term
    r/den >= 1/den: 10 bits past a double's 53, so a first pass fails
    only within about 2**-10 ulp of a rounding boundary (6 of the
    99,999 odd mod below 2 * 10**5 for u).  For r = 1 the digit integer
    F in _horner is then below 2**64, so its weighted bit sum takes 6
    mask passes.
    """
    while True:
        acc = _horner(r, mod, terms)
        high = acc + mod
        if den == 1 and high < _FLOAT_SAFE:
            low = float(acc)
            if low == float(high):
                return math.ldexp(low, 1 - terms)
        else:
            scale = den << (terms - 1)
            low = acc / scale
            if low == high / scale:
                return low
        terms += 64


def _series_exact(r: int, mod: int, den: int) -> Fraction:
    """sum of (r * 2**k mod mod) / (den * 2**k) over all k >= 0, exactly.

    The exact twin of _series_double.  With mod = 2**a * w, w odd, the
    first a terms are the truncated sum _horner; from term a on,
    r * 2**k mod mod is 2**a times r' * 2**(k-a) mod w, r' = r mod w, so
    the rest is a periodic sum over w, divided by den.  With d the period
    of 2 mod w, one period of the binary expansion of r'/w is the integer
    E = r' * (2**d - 1) // w.  Position-weighting E's bits turns that
    doubly infinite sum into (w*(d*E - V) + d*r') / (2**d - 1), V the
    weighted bit sum: d*E - V weights each bit of the first period by its
    position, and d*r' adds the d positions by which each later period is
    shifted.  Both parts go over one common denominator, so the Fraction
    is normalised once: at million-bit periods that gcd costs more than
    finding the period and the bit sum.
    """
    a, w = _split_power_of_two(mod)
    head = _horner(r, mod, a) << 1  # the first a terms, over den * 2**a
    if w == 1:
        return Fraction(head, den << a)
    r %= w
    d = _period_of_two(w)
    big = (1 << d) - 1
    e = r * big // w
    top = w * (d * e - _weighted_bit_sum(e)) + d * r  # the rest, over big
    return Fraction(head * big + (top << a), (den * big) << a)


def exact_cost_rational(n: int) -> Fraction:
    """Expected bits of the exact uniform sampler on n values, exactly.

    Runtime and result size grow with the multiplicative order of
    2 mod the odd part of n (worst case about n); use exact_cost when a
    double is enough.

    Raises:
        TypeError: n is not an integer.
        ValueError: n < 1.
    """
    n = _at_least("n", n, 1)
    return _series_exact(1 % n, n, 1)


def cost_partial_sum(n: int, terms: int) -> Fraction:
    """Truncated series for the expected bits: the sum of
    (2**k mod n)/2**k over k < terms, exactly.

    Summed in closed form by _horner, like the float route; it differs
    from the true value by less than n * 2**(1-terms).

    Raises:
        TypeError: n or terms is not an integer.
        ValueError: n < 1 or terms < 1.
    """
    n = _at_least("n", n, 1)
    terms = _at_least("terms", terms, 1)
    return Fraction(_horner(1 % n, n, terms), 1 << (terms - 1))


def exact_cost(n: int) -> float:
    """Expected bits of the exact uniform sampler on n values, as a double.

    For n = 2**a * m with m odd, returns a + (the odd part's series,
    correctly rounded).  The series is summed to m.bit_length() + 64
    terms and certified against its tail bound, with 64 more terms in
    the rare case it cannot be, so the time depends on the bit length of
    n, not on the period of 2 mod m.

    Raises:
        TypeError: n is not an integer.
        ValueError: n < 1.
    """
    return _exact_cost(_at_least("n", n, 1))


def _exact_cost(n: int) -> float:
    """exact_cost for an int n >= 1 the caller has validated."""
    a, m = _split_power_of_two(n)
    if m == 1:
        return float(a)
    return a + _series_double(1, m, 1, m.bit_length() + 64)


def toll(n: int) -> float:
    """Bits paid beyond the entropy floor: u(n) - log2(n), in [0, 2].

    Exactly zero when n is a power of two.

    Raises:
        TypeError: n is not an integer.
        ValueError: n < 1.
    """
    n = _at_least("n", n, 1)
    return _exact_cost(n) - math.log2(n)


def batch_cost(n: int, j: int) -> float:
    """Per-value expected bits when drawing j values as one draw on n**j.

    Equals u(n**j)/j, which sits within 2/j bits of log2(n).

    Raises:
        TypeError: n or j is not an integer.
        ValueError: n < 2 or j < 1.
        Overflow: n**j > 2**62 (the sampler could not run the batch).
    """
    plan = plan_batch(n, j)
    return _exact_cost(plan.n_pow_j) / plan.j


def _lowest_terms(p: Rational) -> tuple[int, int]:
    """(num mod den, den) of p in lowest terms: the residue and modulus of
    its series.  Both p = 0 and p = 1 give (0, 1), where nu is 0."""
    g = math.gcd(p.num, p.den)
    den = p.den // g
    return p.num // g % den, den


def nu_exact(p: Rational) -> Fraction:
    """Knuth-Yao nu at a rational: sum of frac(2**k * p) / 2**k, exactly.

    nu(p) is the expected flips an optimal sampler spends on an outcome
    of probability p.  It is the uniform cost's series with residue num
    in place of 1, over den: the same closed form sums it, with about
    log2(period) mask passes over one period's bits.  Runtime and result
    size still grow with the multiplicative order of 2 mod the odd part
    of den (worst case about den); use nu when a double is enough.

    Raises:
        TypeError: p is not a ``Rational``.
    """
    _need(Rational, p)
    r, den = _lowest_terms(p)
    return _series_exact(r, den, den)


def nu(p: Rational) -> float:
    """nu(p) as a double, correctly rounded.

    A dyadic p is computed exactly.  Otherwise the series of
    frac(2**k * p) / 2**k is summed to den.bit_length() + 64 terms and
    certified against its tail bound, like exact_cost but by true
    division, so the time depends on the bit length of the denominator,
    not on its period.

    Raises:
        TypeError: p is not a ``Rational``.
    """
    _need(Rational, p)
    r, den = _lowest_terms(p)
    if _split_power_of_two(den)[1] == 1:
        return float(_series_exact(r, den, den))
    return _series_double(r, den, den, den.bit_length() + 64)


# ---------------------------------------------------------------------------
# Smooth asymptotic: log2 n + constant + P(log2 n)

# Even-index Bernoulli numbers B_2 .. B_14; B_14 only feeds the
# remainder bound for the B_12 truncation.
_BERNOULLI_EVEN = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
)
_EM_CORRECTIONS = 6  # Bernoulli corrections through B_12


def zeta_complex(s: complex, target_error: float = 1e-12) -> complex:
    """Riemann zeta on Re(s) > 0 by Euler-Maclaurin summation.

    Direct terms up to the first N on a ladder from 50 to 6400 whose
    explicit remainder bound is under target_error, then the integral
    term, the half term, and Bernoulli corrections through B_12.

    Raises:
        TypeError: s is a string (``complex`` would parse it) or not a
            number.
        PoleAtOne: s = 1.
        ValueError: s is too large for a double or for the remainder
            bound in doubles (|s| past about 1e23), Re(s) <= 0, or
            target_error unreachable in doubles.
    """
    if isinstance(s, str):
        raise TypeError("need a number s, got str")
    try:
        s = complex(s)
    except OverflowError:  # a number past the largest double
        raise ValueError("s is too large for a double") from None
    if s == 1:
        raise PoleAtOne("zeta has its pole at s = 1")
    if s.real <= 0:
        raise ValueError(f"need Re(s) > 0, got {s}")
    # The remainder after R = _EM_CORRECTIONS corrections is at most the
    # first omitted one, |B_2R+2| / (2R+2)! * |s(s+1)...(s+2R)| *
    # N**-(Re(s) + 2R + 1), times |s + 2R + 1| / (Re(s) + 2R + 1).  Only
    # the power of N changes down the ladder.  The product is taken on
    # its own, before the small Bernoulli factor, so past |s| of about
    # 1e23 it overflows and no rung is finite.
    two_r = 2 * _EM_CORRECTIONS
    poch_abs = math.prod(abs(s + i) for i in range(two_r + 1))
    omitted = (float(abs(_BERNOULLI_EVEN[_EM_CORRECTIONS]))
               / math.factorial(two_r + 2)) * poch_abs
    grow = s.real + two_r + 1
    last = abs(s + two_r + 1)
    for n_direct in (50, 100, 200, 400, 800, 1600, 3200, 6400):
        bound = omitted * n_direct ** -grow * last / grow
        if bound <= target_error:
            break
    else:
        if not math.isfinite(bound):  # its Pochhammer product overflowed
            raise ValueError(
                f"s is too large for the remainder bound in doubles: {s}")
        raise ValueError(f"cannot certify error {target_error} at {s}")

    total = complex(0.0)
    for k in range(1, n_direct):
        total += cmath.exp(-s * math.log(k))
    n_pow_minus_s = cmath.exp(-s * math.log(n_direct))
    total += n_pow_minus_s * n_direct / (s - 1)   # N^(1-s)/(s-1)
    total += n_pow_minus_s / 2                    # N^(-s)/2
    poch = s  # running product s(s+1)...(s+2r-2)
    n_shift = n_pow_minus_s / n_direct            # N^(-s-2r+1), r = 1
    for r in range(1, _EM_CORRECTIONS + 1):
        coeff = float(_BERNOULLI_EVEN[r - 1]) / math.factorial(2 * r)
        total += coeff * poch * n_shift
        poch *= (s + 2 * r - 1) * (s + 2 * r)
        n_shift /= n_direct * n_direct
    return total


# The n-free term 1/2 + 1/ln2 - gamma/ln2 (about 1.10995).
_CONSTANT = 0.5 + (1.0 - EULER_GAMMA) / LN2


@lru_cache(maxsize=None)
def _fluctuation_terms(k_terms: int) -> tuple[tuple[float, float, float], ...]:
    """(omega_k, 2 Re c_k, 2 Im c_k) for k = 1..k_terms: c_k the Fourier
    coefficient zeta(1 + i*tau_k) / (1 + i*tau_k), tau_k = 2*pi*k / ln2,
    and omega_k the double 2.0 * math.pi * k, so that omega_k * frac is
    the phase 2*pi*k*frac rounded the same way each call.

    Evaluated from k = k_terms down: the remainder bound grows with
    tau_k, so a k_terms that cannot be certified fails on the first
    zeta evaluation instead of after k_terms - 1 good ones.  k_terms
    must be an integer >= 1: zero terms would drop the fluctuation.

    Each pair's factor 2 is stored in its coefficients.  Doubling a
    binary double only raises its exponent, so it is exact and commutes
    with rounding: (2a)*x + (2b)*y rounds to exactly twice a*x + b*y,
    that is to 2*(a*x + b*y), bit for bit.  That holds barring overflow
    and underflow, which the sizes of c_k, cos and sin rule out."""
    out = []
    for k in range(_at_least("k_terms", k_terms, 1), 0, -1):
        s = complex(1.0, 2.0 * math.pi * k / LN2)
        c = zeta_complex(s, 1e-13) / s
        out.append((2.0 * math.pi * k, 2.0 * c.real, 2.0 * c.imag))
    return tuple(reversed(out))


def periodic_fluctuation(log2n: float, k_terms: int = 12) -> float:
    """The truncated Fourier fluctuation P evaluated at log2n.

    Convention: the +k term carries exp(-2*pi*i*k*log2n); the -k term is
    its conjugate, so each pair contributes the real combination
    2*(Re c_k * cos + Im c_k * sin) and the total is real by
    construction.  Since k is an integer, only frac(log2n) matters.
    The terms come from one table per k_terms, _fluctuation_terms,
    which holds each phase step and the doubled coefficients: storing
    the 2 saves a multiply per term, and binary floating point makes
    that exact (see that table's docstring).

    Raises:
        TypeError: log2n is a string or not a real number, or k_terms
            is not an integer.
        ValueError: log2n is NaN, infinite or too large for a double,
            or k_terms < 1, or too large to certify.
    """
    try:
        frac = log2n % 1.0  # NaN when log2n is NaN or infinite
        finite = frac >= 0.0
    except TypeError:  # "3" % 1.0 fails to format; "%s" % 1.0 is a str
        raise TypeError(f"need a real number log2n, got "
                        f"{type(log2n).__name__}") from None
    except OverflowError:  # an int or Fraction past the largest double
        raise ValueError("log2n is too large for a double") from None
    if not finite:
        raise ValueError(f"need a finite log2n, got {log2n}")
    return _fluctuation(frac, k_terms)


def _fluctuation(frac: float, k_terms: int) -> float:
    """P at frac = log2n % 1.0 for a finite log2n the caller has taken:
    the sum behind periodic_fluctuation, which asymptotic_cost and
    cost_breakdown call directly."""
    total = 0.0
    cos, sin = math.cos, math.sin
    for omega, re2, im2 in _fluctuation_terms(k_terms):
        theta = omega * frac
        total += re2 * cos(theta) + im2 * sin(theta)
    return -total / LN2


def asymptotic_cost(n: int, k_terms: int = 12) -> float:
    """Smooth approximation log2(n) + constant + P(log2 n), P truncated
    to k_terms Fourier pairs.

    Good uniformly in n except at the sawtooth jumps (powers of two),
    where a truncated Fourier series necessarily lands near the jump
    midpoint instead of the exact toll 0.

    Raises:
        TypeError: n or k_terms is not an integer.
        ValueError: n < 2, k_terms < 1, or k_terms too large to certify.
    """
    log2n = math.log2(_at_least("n", n, 2))
    return log2n + _CONSTANT + _fluctuation(log2n % 1.0, k_terms)


class CostBreakdown(NamedTuple):
    """One row of the cost table: u(n) split into floor and toll, with
    the smooth approximation, which is None only at n = 1."""

    n: int
    exact_cost: float
    log2n: float
    toll: float
    asymptotic: float | None = None


def cost_breakdown(n: int, k_terms: int = 12) -> CostBreakdown:
    """Assemble the cost table row for one n.

    Every field is the value its standalone call returns: the int n,
    exact_cost(n), math.log2(n), their difference, and
    asymptotic_cost(n, k_terms).  n is validated once and its log2 taken
    once.

    Raises:
        TypeError: n or k_terms is not an integer.
        ValueError: n < 1, k_terms < 1, or k_terms too large to certify.
            n = 1 is no error: its asymptotic field is None, since the
            smooth approximation needs n >= 2, but k_terms is still
            checked.
    """
    n = _at_least("n", n, 1)
    u = _exact_cost(n)
    log2n = math.log2(n)
    if n == 1:  # no fluctuation to compute, but k_terms is still checked
        _at_least("k_terms", k_terms, 1)
        asym = None
    else:
        asym = log2n + _CONSTANT + _fluctuation(log2n % 1.0, k_terms)
    return tuple.__new__(CostBreakdown, (n, u, log2n, u - log2n, asym))
