"""Reference implementations the benchmark checks every output against.

Written apart from the library and kept deliberately plain: one bit at a
time from a SplitMix64 word stream, exact rationals for the cost theory.
Each sampler returns its output together with the flips it spent, so a
check covers both the value and the exact flip count.  None of this is
timed.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

MASK64 = (1 << 64) - 1
MAX_RANGE = 1 << 62
EULER_GAMMA = 0.5772156649015329
# Periods of 2 up to this length get the exact rational; longer ones get a
# certified truncated series.
EXACT_PERIOD_LIMIT = 1 << 16


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: (next state, top 32 bits of the output)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return state, z >> 32


class Bits:
    """32-bit SplitMix64 words served most significant bit first."""

    def __init__(self, seed: int):
        self.state = seed & MASK64
        self.word = 0
        self.left = 0
        self.flips = 0
        self.words = 0

    def bit(self) -> int:
        if self.left == 0:
            self.state, self.word = splitmix64(self.state)
            self.left = 32
            self.words += 1
        self.left -= 1
        self.flips += 1
        return (self.word >> self.left) & 1


def words(seed: int, count: int) -> list[int]:
    """The first `count` 32-bit words of the stream for `seed`."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state, w = splitmix64(state)
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# Samplers: each returns (output, flips spent by this call).

def uniform(bits: Bits, n: int) -> tuple[int, int]:
    """Fast Dice Roller on {0..n-1}: double the range, append a flip, and
    recycle the leftover range whenever it reaches n."""
    v, c, used = 1, 0, 0
    while n > 1:
        v *= 2
        c = 2 * c + bits.bit()
        used += 1
        if v >= n:
            if c < n:
                return c, used
            v -= n
            c -= n
    return 0, 0


def bernoulli(bits: Bits, num: int, den: int) -> tuple[int, int]:
    """Expansion bit of num/den at the first position where a flip is 1."""
    if num in (0, den):
        return int(num == den), 0
    used = 0
    while True:
        num *= 2
        digit = int(num >= den)
        num -= digit * den
        used += 1
        if bits.bit():
            return digit, used


def fisher_yates(bits: Bits, n: int) -> tuple[list[int], int]:
    perm = list(range(1, n + 1))
    used = 0
    for i in range(n):
        off, f = uniform(bits, n - i)
        used += f
        perm[i], perm[i + off] = perm[i + off], perm[i]
    return perm, used


def factorial_digits(u: int, n: int) -> list[int]:
    """Factorial-base digits of u, the digit of (n-1)! first."""
    digits = []
    for i in range(n - 1, -1, -1):
        d, u = divmod(u, math.factorial(i))
        digits.append(d)
    return digits


def unranked(bits: Bits, n: int) -> tuple[list[int], int]:
    """One rank below n!, its digits driving a fixed Fisher-Yates pass."""
    u, used = uniform(bits, math.factorial(n))
    perm = list(range(1, n + 1))
    for i, d in enumerate(factorial_digits(u, n)):
        perm[i], perm[i + d] = perm[i + d], perm[i]
    return perm, used


def lehmer_selection(bits: Bits, n: int) -> tuple[list[int], int]:
    """One rank below n!, its digits picking from the remaining values."""
    u, used = uniform(bits, math.factorial(n))
    items = list(range(1, n + 1))
    return [items.pop(d) for d in factorial_digits(u, n)], used


def batch(bits: Bits, n: int, j: int) -> tuple[list[int], int]:
    """j base-n digits of one draw on n**j, most significant first."""
    y, used = uniform(bits, n ** j)
    digits = [0] * j
    for i in range(j - 1, -1, -1):
        y, digits[i] = divmod(y, n)
    return digits, used


def auto_batch(n: int) -> int:
    """Largest j <= 64 with n**j <= 2**62."""
    j = 1
    while j < 64 and n ** (j + 1) <= MAX_RANGE:
        j += 1
    return j


# ---------------------------------------------------------------------------
# Cost theory: u(n) = sum over k >= 0 of (2**k mod n) / 2**k.

def period_of_two(m: int, limit: int) -> int | None:
    """Order of 2 modulo odd m >= 3, or None when it exceeds `limit`."""
    x, d = 2 % m, 1
    while x != 1:
        if d >= limit:
            return None
        x = 2 * x % m
        d += 1
    return d


def _odd_part_cost(m: int) -> float:
    """sum_k (2**k mod m) / 2**k for odd m >= 3, rounded to a double.

    With the period d of 2 mod m known, the residues repeat and the sum
    is 2*A / (2**d - 1), A the period's residues read as binary digits.
    Otherwise the partial sum L over T terms is within m * 2**(1-T) of the
    value, and the double is certain once L and L plus that bound round
    alike.
    """
    d = period_of_two(m, EXACT_PERIOD_LIMIT)
    if d is not None:
        acc, r = 0, 1
        for _ in range(d):
            acc = 2 * acc + r
            r = 2 * r % m
        return float(Fraction(2 * acc, (1 << d) - 1))
    terms = m.bit_length() + 72
    while True:
        acc, r = 0, 1
        for _ in range(terms):
            acc = 2 * acc + r
            r = 2 * r % m
        low = Fraction(acc, 1 << (terms - 1))
        if float(low) == float(low + Fraction(m, 1 << (terms - 1))):
            return float(low)
        terms += 64


def exact_cost(n: int) -> float:
    """u(n) for n = 2**a * m, m odd, rounded as the library rounds it:
    the periodic part for m is rounded to a double before a is added."""
    a = (n & -n).bit_length() - 1
    m = n >> a
    return float(a) if m == 1 else a + _odd_part_cost(m)


def batch_cost(n: int, j: int) -> float:
    return exact_cost(n ** j) / j


def zeta(s: complex, direct: int = 2000, corrections: int = 4) -> complex:
    """Riemann zeta by Euler-Maclaurin: direct terms below N, the integral
    and half terms, then Bernoulli corrections B_2..B_2R."""
    bernoulli = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                 Fraction(-1, 30))
    total = sum(k ** -s for k in range(1, direct))
    total += direct ** (1 - s) / (s - 1) + direct ** -s / 2
    rising = s
    for r in range(1, corrections + 1):
        total += (float(bernoulli[r - 1]) / math.factorial(2 * r)
                  * rising * direct ** (-s - 2 * r + 1))
        rising *= (s + 2 * r - 1) * (s + 2 * r)
    return total


@lru_cache(maxsize=None)
def fourier_coefficients(k_terms: int) -> tuple[complex, ...]:
    """c_k = zeta(1 + i tau_k) / (1 + i tau_k), tau_k = 2 pi k / ln 2."""
    taus = (2 * math.pi * k / math.log(2.0) for k in range(1, k_terms + 1))
    return tuple(zeta(s) / s for s in (complex(1.0, tau) for tau in taus))


def asymptotic_cost(n: int, k_terms: int = 12) -> float:
    """log2 n + 1/2 + (1 - gamma)/ln 2 + P(log2 n), with
    P(x) = -(2/ln 2) * sum_k Re(c_k exp(-2 pi i k x))."""
    ln2 = math.log(2.0)
    x = math.log2(n)
    frac = x % 1.0
    wave = sum((c * cmath.exp(-2j * math.pi * k * frac)).real
               for k, c in enumerate(fourier_coefficients(k_terms), start=1))
    return x + 0.5 + (1.0 - EULER_GAMMA) / ln2 - 2.0 * wave / ln2


def cost_row(n: int) -> tuple[float, float, float, float]:
    """(u, log2 n, toll, asymptotic) as one cost-table row holds them."""
    u = exact_cost(n)
    log2n = math.log2(n)
    return u, log2n, u - log2n, asymptotic_cost(n)


def chi_square(counts: dict[int, int], n: int, total: int) -> float:
    """Goodness of fit against uniform on n cells; unseen cells count
    their whole expectation."""
    expected = total / n
    stat = (n - len(counts)) * expected
    for v in sorted(counts):
        stat += (counts[v] - expected) ** 2 / expected
    return stat
