import cmath
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest

from fastdice import (EULER_GAMMA, CostBreakdown, Overflow, PoleAtOne,
                      Rational, asymptotic_cost, batch_cost, cost_breakdown,
                      cost_partial_sum, exact_cost, exact_cost_rational, nu,
                      nu_exact, periodic_fluctuation, toll, zeta_complex)
from fastdice import cost as cost_module
from fastdice.cost import LN2

from conftest import Index


# ------------------------------------------------------------ exact cost


def test_known_rational_values():
    assert exact_cost_rational(1) == 0
    assert exact_cost_rational(2) == 1
    assert exact_cost_rational(4) == 2
    assert exact_cost_rational(1024) == 10
    assert exact_cost_rational(3) == Fraction(8, 3)
    assert exact_cost_rational(5) == Fraction(18, 5)
    assert exact_cost_rational(6) == Fraction(11, 3)
    assert exact_cost_rational(7) == Fraction(24, 7)
    assert exact_cost_rational(9) == Fraction(14, 3)
    assert exact_cost_rational(24) == Fraction(17, 3)
    assert exact_cost_rational(100) == Fraction(1548, 205)


def test_cost_validation():
    with pytest.raises(ValueError):
        exact_cost_rational(0)
    with pytest.raises(ValueError):
        exact_cost(0)
    with pytest.raises(ValueError):
        cost_partial_sum(3, 0)


def test_rational_vs_truncated_cross_check():
    # the closed-form periodic value against the truncated series (itself
    # locked to a term-by-term reference_horner in test_differential); the
    # tail after K terms is below n * 2**(1-K)
    for n in [3, 5, 6, 7, 9, 24, 100, 729, 1000]:
        exact = exact_cost_rational(n)
        for terms in (80, 120):
            partial = cost_partial_sum(n, terms)
            assert 0 <= exact - partial < Fraction(n, 1 << (terms - 1))


# exact_cost_rational of 3**13 takes seconds; several tests need it
cached_rational = lru_cache(maxsize=None)(exact_cost_rational)


def rounded_cost(n):
    """a + float(odd part's exact rational), the rounding exact_cost does."""
    a = (n & -n).bit_length() - 1
    return a + float(cached_rational(n >> a))


def test_float_route_matches_rational():
    # the float route is the certified truncated series; it must give the
    # exact rational's double bit for bit, also where the period of 2 is
    # long (2*3**11 for 3**12, 2*3**12 for 3**13)
    for n in [2, 3, 5, 24, 729, 4095, 104729, 3 ** 12, 3 ** 13, 3 ** 12 * 64]:
        assert exact_cost(n) == rounded_cost(n)


def test_truncated_fallback_past_period_cap():
    # ord of 2 mod 3**12 is 2*3**11 = 354294; the float route never looks
    # for it, and the two routes agree to the last bit
    n = 3 ** 12
    assert exact_cost(n) == float(cached_rational(n))


def test_float_routes_never_need_the_period(monkeypatch):
    # the float functions run in time set by the bit length, so they
    # must not look for the period of 2 (about 2**62 steps for some m)
    def refuse(m):
        raise AssertionError(f"period of 2 mod {m} requested")
    monkeypatch.setattr(cost_module, "_period_of_two", refuse)
    for n in [3 ** 12, 3 ** 39, 2 ** 61 - 1, 2 ** 62 - 1, 10 ** 18 + 9]:
        assert exact_cost(n) >= math.log2(n)
        assert 0.0 <= toll(n) <= 2.0
        assert cost_breakdown(n).exact_cost == exact_cost(n)
        assert 0.0 < nu(Rational(1, n)) < 1.0
    assert math.log2(3) < batch_cost(3, 39) < math.log2(3) + 2 / 39
    assert batch_cost(1000, 3) == exact_cost(10 ** 9) / 3


def test_certification_extends_the_series(monkeypatch):
    # starting from one term the tail bound cannot certify a double, so the
    # series grows by 64 terms at a time until it does, and still lands on
    # the exact rational's double
    calls = []
    horner = cost_module._horner

    def counting(r, mod, terms):
        calls.append(terms)
        return horner(r, mod, terms)
    monkeypatch.setattr(cost_module, "_horner", counting)
    for n in [3, 7, 3 ** 13, 104729]:
        calls.clear()
        assert cost_module._series_double(1, n, 1, 1) == \
            float(cached_rational(n))
        assert calls[:2] == [1, 65]
    calls.clear()
    n = 3 ** 12
    assert cost_module._series_double(1, n, n, 1) == \
        float(cached_rational(n) / n) == nu(Rational(1, n))
    assert len(calls) > 1


def test_doubling_identity():
    # u(2n) = u(n) + 1, exactly in rationals
    for n in range(1, 300):
        assert exact_cost_rational(2 * n) == exact_cost_rational(n) + 1
    for n in [999, 4095, 104729]:
        assert exact_cost_rational(2 * n) == exact_cost_rational(n) + 1


# ------------------------------------------------------------------ toll


def test_toll_zero_at_powers_of_two():
    for m in range(13):
        assert toll(1 << m) == 0.0


def test_toll_of_three():
    assert toll(3) == pytest.approx(8 / 3 - math.log2(3), abs=1e-12)
    assert toll(3) == pytest.approx(1.0817041659455104, abs=1e-12)


def test_toll_bounds():
    for n in range(1, 1025):
        t = toll(n)
        assert 0.0 <= t <= 2.0


# ------------------------------------------------------------ batch cost


def test_batch_cost_dyadic():
    for j in (1, 5, 30, 62):
        assert batch_cost(2, j) == 1.0


def test_batch_cost_examples():
    assert batch_cost(3, 2) == pytest.approx(7 / 3, abs=1e-12)
    six = batch_cost(3, 6)
    assert six == pytest.approx(float(exact_cost_rational(729)) / 6, abs=1e-12)
    assert math.log2(3) < six < float(exact_cost_rational(3))


def test_batch_cost_errors():
    with pytest.raises(Overflow):
        batch_cost(10, 19)
    with pytest.raises(ValueError):
        batch_cost(1, 3)
    with pytest.raises(ValueError):
        batch_cost(3, 0)


def test_batch_toll_bound():
    # the per-value toll shrinks like 2/j
    for n in (3, 5, 10):
        for j in (1, 2, 4, 8):
            assert 0 <= batch_cost(n, j) - math.log2(n) <= 2 / j


def test_batch_cost_huge_exponent():
    # 3**39 fits under 2**62 but its period is astronomically long; the
    # float route sums about 134 terms whatever the period
    val = batch_cost(3, 39)
    assert math.log2(3) < val < math.log2(3) + 2 / 39


# ------------------------------------------------------------------- nu


def test_nu_degenerate():
    assert nu_exact(Rational(0, 5)) == 0
    assert nu_exact(Rational(5, 5)) == 0
    assert nu(Rational(0, 1)) == 0.0
    assert nu(Rational(1, 1)) == 0.0


def test_nu_half():
    # {2^k / 2} is 1/2 at k=0 and 0 afterwards
    assert nu_exact(Rational(1, 2)) == Fraction(1, 2)


def test_nu_pair_identity_non_dyadic():
    # nu(p) + nu(1-p) = sum 2^-k = 2 when no 2^k p is ever an integer
    for num, den in [(1, 3), (2, 5), (3, 7), (5, 11), (4, 9)]:
        assert nu_exact(Rational(num, den)) \
            + nu_exact(Rational(den - num, den)) == 2


def test_nu_pair_identity_dyadic_shortfall():
    # dyadic p terminates: both expansions go to zero after t bits and
    # the pair sum drops to 2 - 2**(1-t)
    assert nu_exact(Rational(7, 16)) + nu_exact(Rational(9, 16)) \
        == Fraction(15, 8)
    assert nu_exact(Rational(1, 2)) + nu_exact(Rational(1, 2)) == 1


def test_nu_additivity_recovers_uniform_cost():
    # n equal outcomes: n * nu(1/n) = u(n), exactly
    for n in range(2, 60):
        assert n * nu_exact(Rational(1, n)) == exact_cost_rational(n)


def test_nu_exact_sums_the_period_in_closed_form(monkeypatch):
    # only the pre-period (3 terms for den = 8 * 3**10) is summed term by
    # term; the period of 2 mod 3**10 (2 * 3**9 digits) never is
    calls = []
    horner = cost_module._horner

    def recording(r, mod, terms):
        calls.append(terms)
        return horner(r, mod, terms)
    monkeypatch.setattr(cost_module, "_horner", recording)
    nu_exact(Rational(1, 8 * 3 ** 10))
    assert calls and max(calls) <= 3
    n = 3 ** 12
    assert nu_exact(Rational(1, n)) == cached_rational(n) / n


def test_nu_ignores_common_factors():
    assert nu_exact(Rational(2, 6)) == nu_exact(Rational(1, 3))


def test_nu_float_route():
    for num, den in [(1, 3), (3, 7), (7, 16), (1, 97), (5, 24), (2, 6)]:
        assert nu(Rational(num, den)) == float(nu_exact(Rational(num, den)))
    # long periods: n * nu(1/n) = u(n) gives the exact rational cheaply
    for n in (3 ** 12, 3 ** 13):
        assert nu(Rational(1, n)) == float(cached_rational(n) / n)


def test_nu_truncated_fallback():
    # denominator with a long period (2*3**11): check against u(n)/n
    n = 3 ** 12
    assert nu(Rational(1, n)) == pytest.approx(exact_cost(n) / n, abs=1e-12)


# ------------------------------------------------------------------ zeta


def test_zeta_classical_anchors():
    assert zeta_complex(2).real == pytest.approx(math.pi ** 2 / 6, abs=1e-10)
    assert zeta_complex(4).real == pytest.approx(math.pi ** 4 / 90, abs=1e-10)
    assert zeta_complex(3).real == pytest.approx(1.2020569031595943, abs=1e-10)
    assert abs(zeta_complex(2).imag) < 1e-13


def test_zeta_self_consistency_off_axis():
    # same point, two very different truncations: 1e-12 is met at the
    # ladder's first rung, 50 direct terms, and 1e-37 only at 800
    s = complex(1.0, 2.0 * math.pi / LN2)
    a = zeta_complex(s, 1e-12)
    b = zeta_complex(s, 1e-37)
    assert abs(a - b) < 1e-10


def test_zeta_against_mpmath():
    mpmath.mp.dps = 30
    for k in range(1, 13):
        s = complex(1.0, 2.0 * math.pi * k / LN2)
        ours = zeta_complex(s, 1e-13)
        ref = mpmath.zeta(mpmath.mpc(s.real, s.imag))
        assert abs(ours - complex(ref)) < 1e-10


def test_zeta_domain_errors():
    with pytest.raises(PoleAtOne):
        zeta_complex(1)
    with pytest.raises(ValueError):
        zeta_complex(complex(0.0, 3.0))
    with pytest.raises(ValueError):
        zeta_complex(complex(-2.0, 0.0))
    # complex() would parse a string, which no other numeric argument
    # of the package accepts
    for s in ("2", "1+2j", b"2"):
        with pytest.raises(TypeError):
            zeta_complex(s)
    with pytest.raises(ValueError, match="s is too large for a double"):
        zeta_complex(2 ** 2000)
    # past |s| of about 1e23 the remainder bound's Pochhammer product
    # overflows and the bound is NaN or inf; the error says so instead
    # of reporting the target as uncertifiable
    for s in (1e24, 1e300, complex(0.5, 1e300)):
        with pytest.raises(ValueError, match="s is too large for the "
                                             "remainder bound in doubles"):
            zeta_complex(s)
    assert zeta_complex(3e23) == 1


# ------------------------------------------------------------ asymptotic


def test_constant_term():
    constant = cost_module._CONSTANT
    assert constant == pytest.approx(1.1099488636120963, abs=1e-9)
    assert constant == 0.5 + (1.0 - EULER_GAMMA) / LN2


def test_fluctuation_is_real_pairing():
    # rebuild P from the two-sided complex sum; the conjugate pairs must
    # cancel imaginary parts and match the cosine/sine form
    # the table holds 2 Re c_k and 2 Im c_k; halving them is exact
    coeffs = [complex(re2, im2) / 2
              for _, re2, im2 in cost_module._fluctuation_terms(12)]
    for x in (0.0, 0.123, 0.5, 0.876, 3.25):
        two_sided = 0j
        for k, c in enumerate(coeffs, start=1):
            term = c * cmath.exp(complex(0.0, -2.0 * math.pi * k * x))
            two_sided += term + term.conjugate()
        two_sided *= -1.0 / LN2
        assert abs(two_sided.imag) < 1e-12
        assert periodic_fluctuation(x) == pytest.approx(two_sided.real,
                                                        abs=1e-12)


def test_fluctuation_refuses_a_bad_log2n():
    # "3" % 1.0 would be string formatting, and NaN or an infinity
    # would give a NaN fluctuation
    for bad in ("3", "%s", b"3", None, 1j):
        with pytest.raises(TypeError, match="log2n"):
            periodic_fluctuation(bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="need a finite log2n"):
            periodic_fluctuation(bad)
    # the edges of a finite log2n still evaluate
    assert math.isfinite(periodic_fluctuation(-1e-300))
    assert math.isfinite(periodic_fluctuation(1e300))


def test_fluctuation_refuses_a_log2n_past_a_double():
    # log2n % 1.0 converts to a double first; the message stays short
    # instead of printing a 400-digit int
    for bad in (10**400, -10**400, Fraction(10**400)):
        with pytest.raises(ValueError) as info:
            periodic_fluctuation(bad)
        assert str(info.value) == "log2n is too large for a double"
    # the largest power of two a double holds still evaluates
    for edge in (2**1023, -2**1023, Fraction(2**1023)):
        assert periodic_fluctuation(edge) == periodic_fluctuation(0.0)


def test_fluctuation_period_one():
    for x in (0.3, 0.7):
        assert periodic_fluctuation(x) == pytest.approx(
            periodic_fluctuation(x + 5.0), abs=1e-12)


def test_asymptotic_interior_accuracy():
    # the toll has jumps at powers of two and at n = 2^m/k for small odd
    # k; at points away from all the big jumps the dozen-term series
    # tracks the exact cost closely
    for n in (3, 5, 300, 729, 2500):
        assert abs(asymptotic_cost(n) - exact_cost(n)) < 0.05


def test_asymptotic_jump_midpoint():
    # at n = 2^m the exact toll is 0 but the truncated Fourier series
    # lands near the middle of the 0 -> 2 jump
    for m in (8, 10, 12):
        over = asymptotic_cost(1 << m) - m
        assert over == pytest.approx(0.994606, abs=1e-4)


def test_asymptotic_validation():
    with pytest.raises(ValueError):
        asymptotic_cost(1)
    with pytest.raises(TypeError):
        asymptotic_cost(2.5)
    # zero terms would silently drop the fluctuation
    for k_terms, error in ((0, ValueError), (-3, ValueError),
                           (6.0, TypeError), ("12", TypeError)):
        with pytest.raises(error):
            asymptotic_cost(10, k_terms)


def test_fourier_coefficients_decay():
    # |c_k| = |zeta(1 + i tau_k)| / |1 + i tau_k| decays like 1/k since
    # tau_k = 2 pi k / ln2 grows linearly and zeta stays O(1) on the line
    coeffs = [complex(re2, im2) / 2
              for _, re2, im2 in cost_module._fluctuation_terms(20)]
    for k, c in enumerate(coeffs, start=1):
        assert abs(c) < 0.4 / k


def test_uncertifiable_terms_fail_on_the_first_zeta(monkeypatch):
    # the remainder bound grows with tau_k, so the coefficients are taken
    # from k = K down, and K = 601, the first K beyond 1e-13, fails at once
    calls = []
    zeta = cost_module.zeta_complex

    def counting(s, *args):
        calls.append(s)
        return zeta(s, *args)
    monkeypatch.setattr(cost_module, "zeta_complex", counting)
    with pytest.raises(ValueError, match="cannot certify error 1e-13"):
        cost_module._fluctuation_terms(601)
    assert len(calls) == 1


# ------------------------------------------------------------- breakdown


def test_cost_breakdown_consistency():
    # every field is the double its standalone call returns, to the last
    # bit: short n, n > 2**40, powers of two, n = 1, an __index__ integer,
    # and a non-default K
    for n in [1, 2, 3, 5, 7, 100, 729, 1000, 19999, 2 ** 40 + 1, 3 ** 39,
              2 ** 61 - 1, 10 ** 18 + 9, 4, 1024, 2 ** 41, 2 ** 62]:
        for k_terms in (12, 3):
            for arg in (n, Index(n)):
                row = cost_breakdown(arg, k_terms)
                assert isinstance(row, CostBreakdown)
                assert type(row.n) is int and row.n == n
                assert row.exact_cost == exact_cost(n)
                assert row.log2n == math.log2(n)
                assert row.toll == exact_cost(n) - math.log2(n) == toll(n)
                if n == 1:
                    assert row.asymptotic is None
                else:
                    assert row.asymptotic == asymptotic_cost(n, k_terms)
    assert cost_breakdown(1) == (1, 0.0, 0.0, 0.0, None)
    assert cost_breakdown(1024).toll == 0.0


def test_cost_breakdown_validation():
    for n, error in ((0, ValueError), (-5, ValueError), (2.0, TypeError),
                     ("7", TypeError), (None, TypeError)):
        with pytest.raises(error):
            cost_breakdown(n)
    with pytest.raises(ValueError, match="cannot certify"):
        cost_breakdown(3, 601)
    # n = 1 computes no fluctuation, yet refuses a K no other row takes
    for n in (1, 3):
        with pytest.raises(ValueError, match="need k_terms >= 1, got 0"):
            cost_breakdown(n, 0)
        for k_terms in (6.0, "12"):
            with pytest.raises(TypeError):
                cost_breakdown(n, k_terms)


def test_huge_n_stays_finite():
    # far past the largest double: the certified series never forms a
    # double of n, 2**terms or the scale, so the cost stays finite, the
    # toll stays in [0, 2], and doubling n adds exactly one bit
    n = 3 ** 700
    u = exact_cost(n)
    assert math.isfinite(u)
    assert u == 1110.7993928770643
    assert 0.0 <= toll(n) <= 2.0
    assert exact_cost(2 * n) == u + 1
