import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meanval.arith import (
    ArithParams,
    PrimeFactorization,
    composite_weighted_divisor,
    divisor_count,
    factorize,
    local_factor_times,
    max_omega,
    minimal_power,
    omega,
    weighted_divisor,
)
from meanval.errors import ConfigError

from oracles import brute_minimal_power, count_divisors_scan, expand_numerators, omega_scan, trial_factorize


class TestFactorize:
    def test_one_is_empty_product(self):
        assert factorize(1).factors == ()
        assert factorize(1).value == 1

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_primorial_matches_trial_division(self):
        n = 9699690
        assert factorize(n).factors == tuple(trial_factorize(n))
        assert omega(factorize(n)) == 8

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-5)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            factorize(2**63)

    def test_large_prime_and_semiprime(self):
        assert factorize(1000003).factors == ((1000003, 1),)
        assert factorize(1000003 * 999983).factors == ((999983, 1), (1000003, 1))

    @pytest.mark.parametrize(
        # factors just past the sieved primes (2**16 + 1 is the first odd
        # candidate), a prime past 2**32, and the largest supported input
        "n", [65537 * 65539, 65537**2, 4294967311, 2**63 - 1]
    )
    def test_factors_past_the_trial_primes(self, n):
        assert list(factorize(n).factors) == trial_factorize(n)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, n):
        f = factorize(n)
        assert f.value == n
        assert list(f.factors) == trial_factorize(n)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PrimeFactorization(((3, 1), (2, 1)))  # not increasing
        with pytest.raises(ValueError):
            PrimeFactorization(((2, 0),))  # exponent < 1


class TestDivisorCountOmega:
    def test_small(self):
        assert divisor_count(factorize(1)) == 1
        assert divisor_count(factorize(12)) == 6
        assert omega(factorize(1)) == 0
        assert omega(factorize(12)) == 2

    def test_720_against_scan(self):
        assert count_divisors_scan(720) == 30
        assert divisor_count(factorize(720)) == 30

    def test_max_omega_against_running_max(self):
        best = 0
        for n in range(1, 2 * 10**4 + 1):
            best = max(best, omega_scan(n))
            assert max_omega(n) == best, n
        # each primorial 2 * 3 * ... * p_w is the first n with omega(n) = w
        for primorial, w in {30: 3, 210: 4, 2310: 5, 510510: 7}.items():
            assert max_omega(primorial - 1) == w - 1 and max_omega(primorial) == w


class TestMinimalPower:
    def test_examples(self):
        assert minimal_power(factorize(8), 2).value == 4
        assert brute_minimal_power(8, 2) == 4
        assert minimal_power(factorize(1), 2).value == 1
        assert minimal_power(factorize(16), 3).value == 4
        assert brute_minimal_power(16, 3) == 4

    def test_r_one_is_identity(self):
        for n in (1, 2, 360, 1024):
            assert minimal_power(factorize(n), 1).value == n

    def test_bad_r(self):
        with pytest.raises(ValueError):
            minimal_power(factorize(4), 0)

    @given(st.integers(min_value=1, max_value=2000), st.sampled_from([1, 2, 3, 4]))
    @settings(max_examples=120, deadline=None)
    def test_against_brute_force(self, n, r):
        assert minimal_power(factorize(n), r).value == brute_minimal_power(n, r)

    @given(st.integers(min_value=1, max_value=10**4), st.sampled_from([2, 3, 4]))
    @settings(max_examples=100, deadline=None)
    def test_divisibility_and_minimality_witness(self, n, r):
        m = minimal_power(factorize(n), r)
        assert m.value**r % n == 0
        for p, _ in m:
            assert (m.value // p) ** r % n != 0

    @given(
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
        st.sampled_from([2, 3, 4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_multiplicative_on_coprime_pairs(self, a, b, r):
        assume(math.gcd(a, b) == 1)
        ma = minimal_power(factorize(a), r).value
        mb = minimal_power(factorize(b), r).value
        assert minimal_power(factorize(a * b), r).value == ma * mb


class TestWeightedDivisor:
    def test_examples(self):
        assert weighted_divisor(factorize(12), 2) == Fraction(3, 2)
        assert weighted_divisor(factorize(360), 1) == 24
        assert count_divisors_scan(360) == 24
        for k in (1, 2, 3.5, 10):
            assert weighted_divisor(factorize(1), k) == 1

    def test_exact_for_integer_weight(self):
        v = weighted_divisor(factorize(30), 2)
        assert isinstance(v, Fraction)
        assert v == Fraction(8, 8)

    def test_float_for_real_weight(self):
        v = weighted_divisor(factorize(30), 1.5)
        assert isinstance(v, float)
        assert v == pytest.approx(8 / 1.5**3, rel=1e-15)

    def test_weight_below_one_rejected(self):
        with pytest.raises(ValueError):
            weighted_divisor(factorize(6), 0.5)

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_non_finite_weight_rejected(self, k):
        # the same rule as ArithParams: inf would give d(n) / inf = 0.0
        with pytest.raises(ValueError):
            weighted_divisor(factorize(6), k)
        with pytest.raises(ValueError):
            ArithParams(2, k)


class TestLocalFactorTimes:
    @pytest.mark.parametrize("r", range(2, 7))
    @pytest.mark.parametrize("k", [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7)])
    def test_kernel_of_the_closed_form_leaves_the_direct_numerator(self, r, k):
        # (1-z)(1-z^r) * (k + z(2-z^r)/((1-z)(1-z^r))) = k(1-z)(1-z^r) + z(2-z^r)
        kernel = (1, -1, *[0] * (r - 2), -1, 1)
        got = local_factor_times(kernel, r, k, r + 41)
        p1, _ = expand_numerators(r, k)
        assert got[: r + 2] == [p1.get(d, 0) for d in range(r + 2)]
        assert got[r + 2 :] == [0] * 39

    def test_unit_kernel_is_the_scaled_local_factor(self):
        assert local_factor_times((1,), 3, 2, 8) == [2, 2, 2, 2, 3, 3, 3, 4]
        assert local_factor_times((Fraction(1, 2),), 2, Fraction(3), 3) == [Fraction(3, 2), 1, 1]

    @pytest.mark.parametrize("r", [2, 3, 7, 50])
    @pytest.mark.parametrize("k", [1, Fraction(3, 2), 2])
    def test_sparse_kernel_equals_the_dense_convolution(self, r, k):
        # the zero coefficients of a kernel add nothing, so skipping them leaves every coefficient
        series = [k, *(-(-a // r) + 1 for a in range(1, 2 * r + 9))]
        for kernel in ((1, -1, *[0] * (r - 2), -1, 1), (1, -2, 1), (1, -1), (0, 0, 3, 0, -1)):
            dense = [sum(kernel[j] * series[a - j] for j in range(min(a + 1, len(kernel))))
                     for a in range(len(series))]
            assert local_factor_times(kernel, r, k, len(series)) == dense


class TestCompositeValue:
    def test_examples(self):
        assert composite_weighted_divisor(factorize(8), ArithParams(2, 2.0)) == Fraction(3, 2)
        assert composite_weighted_divisor(factorize(6), ArithParams(2, 1.0)) == 4
        for params in (ArithParams(2, 1.0), ArithParams(5, 3.0)):
            assert composite_weighted_divisor(factorize(1), params) == 1

    def test_prime_power_local_values(self):
        # at p**a the value is (ceil(a/r) + 1) / k
        for p in (2, 3, 7):
            for a in range(1, 9):
                for r in (2, 3):
                    for k in (1, 2, 4):
                        got = composite_weighted_divisor(
                            factorize(p**a), ArithParams(r, float(k))
                        )
                        assert got == Fraction(-(-a // r) + 1, k)

    @given(
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
        st.sampled_from([2, 3]),
        st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_multiplicative_in_exact_mode(self, a, b, r, k):
        assume(math.gcd(a, b) == 1)
        params = ArithParams(r, float(k))
        va = composite_weighted_divisor(factorize(a), params)
        vb = composite_weighted_divisor(factorize(b), params)
        assert composite_weighted_divisor(factorize(a * b), params) == va * vb

    @given(st.integers(min_value=1, max_value=10**5), st.sampled_from([2, 3, 4]))
    @settings(max_examples=200, deadline=None)
    def test_bounds_product_with_weight_power(self, n, r):
        # 1 <= d(min power) <= d(n), and omega of the min power equals omega(n)
        f = factorize(n)
        m = minimal_power(f, r)
        assert 1 <= divisor_count(m) <= divisor_count(f)
        assert omega(m) == omega(f)
        for k in (2, 3):
            v = composite_weighted_divisor(f, ArithParams(r, float(k)))
            assert v * k ** omega(f) == divisor_count(m)


class TestArithParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArithParams(1, 1.0)
        with pytest.raises(ValueError):
            ArithParams(2, 0.5)
        with pytest.raises(ValueError, match="finite"):
            ArithParams(2, math.inf)

    def test_order_needs_a_finite_float(self):
        # the constants take r as a float: 2**1024 has none, 2**1023 is the largest power of 2 that has
        with pytest.raises(ConfigError, match="r must have a finite float, got an r of 1025 bits"):
            ArithParams(2**1024, 1.0)
        assert ArithParams(2**1023, 1.0).r == 2**1023

    def test_exact_flag(self):
        assert ArithParams(2, 2.0).exact
        assert not ArithParams(2, 1.5).exact
