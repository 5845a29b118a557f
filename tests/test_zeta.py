import math

import numpy as np
import pytest

from meanval.errors import ConfigError
from meanval.zeta import _SPLIT, EULER_GAMMA, ZetaValue, _euler_maclaurin, power_tails, zeta, zeta_prime

from oracles import GLAISHER, zeta_prime_2_closed_form

# frozen from direct summation of 1e7 terms plus the integral tail bound
# (re-derived below in test_zeta_4_against_direct_summation)
ZETA_4 = 1.0823232337111382


class TestZeta:
    def test_zeta_2_is_pi_squared_over_6(self):
        z = zeta(2.0)
        assert abs(z.value - math.pi**2 / 6) <= 1e-12
        assert z.error_radius <= 1e-12

    def test_zeta_4_against_direct_summation(self):
        n = np.arange(1, 10**7, dtype=np.float64)
        direct = float(np.sum(n**-4.0))
        tail_lo = 0.0
        tail_hi = (10**7) ** -3 / 3  # integral bound on the dropped tail
        z = zeta(4.0)
        assert direct + tail_lo - 1e-12 <= z.value <= direct + tail_hi + 1e-12
        assert abs(z.value - ZETA_4) < 1e-12

    def test_zeta_tends_to_one(self):
        z = zeta(30.0)
        assert 0 < z.value - 1.0 < 1e-9 + 2.0**-30 * 1.01

    def test_large_argument(self):
        z = zeta(80.0)
        assert z.value == pytest.approx(1.0 + 2.0**-80, abs=1e-15)
        # where rf(s, 16) overflows, both evaluators stay finite with a radius <= 1e-12
        for s in (1e20, 1e300):
            for z in (zeta(s), zeta_prime(s)):
                assert math.isfinite(z.value) and 0 <= z.error_radius <= 1e-12
            assert abs(zeta(s).value - 1.0) <= zeta(s).error_radius
            assert abs(zeta_prime(s).value) <= 1e-300

    def test_radius_contains_truth(self):
        # pi^2/6 must lie inside the returned enclosure, whose radius is the round-off floor
        z = zeta(2.0)
        assert abs(z.value - math.pi**2 / 6) <= z.error_radius <= 1e-13

    def test_near_one_laurent_expansion(self):
        # zeta(1 + d) = 1/d + gamma + O(d); the pole is 1/(s - 1) for the
        # represented s (1 + 1e-6 itself is not a binary float)
        z = zeta(1.0 + 1e-6)
        pole = 1.0 / (z.s - 1.0)
        assert abs((z.value - pole) - EULER_GAMMA) < 1e-5

    def test_near_one_laurent_expansion_dyadic(self):
        # with d = 2**-20 the offset is exactly representable, so the pole
        # subtraction is exact
        z = zeta(1.0 + 2.0**-20)
        assert abs((z.value - 2.0**20) - EULER_GAMMA) < 1e-5

    def test_lowest_supported_argument(self):
        # at s = 1 + 1e-8 the value is ~1e8, and its round-off radius ~2e-7
        z = zeta(1.0 + 1e-8)
        assert abs((z.value - 1.0 / (z.s - 1.0)) - EULER_GAMMA) < 1e-5
        assert 0 < z.error_radius < 1e-5

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            zeta(1.0)
        with pytest.raises(ConfigError):
            zeta(0.99)
        with pytest.raises(ConfigError):
            zeta(math.nan)

    def test_split_point_consistency(self):
        # moving the Euler-Maclaurin split must stay inside the joint enclosure
        for s in (1.5, 2.0, 3.0, 6.0):
            a, a_radius = _euler_maclaurin(s, 64)[0]
            b, b_radius = _euler_maclaurin(s, 32)[0]
            assert abs(a - b) <= a_radius + b_radius


class TestZetaPrime:
    def test_negative_for_real_arguments(self):
        for s in (1.5, 2.0, 3.0, 10.0):
            assert zeta_prime(s).value < 0

    def test_against_central_differences(self):
        h = 1e-5
        for s in (2.0, 3.0, 4.0, 6.0):
            fd = (zeta(s + h).value - zeta(s - h).value) / (2 * h)
            zp = zeta_prime(s)
            assert abs(fd - zp.value) < 1e-8

    def test_zeta_prime_2_value(self):
        zp = zeta_prime(2.0)
        assert zp.value == pytest.approx(-0.93754825431584376, abs=1e-12)

    def test_glaisher_identity_cross_check(self):
        assert abs(zeta_prime(2.0).value - zeta_prime_2_closed_form()) < 1e-9

    def test_split_point_consistency(self):
        for s in (2.0, 4.0):
            a, a_radius = _euler_maclaurin(s, 64)[1]
            b, b_radius = _euler_maclaurin(s, 128)[1]
            assert abs(a - b) <= a_radius + b_radius

    def test_domain(self):
        with pytest.raises(ConfigError):
            zeta_prime(1.0)


@pytest.mark.parametrize("column, min_s", [(0, 1.0 + 1e-8), (1, 1.0 + 1e-6)])
def test_split_point_radius_is_the_floor(column, min_s):
    # the one split point loses nothing: no larger split shrinks the radius by 0.1%
    grid = [min_s, 1.0 + 1e-4, 1.01] + np.geomspace(1.1, 2048.0, 40).tolist()
    for s in grid:
        at_split = _euler_maclaurin(s, _SPLIT)[column][1]
        for cutoff in (64, 256, 1024):
            at_cutoff = _euler_maclaurin(s, cutoff)[column][1]
            assert abs(at_split - at_cutoff) <= 1e-3 * at_split, (s, cutoff)


# float.hex of (value, error_radius), frozen: a drift of one ulp in either fails.
# zeta' is pinned at its own lowest argument, as 1 + 2**-20 lies below its range
PINNED = [
    ("zeta", 1.0 + 1e-8, "0x1.7d78404bd66e1p+26", "0x1.7d78404bd6a7ep-23"),
    ("zeta", 1.0 + 2.0**-20, "0x1.0000093c4690ep+20", "0x1.0000093c55045p-29"),
    ("zeta", 1.5, "0x1.4e6250bfbd89dp+1", "0x1.4e62d0f62fc98p-48"),
    ("zeta", 2.0, "0x1.a51a6625307d3p+0", "0x1.a51b4a2935925p-49"),
    ("zeta", 3.0, "0x1.33ba004f00621p+0", "0x1.33ba790abc6aap-49"),
    ("zeta", 4.5, "0x1.0e014fb990e65p+0", "0x1.0e0168fad1a5cp-49"),
    ("zeta", 40.0, "0x1.0000000001000p+0", "0x1.0000000001000p-49"),
    ("zeta", 2048.0, "0x1.0000000000000p+0", "0x1.0000000000000p-49"),
    ("zeta", 1e300, "0x1.0000000000000p+0", "0x1.0000000000000p-49"),
    ("zeta_prime", 1.0 + 1e-6, "-0x1.d1a94a2148ebbp+39", "0x1.d1a94a2148ebcp-10"),
    ("zeta_prime", 1.5, "-0x1.f753a1b8262bbp+1", "0x1.f7566ea734918p-48"),
    ("zeta_prime", 2.0, "-0x1.e00653256ab8ap-1", "0x1.e00faf3b03028p-50"),
    ("zeta_prime", 3.0, "-0x1.95c3362d62a34p-3", "0x1.95d5650471311p-52"),
    ("zeta_prime", 4.5, "-0x1.667635f901b1dp-5", "0x1.668432497f62bp-54"),
    ("zeta_prime", 40.0, "-0x1.62e433451c8b5p-41", "0x1.62e433451c8b5p-90"),
    ("zeta_prime", 2048.0, "0x0.0p+0", "0x0.0p+0"),
    ("zeta_prime", 1e300, "0x0.0p+0", "0x0.0p+0"),
]


@pytest.mark.parametrize("name, s, value, radius", PINNED)
def test_bit_pinned_values(name, s, value, radius):
    z = {"zeta": zeta, "zeta_prime": zeta_prime}[name](s)
    assert (z.value.hex(), z.error_radius.hex()) == (value, radius)


def test_zeta_value_is_an_immutable_record():
    by_position, by_keyword = ZetaValue(1.5, 0.25, 2.0), ZetaValue(s=2.0, value=1.5, error_radius=0.25)
    assert by_position == by_keyword
    assert ZetaValue._fields == ("value", "error_radius", "s")
    assert (by_position.value, by_position.error_radius, by_position.s) == (1.5, 0.25, 2.0)
    assert repr(by_position) == "ZetaValue(value=1.5, error_radius=0.25, s=2.0)"
    with pytest.raises(AttributeError):
        by_position.value = 0.0


class TestPowerTails:
    @pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0, 18.0])
    @pytest.mark.parametrize("cutoff", [2, 10, 1000])
    def test_brackets_the_cut_off_sums_to_one_term(self, cutoff, sigma):
        # the direct sum over P < n <= M plus the integral past M lies between
        # the integrals past P + 1 and past P, for both powers of ln n
        end = cutoff + 10**4
        n = np.arange(cutoff + 1, end + 1, dtype=np.float64)
        terms = n**-sigma
        partial = (math.fsum(terms), math.fsum(terms * np.log(n)))
        at_p, at_next, at_end = (power_tails(c, sigma) for c in (cutoff, cutoff + 1, end))
        for j in (0, 1):
            assert at_next[j] <= partial[j] + at_end[j] <= at_p[j], (j, cutoff, sigma)

    def test_zero_past_the_double_range(self):
        # P**(1 - sigma) underflows long before 1/(sigma - 1)**2 would overflow
        assert power_tails(10**5, 1e160) == (0.0, 0.0)
        assert power_tails(10**5, 1e150) == (0.0, 0.0)


class TestStoredConstants:
    def test_gamma_against_accelerated_harmonic_limit(self):
        from oracles import accelerated_gamma

        assert abs(EULER_GAMMA - accelerated_gamma()) < 1e-12
        assert 0 < EULER_GAMMA < 1

    def test_glaisher_against_zeta_derivative(self):
        # lambda satisfies ln(lambda) = (gamma + ln(2 pi) - zeta'(2)/zeta(2)) / 12
        z2 = math.pi**2 / 6
        ln_lam = (EULER_GAMMA + math.log(2 * math.pi) - zeta_prime(2.0).value / z2) / 12
        assert abs(math.log(GLAISHER) - ln_lam) < 1e-12
