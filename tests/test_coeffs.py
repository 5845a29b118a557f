import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from meanval import cli
from meanval import coeffs as coeffs_mod
from meanval import primes as primes_mod
from meanval.arith import ArithParams
from meanval.coeffs import bundle, cofactor_numerator, cofactor_value, log_factor_derivative
from meanval.errors import ConfigError, ToleranceError
from meanval.primes import primes_up_to
from meanval.zeta import EULER_GAMMA, zeta

from oracles import partial_product_leading

_EPS = 2.220446049250313e-16


class TestCofactorValue:
    def test_r2_k1_at_1_matches_independent_product(self):
        # the product over 1 - 1/(p^2 + p); 6*zeta(2)/pi^2 = 1 exactly
        value, tail = cofactor_value(1.0, ArithParams(2, 1.0), 10**6)
        oracle, oracle_tail = partial_product_leading(2, 1.0, 10**6)
        assert abs(value - oracle) <= tail + oracle * oracle_tail + 1e-10
        assert value == pytest.approx(0.70444, abs=5e-5)

    def test_r2_k1_at_2(self):
        # frozen from the independent partial product over p <= 1e5 plus its tail
        value, tail = cofactor_value(2.0, ArithParams(2, 1.0), 10**5)
        assert value == pytest.approx(0.93749428, abs=1e-7)
        assert tail < 1e-9

    def test_large_weight_limit(self):
        # as k grows every product factor tends to 1, so H(1) -> 6*zeta(r)/pi^2
        for r in (2, 3):
            value, _ = cofactor_value(1.0, ArithParams(r, 1e9), 10**5)
            limit = 6.0 * zeta(float(r)).value / math.pi**2
            assert abs(value - limit) < 1e-7

    def test_region_boundary(self):
        with pytest.raises(ConfigError):
            cofactor_value(0.5, ArithParams(2, 1.0), 100)
        value, tail = cofactor_value(0.75, ArithParams(2, 1.0), 10**4)
        assert math.isfinite(value) and value > 0 and tail > 0

    def test_all_factors_in_unit_interval(self):
        # the truncated product never exceeds the zeta prefactor
        for r, k in ((2, 1.0), (3, 2.0)):
            params = ArithParams(r, k)
            v, _ = cofactor_value(1.0, params, 10**4)
            prefactor = zeta(float(r)).value / zeta(2.0).value
            assert 0 < v <= prefactor


def leading(params, cutoff):
    """C and its tail bound, as ``bundle`` gives them."""
    b = bundle(params, cutoff)
    return b.leading, b.tail_bounds["C"]


def cofactor_deriv(params, cutoff):
    """H'(1) and its tail bound, as ``bundle`` gives them."""
    b = bundle(params, cutoff)
    return b.cofactor_deriv, b.tail_bounds["H1_prime"]


class TestCofactorNumerator:
    @pytest.mark.parametrize("r, k", [(2, 1.0), (3, 2.0), (3, 1.5), (5, 1.3), (4, 3.0), (2, 7.0)])
    def test_is_the_numerator_of_the_kernel(self, r, k):
        # 1 - x_p = P2(z) / (k(1+z)) at z = p**-s, P2 summed exactly at the rounded z
        params = ArithParams(r, k)
        p2 = cofactor_numerator(r, Fraction(k))
        for p in (2, 3, 5, 101):
            for s in (1.0, 1.5, 2.0):
                z = Fraction(float(p) ** -s)
                want = float(sum(c * z**d for d, c in enumerate(p2)) / (Fraction(k) * (1 + z)))
                got = 1.0 - coeffs_mod._factor_term(float(p), s, params)
                assert abs(got - want) <= 4.0 * _EPS * want, (r, k, p, s, got, want)


class TestLeadingCoefficient:
    def test_carefree_value(self):
        c, tail = leading(ArithParams(2, 1.0), 10**6)
        assert abs(c - 0.7044422) <= 1e-6
        assert tail < 2e-6

    def test_limit_for_large_r(self):
        c, _ = leading(ArithParams(40, 1.0), 10**5)
        assert abs(c - 6.0 / math.pi**2) < 1e-9

    def test_agrees_with_cofactor_at_1(self):
        for params in (ArithParams(2, 1.0), ArithParams(3, 2.0), ArithParams(5, 1.5)):
            c, c_tail = leading(params, 10**4)
            h, h_tail = cofactor_value(1.0, params, 10**4)
            assert abs(c - h) <= 1e-12 * abs(c) + 1e-15

    def test_monotone_in_weight(self):
        c1, _ = leading(ArithParams(2, 1.0), 10**4)
        c2, _ = leading(ArithParams(2, 2.0), 10**4)
        c3, _ = leading(ArithParams(2, 3.0), 10**4)
        assert c1 < c2 < c3

    def test_doubling_cutoff_within_tail(self):
        for params in (ArithParams(2, 1.0), ArithParams(3, 2.0)):
            c1, tail1 = leading(params, 10**5)
            c2, _ = leading(params, 2 * 10**5)
            assert abs(c1 - c2) <= tail1


class TestLogFactorDerivative:
    def test_gate_example_p2(self):
        params = ArithParams(2, 1.0)
        h = 1e-6
        lf = lambda s: math.log1p(-1.0 / (2 ** (2 * s) + 2**s))
        fd = (lf(1 + h) - lf(1 - h)) / (2 * h)
        assert abs(log_factor_derivative(2, params) - fd) < 1e-8

    def test_finite_difference_grid(self):
        h = 1e-6
        for r in (2, 3):
            for k in (1.0, 2.0, 3.0):
                params = ArithParams(r, k)
                for p in (2, 3, 5, 101, 1009):
                    lf = lambda s: math.log1p(
                        -1.0 / (k * (p ** (r * s) + p ** ((r - 1) * s)))
                    )
                    fd = (lf(1 + h) - lf(1 - h)) / (2 * h)
                    assert abs(log_factor_derivative(p, params) - fd) < 1e-8

    def test_positive_and_decaying(self):
        params = ArithParams(2, 1.0)
        vals = [log_factor_derivative(p, params) for p in (2, 3, 5, 7, 11, 1009)]
        assert all(v > 0 for v in vals)
        assert vals == sorted(vals, reverse=True)


class TestCofactorDerivative:
    def test_against_central_difference_of_cofactor(self):
        h = 1e-5
        for r in (2, 3):
            for k in (1.0, 2.0, 3.0):
                params = ArithParams(r, k)
                hp, _ = cofactor_deriv(params, 10**5)
                up, _ = cofactor_value(1.0 + h, params, 10**5)
                dn, _ = cofactor_value(1.0 - h, params, 10**5)
                assert abs(hp - (up - dn) / (2 * h)) < 1e-6

    def test_large_weight_kills_prime_sum(self):
        from meanval.zeta import zeta_prime

        # as k -> infinity the prime sum vanishes and
        # H'(1)/H(1) -> r*zeta'(r)/zeta(r) - 2*zeta'(2)/zeta(2)
        z2 = zeta(2.0)
        z2p = zeta_prime(2.0)
        for r in (2, 3):
            params = ArithParams(r, 1e9)
            hp, _ = cofactor_deriv(params, 10**5)
            h1, _ = cofactor_value(1.0, params, 10**5)
            zr = zeta(float(r))
            zrp = zeta_prime(float(r))
            limit = r * zrp.value / zr.value - 2 * z2p.value / z2.value
            assert abs(hp / h1 - limit) < 1e-6
        # at r = 2 the limit collapses to zero exactly
        params = ArithParams(2, 1e9)
        hp, _ = cofactor_deriv(params, 10**5)
        assert abs(hp) < 1e-6

    def test_doubling_cutoff_within_tail(self):
        params = ArithParams(2, 1.0)
        v1, t1 = cofactor_deriv(params, 10**5)
        v2, _ = cofactor_deriv(params, 2 * 10**5)
        assert abs(v1 - v2) <= t1


class TestBundle:
    def test_identities_bit_consistent(self):
        for params in (ArithParams(2, 1.0), ArithParams(3, 2.0)):
            b = bundle(params, 10**5)
            assert b.x_coeff == b.pole_coeff - b.leading  # definitional
            alt_b = b.cofactor_deriv + 2 * EULER_GAMMA * b.leading
            assert abs(b.pole_coeff - alt_b) <= 4 * _EPS * abs(alt_b)
            alt_k = b.cofactor_deriv + (2 * EULER_GAMMA - 1) * b.leading
            assert abs(b.x_coeff - alt_k) <= 8 * _EPS * max(abs(alt_k), 1.0)

    def test_leading_bounds(self):
        for params in (ArithParams(2, 1.0), ArithParams(4, 3.0)):
            b = bundle(params, 10**4)
            assert 0 < b.leading <= 6 * zeta(float(params.r)).value / math.pi**2

    def test_tail_bounds_present_and_positive(self):
        b = bundle(ArithParams(2, 1.0), 10**4)
        assert set(b.tail_bounds) == {"C", "H1_prime", "B", "K"}
        assert all(v > 0 for v in b.tail_bounds.values())

    def test_main_term(self):
        b = bundle(ArithParams(2, 1.0), 10**4)
        assert b.main_term(1.0) == b.x_coeff  # ln 1 = 0
        x = 1e9
        expected = b.leading * x * math.log(x) + b.x_coeff * x
        assert b.main_term(x) == expected

    def test_json_round_trip(self):
        b = bundle(ArithParams(2, 2.0), 10**4)
        obj = json.loads(cli.render_constants(b, "json"))
        assert obj["kind"] == "constants_bundle"
        assert obj["schema_version"] == "1"
        assert float(obj["C"]) == b.leading
        assert float(obj["K"]) == b.x_coeff
        json.dumps(obj)


class TestBundleSharing:
    def test_one_product_per_bundle(self, monkeypatch):
        calls = []
        inner = coeffs_mod._product_factors

        def counting(*args):
            calls.append(args[0])
            return inner(*args)

        monkeypatch.setattr(coeffs_mod, "_product_factors", counting)
        params = ArithParams(3, 1.5)
        bundle(params, 10**4)
        assert calls == [1.0]

    def test_each_zeta_value_and_h1_formed_once(self, monkeypatch):
        calls = {"zeta": [], "zeta_prime": [], "_cofactor": []}
        for name, log in calls.items():
            inner = getattr(coeffs_mod, name)

            def counting(*args, inner=inner, log=log, **kwargs):
                log.append(args[0])
                return inner(*args, **kwargs)

            monkeypatch.setattr(coeffs_mod, name, counting)
        # at r = 2, zeta(r) and zeta(2) are one value but still one call each
        for r in (2, 3):
            for log in calls.values():
                log.clear()
            bundle(ArithParams(r, 1.5), 10**4)
            assert calls["zeta"] == [float(r), 2.0]
            assert calls["zeta_prime"] == [float(r), 2.0]
            assert len(calls["_cofactor"]) == 1

    def test_prime_sum_runs_the_gated_kernel(self, monkeypatch):
        # the gate's calls take its 4 primes; the prime sum's calls take every
        # prime <= P once, in order, whatever the blocks
        seen = []
        inner = coeffs_mod.log_factor_derivative

        def spy(ps, params):
            seen.append(np.array(ps, dtype=np.float64))
            return inner(ps, params)

        monkeypatch.setattr(coeffs_mod, "log_factor_derivative", spy)
        for block in (1 << 18, 1000):
            monkeypatch.setattr(primes_mod, "PRIME_BLOCK", block)
            seen.clear()
            bundle(ArithParams(3, 1.5), 10**5)
            gate = [ps.tolist() == [2.0, 3.0, 5.0, 101.0] for ps in seen]
            summed = [ps for ps, is_gate in zip(seen, gate) if not is_gate]
            assert sum(gate) == 1
            assert np.array_equal(np.concatenate(summed), primes_up_to(10**5).astype(np.float64))

    def test_bundle_memory_is_one_block(self):
        # the whole prime array at P = 1e7 and its float temporaries took 25 MiB
        tracemalloc.start()
        try:
            bundle(ArithParams(3, 1.5), 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_gate_checks_the_array_kernel(self, monkeypatch):
        # a kernel right on scalars but off on arrays must not get past the gate
        inner = coeffs_mod.log_factor_derivative

        def skewed(ps, params):
            return inner(ps, params) + (1e-6 if np.ndim(ps) else 0.0)

        monkeypatch.setattr(coeffs_mod, "log_factor_derivative", skewed)
        with pytest.raises(ToleranceError):
            bundle(ArithParams(3, 1.5), 10**4)

    def test_gate_runs_on_every_call(self, monkeypatch):
        params = ArithParams(2, 1.0)
        bundle(params, 10**4)
        monkeypatch.setattr(coeffs_mod, "log_factor_derivative", lambda p, prm: 0.0)
        with pytest.raises(ToleranceError):
            bundle(params, 10**4)
