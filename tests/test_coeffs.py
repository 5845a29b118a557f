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
from meanval.coeffs import (
    bundle,
    cofactor_derivative_at_1,
    cofactor_numerator,
    cofactor_value,
    log_factor_derivative,
)
from meanval.errors import ConfigError, ToleranceError
from meanval.primes import primes_up_to
from meanval.verify import local_factor_excess
from meanval.zeta import EULER_GAMMA, ZetaValue, zeta

from oracles import partial_product_leading

_EPS = 2.220446049250313e-16

# C and K to 25 digits at (2, 1) and to 20 at (3, 1.5) and (3, 1): the primes
# up to a split point summed directly at 45 digits, plus the rest of the
# log-product and of the prime sum as sum_m b_m * P(m) and sum_m m*b_m * P'(m),
# with b_m the Taylor coefficients of ln(1 - z**r/(k*(1 + z))) and P the prime
# zeta function less its head; the split points 1000 and 3000 agree to 30 digits
REFERENCE_CONSTANTS = {
    (2, 1.0): ("0.70444220099916559273660", "0.63597299959778113230778"),
    (3, 1.5): ("0.67246910492163147896", "0.67545468426129998284"),
    (3, 1.0): ("0.64417767108602953341", "0.71668358021670581721"),
}


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

    def test_tail_past_exp_range_is_inf(self):
        # near s = 1/2 the tail's log bound at r*s ~ 1 is ~2e3, past exp's range
        value, tail = cofactor_value(0.5 + 2**-12, ArithParams(2, 1.0), 1000)
        assert value == pytest.approx(0.174759, rel=1e-4)
        assert tail == math.inf

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

    @pytest.mark.parametrize(
        "r, k, cutoff", [(2, 1.0, 10**3), (2, 1.0, 10**4), (3, 1.5, 10**3), (4, 3.0, 100)]
    )
    def test_prime_sum_tail_covers_the_direct_sum(self, r, k, cutoff):
        # with exact zeta values and H(1) = 1 the tail is the prime sum's tail
        # bound plus the round-off term; the bound covers every n > P, so it
        # is at least the direct sum of r*ln(n)/(k*n**r - 1) over P < n <= 1000*P
        exact = ZetaValue(value=1.0, error_radius=0.0, s=2.0)
        value, tail = cofactor_derivative_at_1(
            ArithParams(r, k), 0.0, cutoff, (1.0, 0.0), (exact, exact), (exact, exact)
        )
        bound = tail - 64.0 * _EPS * abs(value)
        direct = 0.0
        for lo in range(cutoff + 1, 1000 * cutoff + 1, 10**6):
            n = np.arange(lo, min(lo + 10**6, 1000 * cutoff + 1), dtype=np.float64)
            direct += float(np.sum(r * np.log(n) / (k * n**r - 1.0)))
        assert direct <= bound


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

    def test_weight_at_the_top_of_the_double_range(self):
        # k * (p + 1) passes the double range: each x_p and each per-prime derivative is 0,
        # its value to double precision, with no overflow warning (an error in this suite)
        b = bundle(ArithParams(2, 1e308), 1000)
        assert math.isfinite(b.leading) and math.isfinite(b.x_coeff)

    @pytest.mark.parametrize("r", [2 * 10**301, 10**305, 2**1023], ids=["2e301", "1e305", "2**1023"])
    def test_order_where_r_p_ln_p_passes_the_double_range(self, r):
        # a = p**-(r - 1) is 0 at every prime, so each per-prime derivative is 0, as at
        # r = 1e300, though ln(p) * (r*p + r - 1) passes the double range and the
        # product with a would read inf * 0 = nan
        def constants(b):
            return b.leading, b.cofactor_deriv, b.pole_coeff, b.x_coeff, b.tail_bounds

        near = bundle(ArithParams(10**300, 1.0), 10**6)
        assert (near.cofactor_deriv, near.x_coeff) == (0.6929894694036045, 0.7868724601662458)
        assert constants(bundle(ArithParams(r, 1.0), 10**6)) == constants(near)

    def test_json_round_trip(self):
        b = bundle(ArithParams(2, 2.0), 10**4)
        obj = json.loads(cli.render_constants(b, "json"))
        assert obj["kind"] == "constants_bundle"
        assert obj["schema_version"] == "1"
        assert float(obj["C"]) == b.leading
        assert float(obj["K"]) == b.x_coeff
        json.dumps(obj)


class TestAgainstReferenceConstants:
    @pytest.mark.parametrize("cutoff", [10**3, 10**4, 10**5, 10**6])
    @pytest.mark.parametrize("r, k", list(REFERENCE_CONSTANTS))
    def test_tail_bounds_hold_within_25x(self, r, k, cutoff):
        b = bundle(ArithParams(r, k), cutoff)
        c_ref, k_ref = REFERENCE_CONSTANTS[(r, k)]
        for name, value, ref in (("C", b.leading, c_ref), ("K", b.x_coeff, k_ref)):
            err = abs(Fraction(value) - Fraction(ref))
            bound = Fraction(b.tail_bounds[name])
            assert err <= bound <= 25 * err, (name, float(err), float(bound))


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
        # prime <= P once, in order, at most one piece at a time, whatever the
        # segments and pieces; and the exact sums leave every bit of the bundle as it is
        seen = []
        inner = coeffs_mod.log_factor_derivative

        def spy(ps, params):
            seen.append(np.array(ps, dtype=np.float64))
            return inner(ps, params)

        monkeypatch.setattr(coeffs_mod, "log_factor_derivative", spy)
        bundles = []
        for block, piece in ((1 << 18, primes_mod.PIECE), (1000, primes_mod.PIECE),
                             (1 << 18, 1000), (1000, 7), (1000, 1)):
            monkeypatch.setattr(primes_mod, "PRIME_BLOCK", block)
            monkeypatch.setattr(primes_mod, "PIECE", piece)
            seen.clear()
            got = bundle(ArithParams(3, 1.5), 10**5)
            gate = [ps.tolist() == [2.0, 3.0, 5.0, 101.0] for ps in seen]
            summed = [ps for ps, is_gate in zip(seen, gate) if not is_gate]
            assert sum(gate) == 1
            assert all(ps.size <= piece for ps in summed)
            assert np.array_equal(np.concatenate(summed), primes_up_to(10**5).astype(np.float64))
            bundles.append(got)
            assert got == bundles[0], (block, piece)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2])
    def test_kernels_take_the_int_piece_as_its_float_copy(self, s):
        # each per-prime kernel casts the walk's int64 piece itself, which keeps an int s
        # off integer powers, so it gives the bits of the piece's float64 copy
        params = ArithParams(3, 1.5)
        piece = next(primes_mod.prime_blocks(10**5))
        assert piece.dtype == np.int64
        for kernel in (lambda ps: coeffs_mod._log_factors(ps, s, params),
                       lambda ps: log_factor_derivative(ps, params),
                       lambda ps: local_factor_excess(ps, s, params)):
            assert kernel(piece).tobytes() == kernel(piece.astype(np.float64)).tobytes()

    def test_kernels_share_one_float_piece(self, monkeypatch):
        # bundle casts each int64 piece of the walk once; both kernels take that one array
        pieces = {"_log_factors": [], "log_factor_derivative": []}
        for name, log in pieces.items():
            inner = getattr(coeffs_mod, name)

            def spy(ps, *args, inner=inner, log=log):
                log.append(ps)
                return inner(ps, *args)

            monkeypatch.setattr(coeffs_mod, name, spy)
        monkeypatch.setattr(primes_mod, "PIECE", 1000)
        bundle(ArithParams(3, 1.5), 10**5)
        # the gate's own calls come first: two differences, then the closed form
        logs, derivs = pieces["_log_factors"][2:], pieces["log_factor_derivative"][1:]
        assert len(logs) == len(derivs) == 10
        assert all(a is b and a.dtype == np.float64 for a, b in zip(logs, derivs))
        assert np.array_equal(np.concatenate(logs), primes_up_to(10**5).astype(np.float64))

    def test_bundle_memory_is_one_block(self):
        # the whole prime array at P = 1e7 and its float temporaries took 25 MiB, and
        # terms over a whole segment of primes 2.7 MiB; over one piece they take 1.1 MiB
        tracemalloc.start()
        try:
            bundle(ArithParams(3, 1.5), 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_gate_checks_the_array_kernel(self, monkeypatch):
        # a kernel right on scalars but off on arrays must not get past the gate
        inner = coeffs_mod.log_factor_derivative

        def skewed(ps, params):
            return inner(ps, params) + (1e-6 if np.ndim(ps) else 0.0)

        monkeypatch.setattr(coeffs_mod, "log_factor_derivative", skewed)
        with pytest.raises(ToleranceError):
            bundle(ArithParams(3, 1.5), 10**4)

    def test_gate_fails_a_nan_gap(self, monkeypatch):
        # nan > tol is False: a gate that only looked for large gaps would pass it
        inner = coeffs_mod.log_factor_derivative
        monkeypatch.setattr(coeffs_mod, "log_factor_derivative",
                            lambda ps, params: np.where(ps == 101.0, np.nan, inner(ps, params)))
        with pytest.raises(ToleranceError, match="gate failed at p=101"):
            bundle(ArithParams(2, 1.0), 10**4)

    def test_nan_past_the_gate_primes_fails_the_prime_sum(self, monkeypatch):
        # the gate checks four primes; a nan at any other fails the exact sum
        inner = coeffs_mod.log_factor_derivative
        monkeypatch.setattr(coeffs_mod, "log_factor_derivative",
                            lambda ps, params: np.where(ps == 997.0, np.nan, inner(ps, params)))
        with pytest.raises(ToleranceError, match="got nan$"):
            bundle(ArithParams(2, 1.0), 10**4)

    def test_gate_runs_on_every_call(self, monkeypatch):
        params = ArithParams(2, 1.0)
        bundle(params, 10**4)
        monkeypatch.setattr(coeffs_mod, "log_factor_derivative", lambda p, prm: 0.0)
        with pytest.raises(ToleranceError):
            bundle(params, 10**4)
