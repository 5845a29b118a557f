import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from meanval import cli
from meanval import sieve as sieve_mod
from meanval import verify as verify_mod
from meanval.arith import ArithParams
from meanval.errors import ConfigError, ResourceError
from meanval.primes import primes_up_to
from meanval.sieve import build_spf, tabulate
from meanval.verify import (
    dirichlet_series_truncated,
    euler_product_truncated,
    global_factorization_check,
    power_series_check,
    power_series_closed_form,
    local_factor,
    local_factor_check,
    local_factor_excess,
    numerator_identity_check,
    run_battery,
)

from oracles import expand_numerators, weighted_geometric_sum


class TestSeriesIdentity:
    def test_r1_z_half_equals_three(self):
        # at r = 1 the coefficients are a+1, whose weighted geometric sum at
        # z = 1/2 is 1/(1-z)^2 - 1 = 3
        assert power_series_closed_form(1, 0.5) == pytest.approx(3.0, abs=1e-12)
        assert weighted_geometric_sum(0.5) == 3.0
        rep = power_series_check(1, 0.5, terms=100)
        assert rep.passed and abs(rep.lhs - 3.0) < 1e-12

    def test_r1_matches_geometric_derivative_everywhere(self):
        for z in (0.05, 0.2, 0.45, 0.8):
            assert power_series_closed_form(1, z) == pytest.approx(
                weighted_geometric_sum(z), rel=1e-13
            )

    def test_r2_z_half(self):
        rep = power_series_check(2, 0.5)
        assert rep.rhs == pytest.approx(0.875 / 0.375, rel=1e-15)
        assert rep.passed

    def test_z_zero_both_sides_vanish(self):
        rep = power_series_check(3, 0.0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed

    def test_grid(self):
        for r in (1, 2, 3, 5):
            for z in (0.1, 0.3, 0.5, 0.9):
                rep = power_series_check(r, z)
                assert rep.passed, (r, z, rep.gap, rep.bound)

    def test_bound_tracks_the_actual_tail(self):
        # truncating at 3 terms leaves a visible tail at z = 0.9; the rigorous
        # bound must cover it without being orders of magnitude loose
        rep = power_series_check(2, 0.9, terms=3)
        assert rep.gap > 1.0
        assert rep.passed
        assert rep.gap <= rep.bound <= 3.0 * rep.gap

    def test_array_is_elementwise_and_scalar_stays_float(self):
        zs = [0.05, 0.3, 0.5, 0.9]
        values = power_series_closed_form(3, np.array(zs))
        assert values.tolist() == [power_series_closed_form(3, z) for z in zs]
        assert type(power_series_closed_form(3, 0.5)) is float

    def test_domain(self):
        with pytest.raises(ConfigError):
            power_series_closed_form(2, 1.0)
        with pytest.raises(ConfigError):
            power_series_closed_form(2, np.array([0.5, -1.0]))
        with pytest.raises(ConfigError):
            power_series_check(0, 0.5)
        with pytest.raises(ConfigError):
            local_factor_check(2, 2.0, ArithParams(2, 1.0), terms=0)


class TestLocalFactor:
    def test_worked_example(self):
        got = local_factor(2, 2.0, ArithParams(2, 1.0))
        expected = 1.0 + (0.25 * (2 - 0.0625)) / (0.75 * 0.9375)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(1.6888888888888889, rel=1e-12)

    def test_series_agreement(self):
        for p in (2, 3, 101):
            for s in (1.5, 2.0):
                for params in (ArithParams(2, 1.0), ArithParams(3, 2.5)):
                    rep = local_factor_check(p, s, params)
                    assert rep.passed, (p, s, params, rep.gap, rep.bound)

    def test_large_weight_limit(self):
        assert local_factor(2, 2.0, ArithParams(2, 1e9)) == pytest.approx(1.0, abs=1e-8)

    def test_large_prime_expansion(self):
        # excess ~ 2/(k p^s); checked without forming 1 + excess, so the
        # comparison survives at magnitudes far below one ulp of 1.0
        p = 10**6 + 3
        excess = local_factor_excess(p, 2.0, ArithParams(2, 1.0))
        assert abs(excess - 2.0 * p**-2.0) < 10.0 * p**-3.0


class TestVerifyReport:
    def test_verdict_follows_the_numbers(self):
        assert verify_mod.VerifyReport("x", {}, 1.0, 1.5, 0.5).passed
        assert not verify_mod.VerifyReport("x", {}, 1.0, 1.5, 0.4).passed
        assert not verify_mod.VerifyReport("x", {}, math.nan, 0.0, 1.0).passed
        with pytest.raises(TypeError):
            verify_mod.VerifyReport("x", {}, 1.0, 1.0, 0.0, passed=False)


class TestNumeratorIdentity:
    def test_exact_match_at_weight_one(self):
        for r in range(2, 11):
            rep = numerator_identity_check(ArithParams(r, 1.0))
            assert rep.passed
            assert all(c == 0 for c in rep.details["coefficient_diff"])

    def test_weight_two_gap(self):
        rep = numerator_identity_check(ArithParams(2, 2.0))
        assert not rep.passed
        diff = [Fraction(c) for c in rep.details["coefficient_diff"]]
        assert diff[1] == -2  # degree-1 coefficient: (2 - k) - k at k = 2

    def test_gap_structure_any_weight(self):
        # difference is (2-2k) z + (1-k) z^r + (k-1) z^(r+1)
        for r in (2, 3, 5):
            for k in (2, 3, 7):
                rep = numerator_identity_check(ArithParams(r, float(k)))
                diff = [Fraction(c) for c in rep.details["coefficient_diff"]]
                expected = {1: 2 - 2 * k, r: 1 - k, r + 1: k - 1}
                got = {d: c for d, c in enumerate(diff) if c}
                assert got == expected

    def test_against_independent_expansion(self):
        for r in (2, 3, 4):
            for k in (Fraction(1), Fraction(2), Fraction(3, 2)):
                rep = numerator_identity_check(ArithParams(r, float(k)))
                o1, o2 = expand_numerators(r, k)
                p1 = {d: c for d, c in enumerate(Fraction(c) for c in rep.details["direct_numerator"]) if c}
                p2 = {d: c for d, c in enumerate(Fraction(c) for c in rep.details["factored_numerator"]) if c}
                assert p1 == o1
                assert p2 == o2

    def test_gap_past_the_double_range_reads_inf(self):
        # the gap is 2k - 2, whose float rounds past the double range from k = 2**1023 on
        for k, gap in ((5e307, 2 * 5e307 - 2), (2.0**1023, math.inf), (1e308, math.inf)):
            rep = numerator_identity_check(ArithParams(2, k))
            assert (rep.lhs, rep.passed) == (gap, False)

    def test_point_evaluation_at_weight_one(self):
        rep = numerator_identity_check(ArithParams(3, 1.0))
        z = 0.3
        p1 = sum(float(Fraction(c)) * z**d for d, c in enumerate(rep.details["direct_numerator"]))
        p2 = sum(float(Fraction(c)) * z**d for d, c in enumerate(rep.details["factored_numerator"]))
        assert abs(p1 - p2) <= 1e-15


class TestGlobalFactorization:
    def test_product_equals_exp_log_sum(self):
        # log/exp consistency of the product engine
        from meanval.primes import primes_up_to

        params = ArithParams(2, 1.0)
        s = 2.0
        value, _ = euler_product_truncated(params, s, 1000)
        direct = 1.0
        for p in primes_up_to(1000):
            direct *= local_factor(int(p), s, params)
        assert value == pytest.approx(direct, rel=1e-12)

    def test_product_tail_past_exp_range_is_inf(self):
        # near s = 1 the tail's log bound is ~2e3, past exp's range: the bound is inf, not an error
        value, tail = euler_product_truncated(ArithParams(2, 1.0), 1.001, 1000)
        assert value == pytest.approx(106.196, rel=1e-4)
        assert tail == math.inf

    def test_product_runs_the_checked_local_factor(self, monkeypatch):
        # the product forms its factors through local_factor_excess, the
        # function local_factor_check validates, over each prime block (one here)
        sizes = []
        inner = verify_mod.local_factor_excess

        def spy(p, s, params):
            sizes.append(np.size(p))
            return inner(p, s, params)

        monkeypatch.setattr(verify_mod, "local_factor_excess", spy)
        euler_product_truncated(ArithParams(3, 1.5), 2.0, 1000)
        assert sizes == [168]  # pi(1000)

    def test_series_truncation_monotone_in_limit(self):
        params = ArithParams(2, 1.0)
        v1, t1 = dirichlet_series_truncated(params, 2.0, 10**3)
        v2, _ = dirichlet_series_truncated(params, 2.0, 10**4)
        assert v2 > v1
        assert v2 - v1 <= t1  # dropped mass is inside the tail bound

    def test_streamed_series_equals_fsum_of_whole_term_array(self, monkeypatch):
        # segments of 1000 terms leave a short last segment at N = 5007
        monkeypatch.setattr(sieve_mod, "SERIES_BLOCK", 1000)
        for params, s in ((ArithParams(2, 1.0), 2.0), (ArithParams(3, 1.5), 1.7)):
            counts, omegas = tabulate(build_spf(5007), params)
            vals = counts[1:] * np.power(float(params.k), -omegas[1:].astype(np.float64))
            expected = math.fsum(vals * np.arange(1, 5008, dtype=np.float64) ** -s)
            assert dirichlet_series_truncated(params, s, 5007)[0] == expected

    @pytest.mark.parametrize("piece", [1, 7, 1000])
    def test_small_pieces_leave_the_series_bits(self, monkeypatch, piece):
        # pieces of 1 and 7 leave a short piece at the end of every segment of 1000
        monkeypatch.setattr(sieve_mod, "PIECE", piece)
        self.test_streamed_series_equals_fsum_of_whole_term_array(monkeypatch)

    @pytest.mark.parametrize("limit", [10**5, 10**6])
    @pytest.mark.parametrize("r, k", [(2, 1.0), (3, 2.0), (3, 1.5)])
    def test_series_is_the_rounded_sum_of_the_table_terms(self, r, k, limit):
        # at the default block size: the correctly rounded sum of k**-omega * count * n**-s
        # over the oracle table, whatever the platform's value of each term
        params = ArithParams(r, k)
        counts, omegas = tabulate(build_spf(limit), params)
        terms = np.power(k, -omegas[1:].astype(np.float64)) * counts[1:]
        terms *= np.arange(1, limit + 1, dtype=np.float64) ** -2.0
        assert repr(dirichlet_series_truncated(params, 2.0, limit)[0]) == repr(math.fsum(terms))

    def test_series_memory_is_one_block(self):
        # the whole per-n table at 3e6 took 47 MiB, and terms over a whole segment of
        # 2**16 integers 2.6 MiB; one segment's three arrays and the terms of one piece
        # take 1.4 MiB
        tracemalloc.start()
        try:
            dirichlet_series_truncated(ArithParams(2, 1.0), 2.0, 3 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_product_memory_is_one_piece(self):
        # the terms over a whole segment of primes took 2.7 MiB at P = 1e7; over one piece
        # they take 1.1 MiB
        tracemalloc.start()
        try:
            euler_product_truncated(ArithParams(2, 1.0), 2.0, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_three_way_agreement_weight_one(self):
        rep = global_factorization_check(2.0, ArithParams(2, 1.0), limit=10**4, cutoff=10**4)
        assert rep.passed
        assert rep.details["closed_form_within_bound"]

    def test_weight_two_series_product_agree_closed_form_gap_recorded(self):
        rep = global_factorization_check(2.0, ArithParams(2, 2.0), limit=10**4, cutoff=10**4)
        assert rep.passed  # Euler product route is definitional
        gap = abs(float(rep.details["closed_form_gap"]))
        bound = float(rep.details["closed_form_combined_bound"])
        assert gap > bound  # the closed form genuinely differs at k = 2
        assert not rep.details["closed_form_within_bound"]

    def test_primes_sieved_once(self, monkeypatch):
        # each product walks the prime blocks to the cutoff once, and no full
        # array of primes reaches past isqrt(cutoff): the largest are the
        # blocks' base primes (the series' too, at limit = cutoff), which
        # recurse to smaller ones; so no array of all the primes <= cutoff is built
        from meanval import coeffs as coeffs_mod, primes as primes_mod

        walks, sieved = [], []

        def walked(name):
            def spy(limit, part, parts):
                walks.append((name, limit))
                return primes_mod.prime_blocks(limit, part, parts)
            return spy

        def counted(limit):
            sieved.append(limit)
            return primes_up_to(limit)

        monkeypatch.setattr(verify_mod, "prime_blocks", walked("verify"))
        monkeypatch.setattr(coeffs_mod, "prime_blocks", walked("coeffs"))
        for mod in [m for name, m in sys.modules.items() if name.startswith("meanval")]:
            if hasattr(mod, "primes_up_to"):
                monkeypatch.setattr(mod, "primes_up_to", counted)
        rep = global_factorization_check(2.0, ArithParams(2, 1.0), limit=10**5, cutoff=10**5)
        assert walks == [("verify", 10**5), ("coeffs", 10**5)]
        assert sieved and max(sieved) == math.isqrt(10**5)
        assert rep.passed and rep.details["closed_form_within_bound"]

    def test_domain_checks(self):
        with pytest.raises(ConfigError):
            global_factorization_check(1.4, ArithParams(2, 1.0), limit=10**4, cutoff=10**4)
        with pytest.raises(ConfigError):
            global_factorization_check(math.inf, ArithParams(2, 1.0), limit=10**4, cutoff=10**4)
        with pytest.raises(ConfigError):
            global_factorization_check(2.0, ArithParams(2, 1.0), limit=10, cutoff=10**4)


class TestBatteryAndRendering:
    def test_battery_weight_one_all_pass(self):
        reports = run_battery(ArithParams(2, 1.0), limit=10**4, cutoff=10**4)
        assert all(rep.passed for rep in reports)

    def test_battery_deterministic_order(self):
        a = run_battery(ArithParams(2, 1.0), limit=10**3, cutoff=10**3)
        b = run_battery(ArithParams(2, 1.0), limit=10**3, cutoff=10**3)
        assert [r.identity for r in a] == [r.identity for r in b]
        assert [r.lhs for r in a] == [r.lhs for r in b]

    def test_numerator_past_the_budget_refused_before_the_walks(self, monkeypatch):
        # at 560 B per coefficient, r = 1000 fits in 1 MiB and r = 2000 does not; at r = 10**305
        # the battery stops before the series walk
        monkeypatch.setenv(sieve_mod.MEM_ENV_VAR, "1")
        assert numerator_identity_check(ArithParams(1000, 1.0)).passed
        with pytest.raises(ResourceError, match="numerator check at r = 2000"):
            numerator_identity_check(ArithParams(2000, 1.0))
        monkeypatch.delenv(sieve_mod.MEM_ENV_VAR)
        monkeypatch.setattr(verify_mod, "dirichlet_series_truncated", lambda *a, **kw: pytest.fail("walked"))
        with pytest.raises(ResourceError, match=sieve_mod.MEM_ENV_VAR):
            run_battery(ArithParams(10**305, 1.0), limit=10**3, cutoff=10**3)

    def test_render_table(self):
        reports = run_battery(ArithParams(2, 2.0), limit=10**3, cutoff=10**3)
        text = cli.render_verify(reports, reports[-1].params, "table")
        assert "PASS" in text
        assert "FAIL" in text  # numerator identity fails at k = 2
        assert "GAP" in text  # closed-form row records the gap
        assert "global_factorization" in text

    def test_json_serializable(self):
        reports = run_battery(ArithParams(2, 1.0), limit=10**3, cutoff=10**3)
        parsed = json.loads(cli.render_verify(reports, reports[-1].params, "json"))["reports"]
        assert all(rec["pass"] for rec in parsed)
