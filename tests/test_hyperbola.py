import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from meanval import classtotals, hyperbola
from meanval import sieve as sieve_mod
from meanval.arith import ArithParams
from meanval.errors import ResourceError
from meanval.sieve import build_spf, geometric_checkpoints, summatory, tabulate
from meanval.verify import power_series_closed_form

from oracles import count_divisors_scan, enumerated_sum, trial_factorize

PAIRS = [(r, k) for r in (2, 3, 5) for k in (1, 2)]


@pytest.fixture(scope="module")
def spf_1e6():
    return build_spf(10**6)


def table_prefix_sums(table, k: int, xs) -> dict[int, Fraction]:
    """S(x) from the sieve's per-n table: prefix sums of counts * k**(W - omega) over k**W."""
    counts, omegas = table
    w_max = int(omegas.max())
    scaled = counts.astype(np.int64) * k ** (w_max - omegas.astype(np.int64))
    scaled[0] = 0
    cum = np.cumsum(scaled)
    return {x: Fraction(int(cum[x]), k**w_max) for x in xs}


class TestLocalCoefficients:
    @pytest.mark.parametrize("r, k", PAIRS)
    def test_series_matches_power_series_closed_form(self, r, k):
        # sum_a h(p**a) z**a = (1 - z)**(2/k) * F_p(z), F_p = 1 + closed form / k
        num = hyperbola.h_numerators(r, k, 400)
        assert num[0] == k and num[1] == 0  # h(1) = 1 and h(p) = 0
        for z in (0.1, 0.3, 0.5, 0.7):
            series = math.fsum(c / k * z**a for a, c in enumerate(num))
            closed = (1.0 - z) ** (2 / k) * (1.0 + power_series_closed_form(r, z) / k)
            assert series == pytest.approx(closed, rel=1e-13, abs=1e-13), (r, k, z)


class TestPowerfulSupport:
    @pytest.mark.parametrize("r, k", PAIRS)
    def test_lists_exactly_the_nonzero_h(self, r, k):
        limit = 20000
        w = 3  # the largest omega with a squared primorial <= limit: (2 * 3 * 5)**2 <= 20000 < 210**2
        num_a = hyperbola.h_numerators(r, k, 20)
        want = {}
        for n in range(1, limit + 1):
            fac = trial_factorize(n)
            h = math.prod(num_a[a] for _, a in fac)
            if h:
                want[n] = h * k ** (w - len(fac))  # h(n) * k**W
        m, weight = hyperbola.powerful_support(ArithParams(r, float(k)), limit)
        assert m.dtype == weight.dtype == np.int64
        assert np.all(np.diff(m) > 0)
        assert dict(zip(m.tolist(), weight.tolist())) == want

    def test_small_limits(self):
        for limit in (1, 2, 3, 4):
            m, weight = hyperbola.powerful_support(ArithParams(2, 1.0), limit)
            assert m.tolist() == ([1, 4] if limit == 4 else [1])
            assert weight.tolist() == ([1, -1] if limit == 4 else [1])

    def test_no_exponent_fits(self):
        # at k = 2, h(p**a) = 0 for 0 < a <= r, so with 2**(r + 1) > N the support is {1},
        # weighing k**W with W = 7, as 2 * 3 * ... * 17 <= isqrt(10**12) < 2 * 3 * ... * 19
        params = ArithParams(600, 2.0)
        assert [col.tolist() for col in hyperbola.powerful_support(params, 10**12)] == [[1], [2**7]]
        assert all(row.value == row.x for row in summatory(params, 10**12).rows)


class TestDivisorSummatory:
    def test_table_and_formula_against_divisor_scan(self):
        table = hyperbola.divisor_summatory_table(2000)
        scan = np.cumsum([0] + [count_divisors_scan(n) for n in range(1, 2001)])
        assert table.tolist() == scan.tolist()
        # every y, perfect squares among them, where the formula subtracts isqrt(y)**2
        assert [hyperbola.divisor_summatory(y) for y in range(2001)] == scan.tolist()

    def test_formula_across_chunks(self, monkeypatch):
        xs = [1, *geometric_checkpoints(10**5)]
        unpatched = {k: hyperbola.prefix_sums(ArithParams(2, k), xs) for k in (1.0, 2.0)}
        monkeypatch.setattr(hyperbola, "FORMULA_CHUNK", 7)
        table = hyperbola.divisor_summatory_table(5000)
        for y in (48, 49, 50, 2499, 2500, 2501, 4999, 5000):
            assert hyperbola.divisor_summatory(y) == table[y]
        # the dot products run over slices of 7 powerful numbers too
        for k, want in unpatched.items():
            assert hyperbola.prefix_sums(ArithParams(2, k), xs) == want


class TestPrefixSums:
    @pytest.mark.parametrize("r, k", PAIRS)
    def test_summatory_equals_sieve_table_at_geom_checkpoints(self, spf_1e6, r, k):
        params = ArithParams(r, float(k))
        grid = [1, *geometric_checkpoints(10**6)]
        want = table_prefix_sums(tabulate(spf_1e6, params), k, grid)
        t = summatory(params, 10**6, grid=grid)
        assert t.mode == "exact"
        assert {row.x: row.value for row in t.rows} == want

    @pytest.mark.parametrize("r, k", PAIRS)
    def test_edges_of_the_table(self, spf_1e6, r, k):
        # N = 10**4: L = 200, and m < 50 take the formula at x = N
        limit = 10**4
        big = hyperbola.table_size(limit)
        assert big == 200
        xs = [1, 2, 3, 4, big - 1, big, big + 1, 196, 225, 4 * big - 1, 4 * big, 4 * big + 1,
              9 * big, 2401, limit - 1, limit]
        params = ArithParams(r, float(k))
        want = table_prefix_sums(tabulate(spf_1e6, params), k, xs)
        assert dict(zip(xs, hyperbola.prefix_sums(params, xs))) == want

    @pytest.mark.parametrize("r, k", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_enumerated_oracle(self, r, k):
        params = ArithParams(r, float(k))
        xs = [1, 2, 3, 4, 7, 8, 9, 16, 27, 32, 36, 72, 100, 128, 199, 200]
        got = dict(zip(xs, hyperbola.prefix_sums(params, xs)))
        assert got == {x: enumerated_sum(x, r, k) for x in xs}

    def test_pinned_values(self):
        got = hyperbola.prefix_sums(ArithParams(2, 1.0), [10**10, 10**11, 10**12])
        assert got == [168563540767, 1847839222597, 20100430329742]
        assert hyperbola.prefix_sums(ArithParams(2, 2.0), [10**10]) == [Fraction(44527035351, 4)]

    @pytest.mark.parametrize("k", [1.0, 2.0])
    def test_limits_one_and_two(self, k):
        params = ArithParams(2, k)
        for backend in (hyperbola, classtotals):
            assert backend.prefix_sums(params, [1]) == [1]
            assert backend.prefix_sums(params, [1, 2]) == [1, 1 + Fraction(2) / k]
        assert [row.value for row in summatory(params, 1).rows] == [1]
        assert [row.value for row in summatory(params, 2, grid=[1, 2]).rows] == [1, 1 + Fraction(2) / k]


class TestDispatch:
    def test_integer_weights_one_and_two_skip_the_sieve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sieved")

        monkeypatch.setattr(sieve_mod, "build_spf", refuse)
        for k in (1, 1.0, 2.0):
            assert summatory(ArithParams(2, k), 10).rows[-1].value == enumerated_sum(10, 2, int(k))

    @pytest.mark.parametrize("k", [3.0, 1.5, 2.0 + 1e-12])
    def test_other_weights_sieve(self, k, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("took the powerful-number sum")

        monkeypatch.setattr(hyperbola, "prefix_sums", refuse)
        summatory(ArithParams(2, k), 100)


class TestBudget:
    @pytest.mark.parametrize(
        "limit, k",
        [(limit, k) for limit in (10**5, 10**7, 10**9) for k in (1.0, 2.0)]
        + [(10**12, 2.0), (10**15, 2.0)],  # k = 2 counts only the m with exponents >= r + 1
    )
    def test_estimate_covers_traced_peak(self, limit, k):
        params = ArithParams(2, k)
        xs = geometric_checkpoints(limit)
        tracemalloc.start()
        try:
            hyperbola.prefix_sums(params, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hyperbola.required_bytes(params, xs) > peak

    def test_powerful_count_bound_holds(self):
        # each powerful m <= N is a**2 * b**3 with b squarefree, uniquely, so they number
        # sum_b isqrt(N // b**3); the estimate takes zeta(3/2) / zeta(3) * sqrt(N) of them
        top = hyperbola._iroot(10**12, 3)
        squarefree = np.ones(top + 1, dtype=bool)
        for q in range(2, math.isqrt(top) + 1):
            squarefree[q * q :: q * q] = False
        for e in range(2, 13):
            limit = 10**e
            count = sum(math.isqrt(limit // b**3) for b in range(1, hyperbola._iroot(limit, 3) + 1)
                        if squarefree[b])
            assert count <= hyperbola._POWERFUL_COUNT * math.isqrt(limit), limit

    def test_budget_enforced(self, monkeypatch):
        monkeypatch.setenv(sieve_mod.MEM_ENV_VAR, "1")
        with pytest.raises(ResourceError, match=sieve_mod.MEM_ENV_VAR):
            summatory(ArithParams(2, 1.0), 10**10)

    def test_sized_from_the_grid_not_n(self, monkeypatch):
        # the powerful numbers and the D table go up to the largest checkpoint
        monkeypatch.setenv(sieve_mod.MEM_ENV_VAR, "16")
        table = summatory(ArithParams(2, 1.0), 10**15, grid=[1000])
        assert table.rows[-1].value == 5504 == enumerated_sum(1000, 2, 1)

    def test_exponents_sized_from_n_not_r(self):
        # h(p**a) != 0 is looked up only for 2**a <= N: at k = 1 the first such a is 2 for
        # every r, and at k = 2 it is r + 1, so r = 515 and 1e7 leave only m = 1 at N = 1e12
        one = hyperbola.required_bytes(ArithParams(3, 1.0), [10**12])
        assert hyperbola.required_bytes(ArithParams(10**7, 1.0), [10**12]) == one
        two = hyperbola.required_bytes(ArithParams(515, 2.0), [10**12])
        assert hyperbola.required_bytes(ArithParams(10**7, 2.0), [10**12]) == two
        assert two < hyperbola.required_bytes(ArithParams(3, 2.0), [10**12])

    @pytest.mark.parametrize("k", [1.0, 2.0])
    def test_overflow_refused(self, k):
        with pytest.raises(ResourceError, match="overflow"):
            summatory(ArithParams(2, k), 10**30)
        with pytest.raises(ResourceError, match="overflow"):
            hyperbola.prefix_sums(ArithParams(2, k), [10**18])
        # N = 1e16 is within int64 reach at both weights
        hyperbola.required_bytes(ArithParams(2, k), [10**16])

    @pytest.mark.parametrize("k", [1.0, 2.0])
    @pytest.mark.parametrize("limit", [2**63, 10**400])
    def test_past_the_double_range_refused_in_integers(self, k, limit):
        # 1e400 has no float: the check decides before it would form one
        with pytest.raises(ResourceError, match="overflow"):
            hyperbola.required_bytes(ArithParams(2, k), [10, limit])
