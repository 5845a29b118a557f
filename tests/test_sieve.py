import functools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from meanval import cli
from meanval.arith import ArithParams, composite_weighted_divisor, factorize
from meanval.errors import ConfigError, ResourceError
from meanval import sieve as sieve_mod
from meanval.sieve import (
    _check_budget,
    build_spf,
    geometric_checkpoints,
    summatory,
    tabulate,
    value_blocks,
)

from oracles import enumerated_sum, prime_count, smallest_prime_factors


@functools.lru_cache(maxsize=None)
def _enumerated_prefix_sums(r: int, k: float, xs: tuple[int, ...]) -> dict[int, Fraction]:
    return {x: enumerated_sum(x, r, Fraction(k)) for x in xs}


class TestBuildSpf:
    def test_small_entries(self):
        sieve = build_spf(100)
        assert sieve.spf[2] == 2
        assert sieve.spf[91] == 7
        assert sieve.spf[97] == 97
        assert sieve.spf[64] == 2

    def test_spf_divides_and_is_minimal(self):
        sieve = build_spf(5000)
        for n in range(2, 5001):
            p = int(sieve.spf[n])
            assert n % p == 0
            for q in range(2, p):
                assert n % q != 0

    def test_prime_count_up_to_1e6(self):
        sieve = build_spf(10**6)
        idx = np.arange(10**6 + 1)
        fixed_points = int(np.count_nonzero(sieve.spf[2:] == idx[2:]))
        assert fixed_points == prime_count(10**6) == 78498

    def test_limit_too_small(self):
        with pytest.raises(ConfigError):
            build_spf(1)

    @pytest.mark.parametrize("limit", [2, 3, 4, 2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 7])
    def test_matches_naive_sieve(self, limit):
        assert np.array_equal(build_spf(limit).spf, smallest_prime_factors(limit))

    def test_memory_budget_enforced(self, monkeypatch):
        monkeypatch.setenv(sieve_mod.MEM_ENV_VAR, "1")
        with pytest.raises(ResourceError):
            build_spf(10**8)
        # a budget that is not a finite number >= 0 is refused like a non-numeric one
        for value in ("nan", "inf", "-1"):
            monkeypatch.setenv(sieve_mod.MEM_ENV_VAR, value)
            with pytest.raises(ConfigError):
                build_spf(10**5)

    @pytest.mark.parametrize("limit", [10**5, 2 * 10**6, 10**7])
    def test_budget_covers_traced_peak(self, limit, monkeypatch):
        tracemalloc.start()
        try:
            tabulate(build_spf(limit), ArithParams(2, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the gate must refuse a budget equal to the measured peak, that is,
        # its estimate for this limit is above the peak
        monkeypatch.setenv(sieve_mod.MEM_ENV_VAR, str(peak / 2**20))
        with pytest.raises(ResourceError):
            _check_budget(limit)


class TestValueBlocks:
    @pytest.mark.parametrize("limit", [1, 2, 3, 24, 48, 120, 168, 169, 170, 5007, 2**17 + 3])
    @pytest.mark.parametrize("r", [2, 3, 5, 40])
    def test_blocks_equal_the_table(self, monkeypatch, r, limit):
        # with blocks of 1000 a prime power's multiples start at another offset in each block;
        # the tiers split at isqrt(1000) = 31, so every prime power above 31 (the primes
        # from 37 to isqrt(limit), and powers such as 3**4 and 37**2) takes the gathered
        # pass, and those below it the strided passes. Omega of 2 to 13 comes from a
        # wheel of the ones <= isqrt(limit): none at 3, 2 and 3 at 24, up to 5, 7 and 11
        # at 48, 120 and 168, all six from 169. Blocks of 1000 straddle each multiple of
        # the wheel's period 30030 below 2**17 + 3.
        monkeypatch.setattr(sieve_mod, "SERIES_BLOCK", 1000)
        for k in (1.0, 1.5, 2.0, 3.0):
            params = ArithParams(r, k)
            table = tabulate(build_spf(max(limit, 2)), params)
            end = 1
            for lo, counts, omegas in value_blocks(params, limit):
                assert lo == end and counts.size == omegas.size <= 1000
                assert counts.dtype == np.int32 and omegas.dtype == np.int8
                end = lo + counts.size
                assert np.array_equal(counts, table.counts[lo:end])
                assert np.array_equal(omegas, table.omegas[lo:end])
            assert end == limit + 1

    def test_default_blocks_equal_the_table(self):
        # at 4e6 the default block gathers the primes in (isqrt(SERIES_BLOCK), 2000] = (256,
        # 2000] and the powers above 256 of the smaller primes; 13 of those primes and many
        # of those powers divide a block's first or last n (2**9 divides every last one)
        for r, limit in ((2, 10**6), (2, 4 * 10**6), (3, 4 * 10**6)):
            params = ArithParams(r, 1.5)
            table = tabulate(build_spf(limit), params)
            blocks = list(value_blocks(params, limit))
            assert len(blocks) == -(-limit // sieve_mod.SERIES_BLOCK)
            assert np.array_equal(np.concatenate([c for _, c, _ in blocks]), table.counts[1:])
            assert np.array_equal(np.concatenate([o for _, _, o in blocks]), table.omegas[1:])

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("limit", [1, 999, 1000, 5007, 30030 + 11])
    def test_parts_equal_the_table(self, monkeypatch, limit, parts):
        # part j holds the serial blocks j, j + parts, ...; with blocks of 1000, five
        # limits give 1 to 31 blocks, so some parts get none and the last block is short
        monkeypatch.setattr(sieve_mod, "SERIES_BLOCK", 1000)
        params = ArithParams(3, 1.5)
        table = tabulate(build_spf(max(limit, 2)), params)
        seen = []
        for part in range(parts):
            for lo, counts, omegas in value_blocks(params, limit, part, parts):
                assert (lo - 1) // 1000 % parts == part and (lo - 1) % 1000 == 0
                assert counts.size == min(1000, limit + 1 - lo)
                assert np.array_equal(counts, table.counts[lo : lo + counts.size])
                assert np.array_equal(omegas, table.omegas[lo : lo + counts.size])
                seen.append(lo)
        assert sorted(seen) == list(range(1, limit + 1, 1000))

    def test_limits_refused(self):
        with pytest.raises(ConfigError):
            next(value_blocks(ArithParams(2, 1.0), 0))
        with pytest.raises(ResourceError, match="int32"):
            next(value_blocks(ArithParams(2, 1.0), 2**31 - 1))


class TestTabulate:
    def test_spot_values(self):
        sieve = build_spf(100)
        t1 = tabulate(sieve, ArithParams(2, 1.0))
        assert t1.value(8) == 3
        assert t1.value(1) == 1
        t2 = tabulate(sieve, ArithParams(2, 2.0))
        assert t2.value(9) == 1

    def test_agrees_with_direct_evaluation_exact(self):
        sieve = build_spf(10**5)
        rng = random.Random(7)
        for params in (ArithParams(2, 1.0), ArithParams(3, 2.0)):
            table = tabulate(sieve, params)
            for _ in range(1000):
                n = rng.randint(1, 10**5)
                assert table.value(n) == composite_weighted_divisor(factorize(n), params)

    def test_agrees_with_direct_evaluation_float(self):
        sieve = build_spf(2 * 10**4)
        params = ArithParams(2, 1.5)
        table = tabulate(sieve, params)
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 2 * 10**4)
            assert table.value(n) == composite_weighted_divisor(factorize(n), params)

    def test_out_of_range(self):
        table = tabulate(build_spf(10), ArithParams(2, 1.0))
        with pytest.raises(ConfigError):
            table.value(11)

    def test_agrees_with_direct_evaluation_at_doubling_block_edges(self):
        sieve = build_spf(10**6)
        edges = [n for j in range(1, 20) for n in (2**j - 1, 2**j, 2**j + 1) if n <= 10**6]
        for r in (2, 3, 5):
            params = ArithParams(r, 2.0)
            table = tabulate(sieve, params)
            for n in edges:
                assert table.value(n) == composite_weighted_divisor(factorize(n), params)


class TestCheckpoints:
    def test_geometric_grid_shape(self):
        grid = geometric_checkpoints(10**6)
        assert grid[0] == 10
        assert grid[-1] == 10**6
        assert grid == sorted(set(grid))
        assert len(grid) == 41  # 8 per decade over five decades, ends inclusive

    def test_small_limits(self):
        assert geometric_checkpoints(10) == [10]
        assert geometric_checkpoints(5) == [5]
        assert geometric_checkpoints(1) == [1]


class TestSummatory:
    def test_enumerated_sums_exact(self):
        t = summatory(ArithParams(2, 1.0), 10)
        assert t.final == Fraction(24)
        assert t.final == enumerated_sum(10, 2, 1)
        t = summatory(ArithParams(2, 2.0), 10)
        assert t.final == Fraction(21, 2)
        assert t.final == enumerated_sum(10, 2, 2)

    def test_single_term(self):
        for params in (ArithParams(2, 1.0), ArithParams(3, 2.5)):
            t = summatory(params, 1)
            assert t.rows[0].x == 1
            assert t.rows[0].value == 1

    def test_exact_matches_enumeration_more_params(self):
        for r, k in ((2, 3), (3, 1), (4, 2)):
            t = summatory(ArithParams(r, float(k)), 200, grid=[200])
            assert t.final == enumerated_sum(200, r, k)

    def test_float_mode_close_to_exact(self):
        tf = summatory(ArithParams(2, 2.0 + 1e-12), 500, grid=[500])
        te = summatory(ArithParams(2, 2.0), 500, grid=[500])
        assert tf.mode == "float" and te.mode == "exact"
        assert float(tf.final) == pytest.approx(float(te.final), rel=1e-9)

    def test_monotone_strictly_increasing(self):
        t = summatory(ArithParams(2, 2.0), 10**4)
        values = [row.value for row in t.rows]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_exact_mode_determinism(self):
        a = summatory(ArithParams(2, 2.0), 10**4)
        b = summatory(ArithParams(2, 2.0), 10**4)
        assert a == b

    def test_threads_bit_identical(self, capsys):
        # the sum CLI still takes --threads, and any count gives the same bytes
        for k in ("1", "1.75"):
            outs = []
            for threads in ("1", "4"):
                assert cli.main(["sum", "--k", k, "--N", "100000", "--threads", threads]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]

    def test_float_error_bound_small(self):
        t = summatory(ArithParams(2, 1.5), 10**5)
        for row in t.rows:
            assert 0 < row.err_bound <= 1e-6 * float(row.value)

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("r, k", [(3, 1.5), (2, 1.3), (2, 2.0 + 1e-12)])
    def test_float_rows_are_correctly_rounded_exact_sums(self, r, k, threads, capsys):
        grid = [1, *geometric_checkpoints(2000)]
        oracle = _enumerated_prefix_sums(r, k, tuple(grid))
        t = summatory(ArithParams(r, k), 2000, grid=grid)
        assert t.mode == "float" and [row.x for row in t.rows] == grid
        for row in t.rows:
            assert row.value == float(oracle[row.x]), row.x
            assert row.err_bound == math.ulp(row.value) / 2, row.x
        # the same rows through the sum CLI, whose --threads has no effect
        argv = ["sum", "--r", str(r), "--k", repr(k), "--N", "2000", "--threads", str(threads),
                "--grid", "list:" + ",".join(map(str, grid))]
        assert cli.main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(row["x"], float(row["S"]), float(row["err_bound"])) for row in rows] == [
            (row.x, row.value, row.err_bound) for row in t.rows
        ]

    def test_first_row_does_not_depend_on_limit(self):
        from meanval.coeffs import bundle
        from meanval.fit import residuals

        for params in (ArithParams(2, 1.5), ArithParams(2, 1.0)):
            consts = bundle(params, 10**4)
            alone = residuals(summatory(params, 1), consts).table.rows[0]
            first = residuals(summatory(params, 10, grid=[1, 10]), consts).table.rows[0]
            assert alone == first

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            summatory(ArithParams(2, 1.0), 10, grid=[11])
        with pytest.raises(ConfigError):
            summatory(ArithParams(2, 1.0), 10, grid=[0])
        with pytest.raises(ConfigError):
            summatory(ArithParams(2, 1.0), 0)

    @pytest.mark.parametrize("k", [1.0, 1.5, 2.0])
    def test_array_grid_equals_list_grid(self, k):
        params = ArithParams(2, k)
        table = summatory(params, 10**6, grid=np.array([10**5, 10**6]))
        assert table == summatory(params, 10**6, grid=[10**5, 10**6])
        assert all(type(row.x) is int for row in table.rows)

    def test_float_grid_point_rejected(self):
        with pytest.raises(ConfigError, match="grid points must be integers"):
            summatory(ArithParams(2, 1.0), 10**6, grid=[1e5])

    def test_custom_grid_prefix_sums(self):
        t = summatory(ArithParams(2, 1.0), 20, grid=[1, 5, 10, 20])
        by_x = {row.x: row.value for row in t.rows}
        assert by_x[1] == 1
        assert by_x[5] == enumerated_sum(5, 2, 1)
        assert by_x[10] == 24
        assert by_x[20] == enumerated_sum(20, 2, 1)

    def test_residual_column_consistent_with_value_and_main(self):
        from meanval.coeffs import bundle
        from meanval.fit import residuals

        consts = bundle(ArithParams(2, 1.0), 10**4)
        t = residuals(summatory(ArithParams(2, 1.0), 10**4), consts).table
        for row in t.rows:
            assert row.main == consts.main_term(row.x)
            assert row.residual == float(row.value - Fraction(row.main))
        consts_f = bundle(ArithParams(2, 1.5), 10**4)
        tf = residuals(summatory(ArithParams(2, 1.5), 10**4), consts_f).table
        for row in tf.rows:
            assert row.residual == row.value - row.main


class TestExports:
    def test_csv_shape(self):
        t = summatory(ArithParams(2, 2.0), 100, grid=[10, 100])
        lines = cli.render_summatory(t, "csv").splitlines()
        assert lines[0] == "x,S,main,residual,err_bound"
        assert len(lines) == 3
        x, s, main, resid, err = lines[1].split(",")
        assert x == "10" and s == "10.5" and main == "" and resid == ""

    def test_json_exact_fields(self):
        t = summatory(ArithParams(2, 2.0), 10, grid=[10])
        obj = json.loads(cli.render_summatory(t, "json"))
        assert obj["schema_version"] == "1"
        assert obj["kind"] == "summatory_table"
        row = obj["rows"][0]
        assert row["S"] == "10.5"
        assert row["S_exact"] == "21/2"
        json.dumps(obj)  # must be serializable

    def test_json_float_mode(self):
        t = summatory(ArithParams(2, 1.5), 10, grid=[10])
        row = json.loads(cli.render_summatory(t, "json"))["rows"][0]
        assert "S_exact" not in row
        assert float(row["S"]) == float(t.final)
