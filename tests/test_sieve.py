import contextlib
import functools
import json
import math
import random
import signal
from fractions import Fraction

import numpy as np
import pytest

from meanval import classtotals, cli, hyperbola
from meanval.arith import ArithParams, divisor_count, factorize, minimal_power, omega
from meanval.errors import ConfigError, ResourceError
from meanval import sieve as sieve_mod
from meanval.sieve import build_spf, geometric_checkpoints, summatory, tabulate, value_blocks

from oracles import enumerated_sum, prime_count, smallest_prime_factors


@functools.lru_cache(maxsize=None)
def _enumerated_prefix_sums(r: int, k: float, xs: tuple[int, ...]) -> dict[int, Fraction]:
    return {x: enumerated_sum(x, r, Fraction(k)) for x in xs}


class TestBuildSpf:
    def test_small_entries(self):
        spf = build_spf(100)
        assert spf.dtype == np.int32 and spf.size == 101
        assert spf[2] == 2
        assert spf[91] == 7
        assert spf[97] == 97
        assert spf[64] == 2

    def test_spf_divides_and_is_minimal(self):
        spf = build_spf(5000)
        for n in range(2, 5001):
            p = int(spf[n])
            assert n % p == 0
            for q in range(2, p):
                assert n % q != 0

    def test_prime_count_up_to_1e6(self):
        spf = build_spf(10**6)
        idx = np.arange(10**6 + 1)
        fixed_points = int(np.count_nonzero(spf[2:] == idx[2:]))
        assert fixed_points == prime_count(10**6) == 78498

    def test_limit_too_small(self):
        with pytest.raises(ConfigError):
            build_spf(1)

    @pytest.mark.parametrize("limit", [2, 3, 4, 2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 7])
    def test_matches_naive_sieve(self, limit):
        assert np.array_equal(build_spf(limit), smallest_prime_factors(limit))

    def test_int32_layout_refused(self):
        with pytest.raises(ResourceError, match="int32"):
            build_spf(2**31 - 1)


class TestValueBlocks:
    @pytest.mark.parametrize("limit", [1, 2, 3, 24, 48, 120, 168, 169, 170, 5007, 2**17 + 3])
    @pytest.mark.parametrize("r", [2, 3, 5, 40, pytest.param(10**305, id="10**305")])
    def test_blocks_equal_the_table(self, monkeypatch, r, limit):
        # with blocks of 1000 a prime power's multiples start at another offset in each block;
        # the tiers split at isqrt(1000) = 31, so every prime power above 31 (the primes
        # from 37 to isqrt(limit), and powers such as 3**4 and 37**2) takes the gathered
        # pass, and those below it the strided passes. Omega of 2 to 13 comes from a
        # wheel of the ones <= isqrt(limit): none at 3, 2 and 3 at 24, up to 5, 7 and 11
        # at 48, 120 and 168, all six from 169. Blocks of 1000 straddle each multiple of
        # the wheel's period 30030 below 2**17 + 3. At r = 10**305 no count step lies below the
        # limit, and none is formed as a power of r.
        monkeypatch.setattr(sieve_mod, "SERIES_BLOCK", 1000)
        piece = sieve_mod.PIECE
        for k in (1.0, 1.5, 2.0, 3.0):
            params = ArithParams(r, k)
            table_counts, table_omegas = tabulate(build_spf(max(limit, 2)), params)
            end = 1
            for lo, counts, omegas in value_blocks(params, limit):
                assert lo == end and counts.size == omegas.size <= min(piece, 1000)
                assert counts.dtype == np.int32 and omegas.dtype == np.int8
                end = lo + counts.size
                assert np.array_equal(counts, table_counts[lo:end])
                assert np.array_equal(omegas, table_omegas[lo:end])
            assert end == limit + 1

    def test_default_blocks_equal_the_table(self):
        # at 4e6 the default segment gathers the primes in (isqrt(SERIES_BLOCK), 2000] = (256,
        # 2000] and the powers above 256 of the smaller primes; 13 of those primes and many
        # of those powers divide a segment's first or last n (2**9 divides every last one).
        # The pieces are views that the next segment overwrites, so the kept ones are copies.
        block, piece = sieve_mod.SERIES_BLOCK, sieve_mod.PIECE
        for r, limit in ((2, 10**6), (2, 4 * 10**6), (3, 4 * 10**6)):
            params = ArithParams(r, 1.5)
            table_counts, table_omegas = tabulate(build_spf(limit), params)
            pieces = [(lo, c.copy(), o.copy()) for lo, c, o in value_blocks(params, limit)]
            assert [lo for lo, _, _ in pieces] == list(range(1, limit + 1, piece))
            assert all(c.size == o.size <= piece for _, c, o in pieces)
            assert all((lo - 1) // block == (lo + c.size - 2) // block for lo, c, _ in pieces)
            assert np.array_equal(np.concatenate([c for _, c, _ in pieces]), table_counts[1:])
            assert np.array_equal(np.concatenate([o for _, _, o in pieces]), table_omegas[1:])

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("limit", [1, 999, 1000, 5007, 30030 + 11])
    def test_parts_equal_the_table(self, monkeypatch, limit, parts):
        # part j holds the serial pieces of the segments j, j + parts, ...; with segments of
        # 1000, five limits give 1 to 31 segments, so some parts get none and the last
        # segment is short
        monkeypatch.setattr(sieve_mod, "SERIES_BLOCK", 1000)
        piece = sieve_mod.PIECE
        params = ArithParams(3, 1.5)
        table_counts, table_omegas = tabulate(build_spf(max(limit, 2)), params)
        seen = []
        for part in range(parts):
            for lo, counts, omegas in value_blocks(params, limit, part, parts):
                assert (lo - 1) // 1000 % parts == part and (lo - 1) % 1000 % piece == 0
                assert counts.size == min(piece, 1000 - (lo - 1) % 1000, limit + 1 - lo)
                assert np.array_equal(counts, table_counts[lo : lo + counts.size])
                assert np.array_equal(omegas, table_omegas[lo : lo + counts.size])
                seen.append(lo)
        assert sorted(seen) == [lo for lo in range(1, limit + 1) if (lo - 1) % 1000 % piece == 0]

    # pieces of 1 and 7 leave a short piece at the end of every segment of 1000, and
    # pieces of 1000 are whole segments
    @pytest.mark.parametrize("piece", [1, 7, 1000])
    @pytest.mark.parametrize("limit", [1, 169, 5007, 30030 + 11])
    @pytest.mark.parametrize("r", [2, 3])
    def test_small_pieces_equal_the_table(self, monkeypatch, r, limit, piece):
        monkeypatch.setattr(sieve_mod, "PIECE", piece)
        self.test_blocks_equal_the_table(monkeypatch, r, limit)

    @pytest.mark.parametrize("piece", [1, 7, 1000])
    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("limit", [1, 999, 5007, 30030 + 11])
    def test_small_pieces_in_parts(self, monkeypatch, limit, parts, piece):
        monkeypatch.setattr(sieve_mod, "PIECE", piece)
        self.test_parts_equal_the_table(monkeypatch, limit, parts)

    def test_limits_refused(self):
        with pytest.raises(ConfigError):
            next(value_blocks(ArithParams(2, 1.0), 0))
        with pytest.raises(ResourceError, match="int32"):
            next(value_blocks(ArithParams(2, 1.0), 2**31 - 1))


def _assert_direct(counts, omegas, n, r):
    """counts[n] and omegas[n] are d(minpow_r(n)) and omega(n) from ``arith``'s single-integer path."""
    f = factorize(n)
    assert (counts[n], omegas[n]) == (divisor_count(minimal_power(f, r)), omega(f)), (n, r)


class TestTabulate:
    def test_spot_values(self):
        spf = build_spf(100)
        counts, omegas = tabulate(spf, ArithParams(2, 1.0))
        assert counts.dtype == np.int32 and omegas.dtype == np.int8
        assert counts.size == omegas.size == 101
        assert (counts[8], omegas[8]) == (3, 1)  # minpow_2(8) = 2**2
        assert (counts[1], omegas[1]) == (1, 0)
        counts, omegas = tabulate(spf, ArithParams(2, 2.0))
        assert counts[9] / 2 ** omegas[9] == 1  # d(3) / 2

    def test_agrees_with_direct_evaluation_exact(self):
        spf = build_spf(10**5)
        rng = random.Random(7)
        for params in (ArithParams(2, 1.0), ArithParams(3, 2.0)):
            counts, omegas = tabulate(spf, params)
            for _ in range(1000):
                _assert_direct(counts, omegas, rng.randint(1, 10**5), params.r)

    def test_agrees_with_direct_evaluation_float(self):
        spf = build_spf(2 * 10**4)
        params = ArithParams(2, 1.5)
        counts, omegas = tabulate(spf, params)
        rng = random.Random(11)
        for _ in range(300):
            _assert_direct(counts, omegas, rng.randint(1, 2 * 10**4), params.r)

    def test_agrees_with_direct_evaluation_at_doubling_block_edges(self):
        spf = build_spf(10**6)
        edges = [n for j in range(1, 20) for n in (2**j - 1, 2**j, 2**j + 1) if n <= 10**6]
        for r in (2, 3, 5):
            counts, omegas = tabulate(spf, ArithParams(r, 2.0))
            for n in edges:
                _assert_direct(counts, omegas, n, r)


@contextlib.contextmanager
def _alarm(seconds, call):
    """Raise TimeoutError in the test if the block runs longer than ``seconds``."""

    def stop(signum, frame):
        raise TimeoutError(f"{call} did not return")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _full_loop_checkpoints(limit, per_decade):
    """The oracle: round(10**(j/per_decade)) for every j from per_decade up, one step at a time."""
    pts = set()
    j = per_decade
    while True:
        x = round(10 ** (j / per_decade))
        if x > limit:
            break
        if x >= 10:
            pts.add(x)
        j += 1
    pts.add(limit)
    return sorted(pts)


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

    @pytest.mark.parametrize("per_decade", [0, -1])
    def test_density_below_one_refused(self, per_decade):
        # unchecked, a density of 0 divides by zero and one of -1 never
        # reaches the limit, so an alarm bounds the call
        with _alarm(10, f"geometric_checkpoints(100, {per_decade})"):
            with pytest.raises(ConfigError, match=f"grid density must be >= 1, got {per_decade}"):
                geometric_checkpoints(100, per_decade=per_decade)

    def test_same_points_as_the_full_loop(self, monkeypatch):
        # the count charged to the budget is never below the points built
        charged = []
        budget = sieve_mod._require_budget

        def spy(need_bytes, *rest):
            charged.append(need_bytes)
            budget(need_bytes, *rest)

        monkeypatch.setattr(sieve_mod, "_require_budget", spy)

        def check(limit, per_decade):
            charged.clear()
            points = geometric_checkpoints(limit, per_decade)
            assert points == _full_loop_checkpoints(limit, per_decade), (limit, per_decade)
            assert len(charged) == 1 and charged[0] >= len(points) * sieve_mod.BYTES_PER_POINT, \
                (limit, per_decade)

        rng = random.Random(5)
        limits = [1, 2, 9, 10, 11, 42, 43, 44, 99, 100, 101, 1000, 12345, 99999, 10**6]
        limits += [rng.randint(1, 10**6) for _ in range(10)]
        for per_decade in range(1, 201):
            for limit in limits:
                check(limit, per_decade)
        # every small grid, the dense ones and the edge of the run included
        for per_decade in range(1, 41):
            for limit in range(1, 1001):
                check(limit, per_decade)
        # where every integer up to about per_decade / 4.6 is a point
        for per_decade in (1000, 4321, 10**4, 10**5):
            for limit in (10, 500, 2171, 10**4, 10**6):
                check(limit, per_decade)

    @pytest.mark.parametrize("per_decade", [10**9, 10**400], ids=["1e9", "1e400"])
    def test_dense_grid_costs_its_points(self, per_decade):
        # one step per exponent j would take 1e9 steps for these 91 points, and
        # never pass 10 at a density whose 1 / per_decade rounds to 0.0
        with _alarm(10, "geometric_checkpoints(100, per_decade)"):
            assert geometric_checkpoints(100, per_decade) == list(range(10, 101))


    @pytest.mark.parametrize("limit, per_decade", [(10**400, 8), (2**1024 - 1, 8), (10**308, 1)])
    def test_grid_past_the_double_range_is_refused(self, limit, per_decade):
        # the float of the limit overflows, or, at 1e308 and one point per decade, that of
        # the point 1e309 past it
        with pytest.raises(ResourceError, match="passes the double range"):
            geometric_checkpoints(limit, per_decade)

    def test_grid_near_the_top_of_the_double_range(self):
        grid = geometric_checkpoints(2**1023, 1)
        assert grid[:3] == [10, 100, 1000] and grid[-1] == 2**1023 and len(grid) == 308

    @pytest.mark.parametrize("limit, per_decade", [(10**6, 10**6), (10**9, 10**9), (10**12, 10**4)])
    def test_grid_past_the_budget_is_refused_before_it_is_built(self, monkeypatch, limit, per_decade):
        # both ways of forming the points, every integer and one per exponent, are counted
        # first: built, the first two would hold 8e5 and 1e9 points, the third 1.2e5
        monkeypatch.setenv(sieve_mod.MEM_ENV_VAR, "1" if limit < 10**12 else "0.01")
        with _alarm(10, f"geometric_checkpoints({limit}, {per_decade})"):
            with pytest.raises(ResourceError, match=sieve_mod.MEM_ENV_VAR):
                geometric_checkpoints(limit, per_decade)


class TestSummatory:
    def test_enumerated_sums_exact(self):
        t = summatory(ArithParams(2, 1.0), 10)
        assert t.rows[-1].value == Fraction(24)
        assert t.rows[-1].value == enumerated_sum(10, 2, 1)
        t = summatory(ArithParams(2, 2.0), 10)
        assert t.rows[-1].value == Fraction(21, 2)
        assert t.rows[-1].value == enumerated_sum(10, 2, 2)

    def test_single_term(self):
        for params in (ArithParams(2, 1.0), ArithParams(3, 2.5)):
            t = summatory(params, 1)
            assert t.rows[0].x == 1
            assert t.rows[0].value == 1

    def test_exact_matches_enumeration_more_params(self):
        for r, k in ((2, 3), (3, 1), (4, 2)):
            t = summatory(ArithParams(r, float(k)), 200, grid=[200])
            assert t.rows[-1].value == enumerated_sum(200, r, k)

    def test_float_mode_close_to_exact(self):
        tf = summatory(ArithParams(2, 2.0 + 1e-12), 500, grid=[500])
        te = summatory(ArithParams(2, 2.0), 500, grid=[500])
        assert tf.mode == "float" and te.mode == "exact"
        assert float(tf.rows[-1].value) == pytest.approx(float(te.rows[-1].value), rel=1e-9)

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

    @pytest.mark.parametrize("k", [1.0, 1.5])
    def test_memory_budget_enforced(self, k, monkeypatch):
        # both backends: a budget below the estimate is a resource error, and one that is
        # not a finite number >= 0 is refused like a non-numeric one, before any sum
        monkeypatch.setattr(classtotals, "prefix_sums", lambda *a: pytest.fail("summed"))
        monkeypatch.setattr(hyperbola, "prefix_sums", lambda *a: pytest.fail("summed"))
        monkeypatch.setenv(sieve_mod.MEM_ENV_VAR, "1")
        with pytest.raises(ResourceError, match=sieve_mod.MEM_ENV_VAR):
            summatory(ArithParams(2, k), 10**12)
        for value in ("nan", "inf", "-1"):
            monkeypatch.setenv(sieve_mod.MEM_ENV_VAR, value)
            with pytest.raises(ConfigError, match="not a finite number >= 0"):
                summatory(ArithParams(2, k), 10**5)

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
        assert float(row["S"]) == float(t.rows[-1].value)
