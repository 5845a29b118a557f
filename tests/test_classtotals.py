import math
import random
import tracemalloc

import numpy as np
import pytest

from meanval import classtotals, hyperbola
from meanval import sieve as sieve_mod
from meanval.arith import ArithParams
from meanval.errors import ResourceError
from meanval.sieve import build_spf, geometric_checkpoints, summatory, tabulate

SIEVED = 10**5
XS = [*range(1, 201), 997, 1024, 4096, SIEVED]


@pytest.fixture(scope="module")
def spf():
    return build_spf(SIEVED)


def sieve_class_totals(spf, r: int) -> np.ndarray:
    """Row x: the per-omega bincount of the sieve's counts over 1..x."""
    counts, omegas = tabulate(spf, ArithParams(r, 1.0))
    width = int(omegas.max()) + 1
    out = np.zeros((SIEVED + 1, width), dtype=np.int64)
    out[np.arange(1, SIEVED + 1), omegas[1:]] = counts[1:]
    return np.cumsum(out, axis=0)


def padded(row, width: int) -> list[int]:
    return [*row.tolist(), *[0] * (width - len(row))]


class TestAgainstSieve:
    @pytest.mark.parametrize("r", [2, 3, 5, 40])
    def test_totals_equal_sieve_bincount(self, spf, r):
        want = sieve_class_totals(spf, r)
        width = want.shape[1]
        got = classtotals.class_totals(r, XS)
        assert got.shape == (len(XS), width)
        assert got.dtype == np.int64
        for x, row in zip(XS, got):
            assert row.tolist() == want[x].tolist(), x
        # each x alone: a smaller union of floor values, the same totals
        for x in XS:
            (row,) = classtotals.class_totals(r, [x])
            assert padded(row, width) == want[x].tolist(), x

    def test_random_grids(self, spf):
        want = sieve_class_totals(spf, 3)
        rng = random.Random(5)
        for _ in range(20):
            xs = sorted(rng.sample(range(1, SIEVED + 1), rng.randint(1, 12)))
            got = classtotals.class_totals(3, xs)
            assert [padded(row, want.shape[1]) for row in got] == want[xs].tolist()

    def test_numpy_integer_checkpoints(self):
        # a grid given as an int64 array takes the scalar path per checkpoint, as a list does
        want = classtotals.class_totals(3, [10**6, 10**7])
        assert np.array_equal(classtotals.class_totals(3, np.array([10**6, 10**7])), want)


class TestFloorValues:
    def test_closed_under_floor_division(self):
        xs = [7, 1000, 4321, 99991]
        values = classtotals.floor_values(xs)
        assert values.dtype == np.int64 and np.all(np.diff(values) > 0)
        have = set(values.tolist())
        for x in xs:
            assert {x // i for i in range(1, x + 1)} <= have
        for v in values.tolist():
            assert {v // d for d in range(1, v + 1)} <= have


    @pytest.mark.parametrize("xs", [
        geometric_checkpoints(3 * 10**7),
        geometric_checkpoints(10**10),
        geometric_checkpoints(10**11, per_decade=1),
        [1000, 7, 1000, 4321, 7, 99991, 1],
        [1], [2], [3],
    ], ids=["geom8-3e7", "geom8-1e10", "geom1-1e11", "repeats", "1", "2", "3"])
    def test_equals_unique_of_the_joined_quotients(self, xs):
        # the sort and neighbour mask give V exactly: every x // i, each once, ascending
        parts = [np.arange(1, math.isqrt(max(xs)) + 1, dtype=np.int64)]
        parts += [x // np.arange(1, math.isqrt(x) + 1, dtype=np.int64) for x in xs]
        values = classtotals.floor_values(xs)
        assert values.dtype == np.int64
        assert np.array_equal(values, np.unique(np.concatenate(parts)))


class TestAgainstHyperbola:
    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_weights_one_and_two(self, r, k):
        # two independent exact algorithms under one contract; r = 2, k = 1 to 1e10 takes ~3 s
        params = ArithParams(r, float(k))
        xs = geometric_checkpoints({(2, 1): 10**10, (2, 2): 10**9}.get((r, k), 10**7))
        assert classtotals.prefix_sums(params, xs) == hyperbola.prefix_sums(params, xs)


class TestDispatch:
    @pytest.mark.parametrize("k", [1.5, 3.0, 2.0 + 1e-12])
    def test_other_weights_take_class_totals(self, k, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sieved")

        monkeypatch.setattr(sieve_mod, "build_spf", refuse)
        monkeypatch.setattr(sieve_mod, "tabulate", refuse)
        calls = []
        original = classtotals.class_totals

        def spy(r, xs):
            calls.append(list(xs))
            return original(r, xs)

        monkeypatch.setattr(classtotals, "class_totals", spy)
        t = summatory(ArithParams(2, k), 1000, grid=[1, 10, 1000])
        assert calls == [[1, 10, 1000]]
        assert [row.x for row in t.rows] == [1, 10, 1000]


class TestBudget:
    @pytest.mark.parametrize(
        "xs",
        [geometric_checkpoints(n) for n in (10**5, 10**7, 10**9)]
        + [[10**9], geometric_checkpoints(10**9, per_decade=1)],
        ids=["geom8-1e5", "geom8-1e7", "geom8-1e9", "single-1e9", "geom1-1e9"],
    )
    def test_estimate_covers_traced_peak(self, xs):
        classtotals.class_totals(3, [10])  # np.unique imports numpy.ma on its first call
        params = ArithParams(3, 1.5)
        tracemalloc.start()
        try:
            classtotals.prefix_sums(params, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert classtotals.required_bytes(params, xs) > peak

    def test_budget_enforced(self, monkeypatch):
        monkeypatch.setenv(sieve_mod.MEM_ENV_VAR, "1")
        with pytest.raises(ResourceError, match=sieve_mod.MEM_ENV_VAR):
            summatory(ArithParams(2, 1.5), 10**9)

    def test_overflow_refused(self):
        # T_w(x) <= x * (ln x + 1) must stay below 2**63
        with pytest.raises(ResourceError, match="overflow"):
            summatory(ArithParams(2, 1.5), 10**18)
        with pytest.raises(ResourceError, match="overflow"):
            classtotals.class_totals(2, [10**18])
        classtotals.required_bytes(ArithParams(2, 1.5), [10**16])
        assert 10**16 * (math.log(10**16) + 1) < 2**63

    @pytest.mark.parametrize("top", [2**63, 10**400])
    def test_past_the_double_range_refused_in_integers(self, top):
        # 1e400 has no float: the check decides before it would form one
        with pytest.raises(ResourceError, match="overflow"):
            classtotals.required_bytes(ArithParams(2, 1.5), [10, top])
