import math
import random
import tracemalloc
from fractions import Fraction

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
    table = tabulate(spf, ArithParams(r, 1.0))
    width = int(table.omegas.max()) + 1
    out = np.zeros((SIEVED + 1, width), dtype=np.int64)
    out[np.arange(1, SIEVED + 1), table.omegas[1:]] = table.counts[1:]
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


class TestAgainstHyperbola:
    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_weights_one_and_two(self, r, k):
        xs = geometric_checkpoints(10**7)
        totals = classtotals.class_totals(r, xs)
        got = [sum(Fraction(t, k**w) for w, t in enumerate(row)) for row in totals.tolist()]
        want = [s for _, s in hyperbola.prefix_sums(ArithParams(r, float(k)), 10**7, xs)]
        assert got == want


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
        assert calls == [[10, 1000]]
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
        tracemalloc.start()
        try:
            classtotals.class_totals(3, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert classtotals.required_bytes(xs) > peak

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
        classtotals.required_bytes([10**16])
        assert 10**16 * (math.log(10**16) + 1) < 2**63
