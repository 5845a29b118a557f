import numpy as np
import pytest

from meanval import primes as primes_mod
from meanval.primes import PRIME_BLOCK, prime_blocks, primes_up_to

from oracles import primes_by_trial_division, primes_list


def _check(limit):
    got = primes_up_to(limit)
    assert got.dtype == np.int64
    assert got.tolist() == primes_list(limit), limit


class TestPrimesUpTo:
    def test_every_small_limit(self):
        for limit in range(101):
            _check(limit)

    def test_block_edges(self):
        # a block holds PRIME_BLOCK odd slots, the numbers below 2 * PRIME_BLOCK
        b = PRIME_BLOCK
        for limit in (b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1, 4 * b + 7):
            _check(limit)

    @pytest.mark.parametrize("block", [1, 2, 8, 37])
    def test_many_small_blocks(self, monkeypatch, block):
        # base primes and their first multiples land in every position of a block
        monkeypatch.setattr(primes_mod, "PRIME_BLOCK", block)
        for limit in (*range(2 * block + 10), 997, 2025, 5003):
            _check(limit)


class TestPrimeBlocks:
    @pytest.mark.parametrize(
        "limit",
        [0, 1, 2, 3, 8, 9, 10, 2 * PRIME_BLOCK - 1, 2 * PRIME_BLOCK, 2 * PRIME_BLOCK + 1,
         7 * PRIME_BLOCK + 3],
    )
    def test_blocks_join_to_all_primes(self, limit):
        # a block holds the primes among PRIME_BLOCK odd slots; 7 * PRIME_BLOCK + 3 spans four
        blocks = list(prime_blocks(limit))
        assert len(blocks) == (-(-((limit + 1) // 2) // PRIME_BLOCK) if limit >= 2 else 0)
        assert all(block.dtype == np.int64 for block in blocks)
        joined = np.concatenate([np.empty(0, dtype=np.int64), *blocks])
        assert np.array_equal(joined, primes_by_trial_division(limit))
        assert np.array_equal(joined, primes_up_to(limit))

    @pytest.mark.parametrize("block", [PRIME_BLOCK, 5, 7])
    def test_wheel_at_every_small_limit(self, monkeypatch, block):
        # the wheel of 3, 5, 7, 11 and 13 crosses off those primes too, and the block that
        # holds each one's slot puts it back, also where sqrt(limit) is below it
        monkeypatch.setattr(primes_mod, "PRIME_BLOCK", block)
        small = primes_by_trial_division(400).tolist()
        for limit in range(2, 401):
            joined = np.concatenate([np.empty(0, dtype=np.int64), *prime_blocks(limit)])
            assert joined.tolist() == [p for p in small if p <= limit], limit

    @pytest.mark.parametrize("turns", [1, 2, 3, 6])
    def test_wheel_period_edges(self, turns):
        # one turn of the wheel is 15015 odd slots, 30030 numbers; a turn of slots ends
        # at 15015 * turns inside a block, and a turn of numbers at 30030 * turns
        for limit in (15015 * turns - 1, 15015 * turns, 15015 * turns + 1,
                      30030 * turns - 1, 30030 * turns + 1):
            assert np.array_equal(primes_up_to(limit), primes_by_trial_division(limit)), limit

    def test_each_block_holds_its_own_slots(self, monkeypatch):
        monkeypatch.setattr(primes_mod, "PRIME_BLOCK", 8)
        for lo, block in zip(range(0, 10**3, 16), prime_blocks(10**3)):
            assert block.tolist() == [p for p in primes_list(10**3) if lo <= p < lo + 16]
