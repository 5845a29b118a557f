import numpy as np
import pytest

from meanval import primes as primes_mod
from meanval.primes import PRIME_BLOCK, primes_up_to

from oracles import primes_list


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
