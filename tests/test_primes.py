import numpy as np
import pytest

from meanval import primes as primes_mod
from meanval.primes import PIECE, PRIME_BLOCK, prime_blocks, primes_up_to

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
        # a segment holds the primes among PRIME_BLOCK odd slots, handed out in pieces
        # of 1 to PIECE primes that stay inside it; 7 * PRIME_BLOCK + 3 spans four segments
        pieces = list(prime_blocks(limit))
        assert all(1 <= piece.size <= PIECE and piece.dtype == np.int64 for piece in pieces)
        assert all(_segment(piece[0]) == _segment(piece[-1]) for piece in pieces)
        joined = np.concatenate([np.empty(0, dtype=np.int64), *pieces])
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

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 30030, 2**19 + 5, 10**6])
    def test_parts_interleave_to_the_serial_blocks(self, limit, parts):
        # part j holds the serial pieces of the segments j, j + parts, j + 2 * parts, ...
        serial = list(prime_blocks(limit))
        for part in range(parts):
            walk = list(prime_blocks(limit, part, parts))
            want = [piece for piece in serial if _segment(piece[0]) % parts == part]
            assert len(walk) == len(want)
            for got, piece in zip(walk, want):
                assert got.dtype == np.int64 and np.array_equal(got, piece)

    @pytest.mark.parametrize("piece", [1, 7, 1000])
    def test_small_pieces(self, monkeypatch, piece):
        # segments of 1000 odd slots hold 1 to 168 primes each, so pieces of 7 and of 1
        # leave short pieces inside the walk, and pieces of 1000 are whole segments
        monkeypatch.setattr(primes_mod, "PRIME_BLOCK", 1000)
        monkeypatch.setattr(primes_mod, "PIECE", piece)
        limit = 30030 + 11
        serial = list(prime_blocks(limit))
        assert all(1 <= p.size <= piece and p[0] // 2 // 1000 == p[-1] // 2 // 1000 for p in serial)
        assert np.array_equal(np.concatenate(serial), primes_by_trial_division(limit))
        for parts in (2, 3):
            for part in range(parts):
                want = [p for p in serial if p[0] // 2 // 1000 % parts == part]
                walk = list(prime_blocks(limit, part, parts))
                assert len(walk) == len(want)
                assert all(np.array_equal(got, p) for got, p in zip(walk, want))


def _segment(prime) -> int:
    """The index of the sieve segment that holds ``prime``'s odd slot (2 shares the slot of 1)."""
    return int(prime) // 2 // PRIME_BLOCK
