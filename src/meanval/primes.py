"""Prime enumeration for the trial divider, the sieves and the product engines.

``prime_blocks`` is a cache-blocked segmented sieve of Eratosthenes over the
odd numbers only, which hands out the primes of one block at a time, so a
sum over primes never holds them all; ``primes_up_to`` joins its blocks.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

import numpy as np

__all__ = ["prime_blocks", "primes_up_to"]

PRIME_BLOCK = 1 << 18  # odd slots per sieve block: 256 KiB of bool, which stays in L2


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array."""
    return np.concatenate([np.empty(0, dtype=np.int64), *prime_blocks(limit)])


def prime_blocks(limit: int) -> Iterator[np.ndarray]:
    """The primes <= limit, ascending, as one int64 array per sieve block.

    Slot i stands for 2*i + 1. Each block of PRIME_BLOCK slots is crossed off
    by the odd primes p with p*p at most its top, from p*p or the block's first
    odd multiple of p on; those primes come from this sieve run to sqrt(limit).
    The first block also carries 2.
    """
    if limit < 2:
        return
    slots = (limit + 1) // 2
    base = primes_up_to(isqrt(limit))[1:].tolist()  # odd primes; 9 is the first odd composite
    for lo in range(0, slots, PRIME_BLOCK):
        view = np.ones(min(PRIME_BLOCK, slots - lo), dtype=bool)
        top = 2 * (lo + view.size) - 1
        for p in base:
            if p * p > top:
                break
            first = max(p * p, (-(-(2 * lo + 1) // p) | 1) * p)  # an odd multiple of p
            view[first // 2 - lo :: p] = False
        found = 2 * (np.flatnonzero(view) + lo) + 1
        yield np.concatenate(([2], found[1:])) if lo == 0 else found
