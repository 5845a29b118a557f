"""Prime enumeration for the trial divider, the spf sieve and the product engines.

``primes_up_to`` is a cache-blocked segmented sieve of Eratosthenes over the
odd numbers only.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

__all__ = ["primes_up_to"]

PRIME_BLOCK = 1 << 18  # odd slots per sieve block: 256 KiB of bool, which stays in L2


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    return np.concatenate(([2], _odd_primes(limit)))


def _odd_primes(limit: int) -> np.ndarray:
    """Odd primes <= limit, by a segmented sieve of Eratosthenes over odd numbers.

    Slot i stands for 2*i + 1. Each block of PRIME_BLOCK slots is crossed off
    by the odd primes p with p*p at most its top, from p*p or the block's first
    odd multiple of p on; those primes come from this sieve run to sqrt(limit).
    """
    odd = np.ones((limit + 1) // 2, dtype=bool)
    odd[0] = False  # 1
    base = _odd_primes(isqrt(limit)).tolist() if limit >= 9 else []  # 9: first odd composite
    for lo in range(0, odd.size, PRIME_BLOCK):
        view = odd[lo : lo + PRIME_BLOCK]
        top = 2 * (lo + view.size) - 1
        for p in base:
            if p * p > top:
                break
            first = max(p * p, (-(-(2 * lo + 1) // p) | 1) * p)  # an odd multiple of p
            view[first // 2 - lo :: p] = False
    return 2 * np.flatnonzero(odd) + 1
