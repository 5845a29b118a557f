"""Prime enumeration helpers used by the trial divider and the product engines.

``primes_up_to`` is a cache-blocked segmented sieve of Eratosthenes over the
odd numbers only; ``iter_trial_candidates`` streams 30-wheel candidates for
trial division past a sieved prime list.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

__all__ = ["primes_up_to", "iter_trial_candidates"]

# candidates coprime to 30, used to continue trial division past the cache
_WHEEL_RESIDUES = (1, 7, 11, 13, 17, 19, 23, 29)
_WHEEL_GAPS = tuple(
    (_WHEEL_RESIDUES[(i + 1) % 8] - _WHEEL_RESIDUES[i]) % 30 or 30 for i in range(8)
)


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


def iter_trial_candidates(start: int):
    """Yield 30-wheel candidates >= start, endlessly.

    The stream contains every prime >= max(start, 7) (plus harmless
    composites), so trial division that consumes it in ascending order
    never misses a prime factor.
    """
    base = max(start, 7)
    lo = (base // 30) * 30
    i = 0
    while lo + _WHEEL_RESIDUES[i] < base:
        i += 1
        if i == 8:
            i = 0
            lo += 30
    c = lo + _WHEEL_RESIDUES[i]
    while True:
        yield c
        c += _WHEEL_GAPS[i]
        i = (i + 1) % 8
