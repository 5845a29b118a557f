"""Prime enumeration for the trial divider, the sieves and the product engines.

``prime_blocks`` is a cache-blocked segmented sieve of Eratosthenes over the
odd numbers only, started from a pre-sieved wheel, which hands out the primes of one block at a time, so a
sum over primes never holds them all; ``primes_up_to`` joins its blocks.
"""

from __future__ import annotations

import math
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

    Slot i stands for 2*i + 1. Each block of PRIME_BLOCK slots starts as a
    copy of a wheel, the slots mod 15015 with the multiples of 3, 5, 7, 11 and
    13 crossed off, doubled up to the block's length; the block that holds
    one of those primes' own slot puts it back. Then the larger primes p with
    p*p at most the block's top cross it off, from p*p or the block's first
    odd multiple of p on, whichever is later, all of those offsets formed at
    once; those primes come from this sieve run to sqrt(limit). The first
    block also carries 2.
    """
    if limit < 2:
        return
    slots = (limit + 1) // 2
    small = (3, 5, 7, 11, 13)  # crossed off by a wheel of 15015 slots, 30030 numbers
    base = primes_up_to(isqrt(limit))[len(small) + 1 :]  # the odd primes above them
    starts = base * base // 2  # the slot of p * p
    halves = base // 2  # the odd multiples of p sit at the slots = p // 2 (mod p)
    period = math.prod(small)
    wheel = np.ones(2 * period, dtype=bool)  # slot i mod period, twice over, so any rotation is one slice
    for p in small:
        wheel[p // 2 :: p] = False
    for lo in range(0, slots, PRIME_BLOCK):
        view = np.empty(min(PRIME_BLOCK, slots - lo), dtype=bool)
        done = min(period, view.size)
        view[:done] = wheel[lo % period : lo % period + done]
        while done < view.size:  # done stays a multiple of period, so each copy keeps the phase
            step = min(done, view.size - done)
            view[done : done + step] = view[:step]
            done += step
        for p in small:  # the wheel crossed off its own primes
            if lo <= p // 2 < lo + view.size:
                view[p // 2 - lo] = True
        # the primes whose square lies before this block's end start at the square or at their
        # first odd multiple in the block, whichever is later
        live = np.searchsorted(starts, lo + view.size)
        ats = np.maximum(starts[:live] - lo, (halves[:live] - lo) % base[:live])
        for p, at in zip(base[:live].tolist(), ats.tolist()):
            view[at::p] = False
        found = 2 * (np.flatnonzero(view) + lo) + 1
        yield np.concatenate(([2], found[1:])) if lo == 0 else found
