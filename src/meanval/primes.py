"""Prime enumeration for the trial divider, the sieves and the product engines.

``prime_blocks`` is a cache-blocked segmented sieve of Eratosthenes over the
odd numbers only, started from a pre-sieved wheel. It sieves one segment of
PRIME_BLOCK odd slots at a time and hands out that segment's primes in pieces
of at most PIECE, so a sum over primes never holds them all and the float64
terms formed from one piece (64 KiB) stay in cache and on the heap.
``primes_up_to`` joins the pieces. Each segment is sieved on its own, so a
walk can be split into interleaved parts, one per process
(``xsum.split_sums``).
"""

from __future__ import annotations

import math
from math import isqrt
from typing import Iterator

import numpy as np

__all__ = ["prime_blocks", "primes_up_to"]

PRIME_BLOCK = 1 << 18  # odd slots per sieve segment: 256 KiB of bool, which stays in L2
# values per piece that a walk hands to its terms: 64 KiB as float64, under glibc's
# 128 KiB mmap threshold, so a term's temporaries reuse heap pages instead of refaulting them
PIECE = 1 << 13


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array."""
    return np.concatenate([np.empty(0, dtype=np.int64), *prime_blocks(limit)])


def prime_blocks(limit: int, part: int = 0, parts: int = 1) -> Iterator[np.ndarray]:
    """The primes <= limit, ascending, as int64 pieces of 1 to PIECE primes.

    The primes come one sieve segment of PRIME_BLOCK odd slots at a time,
    and no piece spans two segments. Only the segments part, part + parts,
    part + 2*parts, ... are sieved, and their pieces yielded, each equal to
    the serial walk's piece; so the ``parts`` interleaved walks share the
    segments out evenly and together hold each prime once. The default is the
    whole walk.

    Slot i stands for 2*i + 1. Each segment starts as a copy of a wheel, the
    slots mod 15015 with the multiples of 3, 5, 7, 11 and 13 crossed off,
    doubled up to the segment's length; the segment that holds one of those
    primes' own slot puts it back. Then the larger primes p with p*p at most
    the segment's top cross it off, from p*p or the segment's first odd
    multiple of p on, whichever is later, all of those offsets formed at once;
    those primes come from this sieve run to sqrt(limit). The first segment
    also carries 2, in the slot of 1.
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
    segment = np.empty(min(PRIME_BLOCK, slots), dtype=bool)  # one for the whole walk, cut to the last
    for lo in range(part * PRIME_BLOCK, slots, parts * PRIME_BLOCK):
        view = segment[: slots - lo]
        done = min(period, view.size)
        view[:done] = wheel[lo % period : lo % period + done]
        while done < view.size:  # done stays a multiple of period, so each copy keeps the phase
            step = min(done, view.size - done)
            view[done : done + step] = view[:step]
            done += step
        for p in small:  # the wheel crossed off its own primes
            if lo <= p // 2 < lo + view.size:
                view[p // 2 - lo] = True
        # the primes whose square lies before this segment's end start at the square or at
        # their first odd multiple in the segment, whichever is later
        live = np.searchsorted(starts, lo + view.size)
        ats = np.maximum(starts[:live] - lo, (halves[:live] - lo) % base[:live])
        for p, at in zip(base[:live].tolist(), ats.tolist()):
            view[at::p] = False
        found = np.flatnonzero(view)  # slot i - lo, turned into 2*i + 1 in place
        found *= 2
        found += 2 * lo + 1
        if lo == 0:
            found[0] = 2  # slot 0 stands for 1, which no prime crosses off
        for at in range(0, found.size, PIECE):
            yield found[at : at + PIECE]
