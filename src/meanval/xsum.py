"""Correctly rounded float64 summation with an exponent-indexed superaccumulator.

Each value x is split by bit mask into hi, x with its low 26 fraction bits
cleared, and lo = x - hi; both are exact float64 values, and the hidden bit
rides in hi. Per sign-and-exponent field, two ``np.bincount`` passes sum hi
and lo. With u the spacing of the field's values, hi is a whole number of
units 2**26 * u below 2**27 of them, and lo a whole number of units u below
2**26; so a bin of at most 2**26 values stays below 2**53 of its units, and
float64 adds to it exactly. The bins are folded into one Python int (in
units of 2**-1074) before they could lose a bit; int true division then
rounds the total once. Values in the top exponent fields, whose bins could
pass 2**1024, go straight to that int.
The result is that of ``math.fsum`` (R. M. Neal, *Fast exact summation using
small and large superaccumulators*, arXiv:1505.05571), except where fsum's
running sum overflows midway. A caller adds a whole array, or its blocks one
at a time, to one ``ExactSum`` and reads ``value()``.

Since the sum is exact, it does not depend on how the values were split
either: ``split_sums`` runs a walk over blocks as interleaved parts in forked
worker processes, one per CPU the process may run on, and merges their sums
into the bits of the serial walk.
"""

from __future__ import annotations

import math
import os
import pickle

import numpy as np

__all__ = ["ExactSum", "split_sums"]

_BINS = 4096  # sign bit and 11-bit exponent field
_HI_MASK = np.uint64(~((1 << 26) - 1) & ((1 << 64) - 1))  # clears the low 26 fraction bits
_CHUNK = 1 << 14  # values per bincount pass: its scratch arrays stay in cache
# hi is below 2**27 units of its grid and lo below 2**26, so a bin that holds
# at most _FLUSH = 2**26 values stays below 2**53 units and is exact
_FLUSH = 1 << 26
# exponent fields from here up: a bin of 2**26 hi values could reach
# 2**53 * 2**(e - 1049) >= 2**1024 and overflow, so these values skip the bins
_TOP = 2021
# integers or odd slots per worker process at the least: a walk over fewer
# than 2 * MIN_PART stays on one process, where a fork would cost more than it saves
MIN_PART = 1 << 22


class ExactSum:
    """Running exact sum of float64 values; ``value()`` rounds it once.

    ``value()`` equals math.fsum over all values added, however they were
    chunked: a nan, or both infinities, gives fsum's nan or ValueError, and an
    infinity is returned. The one difference: where a finite running sum
    overflows midway, fsum raises OverflowError but this rounds the exact sum
    once, and raises OverflowError only when that total is out of range.
    """

    def __init__(self) -> None:
        self._total = 0  # folded bins, in units of 2**-1074
        self._hi = np.zeros(_BINS)
        self._lo = np.zeros(_BINS)
        self._pending = 0  # values in the bins since the last fold
        self._special: set[float] = set()

    def add(self, values) -> None:
        x = np.ascontiguousarray(values, dtype=np.float64).ravel()
        step = min(_CHUNK, _FLUSH)
        key_buf = np.empty(min(step, x.size), dtype=np.uint64)  # scratch that every chunk reuses
        split_buf = np.empty_like(key_buf)  # hi, then lo in its place
        with np.errstate(invalid="ignore"):  # inf - inf in lo, whose bins are dropped
            for a in range(0, x.size, step):
                part = x[a : a + step]
                if self._pending + part.size > _FLUSH:
                    self._fold()
                self._pending += part.size
                bits = part.view(np.uint64)
                key = np.right_shift(bits, np.uint64(52), out=key_buf[: part.size]).view(np.int64)
                hi = np.bitwise_and(bits, _HI_MASK, out=split_buf[: part.size]).view(np.float64)
                hi_bins = np.bincount(key, hi, _BINS)
                lo_bins = np.bincount(key, np.subtract(part, hi, out=hi), _BINS)
                top = hi_bins.reshape(2, 2048)[:, _TOP:]  # the top exponent fields, then inf and nan
                if top.any():
                    field = key & 2047
                    self._special.update(np.unique(part[field == 2047]).tolist())
                    big = part[(field >= _TOP) & (field < 2047)]
                    self._total += sum(map(int, big.tolist())) << 1074  # each is an exact integer
                    top[:] = 0.0
                    lo_bins.reshape(2, 2048)[:, _TOP:] = 0.0
                self._hi += hi_bins
                self._lo += lo_bins

    def _fold(self) -> None:
        bins = np.concatenate((self._hi, self._lo))
        for v in bins[bins != 0].tolist():
            n, d = v.as_integer_ratio()  # d = 2**j with j <= 1074: every bin is on the 2**-1074 grid
            self._total += n << (1075 - d.bit_length())
        self._hi[:] = self._lo[:] = 0.0
        self._pending = 0

    def merge(self, other: ExactSum) -> None:
        """Add all that ``other`` holds: its bins folded into its total, and its special values."""
        other._fold()
        self._total += other._total
        self._special |= other._special

    def value(self) -> float:
        self._fold()
        if self._special:
            return math.fsum(self._special)
        return self._total / (1 << 1074)  # rounds once; OverflowError past the float range


def _part_count(size: int) -> int:
    """Processes for a walk over ``size`` integers or odd slots: one per CPU, each with >= MIN_PART."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // MIN_PART))


def split_sums(work, size: int) -> tuple[ExactSum, ...]:
    """The sums of ``work(0, 1)``, formed as ``work(part, parts)`` over ``parts`` processes.

    ``work(part, parts)`` walks the blocks part, part + parts, ... of a walk
    over ``size`` integers or odd slots and returns a tuple of ExactSums.
    Parts 1 to parts - 1 run in forked workers, which pickle their sums back
    over a pipe and always leave by ``os._exit``, so none runs its caller's
    code; this process runs part 0 and merges the rest in. Each merged sum
    equals the serial walk's, bit for bit. An exception in a worker is raised
    here, and a worker that dies raises ChildProcessError. On any way out,
    every worker is reaped, and killed first if it is still running.

    Workers are forked, not spawned: a spawned one would import numpy and
    this package afresh, which takes longer than a part of any walk here. A
    fork copies only the calling thread, and a worker calls no BLAS routine,
    so it never waits on the threads OpenBLAS keeps in this process.
    """
    parts = _part_count(size)
    workers = []  # (pid, read end of its pipe) for parts 1, 2, ...
    outputs = []  # what each worker wrote, once this process is done with part 0
    codes = []  # each worker's exit code
    try:
        for part in range(1, parts):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    try:
                        outcome = True, work(part, parts)
                    except Exception as exc:
                        outcome = False, exc
                    with open(write, "wb") as pipe:
                        pickle.dump(outcome, pipe)
                    code = 0
                finally:
                    os._exit(code)
            workers.append((pid, open(read, "rb")))
            os.close(write)
        sums = work(0, parts)
        outputs = [pipe.read() for _, pipe in workers]
    finally:
        for pid, pipe in workers:
            if len(outputs) < len(workers):  # unwinding: stop the workers still running
                os.kill(pid, 9)  # SIGKILL, without the signal module's import in every process
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            pipe.close()
    for part, (data, code) in enumerate(zip(outputs, codes), start=1):
        if code != 0:
            raise ChildProcessError(f"the worker for part {part} of {parts} exited with {code}")
        ok, result = pickle.loads(data)
        if not ok:
            raise result
        for total, other in zip(sums, result):
            total.merge(other)
    return sums
