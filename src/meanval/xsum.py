"""Correctly rounded float64 summation with an exponent-indexed superaccumulator.

Each value x is split by bit mask into hi, x with its low 26 fraction bits
cleared, and lo = x - hi; both are exact float64 values, and the hidden bit
rides in hi. ``add`` sums its input in passes of at most ``primes.PIECE`` =
2**13 values, so that a walk's piece is one pass, each by one of two paths.

* A pass of one sign, with no zero and every value below 2**998, whose
  largest and smallest ``math.frexp`` exponents differ by at most 13, sums
  its hi parts and its lo parts as two plain float sums (as in the extraction
  step of Rump, Ogita and Oishi, *Accurate floating-point summation, part I*,
  SIAM J. Sci. Comput. 31, 2008). With u the ulp of the pass's smallest
  value, each hi is a whole number of units 2**26 * u below 2**(27 + 13) of
  them, and each lo a whole number of units u below 2**(26 + 13); so 2**13 of
  them, and every partial sum, stay below 2**53 units, and float64 adds them
  exactly in any order. Both sums go straight into the total. The limit is
  53 - 27 - log2(pass length).
* Every other pass (zeros, mixed signs, wider spans, values outside the
  domain) takes the bins: per sign-and-exponent field, two ``np.bincount``
  passes sum hi and lo. With u the spacing of the field's values, hi is a
  whole number of units 2**26 * u below 2**27 of them, and lo a whole number
  of units u below 2**26; so a bin of at most 2**26 values stays below 2**53
  of its units, and float64 adds to it exactly. The bins are folded into the
  total before they could lose a bit.

The total is one Python int, in units of 2**-1074; int true division rounds
it once. On a 2**13-value piece of ``bundle``'s or ``verify``'s walks the
first path takes about 20 us and the bins about 80 us, where each bincount
stalls on the one or two bins that all its values share.
The domain is the finite values of magnitude below 2**998, whose bins cannot
pass 2**1024. A term outside it (inf, nan, or a value in the top exponent
fields) fails the run: ``add`` raises ToleranceError, the CLI's exit code 4.
On that domain the result is that of ``math.fsum`` (R. M. Neal, *Fast exact
summation using small and large superaccumulators*, arXiv:1505.05571),
except where fsum's running sum overflows midway. ``ExactSum`` takes a whole
array, or its pieces one at a time; ``value()`` rounds the total.

``split_sums``, the one loop that feeds ExactSums, walks pieces, adds each
term's values on a piece to that term's sum and returns the rounded sums. The
sums are exact, so a long walk runs as interleaved parts in forked worker
processes, one per CPU, whose sums merge into the serial walk's bits.
"""

from __future__ import annotations

import math
import os
import pickle

import numpy as np

from .errors import ToleranceError
from .primes import PIECE

__all__ = ["ExactSum", "split_sums"]

_BINS = 4096  # sign bit and 11-bit exponent field
_HI_MASK = np.uint64(~((1 << 26) - 1) & ((1 << 64) - 1))  # clears the low 26 fraction bits
# hi is below 2**27 units of its grid and lo below 2**26, so a bin that holds
# at most _FLUSH = 2**26 values stays below 2**53 units and is exact
_FLUSH = 1 << 26
# exponent fields from here up (2**998 and past, then inf and nan): a bin of
# 2**26 hi values could reach 2**53 * 2**(e - 1049) >= 2**1024 and overflow
_TOP = 2021
_TOP_VALUE = 2.0 ** (_TOP - 1023)  # 2**998, the least magnitude in those fields
# integers or odd slots per worker process at the least: a walk over fewer
# than 2 * MIN_PART stays on one process, where a fork would cost more than it saves
MIN_PART = 1 << 22


class ExactSum:
    """Running exact sum of finite float64 values below 2**998 in magnitude;
    ``value()`` rounds it once.

    ``value()`` equals math.fsum over all values added, however they were
    chunked, except where fsum's running sum overflows midway: this rounds
    the exact sum once, and raises OverflowError only when that total is out
    of range. ``add`` raises ToleranceError at an inf, a nan or a value of
    magnitude 2**998 or more. A pass of one sign that spans at most 13
    binades is summed as two plain float sums; every other pass is binned.
    """

    def __init__(self) -> None:
        self._total = 0  # folded bins and plain-summed passes, in units of 2**-1074
        self._hi = np.zeros(_BINS)
        self._lo = np.zeros(_BINS)
        self._pending = 0  # values in the bins since the last fold

    def add(self, values) -> None:
        """Add the values in passes of min(PIECE, _FLUSH), each of whose temporaries
        is one piece long.

        A pass of one sign, below 2**998, whose frexp exponents differ by at
        most ``span`` (13 at 2**13 values) adds the plain float sums of its hi
        and its lo parts, both exact, to the total. Every other pass goes to
        the bins, which fold before a pass would take them past _FLUSH values;
        a value outside the domain raises there.
        """
        x = np.ascontiguousarray(values, dtype=np.float64).ravel()
        step = min(PIECE, _FLUSH)
        span = 26 - (step - 1).bit_length()  # 13 at 2**13 values: step * 2**(27 + span) <= 2**53
        for a in range(0, x.size, step):
            part = x[a : a + step]
            bits = part.view(np.uint64)
            hi = (bits & _HI_MASK).view(np.float64)
            least, most = float(part.min()), float(part.max())  # nan at a nan
            small, big = (least, most) if least > 0 else (-most, -least)
            if 0 < small and big < _TOP_VALUE and math.frexp(big)[1] - math.frexp(small)[1] <= span:
                self._total += _units(float(hi.sum())) + _units(float((part - hi).sum()))
                continue
            if self._pending + part.size > _FLUSH:
                self._fold()
            key = (bits >> np.uint64(52)).view(np.int64)
            hi_bins = np.bincount(key, hi, _BINS)
            if hi_bins.reshape(2, 2048)[:, _TOP:].any():  # a value in the top fields, inf or nan
                bad = float(part[(key & 2047) >= _TOP][0])
                raise ToleranceError(f"an exact sum takes finite terms |x| < 2**998, got {bad!r}")
            self._pending += part.size
            self._hi += hi_bins
            self._lo += np.bincount(key, part - hi, _BINS)

    def _fold(self) -> None:
        bins = np.concatenate((self._hi, self._lo))
        for v in bins[bins != 0].tolist():
            self._total += _units(v)
        self._hi[:] = self._lo[:] = 0.0
        self._pending = 0

    def merge(self, other: ExactSum) -> None:
        """Add all that ``other`` holds: its bins, folded into its total."""
        other._fold()
        self._total += other._total

    def value(self) -> float:
        self._fold()
        return self._total / (1 << 1074)  # rounds once; OverflowError past the float range


def _units(v: float) -> int:
    """v in units of 2**-1074, exactly: every finite float is on that grid."""
    n, d = v.as_integer_ratio()  # d = 2**j with j <= 1074
    return n << (1075 - d.bit_length())


def _part_count(size: int) -> int:
    """Processes for a walk over ``size`` integers or odd slots: one per CPU, each with >= MIN_PART."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // MIN_PART))


def split_sums(blocks, size: int, *terms) -> tuple[float, ...]:
    """Per term, the correctly rounded sum of its values on every piece of ``blocks(0, 1)``.

    ``blocks(part, parts)``, such as ``partial(primes.prime_blocks, cutoff)``,
    yields the pieces of a walk over ``size`` integers or odd slots,
    interleaved by segment: those of the segments part, part + parts, ....
    Each term maps a piece to float64 values, added to its own ExactSum, and
    keeps nothing of it, so a walk may hand out views that its next piece
    overwrites. Parts 1 to parts - 1 run in forked workers, which pickle
    their sums back over a pipe and always leave by ``os._exit``, so none
    runs its caller's code; this process runs part 0 and merges the rest in,
    which gives the serial walk's sums bit for bit. An exception in a worker
    is raised here, and a worker that dies raises ChildProcessError. On any
    way out, every worker is reaped, and killed first if it is still running.

    Workers are forked, not spawned: a spawned one would import numpy and
    this package afresh, which takes longer than a part of any walk here. The
    CLI starts OpenBLAS with one thread (``meanval.__main__``), so there a
    fork copies a process that has no other thread. A program that loaded
    NumPy with its default threading may still hold OpenBLAS's idle pool
    threads; a fork copies only the calling thread, and a worker calls no
    BLAS routine, so it never waits on them.
    """
    def walk(part: int, parts: int) -> tuple[ExactSum, ...]:
        sums = tuple(ExactSum() for _ in terms)
        for piece in blocks(part, parts):
            for acc, term in zip(sums, terms):
                acc.add(term(piece))
        return sums

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
                        outcome = True, walk(part, parts)
                    except Exception as exc:
                        outcome = False, exc
                    with open(write, "wb") as pipe:
                        pickle.dump(outcome, pipe)
                    code = 0
                finally:
                    os._exit(code)
            workers.append((pid, open(read, "rb")))
            os.close(write)
        sums = walk(0, parts)
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
    return tuple(total.value() for total in sums)
