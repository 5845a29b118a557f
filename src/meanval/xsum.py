"""Correctly rounded float64 summation: each pass is summed exactly into one integer.

Each value x is split by bit mask into hi, x with its low 26 fraction bits
cleared, and lo = x - hi; both are exact float64 values, and the hidden bit
rides in hi. ``add`` sums its input in passes of at most ``primes.PIECE`` =
2**13 values, so that a walk's piece is one pass, by one rule: a group of
at most 2**13 values whose ulps lie within a factor 2**13 of the least, u,
sums exactly as float64, in any order. Each hi is a whole number of units
2**26 * u below 2**(27 + 13) of them, and each lo a whole number of units u
below 2**(26 + 13); so their magnitudes, and every partial sum, stay below
2**53 units (as in the extraction step of Rump, Ogita and Oishi, *Accurate
floating-point summation, part I*, SIAM J. Sci. Comput. 31, 2008). The
limit 13 is 53 - 27 - log2(pass length).

* A pass of one sign, with no zero, whose largest and smallest
  ``math.frexp`` exponents differ by at most 13 is one group: it adds the
  plain float sums of its hi parts and its lo parts.
* Every other pass is cut into 147 bands of 14 IEEE exponent fields, each
  band one group whatever the signs of its values (the zeros and the
  subnormals sit in band 0): two ``np.bincount`` calls sum hi and lo per
  band.

Each sum goes straight into the total, one Python int in units of 2**-1074,
and nothing else is kept between passes; int true division rounds the total
once. On a 2**13-value piece of ``bundle``'s or ``verify``'s walks the plain
sums take about 20 us and the bands about 80 us, where each bincount stalls
on the one or two bands that all its values share.
The domain is the finite values of magnitude below 2**998, where no pass's
sum comes near the end of the float range. ``add`` checks each pass against
it first, from the pass's min and max: a term outside it (inf, nan, or a
value of magnitude 2**998 or more) fails the run, as ToleranceError, the
CLI's exit code 4. On that domain the result is that of ``math.fsum``,
except where fsum's running sum overflows midway.

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

_HI_MASK = np.uint64(~((1 << 26) - 1) & ((1 << 64) - 1))  # clears the low 26 fraction bits
_SPAN = 26 - (PIECE - 1).bit_length()  # 13 at 2**13 values: PIECE * 2**(27 + _SPAN) <= 2**53
_TOP = 2.0**998  # the least magnitude outside the domain
# integers or odd slots per worker process at the least: a walk over fewer
# than 2 * MIN_PART stays on one process, where a fork would cost more than it saves
MIN_PART = 1 << 22


class ExactSum:
    """Running exact sum of finite float64 values below 2**998 in magnitude.

    ``value()`` rounds it once: math.fsum over all values added, however they
    were chunked, except where fsum's running sum overflows midway; it raises
    OverflowError only when the exact total is out of range.
    """

    def __init__(self) -> None:
        self._total = 0  # in units of 2**-1074

    def add(self, values) -> None:
        """Add the values in passes of PIECE, each of whose temporaries is one piece long.

        A pass raises ToleranceError at its first value outside the domain;
        else it adds the plain float sums of its hi and lo parts when it is of
        one sign within _SPAN binades, and its band sums otherwise.
        """
        x = np.ascontiguousarray(values, dtype=np.float64).ravel()
        for a in range(0, x.size, PIECE):
            part = x[a : a + PIECE]
            least, most = float(part.min()), float(part.max())  # nan at a nan
            if not (-_TOP < least and most < _TOP):
                bad = float(part[~(np.abs(part) < _TOP)][0])
                raise ToleranceError(f"an exact sum takes finite terms |x| < 2**998, got {bad!r}")
            bits = part.view(np.uint64)
            hi = (bits & _HI_MASK).view(np.float64)
            lo = part - hi
            small, big = (least, most) if least > 0 else (-most, -least)
            if 0 < small and math.frexp(big)[1] - math.frexp(small)[1] <= _SPAN:
                self._total += _units(float(hi.sum())) + _units(float(lo.sum()))
            else:
                self._total += _banded(bits, hi, lo)

    def merge(self, other: ExactSum) -> None:
        """Add all that ``other`` holds."""
        self._total += other._total

    def value(self) -> float:
        return self._total / (1 << 1074)  # rounds once; OverflowError past the float range


def _banded(bits: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> int:
    """A pass's exact sum in units of 2**-1074: per band of _SPAN + 1 exponent fields,
    whose ulps lie within a factor 2**_SPAN, its float sums of hi and lo, whatever the signs."""
    band = ((bits >> np.uint64(52)) & np.uint64(2047)).view(np.int64) // (_SPAN + 1)
    sums = np.concatenate((np.bincount(band, hi), np.bincount(band, lo)))
    return sum(map(_units, sums[sums != 0].tolist()))


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
