"""Correctly rounded float64 summation with an exponent-indexed superaccumulator.

Each value is split by bit view into its sign-and-exponent field and its
52-bit fraction. Per field, ``np.bincount`` sums the fraction's high and low
26-bit halves and counts the values, each of which carries the hidden bit.
Those integer sums are exact, and they are folded into one Python int (in
units of 2**-1074) before they could lose a bit; int true division then
rounds the total once. The result is that of ``math.fsum`` (R. M. Neal, *Fast
exact summation using small and large superaccumulators*, arXiv:1505.05571).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ExactSum", "fsum"]

_BINS = 4096  # sign bit and 11-bit exponent field
_HALF = 26
_HALF_MASK = (1 << _HALF) - 1
_CHUNK = 1 << 14  # values per bincount pass: its scratch arrays stay in cache
# Each half is below 2**26, so a bin that holds the halves of at most _FLUSH
# = 2**27 values stays below 2**53 and float64 adds to it exactly.
_FLUSH = 1 << 27


class ExactSum:
    """Running exact sum of float64 values; ``value()`` rounds it once.

    ``value()`` equals math.fsum over all values added, however they were
    chunked: a nan, or both infinities, gives fsum's nan or ValueError, and an
    infinity is returned. The one difference: where a finite running sum
    overflows midway, fsum raises OverflowError but this sums exactly.
    """

    def __init__(self) -> None:
        self._total = 0  # folded bins, in units of 2**-1074
        self._hi = np.zeros(_BINS)
        self._lo = np.zeros(_BINS)
        self._count = np.zeros(_BINS, dtype=np.int64)
        self._pending = 0  # values in the bins since the last fold
        self._special: set[float] = set()

    def add(self, values) -> None:
        x = np.ascontiguousarray(values, dtype=np.float64).ravel()
        step = min(_CHUNK, _FLUSH)
        for a in range(0, x.size, step):
            part = x[a : a + step]
            if self._pending + part.size > _FLUSH:
                self._fold()
            self._pending += part.size
            bits = part.view(np.int64)
            key = (bits >> 52) & (_BINS - 1)
            count = np.bincount(key, minlength=_BINS)
            self._count += count
            self._hi += np.bincount(key, (bits >> _HALF) & _HALF_MASK, _BINS)
            self._lo += np.bincount(key, bits & _HALF_MASK, _BINS)
            if count[2047] or count[4095]:  # exponent field all ones: inf or nan
                self._special.update(np.unique(part[~np.isfinite(part)]).tolist())

    def _fold(self) -> None:
        for key in np.flatnonzero(self._count).tolist():
            e = key & 2047
            if e == 2047:
                continue  # kept in _special
            m = int(self._count[key]) << 52 if e else 0
            m = (m + (int(self._hi[key]) << _HALF) + int(self._lo[key])) << max(e - 1, 0)
            self._total += -m if key >> 11 else m
        self._hi[:] = self._lo[:] = 0.0
        self._count[:] = 0
        self._pending = 0

    def value(self) -> float:
        self._fold()
        total = self._total / (1 << 1074)  # rounds once; OverflowError past the float range
        return math.fsum(self._special) if self._special else total


def fsum(values) -> float:
    """math.fsum(values) for a float64 array, bit for bit and errors included."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    # fsum's partial sums stay below sum |x| <= max |x| * size; where that could
    # overflow, or x holds a nan or inf, fsum's own error handling applies
    if x.size and not float(max(x.max(), -x.min())) * x.size < 2.0**1020:
        return math.fsum(x)
    acc = ExactSum()
    acc.add(x)
    return acc.value()
