"""Per-n divisor data by sieving, and checkpointed sums.

``value_blocks`` streams each n's divisor count and omega over 1..N in
blocks of SERIES_BLOCK integers, which stay in cache, and serves
``verify``'s Dirichlet series. Each block takes every prime p <= sqrt(N)
and every power of one. Omega for those of 2 to 13 is sliced from one
periodic pattern (a wheel of period 30030), and the power of 2 in n is
n & -n; the rest come in two tiers split at sqrt(SERIES_BLOCK):

* a prime power with at least sqrt(SERIES_BLOCK) multiples in a block is
  struck in place, one strided pass over the block each;
* the prime powers above the split, listed once before the first block,
  have few multiples each, so one vectorised pass forms the offsets of all
  their multiples in the block and one ``ufunc.at`` call each applies them,
  as a bucket sieve does (Oliveira e Silva, Herzog and Pardi, *Math. Comp.*
  83, 2014).

What is left of n is then 1 or its one prime factor above sqrt(N). No array
of length N is held.

The whole per-n table is built independently, and serves the tests as the
oracle for those blocks and for the sums; no command builds it, and
``meanval`` does not export it:

1. ``build_spf`` marks the smallest prime factor of every n <= N (int32):
   each prime p <= sqrt(N), largest first, writes p at its multiples from
   p**2, so the smallest prime dividing n wins.
2. ``tabulate`` gets each n's divisor count, omega and exponent of spf(n)
   from those of m = n / spf(n) < lo, in one pass per doubling block
   [lo, 2*lo).
3. The memory gate charges BYTES_PER_ENTRY for each entry of the table.

``summatory`` does not sieve. It takes S(x) from one of two exact backends,
which share one contract: ``prefix_sums(params, xs)`` returns the exact
rational S(x) for each checkpoint x >= 1, and ``required_bytes(params, xs)``
estimates its peak memory; both size everything from max(xs) and refuse,
with ResourceError, an x whose int64 sums could overflow. At k = 1 or k = 2
exactly, ``hyperbola`` sums h over the powerful numbers in about sqrt(N)
time and memory; every other k takes ``classtotals``, the omega-class totals
T_w(x) in about N**(3/4) time. For integer k the rational is returned;
otherwise it is rounded once to the nearest float, and the reported
round-off bound is half an ulp of the result. ``summatory`` returns S only;
``fit.residuals`` fills the main-term and residual columns of its rows.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from . import classtotals, hyperbola
from .arith import ArithParams, ExactValue, minpow_divisor_counts
from .errors import ConfigError, ResourceError
from .primes import primes_up_to

__all__ = [
    "SummatoryRow",
    "SummatoryTable",
    "geometric_checkpoints",
    "summatory",
    "value_blocks",
]

DEFAULT_MEM_LIMIT_MB = 4096
MEM_ENV_VAR = "MEANVAL_MEM_LIMIT_MB"

# bytes per entry of tabulate(build_spf(N)): 10 resident (spf and counts int32,
# exponent and omega int8) plus the last doubling block's scratch; tracemalloc
# peaks are 17.3-18.6 for N from 1e5 to 1e7
BYTES_PER_ENTRY = 24
SERIES_BLOCK = 1 << 16  # integers per value_blocks block: 256 KiB of int32, 512 KiB per float64 term array


def _require_budget(need_bytes: float, what: str, detail: str) -> None:
    """Raise ResourceError when need_bytes exceeds MEANVAL_MEM_LIMIT_MB, a finite number >= 0."""
    env = os.environ.get(MEM_ENV_VAR, DEFAULT_MEM_LIMIT_MB)
    try:
        budget = float(env)
    except ValueError:
        budget = math.nan
    if not 0 <= budget < math.inf:  # nan and inf would admit any size, a negative budget none
        raise ConfigError(f"{MEM_ENV_VAR}={env!r} is not a finite number >= 0")
    need_mb = need_bytes / 2**20
    if need_mb > budget:
        raise ResourceError(
            f"{what} needs ~{need_mb:.0f} MiB ({detail}) "
            f"but the budget is {budget:.0f} MiB; raise {MEM_ENV_VAR} to allow it"
        )


def _check_budget(limit: int) -> None:
    _require_budget(limit * BYTES_PER_ENTRY, f"sieve to {limit}", f"{BYTES_PER_ENTRY} B/entry")


@dataclass(frozen=True)
class SpfSieve:
    """Smallest-prime-factor table for 2..limit (spf[p] == p iff p prime)."""

    limit: int
    spf: np.ndarray


def build_spf(limit: int) -> SpfSieve:
    """Sieve smallest prime factors for 2..limit.

    The int32 table takes 4 bytes per entry, but the gate charges
    BYTES_PER_ENTRY, which covers ``tabulate`` on it too; exceeding the memory
    budget (MEANVAL_MEM_LIMIT_MB, default 4096) raises ResourceError.
    """
    if limit < 2:
        raise ConfigError(f"sieve limit must be >= 2, got {limit}")
    if limit > 2**31 - 2:
        raise ResourceError(f"sieve limit {limit} exceeds the int32 layout")
    _check_budget(limit)
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in primes_up_to(math.isqrt(limit))[::-1].tolist():
        spf[p * p :: p] = p
    unmarked = np.flatnonzero(spf == 0)  # primes, plus the slots 0 and 1
    spf[unmarked] = unmarked
    return SpfSieve(limit=limit, spf=spf)


def _decompose(sieve: SpfSieve, params: ArithParams) -> tuple[np.ndarray, np.ndarray]:
    """Divisor counts and omegas for 0..limit, from n = p * m with p = spf(n).

    p divides m iff spf(m) == p, and then e = expo[m], else e = 0. So n has
    exponent e + 1 at p, counts[n] = counts[m] // c[e] * c[e + 1] with
    c[a] = ceil(a/r) + 1, and omegas[n] = omegas[m] + (e == 0). In a doubling
    block [lo, 2*lo) every m < lo, so each block reads only finished entries.
    """
    N, spf, r = sieve.limit, sieve.spf, params.r
    c = np.array(minpow_divisor_counts(r, 32), dtype=np.int32)
    counts = np.empty(N + 1, dtype=np.int32)
    omegas = np.empty(N + 1, dtype=np.int8)
    expo = np.empty(N + 1, dtype=np.int8)  # exponent of spf(n) in n
    counts[:2] = (0, 1)
    omegas[:2] = expo[:2] = 0
    lo = 2
    while lo <= N:
        hi = min(2 * lo, N + 1)
        p = spf[lo:hi]
        m = (np.arange(lo, hi, dtype=np.int32) // p).astype(np.intp)  # index once, gather four times
        e = expo[m]
        e *= spf[m] == p
        counts[lo:hi] = counts[m] // c[e] * c[e + 1]
        expo[lo:hi] = e + 1
        np.add(omegas[m], e == 0, out=omegas[lo:hi])
        lo = hi
    return counts, omegas


@dataclass(frozen=True)
class ValueTable:
    """Tabulated divisor data for 1..limit under fixed (r, k).

    ``counts[n]`` is the divisor count of the r-th minimal power of n (an
    exact small integer) and ``omegas[n]`` the number of distinct prime
    factors; together they determine the studied value counts[n] / k**omegas[n].
    """

    params: ArithParams
    limit: int
    counts: np.ndarray  # int32
    omegas: np.ndarray  # int8

    def value(self, n: int) -> ExactValue:
        if not 1 <= n <= self.limit:
            raise ConfigError(f"n={n} outside tabulated range 1..{self.limit}")
        if self.params.exact:
            return Fraction(int(self.counts[n]), self.params.k_int ** int(self.omegas[n]))
        return float(self.counts[n]) / float(self.params.k) ** int(self.omegas[n])


def tabulate(sieve: SpfSieve, params: ArithParams) -> ValueTable:
    """Evaluate the studied multiplicative function for every n <= limit.

    Values agree exactly with the single-integer path in ``arith``; the sieve
    recovers each factorization incrementally instead of trial-dividing.
    """
    counts, omegas = _decompose(sieve, params)
    return ValueTable(params=params, limit=sieve.limit, counts=counts, omegas=omegas)


def value_blocks(params: ArithParams, limit: int, part: int = 0,
                 parts: int = 1) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(lo, counts, omegas) for n in [lo, lo + len(counts)), block by block over 1..limit.

    Only the blocks part, part + parts, part + 2*parts, ... are formed, each
    equal to the serial walk's block of that index, so ``parts`` interleaved
    walks share the series out evenly (``xsum.split_sums``). The default is
    the whole walk.

    Equal to the slices of ``tabulate``'s table, without it: in each block of
    SERIES_BLOCK integers every prime p <= sqrt(limit) adds 1 to omega at its
    multiples and multiplies the p-smooth part at the multiples of each
    p**a. Omega starts as a slice of a wheel, the count of the primes 2 to 13
    that are <= sqrt(limit) and divide n, tabulated over n mod their product;
    the smooth part starts as n & -n, the power of 2 in n, when 2 <= sqrt(limit).
    Every other prime power q <= sqrt(SERIES_BLOCK) takes strided passes over
    the block. The larger ones are listed once, primes first, and in each
    block the offsets of all their multiples are formed at once: q apart
    within one q's run, and a jump from the last multiple of one q to the
    first of the next, then a cumulative sum. The primes' offsets, a prefix
    of them, add 1 to omega; every offset multiplies the smooth part by its
    p, and ``ufunc.at`` applies repeated offsets one by one, exactly.

    What is left, n / smooth, is 1 or the one prime factor above
    sqrt(limit). Then counts starts at 2**omega, and as c[a] = ceil(a/r) + 1
    steps up only at a = j*r + 1, the multiples of p**(j*r + 1) trade c[a-1]
    for c[a].
    """
    if limit < 1:
        raise ConfigError(f"series limit must be >= 1, got {limit}")
    if limit > 2**31 - 2:
        raise ResourceError(f"series limit {limit} exceeds the int32 layout")
    r = params.r
    c = minpow_divisor_counts(r, 32)
    split = math.isqrt(SERIES_BLOCK)
    base = primes_up_to(math.isqrt(limit)).tolist()
    wheel = base[:6]  # those of 2, 3, 5, 7, 11 and 13 that are <= sqrt(limit)
    period = math.prod(wheel)
    pattern = np.zeros(period + min(SERIES_BLOCK, limit), dtype=np.int8)  # omega over them, n mod period
    for p in wheel:
        pattern[::p] += 1
    struck = [p for p in base[1:] if p <= split]
    gathered = [(p, p) for p in base if p > split]
    n_primes = len(gathered)
    for p in base[1:]:
        q = p * p
        while q <= limit:
            if q > split:
                gathered.append((q, p))
            q *= p
    gq, gp = np.array(gathered, dtype=np.int64).reshape(-1, 2).T
    gp = gp.astype(np.int32)

    def block_omegas(lo: int, n: np.ndarray) -> np.ndarray:  # its scratch is freed before the block is used
        size = n.size
        omegas = pattern[lo % period : lo % period + size].copy()
        if wheel:  # the 2-part, n & -n
            smooth = np.negative(n)
            smooth &= n
        else:
            smooth = np.ones(size, dtype=np.int32)
        for p in struck:
            if p not in wheel:
                omegas[-lo % p :: p] += 1
            q = p
            while q <= split:
                smooth[-lo % q :: q] *= p
                q *= p
        first = -lo % gq  # offset of each q's first multiple
        runs = (size - first + gq - 1) // gq  # its multiples in the block
        n_hits = int(runs[:n_primes].sum())
        live = np.flatnonzero(runs)
        qs, first, runs = gq[live], first[live], runs[live]
        last = first + (runs - 1) * qs
        gaps = np.repeat(qs, runs)
        gaps[np.cumsum(runs) - runs] = first - np.concatenate(([0], last[:-1]))
        at = np.cumsum(gaps)  # offsets of the multiples, q by q
        np.add.at(omegas, at[:n_hits], np.int8(1))  # an int8 operand keeps add.at on its fast path
        np.multiply.at(smooth, at, np.repeat(gp[live], runs))
        omegas += smooth != n
        return omegas

    # the block's integers: one array for the whole walk, cut to the last block and advanced
    # in place, which also keeps the allocator from returning and refaulting a block's pages
    n = np.arange(1, 1 + min(SERIES_BLOCK, limit), dtype=np.int32)
    for lo in range(1 + part * SERIES_BLOCK, limit + 1, parts * SERIES_BLOCK):
        n = n[: limit + 1 - lo]
        n += lo - int(n[0])
        omegas = block_omegas(lo, n)
        hi = lo + omegas.size
        counts = np.left_shift(1, omegas, dtype=np.int32)
        for p in base:
            q, a = p ** (r + 1), r + 1
            if q >= hi:
                break
            while q < hi:
                step = counts[-lo % q :: q]  # a view, so the update lands in counts
                step //= c[a - 1]
                step *= c[a]
                q, a = q * p**r, a + r
        yield lo, counts, omegas


def geometric_checkpoints(limit: int, per_decade: int = 8) -> list[int]:
    """Log-spaced checkpoints round(10**(j/per_decade)) in [10, limit], plus limit."""
    if limit < 1:
        raise ConfigError(f"limit must be >= 1, got {limit}")
    pts = set()
    j = per_decade
    while True:
        x = round(10 ** (j / per_decade))
        if x > limit:
            break
        if x >= 10:
            pts.add(x)
        j += 1
    pts.add(limit)
    return sorted(pts)


@dataclass(frozen=True)
class SummatoryRow:
    """One checkpoint: x, the prefix sum S, and its comparison columns.

    ``summatory`` leaves ``main`` and ``residual`` as None; ``fit.residuals``
    fills them with main = ``ConstantsBundle.main_term(x)`` and
    ``ConstantsBundle.residual(S, main)``: S - main formed in rationals and
    rounded once, which for a float S is exactly the double S - main, so the
    columns stay consistent.
    """

    x: int
    value: ExactValue
    main: Optional[float]
    residual: Optional[float]
    err_bound: float


@dataclass(frozen=True)
class SummatoryTable:
    """Checkpointed prefix sums of the studied function, immutable once built."""

    params: ArithParams
    limit: int
    mode: str  # "exact" | "float"
    rows: tuple[SummatoryRow, ...]

    @property
    def final(self) -> ExactValue:
        return self.rows[-1].value

def _segment_bounds(limit: int, checkpoints: Sequence[int], segment: int) -> list[tuple[int, int, bool]]:
    """No caller: kept only as the name perfbench/trace_cli.py wraps."""
    return []


def summatory(
    params: ArithParams,
    limit: int,
    grid: Optional[Sequence[int]] = None,
) -> SummatoryTable:
    """Prefix sums S(x) at the grid checkpoints; main and residual stay None.

    The exact S(x) come from ``hyperbola`` at k = 1 and k = 2 and from
    ``classtotals`` at every other k; for a non-integer k each is rounded
    once. ``fit.residuals`` adds the main-term and residual columns.
    """
    if limit < 1:
        raise ConfigError(f"N must be >= 1, got {limit}")
    points = geometric_checkpoints(limit) if grid is None else grid
    try:
        checkpoints = sorted({operator.index(x) for x in points})
    except TypeError as exc:
        raise ConfigError(f"grid points must be integers: {exc}") from exc
    if not checkpoints:
        raise ConfigError("checkpoint grid is empty")
    if not 1 <= checkpoints[0] <= checkpoints[-1] <= limit:
        raise ConfigError(f"grid points must lie in [1, {limit}]")

    backend = hyperbola if params.k in (1.0, 2.0) else classtotals
    _require_budget(
        backend.required_bytes(params, checkpoints),
        f"exact S(x) to {checkpoints[-1]}",
        backend.BUDGET_DETAIL,
    )
    exact = params.exact
    rows: list[SummatoryRow] = []
    for x, s in zip(checkpoints, backend.prefix_sums(params, checkpoints)):
        value = s if exact else float(s)
        err = 0.0 if exact else math.ulp(value) / 2
        rows.append(SummatoryRow(x=x, value=value, main=None, residual=None, err_bound=err))
    return SummatoryTable(params=params, limit=limit, mode="exact" if exact else "float", rows=tuple(rows))
