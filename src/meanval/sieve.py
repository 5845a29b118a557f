"""Per-n divisor data by sieving, and checkpointed sums.

``value_blocks`` streams each n's divisor count and omega over 1..N and
serves ``verify``'s Dirichlet series. It sieves segments of SERIES_BLOCK
integers, which stay in cache, into three arrays that live for the whole
walk, and hands each segment out in pieces of at most ``primes.PIECE``
integers, so the float64 terms of a piece (64 KiB) reuse the same heap pages.
Every prime power p**a <= N with p <= sqrt(N) is listed once, before the
first segment, and each segment takes its tiers as slices of that list.
Omega for 2 to 13 is sliced from one periodic pattern (a wheel of period
30030), and the power of 2 in n is n & -n; the rest come in two tiers split
at sqrt(SERIES_BLOCK):

* a prime power with at least sqrt(SERIES_BLOCK) multiples in a segment is
  struck in place, one strided pass over the segment each;
* the prime powers above the split have few multiples each, so a vectorised
  pass per batch of them forms the offsets of all their multiples in the
  segment and one ``ufunc.at`` call each applies them, as a bucket sieve
  does (Oliveira e Silva, Herzog and Pardi, *Math. Comp.* 83, 2014); a batch
  has at most PIECE multiples, so its offsets take no more memory than a piece.

What is left of n is then 1 or its one prime factor above sqrt(N). No array
of length N is held.

The whole per-n table is built independently, and serves the tests as the
oracle for those pieces and for the sums; no command builds it, and
``meanval`` does not export it:

1. ``build_spf`` returns the smallest prime factor of every n <= N as an
   int32 array: each prime p <= sqrt(N), largest first, writes p at its
   multiples from p**2, so the smallest prime dividing n wins.
2. ``tabulate`` returns each n's divisor count and omega, from those of
   m = n / spf(n) < lo and the exponent of spf(n), in one pass per doubling
   block [lo, 2*lo).

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
from typing import Iterator, Optional, Sequence

import numpy as np

from .arith import ArithParams, ExactValue, minpow_divisor_counts
from .errors import ConfigError, ResourceError
from .primes import PIECE, primes_up_to

__all__ = [
    "SummatoryRow",
    "SummatoryTable",
    "geometric_checkpoints",
    "summatory",
    "value_blocks",
]

DEFAULT_MEM_LIMIT_MB = 4096
MEM_ENV_VAR = "MEANVAL_MEM_LIMIT_MB"

GRID_DENSITY = 8  # checkpoints per decade of the default grid
# a grid point's int, its set entry and its list slots, through ``grid_points``' sorted copy:
# tracemalloc measures 74 to 120 bytes per point for geom grids of 4e3 to 8e5 points
BYTES_PER_POINT = 128
SERIES_BLOCK = 1 << 16  # integers per value_blocks segment: 256 KiB of int32


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


def build_spf(limit: int) -> np.ndarray:
    """Smallest prime factors of 0..limit as int32 (spf[p] == p iff p is prime, and spf[:2] = 0, 1)."""
    if limit < 2:
        raise ConfigError(f"sieve limit must be >= 2, got {limit}")
    if limit > 2**31 - 2:
        raise ResourceError(f"sieve limit {limit} exceeds the int32 layout")
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in primes_up_to(math.isqrt(limit))[::-1].tolist():
        spf[p * p :: p] = p
    unmarked = np.flatnonzero(spf == 0)  # primes, plus the slots 0 and 1
    spf[unmarked] = unmarked
    return spf


def tabulate(spf: np.ndarray, params: ArithParams) -> tuple[np.ndarray, np.ndarray]:
    """d(minpow_r(n)) (int32) and omega(n) (int8) for n = 0..len(spf) - 1, from n = p * m, p = spf(n).

    p divides m iff spf(m) == p, and then e = expo[m], else e = 0. So n has
    exponent e + 1 at p, counts[n] = counts[m] // c[e] * c[e + 1] with
    c[a] = ceil(a/r) + 1, and omegas[n] = omegas[m] + (e == 0). In a doubling
    block [lo, 2*lo) every m < lo, so each block reads only finished entries.
    """
    N, r = spf.size - 1, params.r
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


def value_blocks(params: ArithParams, limit: int, part: int = 0,
                 parts: int = 1) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(lo, counts, omegas) for n in [lo, lo + len(counts)), piece by piece over 1..limit.

    The values are sieved one segment of SERIES_BLOCK integers at a time and
    handed out in pieces of 1 to PIECE integers, none spanning two segments.
    Only the segments part, part + parts, part + 2*parts, ... are formed, and
    their pieces yielded, each equal to the serial walk's piece, so ``parts``
    interleaved walks share the series out evenly (``xsum.split_sums``). The
    default is the whole walk. A piece's arrays are views into three arrays
    that the next segment overwrites: a caller that keeps a piece past the
    next one must copy it.

    Equal to the slices of ``tabulate``'s table, without it: one list, formed
    by repeated multiplication before the first segment, holds every q = p**a
    <= limit with p prime and p <= sqrt(limit). Omega starts as a slice of a
    wheel, the count of the primes 2 to 13 that are <= sqrt(limit) and divide
    n, tabulated over n mod their product; the p-smooth part starts as n & -n,
    the power of 2 in n, when 2 <= sqrt(limit). Each odd q multiplies the
    smooth part by p at its multiples, and each odd prime q outside the wheel
    adds 1 to omega there: the q <= sqrt(SERIES_BLOCK) by strided passes, the
    larger ones, primes first, in batches with at most PIECE multiples in a
    segment, whose offsets are formed at once: q apart within one q's run,
    and a jump from the last multiple of one q to the first of the next, then
    a cumulative sum. The primes' offsets, a prefix of them, add 1 to omega;
    every offset multiplies the smooth part by its p, and ``ufunc.at``
    applies repeated offsets one by one, exactly.

    What is left, n / smooth, is 1 or the one prime factor above
    sqrt(limit). Then counts starts at 2**omega, and as c[a] = ceil(a/r) + 1
    steps up only at a = j*r + 1, the multiples of those q trade c[a-1] for
    c[a], in order of q up to the segment's end.
    """
    if limit < 1:
        raise ConfigError(f"series limit must be >= 1, got {limit}")
    if limit > 2**31 - 2:
        raise ResourceError(f"series limit {limit} exceeds the int32 layout")
    c = minpow_divisor_counts(params.r, 32)
    split = math.isqrt(SERIES_BLOCK)
    base = primes_up_to(math.isqrt(limit)).tolist()
    wheel = base[:6]  # those of 2, 3, 5, 7, 11 and 13 that are <= sqrt(limit)
    period = math.prod(wheel)
    size = min(SERIES_BLOCK, limit)
    pattern = np.zeros(period + size, dtype=np.int8)  # omega over them, n mod period
    for p in wheel:
        pattern[::p] += 1
    powers = []  # (q, p, a) for every q = p**a <= limit, by p and then by a
    for p in base:
        q, a = p, 1
        while q <= limit:
            powers.append((q, p, a))
            q, a = q * p, a + 1
    # the odd q, as the 2-part is n & -n: strided passes, which strike omega at a prime outside
    # the wheel, up to the split, and the gathered ones past it, primes first
    struck = [(q, p, a == 1 and p not in wheel) for q, p, a in powers if 2 < p and q <= split]
    gathered = sorted((t for t in powers if t[1] > 2 and t[0] > split), key=lambda t: t[2] > 1)
    n_primes = sum(a == 1 for _, _, a in gathered)
    gq, gp, _ = np.array(gathered, dtype=np.int64).reshape(-1, 3).T
    gp = gp.astype(np.int32)
    steps = sorted((q, c[a - 1], c[a]) for q, _, a in powers if a > 1 and c[a] > c[a - 1])

    # the gathered prime powers in batches with at most PIECE multiples in a segment, or one
    # power, so that a batch's offsets are no larger than a piece
    batches, start, hits = [], 0, 0
    for i, most in enumerate((SERIES_BLOCK // gq + 1).tolist()):
        if hits + most > PIECE and i > start:
            batches.append((start, i))
            start, hits = i, 0
        hits += most
    batches.append((start, gq.size))

    def gather(lo: int, omegas: np.ndarray, smooth: np.ndarray) -> None:
        for a, b in batches:
            qs = gq[a:b]
            first = -lo % qs  # offset of each q's first multiple
            runs = (omegas.size - first + qs - 1) // qs  # its multiples in the segment
            n_hits = int(runs[: max(n_primes - a, 0)].sum())
            live = np.flatnonzero(runs)
            qs, first, runs = qs[live], first[live], runs[live]
            last = first + (runs - 1) * qs
            at = np.repeat(qs, runs)  # the gaps between the multiples, q by q
            at[np.cumsum(runs) - runs] = first - np.concatenate(([0], last[:-1]))
            np.cumsum(at, out=at)  # offsets of the multiples
            np.add.at(omegas, at[:n_hits], np.int8(1))  # an int8 operand keeps add.at on its fast path
            np.multiply.at(smooth, at, np.repeat(gp[a:b][live], runs))

    # a segment's integers and its three results: one array each for the whole walk, cut to
    # the last segment, which keeps the allocator from returning and refaulting their pages
    n = np.arange(1, 1 + size, dtype=np.int32)
    omegas, smooth, counts = np.empty(size, np.int8), np.empty(size, np.int32), np.empty(size, np.int32)
    for lo in range(1 + part * SERIES_BLOCK, limit + 1, parts * SERIES_BLOCK):
        size = min(size, limit + 1 - lo)
        n, omegas, smooth, counts = n[:size], omegas[:size], smooth[:size], counts[:size]
        n += lo - int(n[0])
        np.copyto(omegas, pattern[lo % period : lo % period + size])
        if wheel:  # the 2-part, n & -n
            np.negative(n, out=smooth)
            smooth &= n
        else:
            smooth.fill(1)
        for q, p, strike in struck:
            if strike:
                omegas[-lo % q :: q] += 1
            smooth[-lo % q :: q] *= p
        gather(lo, omegas, smooth)
        omegas += smooth != n
        hi = lo + size
        np.left_shift(1, omegas, out=counts, dtype=np.int32)
        for q, before, after in steps:
            if q >= hi:
                break
            step = counts[-lo % q :: q]  # a view, so the update lands in counts
            step //= before
            step *= after
        for at in range(0, size, PIECE):
            yield lo + at, counts[at : at + PIECE], omegas[at : at + PIECE]


def geometric_checkpoints(limit: int, per_decade: int = GRID_DENSITY) -> list[int]:
    """Log-spaced checkpoints round(10**(j/per_decade)) in [10, limit], plus limit.

    Consecutive points lie x * step apart, so every integer from 10 up to
    x = 1 / (2 step) is one: the grid is that run 10..run, one point per
    exponent j in lo..hi past it, and limit. A dense grid, whose step is at
    most 1 / (2 limit), is the run 10..limit with no exponent. The points of
    that triple are counted first, and a grid whose points would pass
    MEANVAL_MEM_LIMIT_MB raises ResourceError before any is built, as does a
    grid whose limit or points, as floats, would pass the double range.
    """
    if limit < 1:
        raise ConfigError(f"limit must be >= 1, got {limit}")
    if per_decade < 1:
        raise ConfigError(f"grid density must be >= 1, got {per_decade}")
    try:  # a float of the limit or of a point past the double range raises OverflowError
        step = math.expm1(math.log(10) * (1 / per_decade))  # 0.0 at a density past the double range
        if limit * step <= 0.5:
            run, lo, hi = limit, 1, 0
        else:
            lo = max(per_decade, math.floor(per_decade * math.log10(0.5 / step)))
            run = min(round(10 ** (lo / per_decade)), limit)
            # the point of j is <= limit only for j < per_decade * log10(limit + 0.5); + 1 spares float error
            hi = math.floor(per_decade * math.log10(limit + 0.5)) + 1
        points = min(max(run - 9, 0) + max(hi - lo + 1, 0) + 1, limit)
        _require_budget(points * BYTES_PER_POINT, f"checkpoint grid geom:{per_decade} to {limit}",
                        f"~{points} points at {BYTES_PER_POINT} bytes each")
        exponents = [round(10 ** (j / per_decade)) for j in range(lo, hi + 1)]
    except OverflowError:
        raise ResourceError(f"checkpoint grid geom:{per_decade} to {limit} passes the double range") from None
    return sorted({limit, *range(10, run + 1), *(x for x in exponents if 10 <= x <= limit)})


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


def _segment_bounds(limit: int, checkpoints: Sequence[int], segment: int) -> list[tuple[int, int, bool]]:
    """No caller: kept only as the name perfbench/trace_cli.py wraps."""
    return []


_decompose = tabulate  # no caller either: a second name that perfbench/trace_cli.py wraps


def grid_points(limit: int, grid: Optional[Sequence[int]] = None) -> list[int]:
    """The grid's distinct points ascending, as ``summatory`` sums them; ConfigError for a bad N or grid."""
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
    return checkpoints


def summatory(
    params: ArithParams,
    limit: int,
    grid: Optional[Sequence[int]] = None,
) -> SummatoryTable:
    """Prefix sums S(x) at the grid checkpoints; main and residual stay None.

    The exact S(x) come from ``hyperbola`` at k = 1 and k = 2 and from
    ``classtotals`` at every other k; for a non-integer k each is rounded
    once. ``fit.residuals`` adds the main-term and residual columns. The
    backends load here, their one caller, so ``constants`` and ``verify``
    never compile them.
    """
    from . import classtotals, hyperbola

    checkpoints = grid_points(limit, grid)
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
