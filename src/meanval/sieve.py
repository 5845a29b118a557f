"""Per-n divisor data by sieving, and checkpointed sums.

``value_blocks`` streams each n's divisor count and omega over 1..N in
blocks of SERIES_BLOCK integers; in each block every prime p <= sqrt(N)
strides over its multiples and those of its powers, and what is left of n
is 1 or its one prime factor above sqrt(N). No array of length N is held.
It serves ``verify``'s Dirichlet series.

The whole per-n table is built independently, and serves the tests as the
oracle for those blocks and for the sums:

1. ``build_spf`` marks the smallest prime factor of every n <= N (int32) in
   blocks of 2**18 entries; in each block every prime p <= sqrt(N) writes p
   at its multiples, largest first, so the smallest prime dividing n wins.
2. ``tabulate`` gets each n's divisor count, omega and exponent of spf(n)
   from those of m = n / spf(n) < lo, in one pass over doubling blocks
   [lo, 2*lo), a chunk of 2**20 entries at a time.
3. Memory is 10 bytes per entry plus one chunk's scratch.

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
import os
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import IO, Iterator, Optional, Sequence, Union

import numpy as np

from . import classtotals, hyperbola
from .arith import ArithParams, ExactValue, minpow_divisor_counts
from .errors import ConfigError, ResourceError
from .primes import primes_up_to

__all__ = [
    "SpfSieve",
    "SummatoryRow",
    "SummatoryTable",
    "ValueTable",
    "build_spf",
    "geometric_checkpoints",
    "summatory",
    "tabulate",
    "value_blocks",
]

DEFAULT_MEM_LIMIT_MB = 4096
MEM_ENV_VAR = "MEANVAL_MEM_LIMIT_MB"

# resident tables, bytes per sieved integer: spf and counts (int32), exponent
# and omega (int8)
BYTES_PER_ENTRY = 10
# scratch, bytes per entry of the 2**20 chunk that tabulate works on: about 21
SCRATCH_BYTES_PER_ENTRY = 24
SPF_BLOCK = 1 << 18  # entries per build_spf block: 1 MiB of int32, an L2's worth
TAB_CHUNK = 1 << 20  # entries per tabulate work item
SERIES_BLOCK = 1 << 18  # integers per value_blocks block


def _require_budget(need_bytes: float, what: str, detail: str) -> None:
    """Raise ResourceError when need_bytes exceeds MEANVAL_MEM_LIMIT_MB."""
    env = os.environ.get(MEM_ENV_VAR, DEFAULT_MEM_LIMIT_MB)
    try:
        budget = float(env)
    except ValueError:
        budget = math.nan
    if not math.isfinite(budget):  # nan would admit any size, and so would inf
        raise ConfigError(f"{MEM_ENV_VAR}={env!r} is not a finite number")
    need_mb = need_bytes / 2**20
    if need_mb > budget:
        raise ResourceError(
            f"{what} needs ~{need_mb:.0f} MiB ({detail}) "
            f"but the budget is {budget:.0f} MiB; raise {MEM_ENV_VAR} to allow it"
        )


def _check_budget(limit: int) -> None:
    _require_budget(
        limit * BYTES_PER_ENTRY + min(limit, TAB_CHUNK) * SCRATCH_BYTES_PER_ENTRY,
        f"sieve to {limit}",
        f"{BYTES_PER_ENTRY} B/entry plus chunk scratch",
    )


@dataclass(frozen=True)
class SpfSieve:
    """Smallest-prime-factor table for 2..limit (spf[p] == p iff p prime)."""

    limit: int
    spf: np.ndarray


def build_spf(limit: int) -> SpfSieve:
    """Sieve smallest prime factors for 2..limit.

    Costs 4 bytes per entry (int32); exceeding the memory budget
    (MEANVAL_MEM_LIMIT_MB, default 4096) raises ResourceError.
    """
    if limit < 2:
        raise ConfigError(f"sieve limit must be >= 2, got {limit}")
    if limit > 2**31 - 2:
        raise ResourceError(f"sieve limit {limit} exceeds the int32 layout")
    _check_budget(limit)
    spf = np.zeros(limit + 1, dtype=np.int32)
    small = primes_up_to(math.isqrt(limit))[::-1].tolist()
    for lo in range(0, limit + 1, SPF_BLOCK):
        view = spf[lo : lo + SPF_BLOCK]
        hi = lo + view.size
        for p in small:
            if p * p < hi:
                view[max(p * p, -(-lo // p) * p) - lo :: p] = p
        unmarked = np.flatnonzero(view == 0)  # primes, plus the slots 0 and 1
        view[unmarked] = unmarked + lo
    return SpfSieve(limit=limit, spf=spf)


def _decompose(sieve: SpfSieve, params: ArithParams) -> tuple[np.ndarray, np.ndarray]:
    """Divisor counts and omegas for 0..limit, from n = p * m with p = spf(n).

    p divides m iff spf(m) == p, and then e = expo[m], else e = 0. So n has
    exponent e + 1 at p, counts[n] = counts[m] // c[e] * c[e + 1] with
    c[a] = ceil(a/r) + 1, and omegas[n] = omegas[m] + (e == 0). In a doubling
    block [lo, 2*lo) every m < lo, so each chunk reads only finished entries.
    """
    N, spf, r = sieve.limit, sieve.spf, params.r
    c = np.array(minpow_divisor_counts(r, 32), dtype=np.int32)
    counts = np.empty(N + 1, dtype=np.int32)
    omegas = np.empty(N + 1, dtype=np.int8)
    expo = np.empty(N + 1, dtype=np.int8)  # exponent of spf(n) in n
    counts[:2] = (0, 1)
    omegas[:2] = expo[:2] = 0

    def chunk(a: int, b: int) -> None:  # its scratch is freed before the next chunk's
        p = spf[a:b]
        m = (np.arange(a, b, dtype=np.int32) // p).astype(np.intp)  # index once, gather four times
        e = expo[m]
        e *= spf[m] == p
        counts[a:b] = counts[m] // c[e] * c[e + 1]
        expo[a:b] = e + 1
        np.add(omegas[m], e == 0, out=omegas[a:b])

    lo = 2
    while lo <= N:
        hi = min(2 * lo, N + 1)
        for a in range(lo, hi, TAB_CHUNK):
            chunk(a, min(a + TAB_CHUNK, hi))
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


def value_blocks(params: ArithParams, limit: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(lo, counts, omegas) for n in [lo, lo + len(counts)), block by block over 1..limit.

    Equal to the slices of ``tabulate``'s table, without it: in each block of
    SERIES_BLOCK integers every prime p <= sqrt(limit) adds 1 to omega at its
    multiples and multiplies the p-smooth part at the multiples of each
    p**a. What is left, n / smooth, is 1 or the one prime factor above
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
    small = primes_up_to(math.isqrt(limit)).tolist()
    for lo in range(1, limit + 1, SERIES_BLOCK):
        n = np.arange(lo, min(lo + SERIES_BLOCK, limit + 1), dtype=np.int32)
        hi = lo + n.size
        omegas = np.zeros(n.size, dtype=np.int8)
        smooth = np.ones(n.size, dtype=np.int32)
        for p in small:
            omegas[-lo % p :: p] += 1
            q = p
            while q < hi:
                smooth[-lo % q :: q] *= p
                q *= p
        omegas += smooth != n
        counts = np.left_shift(1, omegas, dtype=np.int32)
        for p in small:
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


def _decimal_str(v: Union[Fraction, float], digits: int = 36) -> str:
    if isinstance(v, Fraction):
        with localcontext() as ctx:
            ctx.prec = digits
            d = Decimal(v.numerator) / Decimal(v.denominator)
        return format(d, "f")
    return repr(float(v))


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

    def to_json_obj(self) -> dict:
        obj = {
            "schema_version": "1",
            "kind": "summatory_table",
            "params": {"r": self.params.r, "k": self.params.k},
            "N": self.limit,
            "mode": self.mode,
            "rows": [],
        }
        for row in self.rows:
            rec = {
                "x": row.x,
                "S": _decimal_str(row.value),
                "main": None if row.main is None else repr(row.main),
                "residual": None if row.residual is None else repr(row.residual),
                "err_bound": repr(row.err_bound),
            }
            if isinstance(row.value, Fraction):
                rec["S_exact"] = f"{row.value.numerator}/{row.value.denominator}"
            obj["rows"].append(rec)
        return obj

    def write_csv(self, fp: IO[str]) -> None:
        fp.write("x,S,main,residual,err_bound\n")
        for row in self.rows:
            main = "" if row.main is None else repr(row.main)
            resid = "" if row.residual is None else repr(row.residual)
            fp.write(
                f"{row.x},{_decimal_str(row.value)},{main},{resid},{repr(row.err_bound)}\n"
            )


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
    checkpoints = list(grid) if grid is not None else geometric_checkpoints(limit)
    if not checkpoints:
        raise ConfigError("checkpoint grid is empty")
    if any((not 1 <= x <= limit) for x in checkpoints):
        raise ConfigError(f"grid points must lie in [1, {limit}]")
    checkpoints = sorted(set(checkpoints))

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
