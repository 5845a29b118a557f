"""Exact S(x) at the weights k = 1 and k = 2, in about sqrt(N) time and memory.

At these two weights the Dirichlet series of f(n) = d(minpow_r(n)) / k**omega(n)
is zeta(s)**(2/k) * H(s). The local factor of H at p is (1 - z)**(2/k) * F_p(z)
with z = p**-s and F_p(z) = 1 + (1/k) * sum_{a >= 1} (ceil(a/r) + 1) * z**a, so
f = d * h at k = 1 and f = 1 * h at k = 2, with h multiplicative and h(p**a)
the coefficient of z**a in that product. Since f(p) = 2/k, h(p) = 0: h lives
on the powerful numbers, and

    S(x) = sum_{m <= x powerful} h(m) * G(x // m),

where G = D, the divisor summatory function, at k = 1 and G(y) = y at k = 2.

h(m) = num(m) / k**omega(m) with an integer numerator, so S(x) is the integer
sum_m num(m) * k**(W - omega(m)) * G(x // m) over k**W, where W is the largest
omega on the support. Every partial sum is an exact int64: ``prefix_sums``
and ``required_bytes`` refuse checkpoints where one could overflow. Both
size everything from N, the largest checkpoint.

At k = 1, D(y) is read from a table for y <= L (``table_size``, 2 * sqrt(N)),
built as one cumsum of a divisor-pair sieve. The m with x // m > L take
Dirichlet's hyperbola formula
D(y) = 2 * sum_{i <= sqrt y} floor(y / i) - floor(sqrt y)**2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arith import ArithParams, local_factor_times, max_omega
from .errors import ResourceError
from .primes import primes_up_to

__all__ = [
    "divisor_summatory",
    "divisor_summatory_table",
    "h_numerators",
    "powerful_support",
    "prefix_sums",
    "required_bytes",
    "table_size",
]

# peak bytes per listed powerful number: m, numerator and omega as int64
# each, the sort order and one column's joined or sorted copy; tracemalloc
# measures 41 B (k = 1) to 48 B (k = 2) at N = 1e10 to 1e12
POWERFUL_BYTES = 56
TABLE_BYTES = 8  # one int64 D(y) per table entry
BUDGET_DETAIL = f"{POWERFUL_BYTES} B per powerful number plus the D(y) table"
FORMULA_CHUNK = 1 << 16  # divisors i per numpy step of the hyperbola formula
# zeta(3/2): there are at most zeta(3/2) * sqrt(N) powerful numbers <= N,
# since each is a**2 * b**3 with b squarefree, for at most sqrt(N / b**3) values of a
_POWERFUL_COUNT = 2.6124
# sum of 1/m over all powerful m, zeta(2) * zeta(3) / zeta(6) = 1.9436..., rounded up
_POWERFUL_RECIPROCALS = 2.0


def h_numerators(r: int, k: int, size: int) -> list[int]:
    """k * h(p**a) for a = 0, 1, ..., size - 1, at the weight k = 1 or 2.

    These are the coefficients of (1 - z)**(2/k) * k * F_p(z), formed by
    ``arith.local_factor_times`` with the kernel (1 - z)**2 or (1 - z); all of
    them are integers. Entry 0 is k, so h(m) = prod_p numerator(a_p) / k**omega(m).
    """
    return local_factor_times((1, -2, 1) if k == 1 else (1, -1), r, k, size)


def _iroot(n: int, a: int) -> int:
    """floor(n ** (1/a)) for n >= 0, exactly."""
    x = int(round(n ** (1.0 / a)))
    while x**a > n:
        x -= 1
    while (x + 1) ** a <= n:
        x += 1
    return x


def powerful_support(params: ArithParams, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every m <= limit with h(m) != 0, as sorted int64 arrays (m, numerator, omega).

    The numbers are built one prime factor at a time, largest prime last: a
    level holds the m with a given omega and, for each, the index of the
    smallest prime it may still take. A parent m gets the children
    m * p**a for its primes p with p**a <= limit // m, found by a binary
    search in the table of p**a, and loses its place in the loop over a once
    it has none. So the work grows with the count listed, not with the
    number of primes times that count.
    """
    k = int(params.k)
    num_a = h_numerators(params.r, k, max(limit.bit_length(), 2))
    exps = [a for a in range(2, len(num_a)) if num_a[a] and 2**a <= limit]
    one = np.ones(1, dtype=np.int64)
    levels = [(one, one, np.zeros(1, dtype=np.int64))]
    if exps:
        ps = primes_up_to(_iroot(limit, exps[0]))
        m, num, om, nxt = one, one, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        while True:
            bound = limit // m
            alive = np.arange(m.size)
            pa = ps ** exps[0]
            kids = []
            for a in range(exps[0], exps[-1] + 1):
                cnt = np.searchsorted(pa, bound[alive], side="right") - nxt[alive]
                keep = cnt > 0
                alive, cnt = alive[keep], cnt[keep]
                if not alive.size:
                    break
                if num_a[a]:
                    parent = np.repeat(alive, cnt)
                    q = np.repeat(nxt[alive] - (np.cumsum(cnt) - cnt), cnt) + np.arange(cnt.sum())
                    kids.append((m[parent] * pa[q], num[parent] * num_a[a], om[parent] + 1, q + 1))
                fits = np.count_nonzero(pa <= limit // ps[: pa.size])  # p**(a+1) <= limit
                pa = pa[:fits] * ps[:fits]
            if not kids:
                break
            m, num, om, nxt = (np.concatenate(col) for col in zip(*kids))
            levels.append((m, num, om))
    # join and sort one column at a time, each freeing what it replaces
    cols = list(zip(*levels))
    del levels
    for i in range(3):
        cols[i] = np.concatenate(cols[i])
    order = np.argsort(cols[0])
    for i in range(3):
        cols[i] = cols[i][order]
    return tuple(cols)


def table_size(limit: int) -> int:
    """L, the largest y whose D(y) the k = 1 sum reads from a table: 2 * sqrt(limit).

    The table's strided adds cost about 100 ns an entry, while the formula
    costs about 1 ns a divisor plus some 10 us a call; near 2 * sqrt(N) the
    two balance for N from 1e10 to 1e12 (measured on a 2-core x86-64 host).
    """
    return min(limit, 2 * math.isqrt(limit))


def divisor_summatory_table(size: int) -> np.ndarray:
    """D(y) = sum_{n <= y} d(n) for y = 0..size, as int64.

    d(n) is counted over the divisor pairs i * j = n with i <= j: i = j adds
    one, i < j two, one strided slice per i <= sqrt(size); a cumsum in place
    then turns the counts into D.
    """
    d = np.zeros(size + 1, dtype=np.int64)
    for i in range(1, math.isqrt(size) + 1):
        d[i * i] += 1
        d[i * (i + 1) :: i] += 2
    return np.cumsum(d, out=d)


def divisor_summatory(y: int) -> int:
    """D(y) by the hyperbola formula 2 * sum_{i <= sqrt y} floor(y / i) - floor(sqrt y)**2."""
    s = math.isqrt(y)
    total = 0
    for lo in range(1, s + 1, FORMULA_CHUNK):
        total += int((y // np.arange(lo, min(lo + FORMULA_CHUNK, s + 1), dtype=np.int64)).sum())
    return 2 * total - s * s


def _check_int64_reach(params: ArithParams, limit: int) -> None:
    """Raise ResourceError when an int64 partial sum to ``limit`` could overflow.

    Each is at most k**W * sum_m G(x / m) <= k**W * 2 * G(N), with
    D(y) <= y * (ln y + 1), and W the largest w with (p_1 * ... * p_w)**2 <= N,
    that is p_1 * ... * p_w <= isqrt(N).
    """
    k = int(params.k)
    w = max_omega(math.isqrt(limit))
    g_max = limit * (math.log(limit) + 2.0) if k == 1 else limit
    if k**w * _POWERFUL_RECIPROCALS * g_max >= 2**63:
        raise ResourceError(f"exact S(x) to x={limit} at k={k} could overflow its int64 sums")


def required_bytes(params: ArithParams, xs: Sequence[int]) -> float:
    """Peak memory of ``prefix_sums`` over the checkpoints xs, an upper estimate.

    h(m) != 0 only where every exponent of m is at least e0, the first a >= 2
    with h(p**a) != 0: 2 at k = 1, r + 1 at k = 2. Each such m is uniquely
    A**e0 * prod_{i<e0} B_i**(e0+i) with the B_i squarefree and pairwise
    coprime, so there are at most N**(1/e0) * prod_{i<e0} zeta(1 + i/e0)
    <= binom(2*e0 - 1, e0) * N**(1/e0) of them, as zeta(1 + x) <= 1 + 1/x.
    The count taken is the smaller of that and the count of all powerful m.

    Like ``prefix_sums``, raises ResourceError for an N = max(xs) past int64 reach.
    """
    limit = max(xs)
    _check_int64_reach(params, limit)
    num_a = h_numerators(params.r, int(params.k), params.r + 2)
    e0 = next(a for a in range(2, len(num_a)) if num_a[a])
    count = min(_POWERFUL_COUNT * math.isqrt(limit), math.comb(2 * e0 - 1, e0) * limit ** (1.0 / e0))
    root = _iroot(limit, e0)  # the prime sieve's reach
    need = POWERFUL_BYTES * (count + 1) + root  # plus the prime sieve's bytes
    need += 3 * TABLE_BYTES * FORMULA_CHUNK
    if params.k == 1:
        need += TABLE_BYTES * (table_size(limit) + 1)
    return need


def prefix_sums(params: ArithParams, xs: Sequence[int]) -> list[Fraction]:
    """Exact S(x) for each x in xs (each x >= 1), at k = 1 or k = 2."""
    limit = max(xs)
    _check_int64_reach(params, limit)
    k = int(params.k)
    m, num, om = powerful_support(params, limit)
    w_max = int(om.max())
    weight = num * k ** (w_max - om)  # h(m) = weight / k**w_max
    del num, om
    table = divisor_summatory_table(table_size(limit)) if k == 1 else None
    out = []
    for x in xs:
        n = int(np.searchsorted(m, x, side="right"))
        if table is None:
            total = int(np.dot(weight[:n], x // m[:n]))
        else:
            j = int(np.searchsorted(m, x // table.size, side="right"))  # x // m > L below j
            total = sum(
                int(wt) * divisor_summatory(x // mi) for wt, mi in zip(weight[:j].tolist(), m[:j].tolist())
            )
            total += int(np.dot(weight[j:n], table[x // m[j:n]]))
        out.append(Fraction(total, k**w_max))
    return out
