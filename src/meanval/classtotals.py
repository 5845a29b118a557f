"""Exact omega-class totals T_w(x) at many x, in about x**(3/4) time.

T_w(x) is the sum of g(n) = d(minpow_r(n)) over the n <= x with omega(n) = w.
Every weight k is one exact rational from them: S(x) = sum_w T_w(x) / k**w,
which ``prefix_sums`` forms for any k, since a float k is a binary rational.
g is multiplicative, with g(p**a) = c[a] = ceil(a/r) + 1 and g(p) = 2.

All the sums are taken over V, the union of {x // i : i >= 1} over the
checkpoints x. V is closed under floor division (x // i // j = x // (i*j)),
so every value the recursions below read is in it. The steps are:

1. Lucy's method (Lucy_Hedgehog, Project Euler problem 10 thread): pi(v) for
   every v in V. Start from v - 1 and, for each prime p <= sqrt(max V),
   remove from each v >= p**2 the numbers whose least prime factor is p.
2. The second phase of the min_25 sieve, over the primes in descending
   order. R[v, w] holds 2 * pi(v) at w = 1, the primes, plus the total of g
   over the composite n <= v with omega(n) = w whose least prime factor is
   at least the current p. A prime p adds, for each v >= p**2 and each
   e >= 1 with p**(e+1) <= v, the numbers p**e * m with least prime factor
   of m above p, c[e] * (R[v // p**e] - 2 * pi(p) at w = 1), one class up,
   and p**(e+1) itself, c[e+1] at w = 1. Every read is of the table before
   p's step: the v are taken from the top down, in blocks whose reads all
   fall below the block. Only the classes such an m can reach are gathered:
   for p above x**(1/3), class 1 alone.

Then T(x) is R[x] plus n = 1 in class 0. Each T_w(x) is at most
D(x) <= x * (ln x + 1), the divisor sum, since g(n) <= d(n); every entry of
R stays below it, so the sums are exact int64 while that bound is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arith import ArithParams, max_omega, minpow_divisor_counts
from .errors import ResourceError
from .primes import primes_up_to

__all__ = ["class_totals", "floor_values", "prefix_sums", "required_bytes"]

# peak bytes per entry joined into V (an upper bound on its size), per class
# w = 1..W: the class table and the rows a step gathers, int64 each
CLASS_BYTES = 16
# and besides: V and pi(v), the quotient, index and gathered arrays of a
# step, and the union's join and sort; tracemalloc measures 90 to 130 B per
# entry of V in all, for W = 6 to 9
VALUE_BYTES = 64
BUDGET_DETAIL = f"{VALUE_BYTES} B plus {CLASS_BYTES} B per omega class for each floor value x // i"


def _check_int64_reach(top: int) -> None:
    """Raise ResourceError when a class total to ``top`` could overflow int64.

    A top of 2**63 or more is past reach before any float is formed."""
    if top >= 2**63 or top * (math.log(top) + 1.0) >= 2**63:
        raise ResourceError(f"class totals to x={top} could overflow their int64 sums")


def required_bytes(params: ArithParams, xs: Sequence[int]) -> float:
    """Peak memory of ``prefix_sums`` over the checkpoints xs, an upper estimate.

    It does not depend on params. Like ``class_totals``, raises ResourceError
    past int64 reach.
    """
    top = max(xs)
    _check_int64_reach(top)
    count = math.isqrt(top) + sum(math.isqrt(x) for x in xs)  # as ``floor_values`` joins them
    return count * (VALUE_BYTES + CLASS_BYTES * max(max_omega(top), 1)) + 8 * math.isqrt(top)


def floor_values(xs: Sequence[int]) -> np.ndarray:
    """V: the sorted union of {x // i : i >= 1} over xs, without 0, as int64.

    It holds every integer to sqrt(max xs) (which covers each x // i with
    i > sqrt(x)) and the x // i with i <= sqrt(x); so V[j] = j + 1 for
    j < sqrt(max xs).
    """
    parts = [np.arange(1, math.isqrt(max(xs)) + 1, dtype=np.int64)]
    parts += [x // np.arange(1, math.isqrt(x) + 1, dtype=np.int64) for x in xs]
    values = np.sort(np.concatenate(parts))  # then equal neighbours go: np.unique hashes, ~10x slower
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def class_totals(r: int, xs: Sequence[int]) -> np.ndarray:
    """T_w(x) for each x in xs (each x >= 1) and w = 0..W, as an int64 array.

    Row i is x = xs[i]; W is the largest omega(n) over n <= max(xs), or 1.
    """
    _check_int64_reach(max(xs))
    values = floor_values(xs)
    top = int(values[-1])
    primes = primes_up_to(math.isqrt(top)).tolist()

    small = math.isqrt(top)  # values[j] == j + 1 for j < small
    upper = values[small:]

    def at(v):
        """The first index i with values[i] >= v, for a v >= 1 or an ascending array of them.

        Below sqrt(top) that is v - 1; only the part above is searched.
        """
        if isinstance(v, (int, np.integer)):  # a NumPy integer too: xs may be an array
            return v - 1 if v <= small else small + int(upper.searchsorted(v))
        cut = int(v.searchsorted(small, side="right"))
        return np.concatenate((v[:cut] - 1, small + upper.searchsorted(v[cut:])))

    pi = values - 1
    for p in primes:
        lo = at(p * p)
        pi[lo:] -= pi[at(values[lo:] // p)] - pi[p - 2]  # values[p - 2] == p - 1

    w_max = max(max_omega(top), 1)
    c = minpow_divisor_counts(r, top.bit_length() + 2)
    table = np.zeros((w_max, values.size), dtype=np.int64)  # row w - 1 holds class w
    table[0] = 2 * pi
    del pi
    for p in reversed(primes):
        two_pi_p = int(table[0, p - 1])  # values[p - 1] == p, not updated before p's step
        # from the top down, in blocks [a, hi) whose reads v // p**e all fall
        # below a: so a block reads the table as it was before p's step
        lo, hi = at(p * p), values.size
        while hi > lo:
            v_hi = int(values[hi - 1])
            a = max(lo, at(v_hi // p + 1))
            e, pe = 1, p
            while pe * p <= v_hi:
                start = max(a, at(pe * p))
                # an m <= v_hi // pe with least prime factor above p has
                # omega(m) <= w, the largest w with (p + 1)**w <= v_hi // pe;
                # p**e * m is one class up
                w, q = 0, p + 1
                while w < w_max - 1 and q <= v_hi // pe:
                    w, q = w + 1, q * (p + 1)
                rows = table[:w].take(at(values[start:hi] // pe), axis=1)
                rows[:1] -= two_pi_p  # only the primes above p
                rows *= c[e]
                table[1 : w + 1, start:hi] += rows
                table[0, start:hi] += c[e + 1]
                e, pe = e + 1, pe * p
            hi = a
    totals = np.zeros((len(xs), w_max + 1), dtype=np.int64)
    totals[:, 0] = 1  # n = 1
    totals[:, 1:] = table[:, [at(x) for x in xs]].T
    return totals


def prefix_sums(params: ArithParams, xs: Sequence[int]) -> list[Fraction]:
    """Exact S(x) = sum_w T_w(x) / k**w for each x in xs (each x >= 1), at any k.

    With k = a/b in lowest terms and W the top class, S(x) is
    sum_w T_w(x) * b**w * a**(W - w) / a**W: one integer dot product per x.
    """
    a, b = Fraction(params.k).as_integer_ratio()  # exact: every float is a binary rational
    rows = class_totals(params.r, xs).tolist()
    top = len(rows[0]) - 1
    weights = [b**w * a ** (top - w) for w in range(top + 1)]
    return [Fraction(sum(t * v for t, v in zip(row, weights)), a**top) for row in rows]
