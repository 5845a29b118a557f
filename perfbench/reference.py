"""Independent reference for the summatory function, written from the definitions.

For n = prod p**a the studied value is d(minpow_r(n)) / k**omega(n) with
d(minpow_r(n)) = prod (ceil(a/r) + 1).  This module never imports meanval.
It factors every n <= N by striding over the primes p <= sqrt(N) (dividing
the known part out of a running cofactor); whatever cofactor is left above 1
is a single prime > sqrt(N), which contributes a factor 2 and one to omega.

``class_totals`` returns the exact integer totals
T_w(x) = sum_{n <= x, omega(n) = w} d(minpow_r(n)), so that for any weight k
S(x) = sum_w T_w(x) * k**-w exactly.

The benchmark runs it as a separate process, so that its arrays never count
toward the peak RSS the benchmark reads for meanval's processes:
    python3 perfbench/reference.py totals --r 2 --N 30000000 --x 1000,30000000
    python3 perfbench/reference.py series --r 3 --k 2 --s 2 --N 10000000
    python3 perfbench/reference.py prime-sum --r 3 --k 1.5 --P 30000000
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np


def small_primes(limit: int) -> list[int]:
    """Primes <= limit by trial division against the primes found so far."""
    out: list[int] = []
    for n in range(2, limit + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def factor_tables(r: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """counts[n] = d(minpow_r(n)) and omegas[n] = omega(n) for 0 <= n <= limit."""
    counts = np.ones(limit + 1, dtype=np.int32)
    omegas = np.zeros(limit + 1, dtype=np.int8)
    cof = np.arange(limit + 1, dtype=np.int32)
    for p in small_primes(math.isqrt(limit)):
        # v[i] = exponent of p in n = p*(i+1)
        v = np.ones(limit // p, dtype=np.int8)
        q = p
        while q * p <= limit:
            v[q - 1 :: q] += 1  # n divisible by p*q
            q *= p
        a_max = int(v.max())
        factor = np.array([0] + [-(-a // r) + 1 for a in range(1, a_max + 1)], dtype=np.int32)
        power = np.array([p**a for a in range(a_max + 1)], dtype=np.int32)
        counts[p::p] *= factor[v]
        omegas[p::p] += 1
        cof[p::p] //= power[v]
    big = np.flatnonzero(cof > 1)  # exactly one prime factor > sqrt(limit), to the first power
    counts[big] *= 2
    omegas[big] += 1
    counts[0] = 0
    return counts, omegas


def class_totals(r: int, limit: int, xs: list[int]) -> dict[int, list[int]]:
    """{x: [T_0(x), ..., T_W(x)]} for every checkpoint x in 1..limit."""
    counts, omegas = factor_tables(r, limit)
    width = int(omegas.max()) + 1
    assert int(counts.sum(dtype=np.int64)) < 2**53  # float64 bincount weights stay exact
    running = np.zeros(width, dtype=np.int64)
    out = {}
    lo = 1
    for x in sorted(set(xs)):
        if not 1 <= x <= limit:
            raise ValueError(f"checkpoint {x} outside 1..{limit}")
        part = np.bincount(omegas[lo : x + 1], weights=counts[lo : x + 1], minlength=width)
        running += np.rint(part).astype(np.int64)
        out[x] = [int(t) for t in running]
        lo = x + 1
    return out


def dirichlet_series(r: int, k: float, s: float, limit: int) -> float:
    """sum_{n <= limit} d(minpow_r(n)) k**-omega(n) n**-s, summed with math.fsum."""
    counts, omegas = factor_tables(r, limit)
    n = np.arange(1, limit + 1, dtype=np.float64)
    terms = counts[1:] * np.power(float(k), -omegas[1:].astype(np.float64)) * n**-s
    return math.fsum(terms)


def prime_log_derivative_sum(r: int, k: float, cutoff: int) -> float:
    """sum_{p <= cutoff} d/ds ln(1 - 1/(k (p**(r s) + p**((r-1) s)))) at s = 1.

    With u = k (p**r + p**(r-1)) the derivative is u' / (u (u - 1)),
    u' = k ln(p) (r p**r + (r-1) p**(r-1)).
    """
    composite = np.zeros(cutoff + 1, dtype=bool)
    composite[:2] = True
    for p in small_primes(math.isqrt(cutoff)):
        composite[p * p :: p] = True
    p = np.flatnonzero(~composite).astype(np.float64)
    u = k * (p**r + p ** (r - 1))
    du = k * np.log(p) * (r * p**r + (r - 1) * p ** (r - 1))
    return math.fsum(du / (u * (u - 1.0)))


def main() -> None:
    ap = argparse.ArgumentParser(description="Independent reference values for the benchmark checks.")
    sub = ap.add_subparsers(dest="what", required=True)
    p = sub.add_parser("totals", help="class totals T_w(x) at checkpoints, as JSON {x: [T_0, ...]}")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--x", required=True, help="comma-separated checkpoints")
    p = sub.add_parser("series", help="Dirichlet series partial sum at s")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p = sub.add_parser("prime-sum", help="prime sum of the log-factor derivatives at s = 1")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--P", type=int, required=True)
    args = ap.parse_args()
    if args.what == "totals":
        xs = [int(t) for t in args.x.split(",")]
        print(json.dumps({str(x): t for x, t in class_totals(args.r, args.N, xs).items()}))
    elif args.what == "series":
        print(repr(dirichlet_series(args.r, args.k, args.s, args.N)))
    else:
        print(repr(prime_log_derivative_sum(args.r, args.k, args.P)))


if __name__ == "__main__":
    main()
