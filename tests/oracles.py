"""Independent oracles used to derive expected values.

Everything here is deliberately written from scratch against the definitions
(trial division, divisor scans, brute-force minima, textbook limits) and
never calls into the package, so a test comparing the two sides is a real
cross-check rather than a tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def trial_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            a = 0
            while m % d == 0:
                m //= d
                a += 1
            out.append((d, a))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def count_divisors_scan(n: int) -> int:
    """Divisor count by scanning the divisors up to sqrt(n)."""
    count = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            count += 1 if i * i == n else 2
        i += 1
    return count


def omega_scan(n: int) -> int:
    return len(trial_factorize(n))


def brute_minimal_power(n: int, r: int) -> int:
    """Least m with n | m**r, by scanning m = 1, 2, ..."""
    m = 1
    while pow(m, r, n) != 0:
        m += 1
    return m


def brute_minimal_power_sweep(limit: int, r: int) -> np.ndarray:
    """Brute minima for every n <= limit, scanning m in [1, n] per n."""
    out = np.zeros(limit + 1, dtype=np.int64)
    out[1] = 1
    for n in range(2, limit + 1):
        m = np.arange(1, n + 1, dtype=np.int64)
        hits = (m**r) % n == 0
        out[n] = 1 + int(np.argmax(hits))
    return out


def studied_value_exact(n: int, r: int, k: int | Fraction) -> Fraction:
    """d(min power) / k**omega(n) straight from the definitions.

    ``k`` is an int or a Fraction, such as Fraction(1.5) for a float weight.
    """
    mp = brute_minimal_power(n, r)
    return Fraction(count_divisors_scan(mp), k ** omega_scan(n))


def enumerated_sum(limit: int, r: int, k: int | Fraction) -> Fraction:
    return sum((studied_value_exact(n, r, k) for n in range(1, limit + 1)), Fraction(0))


def prime_count(limit: int) -> int:
    """pi(limit) by a plain byte sieve."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return sum(sieve)


def smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[n] for 0..limit (spf[0] = 0, spf[1] = 1), ascending primes first-come."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    unmarked = np.flatnonzero(spf == 0)
    spf[unmarked] = unmarked
    return spf


def primes_list(limit: int) -> list[int]:
    sieve = bytearray([1]) * max(limit + 1, 2)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if sieve[i]]


def primes_by_trial_division(limit: int) -> np.ndarray:
    """The n in 2..limit that no d in 2..sqrt(limit) other than n divides.

    Each d is tried on all the n left at once.
    """
    left = np.arange(2, max(limit + 1, 2), dtype=np.int64)
    for d in range(2, math.isqrt(limit) + 1):
        left = left[(left % d != 0) | (left == d)]
    return left


EULER_GAMMA = 0.57721566490153286060651209008240243104
GLAISHER = 1.28242712910062263687534256886979172777


def zeta_prime_2_closed_form() -> float:
    """zeta'(2) via the Glaisher-Kinkelin constant.

    zeta'(2) = (pi**2 / 6) * (gamma + ln(2*pi) - 12*ln(lambda)).
    """
    return (math.pi**2 / 6.0) * (
        EULER_GAMMA + math.log(2.0 * math.pi) - 12.0 * math.log(GLAISHER)
    )


def accelerated_gamma(m: int = 10**5) -> float:
    """Euler-Mascheroni via the harmonic limit with series acceleration."""
    h = math.fsum(1.0 / j for j in range(1, m + 1))
    return h - math.log(m) - 1.0 / (2 * m) + 1.0 / (12 * m**2) - 1.0 / (120 * m**4)


def weighted_geometric_sum(z: float, terms: int | None = None) -> float:
    """sum_{a>=1} (a+1) z^a = 1/(1-z)**2 - 1 (derivative of the geometric series)."""
    if terms is None:
        return 1.0 / (1.0 - z) ** 2 - 1.0
    return math.fsum((a + 1) * z**a for a in range(1, terms + 1))


def expand_numerators(r: int, k: Fraction) -> tuple[dict, dict]:
    """Degree -> coefficient maps for the two candidate local-factor numerators.

    Built by explicit term-by-term expansion (dict-based, unlike the package's
    list convolution): P1 = k(1-z)(1-z^r) + z(2-z^r), P2 = k(1+z) - z^r.
    """
    p1: dict[int, Fraction] = {}

    def add(poly: dict, deg: int, coef: Fraction) -> None:
        poly[deg] = poly.get(deg, Fraction(0)) + coef

    # k * (1 - z - z^r + z^(r+1))
    add(p1, 0, k)
    add(p1, 1, -k)
    add(p1, r, -k)
    add(p1, r + 1, k)
    # + 2z - z^(r+1)
    add(p1, 1, Fraction(2))
    add(p1, r + 1, Fraction(-1))

    p2: dict[int, Fraction] = {}
    add(p2, 0, k)
    add(p2, 1, k)
    add(p2, r, Fraction(-1))
    return (
        {d: c for d, c in p1.items() if c},
        {d: c for d, c in p2.items() if c},
    )


def partial_product_leading(r: int, k: float, cutoff: int) -> tuple[float, float]:
    """Independent truncated product for the x*ln(x) coefficient, with a tail interval.

    Returns (value, tail) where the infinite product lies in
    [value * exp(-tail), value].
    """
    zr = math.fsum(float(n) ** -r for n in range(1, 200000)) + (200000.0) ** (1 - r) / (r - 1)
    prod = 6.0 * zr / math.pi**2
    for p in primes_list(cutoff):
        prod *= 1.0 - 1.0 / (k * (float(p) ** r + float(p) ** (r - 1)))
    tail = cutoff ** (1 - r) / ((r - 1) * k) * 2.0
    return prod, tail
